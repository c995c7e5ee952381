"""Generator signals against their own closed-form ground truth."""
import numpy as np
import pytest

from sinemodel.errors import UsageError
from sinemodel.generators import (AMFMSpec, ChirpSpec, DampedSumSpec,
                                  default_damped_spec, gen_amfm,
                                  gen_damped_sum, gen_stationary_plus_chirp)

FS = 16000.0


# ---------------------------------------------------------------------------
# stationary + chirp
# ---------------------------------------------------------------------------

def test_chirp_length_and_track_consistency():
    sig, track = gen_stationary_plus_chirp(ChirpSpec())
    assert len(sig) == 32000
    # the track is the exact per-sample truth of the signal
    np.testing.assert_allclose(sig.samples,
                               track.amps * np.cos(track.phases), atol=1e-12)


def test_chirp_junction_continuity():
    spec = ChirpSpec()
    sig, track = gen_stationary_plus_chirp(spec)
    n1 = 16000
    assert track.amps[n1] == pytest.approx(1.0)
    # phase advances smoothly across the junction at ~100 Hz
    step = track.phases[n1] - track.phases[n1 - 1]
    assert step == pytest.approx(2 * np.pi * 100.0 / FS, rel=1e-2)
    assert track.freqs[n1 - 1] == pytest.approx(100.0)
    assert track.freqs[-1] == pytest.approx(1000.0, rel=1e-3)


def test_chirp_envelope_direction():
    grow, _ = gen_stationary_plus_chirp(ChirpSpec())
    decay, _ = gen_stationary_plus_chirp(ChirpSpec(damping=2.0))
    # default envelope exp(2t) grows toward ~e^2; a positive damping decays
    assert ChirpSpec().damping == -2.0
    assert np.max(np.abs(grow.samples[-400:])) > 5.0
    assert np.max(np.abs(decay.samples[-400:])) < 0.2


# ---------------------------------------------------------------------------
# AM-FM sum
# ---------------------------------------------------------------------------

def test_amfm_tracks_reconstruct_signal():
    sig, tracks = gen_amfm(AMFMSpec())
    assert len(tracks) == 10
    total = sum(tr.amps * np.cos(tr.phases) for tr in tracks)
    np.testing.assert_allclose(sig.samples, total, atol=1e-10)


def test_amfm_frequency_is_phase_derivative():
    sig, tracks = gen_amfm(AMFMSpec())
    for tr in (tracks[0], tracks[-1]):
        dphi = np.gradient(tr.phases, 1.0 / FS) / (2 * np.pi)
        # central differences; interior samples only
        assert np.max(np.abs(dphi[2:-2] - tr.freqs[2:-2])) < 1.0


def test_amfm_amplitudes_follow_spec_family():
    _, tracks = gen_amfm(AMFMSpec(seed=4))
    for k, tr in enumerate(tracks, start=1):
        a = tr.amps[0]
        assert 0.5 <= a <= 0.5 + 1.0 / k
        assert np.all(tr.amps == a)  # constant per partial


def test_amfm_seeding():
    a, _ = gen_amfm(AMFMSpec(seed=1))
    b, _ = gen_amfm(AMFMSpec(seed=1))
    c, _ = gen_amfm(AMFMSpec(seed=2))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_specs_reject_a_rate_or_duration_that_is_not_positive_and_finite(bad):
    comps = ((1.0, 1.0, 440.0, 0.0),)
    for make, name in ((lambda v: ChirpSpec(fs=v), "fs"),
                       (lambda v: ChirpSpec(stationary_duration=v), "stationary_duration"),
                       (lambda v: ChirpSpec(chirp_duration=v), "chirp_duration"),
                       (lambda v: AMFMSpec(fs=v), "fs"),
                       (lambda v: AMFMSpec(duration=v), "duration"),
                       (lambda v: DampedSumSpec(components=comps, fs=v), "fs"),
                       (lambda v: DampedSumSpec(components=comps, duration=v), "duration")):
        with pytest.raises(UsageError, match=f"^{name} must be positive and finite"):
            make(bad)


@pytest.mark.parametrize("field", ["stationary_freq", "chirp_f_end"])
@pytest.mark.parametrize("bad", [0.0, -100.0, 8000.0, 9000.0, float("nan"), float("inf")])
def test_chirp_spec_rejects_a_frequency_outside_the_band(field, bad):
    with pytest.raises(UsageError, match=rf"^{field} .* outside \(0, fs/2\)"):
        ChirpSpec(fs=16000.0, **{field: bad})
    ChirpSpec(fs=16000.0, **{field: 7999.0})   # just below Nyquist is fine


def test_amfm_validation():
    with pytest.raises(UsageError):
        AMFMSpec(n_partials=0)
    with pytest.raises(UsageError):  # highest partial at or above Nyquist
        AMFMSpec(n_partials=60, f0=150.0, fs=16000.0)


# ---------------------------------------------------------------------------
# damped sums
# ---------------------------------------------------------------------------

def test_damped_sum_matches_closed_form():
    spec = DampedSumSpec(components=((0.8, 3.0, 440.0, 0.5),), duration=0.25, fs=FS)
    sig, truth = gen_damped_sum(spec)
    t = np.arange(len(sig)) / FS
    np.testing.assert_allclose(
        sig.samples, 0.8 * np.exp(-3.0 * t) * np.cos(2 * np.pi * 440.0 * t + 0.5),
        atol=1e-14)
    assert truth.delta[0] == pytest.approx(-3.0 / FS)
    assert truth.freq_hz[0] == 440.0
    (frame,) = truth
    assert frame[:3] == (0, len(sig), 2)
    assert frame.components.tolist() == [[440.0, 0.8, 0.5, -3.0 / FS]]


def test_default_damped_spec_structure():
    spec = default_damped_spec(seed=0)
    assert len(spec.components) == 6
    for k, (a, d, f, phi) in enumerate(spec.components, start=1):
        assert a == pytest.approx(0.4 / k)
        assert d == 4.0
        assert abs(f - 180.0 * k) <= 3.0
        assert -np.pi <= phi <= np.pi
    # seeded: reproducible
    assert default_damped_spec(seed=0) == default_damped_spec(seed=0)
    assert default_damped_spec(seed=1) != default_damped_spec(seed=0)


def test_damped_sum_validation():
    with pytest.raises(UsageError):
        DampedSumSpec(components=())
    with pytest.raises(UsageError):
        DampedSumSpec(components=((0.0, 1.0, 440.0, 0.0),))
    with pytest.raises(UsageError):
        DampedSumSpec(components=((1.0, 1.0, 9000.0, 0.0),), fs=FS)
