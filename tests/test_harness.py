"""Sweep and comparison harness plumbing."""
import itertools
import threading

import numpy as np
import pytest

from sinemodel import audio_io, eaqhm, harness, sm
from sinemodel.core import PartialTrack, SampledSignal
from sinemodel.eaqhm import ADAPT_WINDOW_KIND, EaQHMConfig
from sinemodel.edsm import EDSMConfig, EDSMFrames, full_band_orders
from sinemodel.errors import AnalysisError, UsageError
from sinemodel.harness import (MODEL_TABLE, MODELS, PITCH_BAND_HZ, ComparisonRow,
                               SRERCurve, SweepCell, SweepSpec, _frame_param_count,
                               _track_param_count, export, generate_standins,
                               parse_multiples, run_comparison, run_window_sweep,
                               sweep_window_samples)
from sinemodel.pitch import F0Track, estimate_f0
from sinemodel.sm import SMConfig

FS = 16000.0


# ---------------------------------------------------------------------------
# specs and helpers
# ---------------------------------------------------------------------------

def test_sweep_window_samples():
    # odd, and covering at least the requested span
    assert sweep_window_samples(2.0, 1.0 / 150.0, FS) == 215
    assert sweep_window_samples(0.5, 1.0 / 150.0, FS) == 55
    for m in (0.5, 1.0, 1.7, 3.0):
        w = sweep_window_samples(m, 0.01, FS)
        assert w % 2 == 1
        assert w >= m * 0.01 * FS


def test_parse_multiples():
    assert parse_multiples("0.5:0.5:2") == (0.5, 1.0, 1.5, 2.0)
    assert parse_multiples("1,2,3.5") == (1.0, 2.0, 3.5)
    with pytest.raises(UsageError):
        parse_multiples("abc")
    with pytest.raises(UsageError):
        parse_multiples("1:0:2")


def test_sweep_spec_validation():
    with pytest.raises(UsageError):
        SweepSpec(source="amfm", multiples=(2.0, 1.0))
    with pytest.raises(UsageError, match="strictly ascending"):  # a repeated cell
        SweepSpec(source="amfm", multiples=parse_multiples("1,1,2"))
    with pytest.raises(UsageError):
        SweepSpec(source="amfm", multiples=(0.0, 1.0))
    with pytest.raises(UsageError):
        SweepSpec(source="amfm", multiples=())
    with pytest.raises(UsageError):
        SweepSpec(source="amfm", models=("sm", "fm"))
    with pytest.raises(UsageError):
        SweepSpec(source="amfm", t_min_s=0.0)
    for bad in (float("nan"), float("inf"), -0.01):
        with pytest.raises(UsageError, match="t_min_s must be positive and finite"):
            SweepSpec(source="amfm", t_min_s=bad)
    # NaN slipped past both comparisons, and a sweep then raised a bare
    # ValueError or OverflowError
    nan, inf = float("nan"), float("inf")
    for bad in ((nan,), (1.0, inf), (1.0, nan), (nan, 1.0), (inf,), (1.0, nan, 2.0)):
        with pytest.raises(UsageError, match="finite"):
            SweepSpec(source="amfm", multiples=bad)


def test_sweep_cell_status_validation():
    with pytest.raises(UsageError):
        SweepCell(model="sm", multiple=1.0, srer_db=None, status="mystery")


def test_curve_accessor():
    curve = SRERCurve(rows=(SweepCell(model="sm", multiple=1.0, srer_db=10.0,
                                      status="ok"),))
    assert curve.cell("sm", 1.0).srer_db == 10.0
    with pytest.raises(KeyError):
        curve.cell("sm", 2.0)


def test_param_count_convention():
    tr = PartialTrack(times=[0.0, 0.01], amps=[1, 1], freqs=[100, 100],
                      phases=[0, 0])
    frames = EDSMFrames.from_frames([
        (0, 100, 4, [(100.0, 1.0, 0.0, 0.0), (200.0, 1.0, 0.0, 0.0)]), (100, 50, 0, [])])
    # 3 per track anchor vs 4 per damped component: one extra per partial
    assert _track_param_count([tr]) == 6
    assert _frame_param_count(frames) == 8


# ---------------------------------------------------------------------------
# sweep runner
# ---------------------------------------------------------------------------

def test_sweep_rows_ordered_and_ok():
    spec = SweepSpec(source="chirp", models=("sm", "edsm"), multiples=(0.5, 1.0))
    curve = run_window_sweep(spec)
    assert [(r.model, r.multiple) for r in curve.rows] == [
        ("sm", 0.5), ("sm", 1.0), ("edsm", 0.5), ("edsm", 1.0)]
    assert all(r.status == "ok" and r.srer_db > 0 for r in curve.rows)


def test_sweep_deterministic_for_spectral_model():
    spec = SweepSpec(source="chirp", models=("sm",), multiples=(1.0,))
    a = run_window_sweep(spec)
    b = run_window_sweep(spec)
    assert a.rows[0].srer_db == b.rows[0].srer_db


def test_sweep_marks_adaptive_cells_below_conditioning_bound():
    spec = SweepSpec(source="amfm", models=("eaqhm",), multiples=(0.5,))
    curve = run_window_sweep(spec)
    cell = curve.rows[0]
    assert cell.status == "ill_conditioned"
    assert cell.srer_db is None


def test_sweep_isolates_failing_cells(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "noise.wav"
    audio_io.write_wav(path, SampledSignal(samples=rng.normal(0, 0.1, 8000), fs=FS))
    spec = SweepSpec(source=str(path), models=("sm", "eaqhm"), multiples=(1.0,),
                     t_min_s=0.01)
    curve = run_window_sweep(spec)
    assert curve.cell("sm", 1.0).status == "ok"
    assert curve.cell("eaqhm", 1.0).status == "failed"
    assert curve.cell("sm", 1.0).error is None
    assert curve.cell("eaqhm", 1.0).error.startswith("AnalysisError: ")


_INJECTED = "injected: frame 7 has no poles, so no fit"


def _inject_edsm_failure(monkeypatch):
    def fail(signal, cfg):
        raise AnalysisError(_INJECTED)

    monkeypatch.setattr(harness, "edsm_analyze", fail)


def test_failed_sweep_cell_exports_its_error(monkeypatch, tone_wav, tmp_path):
    import csv
    import json

    _inject_edsm_failure(monkeypatch)
    curve = run_window_sweep(SweepSpec(source=str(tone_wav), models=("sm", "edsm"),
                                       multiples=(1.0,), t_min_s=0.01))
    cell = curve.cell("edsm", 1.0)
    assert (cell.status, cell.srer_db) == ("failed", None)
    assert cell.error == f"AnalysisError: {_INJECTED}"
    export(curve, tmp_path / "c.csv")
    export(curve, tmp_path / "c.json")
    with open(tmp_path / "c.csv", newline="") as fh:
        rows = {r["model"]: r for r in csv.DictReader(fh)}
    assert rows["edsm"]["error"] == f"AnalysisError: {_INJECTED}"
    assert rows["sm"]["error"] == "" and rows["sm"]["status"] == "ok"
    rows = {r["model"]: r for r in json.loads((tmp_path / "c.json").read_text())["rows"]}
    assert rows["edsm"]["error"] == f"AnalysisError: {_INJECTED}"
    assert rows["sm"]["error"] is None


def test_failed_comparison_model_exports_its_error(monkeypatch, tmp_path):
    import csv
    import json

    _inject_edsm_failure(monkeypatch)
    row = run_comparison([_tone_wav(tmp_path, FS)], models=("sm", "edsm"))[0]
    assert row.status == "ok" and row.srer_db["edsm"] is None and row.srer_db["sm"] > 0
    assert row.errors == {"edsm": f"AnalysisError: {_INJECTED}"}
    export([row], tmp_path / "t.csv")
    export([row], tmp_path / "t.json")
    with open(tmp_path / "t.csv", newline="") as fh:
        (got,) = csv.DictReader(fh)
    assert got["edsm_error"] == f"AnalysisError: {_INJECTED}" and got["sm_error"] == ""
    (got,) = json.loads((tmp_path / "t.json").read_text())["rows"]
    assert got["errors"] == {"edsm": f"AnalysisError: {_INJECTED}"}


def test_sweep_runs_cells_in_spec_order_on_the_calling_thread(monkeypatch, tone_wav):
    calls = []

    def record(signal, f0track, model, multiple, *rest):
        calls.append((model, multiple, threading.get_ident()))
        return SweepCell(model=model, multiple=multiple, srer_db=1.0, status="ok")

    monkeypatch.setattr(harness, "_sweep_cell", record)
    spec = SweepSpec(source=str(tone_wav), models=("edsm", "sm"),
                     multiples=(1.0, 2.0, 3.0), t_min_s=0.01)
    curve = run_window_sweep(spec)
    order = [(m, x) for m in spec.models for x in spec.multiples]
    assert [(c[0], c[1]) for c in calls] == order
    assert {c[2] for c in calls} == {threading.get_ident()}
    assert [(r.model, r.multiple) for r in curve.rows] == order


def test_sweep_sizes_windows_from_the_wav_rate(monkeypatch, tmp_path):
    fs = 44100.0
    t = np.arange(int(0.5 * fs)) / fs
    path = tmp_path / "tone44k.wav"
    audio_io.write_wav(path, SampledSignal(
        samples=0.5 * np.cos(2 * np.pi * 150.0 * t), fs=fs))
    windows = []

    def record(model, signal, f0track, cfg):
        windows.append((model, cfg.window_samples))
        return 10.0, None, None, 0

    monkeypatch.setattr(harness, "run_model", record)
    spec = SweepSpec(source=str(path), models=MODELS, multiples=(1.0, 2.0),
                     t_min_s=0.01)
    run_window_sweep(spec)
    # 1 and 2 periods of 10 ms at 44.1 kHz, rounded up to odd counts
    assert windows == [(m, w) for m in MODELS for w in (443, 883)]


def _reference_sweep_config(model, signal, f0track, w, t_min, count):
    # the sweep configs as literals, with None for the model's default count
    if model == "sm":
        return SMConfig(window_samples=w, window_kind="hamming", hop_ms=1.0,
                        max_peaks=100 if count is None else count)
    if model == "edsm":
        order = full_band_orders(f0track, signal, w) if count is None else count
        return EDSMConfig(window_samples=w, order=order, rank_rtol=0.0)
    return EaQHMConfig(hop_ms=1.0, window_samples=w, init_window_kind="hamming",
                       max_partials=count, f_guard_hz=1.0 / t_min)


@pytest.mark.parametrize("source, t_min, counts", [
    ("chirp", 0.01, {"sm": 1, "edsm": 1, "eaqhm": 1}),
    ("amfm", 1.0 / 150.0, {"sm": 10, "edsm": None, "eaqhm": None}),
    ("wav", 0.01, {"sm": None, "edsm": None, "eaqhm": None}),
])
def test_sweep_configs_match_the_literal_reference(monkeypatch, tone_wav, source,
                                                   t_min, counts):
    seen = []

    def record(model, signal, f0track, cfg):
        w = cfg.window_samples
        ref = _reference_sweep_config(model, signal, f0track, w, t_min, counts[model])
        seen.append((model, w, cfg == ref))
        return 10.0, None, None, 0

    monkeypatch.setattr(harness, "run_model", record)
    spec = SweepSpec(source=str(tone_wav) if source == "wav" else source,
                     multiples=(1.0, 2.5), t_min_s=0.01 if source == "wav" else None)
    run_window_sweep(spec)
    assert seen == [(m, sweep_window_samples(x, t_min, FS), True)
                    for m in MODELS for x in (1.0, 2.5)]


def test_analyze_window_floors():
    # sm has none; edsm frames are at least 8 samples, eaqhm windows 9 and odd
    assert [MODEL_TABLE["sm"].window_floor(w) for w in (2, 20)] == [2, 20]
    assert [MODEL_TABLE["edsm"].window_floor(w) for w in (4, 20)] == [8, 20]
    assert [MODEL_TABLE["eaqhm"].window_floor(w) for w in (4, 20, 21)] == [9, 21, 21]


@pytest.mark.parametrize("partials", [{"foo": 1}, {"sm": 0}, {"edsm": 0}, {"eaqhm": -1},
                                      {"edsm": 2.5}, {"sm": 1.0}, {"sm": True}])
def test_sweep_spec_rejects_bad_partial_counts(partials):
    # None is the only "default" count; 0 peaks or sinusoids is no model, and
    # an unknown model key or a fractional count was once silently ignored
    # or truncated, and True ran as 1
    with pytest.raises(UsageError):
        SweepSpec(source="chirp", partials=partials)
    spec = SweepSpec(source="chirp", partials={"sm": np.int64(2), "edsm": None})
    assert spec.partials == {"sm": 2, "edsm": None}


def test_sweep_propagates_programming_errors(monkeypatch, tone_wav):
    def bug(*args):
        raise TypeError("bug in a model")

    monkeypatch.setattr(harness, "run_model", bug)
    with pytest.raises(TypeError, match="bug in a model"):
        run_window_sweep(SweepSpec(source=str(tone_wav), models=("sm",),
                                   multiples=(1.0,), t_min_s=0.01))


def test_sweep_wav_source_requires_t_min(tone_wav):
    with pytest.raises(UsageError):
        run_window_sweep(SweepSpec(source=str(tone_wav), models=("sm",),
                                   multiples=(1.0,)))


# ---------------------------------------------------------------------------
# comparison runner
# ---------------------------------------------------------------------------

def test_compare_configs_protocol(tone):
    f0t = estimate_f0(tone, f_min=70.0, f_max=400.0)
    sm_cfg, ed_cfg, ea_cfg = (MODEL_TABLE[m].config(tone, f0t, None, None) for m in MODELS)
    assert sm_cfg.window_samples is None and sm.WINDOW_MS == 30.0
    assert sm_cfg.window_kind == "hann"
    assert sm_cfg.max_peaks == 100 and sm_cfg.hop_ms == 1.0
    # the sm and eaqhm protocol settings are their config defaults
    assert sm_cfg == SMConfig() and ea_cfg == EaQHMConfig()
    assert ea_cfg.window_periods == 3.0
    assert ea_cfg.init_window_kind == "blackman"
    assert ADAPT_WINDOW_KIND == "hamming"
    assert ea_cfg.max_adaptations == 10
    # rectangular frames of 0.75 of the average pitch period, full-band order
    assert ed_cfg.window_samples == pytest.approx(0.75 * FS / 150.0, abs=1.0)
    assert all(k == int(FS / (2 * 150.0)) for k in ed_cfg.order)


def test_run_comparison_rows(tone_wav):
    rows = run_comparison([tone_wav], models=("sm", "edsm"))
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "ok"
    assert row.srer_db["edsm"] > 0 and row.srer_db["sm"] > 0
    assert row.param_counts["sm"] > 0 and row.param_counts["edsm"] > 0
    assert row.wall_time_s["sm"] > 0


def _tone_wav(tmp_path, fs, f0=300.0, seconds=0.2):
    t = np.arange(int(seconds * fs)) / fs
    path = tmp_path / f"tone_{int(fs)}.wav"
    audio_io.write_wav(path, SampledSignal(samples=0.5 * np.cos(2 * np.pi * f0 * t),
                                           fs=fs))
    return path


def test_run_comparison_analyzes_sm_at_96khz(tmp_path):
    # a 30 ms window is 2881 samples at 96 kHz: the FFT grows to 4096
    row = run_comparison([_tone_wav(tmp_path, 96000.0, seconds=0.1)], models=("sm",))[0]
    assert row.status == "ok"
    assert np.isfinite(row.srer_db["sm"]) and row.srer_db["sm"] > 20.0


def test_pitch_band_is_shared(monkeypatch, tmp_path):
    bands = []

    def record(signal, f_min, f_max):
        bands.append((f_min, f_max))
        return estimate_f0(signal, f_min=f_min, f_max=f_max)

    monkeypatch.setattr(harness, "estimate_f0", record)
    path = _tone_wav(tmp_path, FS)
    run_comparison([path], models=("edsm",))
    run_window_sweep(SweepSpec(source=str(path), models=("edsm",), multiples=(1.0,),
                               t_min_s=0.01))
    assert bands == [PITCH_BAND_HZ, PITCH_BAND_HZ]


def test_run_comparison_surfaces_skipped_frame_warnings(monkeypatch, tmp_path):
    real = eaqhm.ls_solve
    calls = itertools.count()

    def flaky(e, window, target):
        # every 7th frame solve is ill-conditioned
        c, d, cond = real(e, window, target)
        hit = np.array([next(calls) % 7 == 0 for _ in range(cond.shape[0])], dtype=bool)
        c[hit], d[hit], cond[hit] = np.nan, np.nan, 1e20
        return c, d, cond

    monkeypatch.setattr(eaqhm, "ls_solve", flaky)
    with pytest.warns(RuntimeWarning, match=r"skipped \d+ ill-conditioned frame\(s\)"):
        row = run_comparison([_tone_wav(tmp_path, FS)], models=("eaqhm",))[0]
    assert row.srer_db["eaqhm"] > 0


def _noise_wav(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "noise.wav"
    audio_io.write_wav(path, SampledSignal(samples=rng.normal(0, 0.1, 8000), fs=FS))
    return path


def test_run_comparison_marks_unanalyzable(tmp_path):
    # edsm needs pitch, and white noise has none
    rows = run_comparison([_noise_wav(tmp_path)], models=("edsm",))
    assert rows[0].status == "unanalyzable"
    assert rows[0].srer_db == {}


def test_run_comparison_tracks_no_pitch_for_sm_alone(monkeypatch, tmp_path):
    def no_pitch(*args):
        raise AssertionError("sm alone needs no pitch track")

    monkeypatch.setattr(harness, "estimate_f0", no_pitch)
    row = run_comparison([_noise_wav(tmp_path)], models=("sm",))[0]
    assert row.status == "ok"
    assert np.isfinite(row.srer_db["sm"]) and row.param_counts["sm"] > 0


def test_run_comparison_propagates_programming_errors(monkeypatch, tone_wav):
    def bug(*args):
        raise TypeError("bug in a model")

    monkeypatch.setattr(harness, "run_model", bug)
    with pytest.raises(TypeError, match="bug in a model"):
        run_comparison([tone_wav], models=("sm",))


def test_run_comparison_empty_list():
    assert run_comparison([]) == []


def test_run_comparison_rejects_unknown_model():
    with pytest.raises(UsageError, match="unknown model"):
        run_comparison([], models=("sm", "svm"))


def test_a_model_named_twice_is_a_usage_error(tone_wav):
    # both once ran sm twice, and a sweep wrote each of its cells twice
    with pytest.raises(UsageError, match="named more than once: sm"):
        run_comparison([tone_wav], models=("sm", "edsm", "sm"))
    with pytest.raises(UsageError, match="named more than once: edsm, sm"):
        SweepSpec(source="chirp", models=("sm", "edsm", "sm", "edsm"))


def test_generate_standins(tmp_path):
    paths = generate_standins(tmp_path)
    assert [p.rsplit("/", 1)[-1] for p in paths] == [
        "vibrato.wav", "amfm_default.wav", "damped_sum.wav"]
    for p in paths:
        sig = audio_io.read_wav(p)
        assert sig.fs == FS
        assert np.max(np.abs(sig.samples)) <= 0.5 + 1.0 / 32768.0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _tiny_curve():
    return SRERCurve(rows=(
        SweepCell(model="sm", multiple=0.5, srer_db=12.5, status="ok"),
        SweepCell(model="sm", multiple=1.0, srer_db=20.0, status="ok"),
        SweepCell(model="eaqhm", multiple=0.5, srer_db=None,
                  status="ill_conditioned")))


def test_export_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    export(_tiny_curve(), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "model,multiple,srer_db,status,error"
    # the ill-conditioned cell plots as zero
    assert lines[3] == "eaqhm,0.5,0,ill_conditioned,"


def test_export_curve_json_keeps_null(tmp_path):
    import json

    path = tmp_path / "curve.json"
    export(_tiny_curve(), path)
    obj = json.loads(path.read_text())
    assert obj["type"] == "srer_curve"
    assert obj["rows"][2]["srer_db"] is None


def _tiny_table():
    return [ComparisonRow(file_id="x.wav", status="ok", srer_db={"sm": 10.0},
                          param_counts={"sm": 12}, wall_time_s={"sm": 0.5})]


def test_export_comparison(tmp_path):
    path = tmp_path / "table.csv"
    export(_tiny_table(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "file,status,sm_srer_db,sm_params,sm_time_s,sm_error"
    assert lines[1].startswith("x.wav,ok,10,12,")


@pytest.mark.parametrize("name", ["t.json", "t.csv", "t.txt", "t.json.csv"])
def test_export_picks_json_or_csv_by_suffix(tmp_path, name):
    import json

    for data, kind, header in (
            (_tiny_curve(), "srer_curve", "model,multiple,srer_db,status,error"),
            (_tiny_table(), "comparison_table",
             "file,status,sm_srer_db,sm_params,sm_time_s,sm_error")):
        path = tmp_path / name
        export(data, path)
        text = path.read_text()
        if name.endswith(".json"):
            assert json.loads(text)["type"] == kind
        else:
            assert text.splitlines()[0] == header


def test_export_rejects_bad_inputs(tmp_path):
    with pytest.raises(UsageError):
        export(SRERCurve(rows=()), tmp_path / "c.csv")
    with pytest.raises(UsageError):
        export(object(), tmp_path / "c.csv")
