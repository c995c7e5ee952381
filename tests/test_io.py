"""WAV and CSV round trips, and the JSON the writers emit."""
import json
import struct

import numpy as np
import pytest
from scipy.io import wavfile

from sinemodel import audio_io
from sinemodel.core import PartialTrack, SampledSignal
from sinemodel.edsm import EDSMFrames
from sinemodel.errors import AudioIOError
from sinemodel.pitch import F0Track
from sinemodel.sm import SMPeaks

FS = 16000.0


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def test_wav_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    x = np.clip(rng.normal(0, 0.3, 5000), -1.0, 1.0)
    sig = SampledSignal(samples=x, fs=FS)
    path = tmp_path / "x.wav"
    audio_io.write_wav(path, sig)
    back = audio_io.read_wav(path)
    assert back.fs == FS
    assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768.0
    assert np.max(np.abs(back.samples)) <= 1.0


def test_wav_float32_read(tmp_path):
    x = np.linspace(-0.5, 0.5, 100, dtype=np.float32)
    path = tmp_path / "f32.wav"
    wavfile.write(path, 22050, x)
    sig = audio_io.read_wav(path)
    assert sig.fs == 22050.0
    np.testing.assert_allclose(sig.samples, x.astype(np.float64), atol=0)


def test_wav_error_paths(tmp_path):
    with pytest.raises(AudioIOError):
        audio_io.read_wav(tmp_path / "missing.wav")
    stereo = tmp_path / "stereo.wav"
    wavfile.write(stereo, 16000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(AudioIOError):
        audio_io.read_wav(stereo)
    wide = tmp_path / "wide.wav"
    wavfile.write(wide, 16000, np.zeros(100, dtype=np.int32))
    with pytest.raises(AudioIOError):
        audio_io.read_wav(wide)
    with pytest.raises(AudioIOError):
        audio_io.write_wav(tmp_path / "no" / "dir.wav",
                           SampledSignal(samples=np.zeros(10), fs=FS))


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return tag + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def _fmt_chunk(tag=1, channels=1, fs=16000, bits=16) -> bytes:
    align = channels * bits // 8
    return _chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, fs, fs * align, align, bits))


def _riff(*chunks: bytes, magic=b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return magic + struct.pack("<I", len(body)) + body


def _as_extensible(wav: bytes) -> bytes:
    """The same file with its fmt chunk rewritten as WAVE_FORMAT_EXTENSIBLE:
    cbSize 22, valid bits, channel mask, then the subformat GUID (the old
    format tag followed by the fixed KSDATAFORMAT_SUBTYPE tail)."""
    size = struct.unpack_from("<I", wav, 16)[0]
    tag, channels, fs, rate, align, bits = struct.unpack_from("<HHIIHH", wav, 20)
    fmt = (struct.pack("<HHIIHHHHII", 0xFFFE, channels, fs, rate, align, bits, 22, bits,
                       4, tag) + bytes.fromhex("00001000800000aa00389b71"))
    return _riff(_chunk(b"fmt ", fmt), wav[20 + size:])


def test_write_wav_bytes_equal_scipys_writer(tmp_path):
    rng = np.random.default_rng(2)
    for n, fs in ((1, 8000.0), (2, 16000.0), (4001, 44100.0)):
        x = np.clip(rng.normal(0, 0.5, n), -1.0, 1.0)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
        audio_io.write_wav(ours, SampledSignal(samples=x, fs=fs))
        wavfile.write(theirs, int(fs), np.round(x * 32767.0).astype(np.int16))
        assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("extensible", [False, True])
@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_read_wav_matches_scipys_reader(tmp_path, dtype, extensible):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, 3001)
    if dtype == np.int16:
        data = (x * 32767).astype(np.int16)
        data[0] = -32768    # reads as -1.0, not below it
    else:
        data = x.astype(np.float32)
    path = tmp_path / "x.wav"
    wavfile.write(path, 11025, data)
    if extensible:
        path.write_bytes(_as_extensible(path.read_bytes()))
    fs, ref = wavfile.read(path)
    assert ref.dtype == dtype
    if dtype == np.int16:
        ref = np.maximum(ref.astype(np.float64) / 32767.0, -1.0)
    sig = audio_io.read_wav(path)
    assert sig.fs == float(fs) == 11025.0
    assert sig.samples.dtype == np.float64
    assert sig.samples.tobytes() == ref.astype(np.float64).tobytes()


def test_wav_skips_other_chunks_and_their_pad_bytes(tmp_path):
    pcm = np.array([0, 32767, -32767, 5], dtype="<i2")
    path = tmp_path / "x.wav"
    path.write_bytes(_riff(_chunk(b"odd ", b"abc"), _fmt_chunk(),
                           _chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00test\x00"),
                           _chunk(b"data", pcm.tobytes()), _chunk(b"tail", b"x")))
    np.testing.assert_array_equal(audio_io.read_wav(path).samples, pcm / 32767.0)


@pytest.mark.parametrize("payload", [
    b"not a wav file at all",
    b"RIF",
    _riff(_chunk(b"data", b"\0\0")),                              # no fmt chunk
    _riff(_fmt_chunk()),                                          # no data chunk
    _riff(_fmt_chunk(), b"data" + struct.pack("<I", 100) + bytes(10)),  # data past EOF
    _riff(_fmt_chunk(), _chunk(b"data", b"\0\0"), magic=b"RIFX"),  # big-endian
    _riff(_fmt_chunk(channels=2), _chunk(b"data", bytes(8))),     # stereo
    _riff(_fmt_chunk(bits=32), _chunk(b"data", bytes(8))),        # int32
    _riff(_fmt_chunk(bits=8), _chunk(b"data", bytes(8))),         # 8-bit PCM
    _riff(_fmt_chunk(tag=3, bits=64), _chunk(b"data", bytes(8))),  # float64
    # a 14-byte fmt chunk: read as 16 bytes, the next chunk's id would give 16 bits
    _riff(_chunk(b"fmt ", struct.pack("<HHIIH", 1, 1, 16000, 32000, 2)),
          _chunk(b"\x10\x00id", b""), _chunk(b"data", bytes(8))),
    _riff(_fmt_chunk(fs=0), _chunk(b"data", bytes(8))),           # sample rate 0
    _riff(_fmt_chunk(), _chunk(b"data", b"")),                     # no sample
    _riff(_fmt_chunk(), _chunk(b"data", b"\0")),                   # half a sample
    _riff(_fmt_chunk(tag=3, bits=32), _chunk(b"data", bytes(3))),  # float, no sample
    _riff(_fmt_chunk(tag=3, bits=32),
          _chunk(b"data", np.array([0.0, np.nan, 0.0], "<f4").tobytes())),
    _riff(_fmt_chunk(tag=3, bits=32),
          _chunk(b"data", np.array([0.5, -np.inf], "<f4").tobytes())),
    _riff(_fmt_chunk(tag=3, bits=32), _chunk(b"data", np.array([np.inf], "<f4").tobytes())),
], ids=["not-riff", "truncated", "no-fmt", "no-data", "data-past-eof", "rifx",
        "stereo", "int32", "pcm8", "float64", "short-fmt", "zero-fs", "empty-data",
        "odd-byte-data", "short-float-data", "float-nan", "float-neg-inf", "float-inf"])
def test_malformed_or_unsupported_wav_is_audio_io_error(tmp_path, payload):
    path = tmp_path / "bad.wav"
    path.write_bytes(payload)
    with pytest.raises(AudioIOError):
        audio_io.read_wav(path)


def test_read_wav_lets_other_errors_through(tmp_path, monkeypatch, tone_wav):
    def broken(buf):
        raise RuntimeError("a bug, not a bad file")

    monkeypatch.setattr(audio_io, "_parse_wav", broken)
    with pytest.raises(RuntimeError):
        audio_io.read_wav(tone_wav)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_six_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    audio_io.write_csv(path, ("a", "b"), [(0.123456789, 1234567.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.123457,1.23457e+06"


def test_f0_csv_roundtrip(tmp_path):
    track = F0Track(times=np.array([0.0, 0.005, 0.01]),
                    f0=np.array([150.0, 151.0, 150.5]),
                    voiced=np.array([True, False, True]))
    path = tmp_path / "f0.csv"
    audio_io.write_f0_csv(path, track)
    back = audio_io.read_f0_csv(path)
    np.testing.assert_array_equal(back.voiced, track.voiced)
    np.testing.assert_allclose(back.times, track.times, atol=1e-9)
    # voiced rows keep their value; the unvoiced row is re-filled positive
    np.testing.assert_allclose(back.f0[back.voiced], [150.0, 150.5], atol=1e-3)
    assert back.f0[1] > 0


def test_f0_csv_fills_unvoiced_rows_with_nearest_voiced(tmp_path):
    f0 = np.array([0.0, 0.0, 120.0, 0.0, 0.0, 0.0, 180.0, 0.0, 200.0, 0.0, 0.0])
    path = tmp_path / "gaps.csv"
    audio_io.write_f0_csv(path, F0Track(times=np.arange(11) * 0.005, f0=f0,
                                        voiced=f0 > 0))
    back = audio_io.read_f0_csv(path)
    np.testing.assert_array_equal(back.voiced, f0 > 0)
    # leading rows take the first voiced value, a tie goes to the earlier one
    np.testing.assert_allclose(
        back.f0, [120, 120, 120, 120, 120, 180, 180, 180, 200, 200, 200], atol=1e-3)
    silent = tmp_path / "silent.csv"
    audio_io.write_f0_csv(silent, F0Track(times=np.arange(3) * 0.005, f0=np.zeros(3),
                                          voiced=np.zeros(3, bool)))
    assert not audio_io.read_f0_csv(silent).any_voiced


def test_f0_csv_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(AudioIOError):
        audio_io.read_f0_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("time_s,f0_hz\n")
    with pytest.raises(AudioIOError):
        audio_io.read_f0_csv(header_only)
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,f0_hz\nnot,numbers\n")
    with pytest.raises(AudioIOError):
        audio_io.read_f0_csv(bad)


@pytest.mark.parametrize("rows, reason", [
    ("nan,150\n0.005,150\n", "non-finite"),
    ("0,150\ninf,150\n", "non-finite"),
    ("0,150\n0.005,inf\n", "non-finite"),
    ("0,150\n0.005,nan\n", "non-finite"),
    ("0,-inf\n0.005,150\n", "non-finite"),
    ("0.005,150\n0,150\n", "strictly increasing"),
    ("0,150\n0.005,150\n0.005,151\n", "strictly increasing"),
], ids=["nan-time", "inf-time", "inf-f0", "nan-f0", "neg-inf-f0", "reversed", "repeated"])
def test_f0_csv_rejects_non_finite_values_and_unordered_times(tmp_path, rows, reason):
    path = tmp_path / "f0.csv"
    path.write_text("time_s,f0_hz\n" + rows)
    with pytest.raises(AudioIOError, match=reason):
        audio_io.read_f0_csv(path)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_tracks_json_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    tracks = [PartialTrack(times=np.sort(rng.uniform(0, 1, 5)),
                           amps=rng.uniform(0, 1, 5),
                           freqs=rng.uniform(50, 4000, 5),
                           phases=rng.uniform(-np.pi, np.pi, 5))
              for _ in range(3)]
    path = tmp_path / "tracks.json"
    audio_io.write_tracks_json(path, tracks, fs=FS)
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["type"] == "partial_tracks" and obj["fs"] == FS
    assert len(obj["tracks"]) == 3
    for a, b in zip(tracks, obj["tracks"]):
        # JSON carries full double precision; anchors return bit-identical
        for name in ("times", "amps", "freqs", "phases"):
            assert np.asarray(b[name]).tobytes() == getattr(a, name).tobytes()


def test_frames_json_roundtrip(tmp_path):
    frames = EDSMFrames.from_frames([
        (0, 300, 4, [(440.0, 0.5, 0.2, -0.001), (880.0, 0.25, -1.0, 0.0004)]),
        (300, 100, 0, [])])
    path = tmp_path / "frames.json"
    audio_io.write_frames_json(path, frames, fs=FS)
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["type"] == "edsm_frames" and obj["fs"] == FS
    back = EDSMFrames.from_frames(
        (fr["start"], fr["length"], fr["k_eff"],
         [(c["freq_hz"], c["a"], c["phase"], c["delta_per_sample"]) for c in fr["components"]])
        for fr in obj["frames"])
    assert [fr[:3] for fr in back] == [(0, 300, 4), (300, 100, 0)]
    for name in ("offsets", "values", "start", "length", "k_eff"):
        got, want = getattr(back, name), getattr(frames, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_model_dumps_have_schema_keys(tmp_path):
    tr = PartialTrack(times=[0.0, 0.01], amps=[1.0, 1.0], freqs=[100.0, 100.0],
                      phases=[0.0, 0.3])
    sm_path = tmp_path / "sm.json"
    no_peaks = SMPeaks(offsets=np.zeros(2, dtype=np.int64), values=np.empty((4, 0)))
    audio_io.write_sm_json(sm_path, [tr], np.array([0.0]), no_peaks, FS)
    obj = json.loads(sm_path.read_text())
    assert obj["type"] == "sm_analysis"
    assert obj["frames"][0]["peaks"] == []
    ea_path = tmp_path / "ea.json"
    audio_io.write_eaqhm_json(ea_path, [tr], [10.0, 20.0], 1, FS)
    obj = json.loads(ea_path.read_text())
    assert obj["type"] == "eaqhm_analysis"
    assert obj["iterations"] == 1
    assert obj["srer_history"] == [10.0, 20.0]


def test_json_error_paths(tmp_path):
    tr = PartialTrack(times=[0.0, 0.01], amps=[1.0, 1.0], freqs=[100.0, 100.0],
                      phases=[0.0, 0.3])
    no_peaks = SMPeaks(offsets=np.zeros(2, dtype=np.int64), values=np.empty((4, 0)))
    frames = EDSMFrames.from_frames([(0, 100, 0, [])])
    path = tmp_path / "no" / "dir.json"
    for write in (lambda: audio_io.write_tracks_json(path, [tr], fs=FS),
                  lambda: audio_io.write_sm_json(path, [tr], np.array([0.0]), no_peaks, FS),
                  lambda: audio_io.write_eaqhm_json(path, [tr], [10.0], 1, FS),
                  lambda: audio_io.write_frames_json(path, frames, FS)):
        with pytest.raises(AudioIOError, match="cannot write JSON file"):
            write()
