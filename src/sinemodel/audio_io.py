"""WAV and CSV reading and writing, and JSON writing.

JSON schemas (all floats are plain JSON numbers, round-trip exact):

  partial tracks   {"type": "partial_tracks", "fs": <Hz or null>,
                    "tracks": [{"times": [...], "amps": [...],
                                "freqs": [...], "phases": [...]}, ...]}
  damped frames    {"type": "edsm_frames", "fs": <Hz>,
                    "frames": [{"start": i, "length": n, "k_eff": k,
                                "components": [{"a":, "delta_per_sample":,
                                                "freq_hz":, "phase":}, ...]}]}
  adaptive run     {"type": "eaqhm_analysis", "fs": <Hz>, "iterations": n,
                    "srer_history": [...], "tracks": <as partial_tracks>}
"""
from __future__ import annotations

import csv
import json
import struct
from typing import Iterable, Sequence

import numpy as np

from .core import PartialTrack, SampledSignal
from .edsm import EDSMFrames
from .errors import AudioIOError
from .pitch import F0Track, _nearest_voiced

_INT16_FULL = 32767.0
_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 1, 3, 0xFFFE
# an extensible format's subformat GUID: its format tag, then this fixed tail
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_SAMPLE_DTYPES = {(_WAVE_PCM, 16): np.dtype("<i2"), (_WAVE_FLOAT, 32): np.dtype("<f4")}


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def read_wav(path) -> SampledSignal:
    """Read a mono 16-bit PCM or 32-bit float WAV, plain or
    WAVE_FORMAT_EXTENSIBLE, as float64 in [-1, 1)."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise AudioIOError(f"cannot open WAV file: {exc}") from exc
    try:
        fs, channels, dtype, offset, nbytes = _parse_wav(buf)
    except (ValueError, struct.error) as exc:
        raise AudioIOError(f"cannot parse WAV file {path}: {exc}") from exc
    if channels != 1:
        raise AudioIOError(f"{path}: expected mono audio, got {channels} channels")
    if dtype is None:
        raise AudioIOError(f"{path}: unsupported sample format; "
                           "need 16-bit PCM or 32-bit float")
    if fs == 0:
        raise AudioIOError(f"{path}: the fmt chunk gives sample rate 0")
    if nbytes < dtype.itemsize:
        raise AudioIOError(f"{path}: the data chunk holds no sample")
    x = np.frombuffer(buf, dtype, nbytes // dtype.itemsize, offset)
    if dtype.kind == "i":
        x = np.maximum(x / _INT16_FULL, -1.0)
    elif not np.isfinite(x).all():
        raise AudioIOError(f"{path}: the data chunk holds a non-finite sample")
    return SampledSignal(samples=x, fs=float(fs))


def _parse_wav(buf: bytes):
    """fs, channel count, sample dtype (None if unsupported), and the byte
    offset and length of the data chunk."""
    riff, _, wave = struct.unpack_from("<4sI4s", buf)
    if riff != b"RIFF" or wave != b"WAVE":
        raise ValueError("not a little-endian RIFF/WAVE file")
    pos, fmt = 12, None
    while pos + 8 <= len(buf):
        chunk, size = struct.unpack_from("<4sI", buf, pos)
        pos += 8
        if chunk == b"fmt ":
            if size < 16:
                raise ValueError(f"fmt chunk of {size} bytes; need 16")
            tag, channels, fs, _, _, bits = struct.unpack_from("<HHIIHH", buf, pos)
            if tag == _WAVE_EXTENSIBLE and size >= 40 and buf[pos + 28:pos + 40] == _GUID_TAIL:
                tag = struct.unpack_from("<I", buf, pos + 24)[0]
            fmt = fs, channels, _SAMPLE_DTYPES.get((tag, bits))
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before the data chunk")
            if pos + size > len(buf):
                raise ValueError(f"data chunk of {size} bytes runs past the end of the file")
            return *fmt, pos, size
        pos += size + (size & 1)    # chunks are padded to even sizes
    raise ValueError("no data chunk")


def write_wav(path, signal: SampledSignal) -> None:
    """Write 16-bit PCM: samples clipped to [-1, 1] and scaled by 32767 with
    round-to-nearest, so a read-back differs by less than 1/32768."""
    x = np.clip(signal.samples, -1.0, 1.0)
    pcm = np.round(x * _INT16_FULL).astype("<i2")
    fs = int(round(signal.fs))
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE",
                         b"fmt ", 16, _WAVE_PCM, 1, fs, 2 * fs, 2, 16, b"data", pcm.nbytes)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(pcm.tobytes())
    except OSError as exc:
        raise AudioIOError(f"cannot write WAV file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Comma-separated, header row first, floats at 6 significant digits."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise AudioIOError(f"cannot write CSV file {path}: {exc}") from exc


def write_f0_csv(path, track: F0Track) -> None:
    """Two columns (time s, f0 Hz); unvoiced frames carry f0 = 0."""
    rows = [(t, f if v else 0.0)
            for t, f, v in zip(track.times, track.f0, track.voiced)]
    write_csv(path, ("time_s", "f0_hz"), rows)


def read_f0_csv(path) -> F0Track:
    """Inverse of write_f0_csv; any row with f0 > 0 counts as voiced.

    Times must be finite and strictly increasing, and f0 finite.  Unvoiced
    rows carry the nearest voiced f0 (the earlier one on a tie), or 1 Hz
    when no row is voiced.
    """
    times: list[float] = []
    f0: list[float] = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise AudioIOError(f"{path}: empty f0 CSV")
            for row in reader:
                if not row:
                    continue
                times.append(float(row[0]))
                f0.append(float(row[1]))
    except OSError as exc:
        raise AudioIOError(f"cannot read f0 CSV {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise AudioIOError(f"{path}: malformed f0 CSV: {exc}") from exc
    if not times:
        raise AudioIOError(f"{path}: f0 CSV has no data rows")
    times_arr, f0_arr = np.asarray(times), np.asarray(f0)
    if not (np.isfinite(times_arr).all() and np.isfinite(f0_arr).all()):
        raise AudioIOError(f"{path}: f0 CSV holds a non-finite value")
    if not (np.diff(times_arr) > 0).all():
        raise AudioIOError(f"{path}: f0 CSV times are not strictly increasing")
    voiced = f0_arr > 0
    f0_arr = f0_arr[_nearest_voiced(voiced)] if voiced.any() else np.ones_like(f0_arr)
    return F0Track(times=times_arr, f0=f0_arr, voiced=voiced)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _track_obj(track: PartialTrack) -> dict:
    return {"times": track.times.tolist(), "amps": track.amps.tolist(),
            "freqs": track.freqs.tolist(), "phases": track.phases.tolist()}


def write_tracks_json(path, tracks: Sequence[PartialTrack], fs: float = None,
                      extra: dict = None) -> None:
    payload = {"type": "partial_tracks",
               "fs": None if fs is None else float(fs),
               "tracks": [_track_obj(tr) for tr in tracks]}
    if extra:
        payload.update(extra)
    _dump_json(path, payload)


def write_sm_json(path, tracks: Sequence[PartialTrack], frame_times,
                  peaks, fs: float) -> None:
    """Spectral-model dump: partial tracks plus the raw per-frame peaks (an
    sm.SMPeaks record)."""
    payload = {
        "type": "sm_analysis",
        "fs": float(fs),
        "tracks": [_track_obj(tr) for tr in tracks],
        "frames": [{
            "time": float(t),
            "peaks": [{"freq_hz": f, "amp": a, "phase": ph} for f, a, ph, _ in rows.tolist()],
        } for t, rows in zip(frame_times, peaks)],
    }
    _dump_json(path, payload)


def write_eaqhm_json(path, tracks: Sequence[PartialTrack],
                     srer_history: Sequence[float], iterations: int,
                     fs: float) -> None:
    """Adaptive-model dump: final tracks plus the per-iteration SRER history."""
    payload = {
        "type": "eaqhm_analysis",
        "fs": float(fs),
        "iterations": int(iterations),
        "srer_history": [float(s) for s in srer_history],
        "tracks": [_track_obj(tr) for tr in tracks],
    }
    _dump_json(path, payload)


def write_frames_json(path, frames: EDSMFrames, fs: float) -> None:
    payload = {
        "type": "edsm_frames",
        "fs": float(fs),
        "frames": [{
            "start": fr.start,
            "length": fr.length,
            "k_eff": fr.k_eff,
            "components": [{"a": a, "delta_per_sample": delta, "freq_hz": freq, "phase": phase}
                           for freq, a, phase, delta in fr.components.tolist()],
        } for fr in frames],
    }
    _dump_json(path, payload)


def _dump_json(path, payload: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise AudioIOError(f"cannot write JSON file {path}: {exc}") from exc
