"""Loop-bound numeric kernels, vectorized with numpy.

Callers reach these through the module (``_kernels.hankel_build(...)``), so
each name is looked up at call time.  Linear-algebra heavy steps (SVD,
eigen, solves) are deliberately not here; BLAS/LAPACK already owns them.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def accumulate_cosine(out: np.ndarray, start: int, amp: np.ndarray,
                      phase: np.ndarray) -> None:
    """out[start:start + len(amp)] += amp * cos(phase), in place."""
    out[start:start + amp.shape[0]] += amp * np.cos(phase)


def trapezoid_phase(freq_hz: np.ndarray, fs: float, phi0: float) -> np.ndarray:
    """Phase track from phi0 by trapezoid integration of freq_hz at rate fs."""
    n = freq_hz.shape[0]
    phase = np.empty(n, dtype=np.float64)
    if n == 0:
        return phase
    phase[0] = phi0
    if n > 1:
        steps = (np.pi / fs) * (freq_hz[:-1] + freq_hz[1:])
        phase[1:] = phi0 + np.cumsum(steps)
    return phase


def autocorr_norm(frames: np.ndarray, lag_min: int, lag_max: int) -> np.ndarray:
    """Normalized autocorrelation at lags lag_min..lag_max of each row of
    frames (n_frames x n); lags past the frame and an all-zero frame give 0."""
    n = frames.shape[1]
    r = np.zeros((frames.shape[0], lag_max - lag_min + 1), dtype=np.float64)
    lags = np.arange(lag_min, min(lag_max + 1, n))
    # one correlation a frame: its per-lag dot products set the bits
    full = np.array([np.correlate(f, f, mode="full")[n - 1 + lags] for f in frames])
    csq = np.zeros((frames.shape[0], n + 1))
    np.cumsum(frames * frames, axis=1, out=csq[:, 1:])
    den = np.sqrt(csq[:, n - lags] * (csq[:, n:] - csq[:, lags]))
    np.divide(full.reshape(den.shape), den, out=r[:, :lags.shape[0]], where=den > 0.0)
    return r


def hankel_build(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Hankel matrix X[..., r, c] = x[..., r + c] of shape (..., rows, cols),
    one per row of a stacked x, as a copy."""
    return sliding_window_view(x[..., :rows + cols - 1], cols, axis=-1).astype(
        np.float64, copy=True)
