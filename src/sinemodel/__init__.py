"""Sinusoidal analysis/resynthesis toolkit.

Three parameter-estimation paradigms over a shared track/SRER core:

  sm      frame-wise FFT peak picking with partial tracking
  edsm    subspace (shift-invariance) estimation of exponentially damped
          sinusoids on non-overlapping frames
  eaqhm   adaptive quasi-harmonic least squares with per-component
          frequency correction

plus synthetic signal generators with exact ground truth, an
autocorrelation pitch tracker, and a benchmark harness (window-size SRER
sweeps, multi-model comparison tables) behind the `sinemodel` CLI.
"""
from .core import (SRER_MAX_DB, PartialTrack, SampledSignal, interp_frequency_spline,
                   make_window, sample_track, srer, synthesize_tracks, wrap_phase)
from .eaqhm import (AdaptationState, EaQHMConfig, adapt, eaqhm_analyze,
                    init_harmonic, ls_solve)
from .edsm import EDSMConfig, EDSMFrames, edsm_analyze, edsm_synthesize
from .errors import (AnalysisError, AudioIOError, IllConditionedError,
                     SineModelError, UsageError)
from .generators import (AMFMSpec, ChirpSpec, DampedSumSpec,
                         default_damped_spec, gen_amfm, gen_damped_sum,
                         gen_stationary_plus_chirp)
from .harness import (ComparisonRow, SRERCurve, SweepCell, SweepSpec, export,
                      generate_standins, parse_multiples, run_comparison,
                      run_window_sweep, sweep_window_samples)
from .pitch import F0Track, average_pitch_period, estimate_f0
from .sm import SMConfig, SMPeaks, sm_peaks, sm_synthesize, track_partials

__version__ = "0.1.0"

__all__ = [
    "SRER_MAX_DB", "__version__",
    # errors
    "SineModelError", "UsageError", "AudioIOError", "AnalysisError",
    "IllConditionedError",
    # core
    "SampledSignal", "PartialTrack",
    "make_window", "srer", "wrap_phase", "interp_frequency_spline", "sample_track",
    "synthesize_tracks",
    # generators
    "ChirpSpec", "AMFMSpec", "DampedSumSpec", "default_damped_spec",
    "gen_stationary_plus_chirp", "gen_amfm", "gen_damped_sum",
    # sm
    "SMConfig", "SMPeaks", "track_partials", "sm_peaks", "sm_synthesize",
    # edsm
    "EDSMFrames", "EDSMConfig", "edsm_analyze", "edsm_synthesize",
    # eaqhm
    "EaQHMConfig", "AdaptationState", "ls_solve",
    "init_harmonic", "adapt", "eaqhm_analyze",
    # pitch
    "F0Track", "estimate_f0", "average_pitch_period",
    # harness
    "SweepSpec", "SweepCell", "SRERCurve", "ComparisonRow",
    "parse_multiples", "sweep_window_samples", "run_window_sweep",
    "run_comparison", "generate_standins", "export",
]
