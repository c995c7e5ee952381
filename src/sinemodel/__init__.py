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
from .core import (SRER_MAX_DB, PartialTrack, SampledSignal,
                   WindowVector, interp_amplitude_linear,
                   interp_frequency_spline, make_window,
                   phase_by_freq_integration, phase_cubic_mq, sample_track,
                   srer, synthesize_tracks, wrap_phase)
from .eaqhm import (AdaptationState, EaQHMConfig, adapt, eaqhm_analyze,
                    freq_correction, init_harmonic, ls_solve)
from .edsm import (DampedSinusoid, EDSMConfig, EDSMFrame, build_hankel,
                   components_to_poles, edsm_analyze, edsm_synthesize,
                   esprit_poles, poles_to_components, vandermonde_amplitudes)
from .errors import (AnalysisError, AudioIOError, IllConditionedError,
                     SineModelError, UsageError)
from .generators import (AMFMSpec, ChirpSpec, DampedSumSpec,
                         default_damped_spec, gen_amfm, gen_damped_sum,
                         gen_stationary_plus_chirp)
from .harness import (ComparisonRow, SRERCurve, SweepCell, SweepSpec, export,
                      generate_standins, parse_multiples, run_comparison,
                      run_window_sweep, sweep_window_samples)
from .pitch import F0Track, average_pitch_period, estimate_f0
from .sm import (SMConfig, SpectralPeak, analyze_frame_fft, sm_analyze,
                 sm_peaks, sm_synthesize, track_partials)

__version__ = "0.1.0"

__all__ = [
    "SRER_MAX_DB", "__version__",
    # errors
    "SineModelError", "UsageError", "AudioIOError", "AnalysisError",
    "IllConditionedError",
    # core
    "SampledSignal", "WindowVector", "PartialTrack",
    "make_window", "srer", "wrap_phase", "interp_amplitude_linear",
    "interp_frequency_spline", "phase_by_freq_integration", "phase_cubic_mq",
    "sample_track", "synthesize_tracks",
    # generators
    "ChirpSpec", "AMFMSpec", "DampedSumSpec", "default_damped_spec",
    "gen_stationary_plus_chirp", "gen_amfm", "gen_damped_sum",
    # sm
    "SMConfig", "SpectralPeak", "analyze_frame_fft", "track_partials",
    "sm_peaks", "sm_analyze", "sm_synthesize",
    # edsm
    "DampedSinusoid", "EDSMFrame", "EDSMConfig", "build_hankel",
    "esprit_poles", "vandermonde_amplitudes", "poles_to_components",
    "components_to_poles", "edsm_analyze", "edsm_synthesize",
    # eaqhm
    "EaQHMConfig", "AdaptationState", "ls_solve",
    "freq_correction", "init_harmonic", "adapt", "eaqhm_analyze",
    # pitch
    "F0Track", "estimate_f0", "average_pitch_period",
    # harness
    "SweepSpec", "SweepCell", "SRERCurve", "ComparisonRow",
    "parse_multiples", "sweep_window_samples", "run_window_sweep",
    "run_comparison", "generate_standins", "export",
]
