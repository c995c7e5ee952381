"""The LAPACK routines sinemodel calls, taken from scipy's `_flapack`.

Importing `scipy.linalg` for its LAPACK wrappers also runs scipy's array-API
layer, which loads `numpy.f2py` and `numpy.testing`: with scipy 1.17 on a
2-core x86-64 machine, about 25 MB of resident memory and 0.2 s of start-up
per process.  This module loads only the
compiled extension `scipy/linalg/_flapack` from its file, under its own
module name, so each routine below is the very object
`scipy.linalg.get_lapack_funcs` returns and every result is bitwise scipy's.
The extension links scipy's bundled OpenBLAS (see _blas).
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import scipy


def _load_flapack():
    base = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension is missing: looked for {paths}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()

dgtsv = _flapack.dgtsv     # core.interp_frequency_spline
dposv = _flapack.dposv     # eaqhm.ls_solve
dpocon = _flapack.dpocon
dsyevr = _flapack.dsyevr   # edsm.esprit_poles
dtrtrs = _flapack.dtrtrs   # edsm.vandermonde_amplitudes
