"""Scoped single-threaded OpenBLAS for loops of small dense solves.

A per-frame least-squares system is a few hundred rows by at most a few
hundred columns.  At that size OpenBLAS's thread hand-off costs more than the
arithmetic it splits, so the frame loops run with every loaded OpenBLAS
build lowered to one thread and put back to its previous count afterwards.

The builds are found in this process's own memory map (numpy and scipy each
may ship one) and driven through their exported thread-count symbols via
ctypes.  They are looked up once per process, at the first use; importing
sinemodel loads numpy and scipy's `_flapack` (see _lapack), which links
scipy's OpenBLAS, so every build is mapped by then.  Where there is no
memory map or no such symbol, nothing changes.  The limit is
reference-counted, so concurrent callers on their own threads share it and
the last one out restores the counts.
"""
from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

# scipy-openblas wheels rename the stock openblas_ symbols, and ILP64 builds
# append "64_"
_SYMBOLS = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
            for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]

_lock = threading.Lock()
_depth = 0
_saved: list[tuple[object, int]] = []


@functools.cache
def _loaded_controls() -> dict[str, tuple]:
    """(get_num_threads, set_num_threads) of every loaded OpenBLAS build."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return {}
    controls = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls[path] = (get, set_)
                break
    return controls


@contextmanager
def single_threaded_blas():
    """Run the body with every loaded OpenBLAS build on one thread."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_, get()) for get, set_ in _loaded_controls().values()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
                _saved = []
