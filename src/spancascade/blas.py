"""Hold numpy's bundled OpenBLAS to one thread while inference runs its own.

numpy's wheels ship OpenBLAS as scipy-openblas, which exports its
thread-count calls with a ``scipy_`` prefix and, in the 64-bit-integer
build, a ``64_`` suffix. ``one_thread`` finds that library next to numpy
and calls them through ctypes. Any other BLAS build has none of these
symbols; ``one_thread`` then changes nothing and yields False, and the
caller stays serial. Looking the library up happens on first use, not at
import.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

# (get, set) symbol pairs of scipy-openblas64 and scipy-openblas32
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

# the thread count is one setting of the whole process, so its holders are
# counted process-wide: the first saves and lowers it, the last restores it
_lock = threading.Lock()
_state = {"calls": None, "holders": 0, "saved": 0}


def _thread_calls():
    """(get, set) ctypes functions of numpy's OpenBLAS, or () if not found."""
    root = os.path.dirname(np.__file__)
    paths = sorted(glob.glob(root + ".libs/*openblas*")
                   + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return ()


@contextmanager
def one_thread():
    """OpenBLAS at one thread inside the block, and the count it had
    before restored when the last concurrent holder leaves. Yields True
    when held, False when no thread-count symbol was found."""
    with _lock:
        if _state["calls"] is None:
            _state["calls"] = _thread_calls()
        calls = _state["calls"]
        if calls and _state["holders"] == 0:
            _state["saved"] = calls[0]()
            calls[1](1)
        _state["holders"] += bool(calls)
    try:
        yield bool(calls)
    finally:
        if calls:
            with _lock:
                _state["holders"] -= 1
                if _state["holders"] == 0:
                    calls[1](_state["saved"])
