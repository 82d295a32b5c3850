"""Hold the OpenBLAS copies of numpy and scipy at one thread for a run.

The numpy and scipy wheels each bundle an OpenBLAS with one thread per
core.  ptlab's BLAS work (banded shift-invert solves, products of at most
a few hundred columns) is too small for a second thread to gain wall
time, but large enough for OpenBLAS to start one, which then burns CPU
in hand-offs.  The thread count is state of the process, so `one_thread`
keeps its own state at module level: a depth counter, so that only the
outermost of nested entries (the runs inside a sweep) saves, sets and
restores the counts, and a lock around it, since a caller may run
`cli.run` from threads of its own, whose entries then overlap.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import sys
import threading

# (package, library in <site-packages>/<package>.libs, symbol suffix)
_COPIES = (("numpy", "libscipy_openblas64_*.so", "64_"),
           ("scipy", "libscipy_openblas-*.so", ""))

_lock = threading.Lock()
_depth = 0
_saved = []      # (setter, count) of each copy, while a run holds one thread
_bound = {}      # package -> (getter, setter), filled on first use


def _bind(package, pattern, suffix):
    """(getter, setter) of the package's OpenBLAS if that library is already
    loaded, else None; RTLD_NOLOAD makes ctypes refuse an unloaded one."""
    mod = sys.modules.get(package)
    if mod is None:
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                        package + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, pattern))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _copies():
    """(getter, setter) of each loaded copy.  A found copy is kept for the
    process; a missing one is looked for again, since scipy's loads only
    with `scipy.linalg`."""
    for package, pattern, suffix in _COPIES:
        if package not in _bound:
            fns = _bind(package, pattern, suffix)
            if fns is not None:
                _bound[package] = fns
    return list(_bound.values())


@contextlib.contextmanager
def one_thread():
    """Run the body with every loaded OpenBLAS copy at one thread, and
    restore the previous counts on the way out, also when it raises."""
    global _depth
    with _lock:
        if _depth == 0:
            for get, set_ in _copies():
                _saved.append((set_, get()))
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                while _saved:
                    set_, count = _saved.pop()
                    set_(count)
