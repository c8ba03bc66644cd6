"""Run a callable at one and then at two BLAS threads, in one process.

numpy's bundled OpenBLAS exports a thread-count switch, found by the same
``ctypes`` lookup as CI's version step. OpenBLAS picks other code paths by
thread count, so bytes the library promises whatever the count are checked
at both. Where the switch is missing (another BLAS), the calling test skips
and says why.
"""

import contextlib
import ctypes
import glob
import os

import numpy as np
import pytest


def _thread_switch():
    """(get, set) of the loaded OpenBLAS's thread count, or None."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n):
    """Run the block at n OpenBLAS threads; the count in use before is restored."""
    switch = _thread_switch()
    if switch is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count switch "
                    "(scipy_openblas_set_num_threads64_ or openblas_set_num_threads)")
    get, set_ = switch
    before = get()
    try:
        set_(n)
        assert get() == n, f"OpenBLAS runs {get()} threads, not {n}"
        yield
    finally:
        set_(before)


def at_one_and_two_threads(fn):
    """(fn() at one BLAS thread, fn() at two); the count in use before is restored."""
    results = []
    for n in (1, 2):
        with blas_threads(n):
            results.append(fn())
    return tuple(results)
