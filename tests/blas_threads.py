"""Run a callable at one and then at two BLAS threads, in one process.

numpy's bundled OpenBLAS exports a thread-count switch, found by the
library's own ``ctypes`` lookup, ``dota.adapter._openblas``. OpenBLAS picks
other code paths by thread count, so bytes the library promises whatever
the count are checked at both. Where the switch is missing (another BLAS),
the calling test skips and says why.
"""

import contextlib
import ctypes

import pytest

from dota.adapter import _openblas


def _thread_switch():
    """(get, set) of the loaded OpenBLAS's thread count, or None."""
    get, set_ = _openblas("get_num_threads"), _openblas("set_num_threads")
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


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
