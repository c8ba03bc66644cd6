"""Immutable dense tensors, and the array rules every entry point applies.

Everything is stored row-major (C order, last index fastest) and every
tensor wraps a fresh, read-only array. Axes are numbered from 0. Only
float32 and float64 payloads are supported; float64 is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError


def _asarray(a, what: str) -> np.ndarray:
    """``a`` as an array; ShapeError, naming ``what``, for a ragged nested list."""
    try:
        return np.asarray(a)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise ShapeError(f"{what}: {exc}") from None


def _real(a, what: str, ndim: int | None = None) -> np.ndarray:
    """``a`` as an array of reals: float32 and float64 as they are, any other bool,
    integer or float dtype cast to float64. ShapeError, naming ``what``, for any
    other dtype (complex, object, string, ...), for a ragged nested list, or for an
    order other than ``ndim``."""
    a = _asarray(a, what)
    if a.dtype.kind not in "biuf":
        raise ShapeError(f"{what}: expected real numbers, got dtype {a.dtype}")
    if ndim is not None and a.ndim != ndim:
        raise ShapeError(f"{what}: expected order {ndim}, got order {a.ndim}")
    return a if a.dtype.type in (np.float32, np.float64) else a.astype(np.float64)


def _finite(*arrays: np.ndarray, what: str) -> None:
    """NumericError, naming ``what``, if any entry of ``arrays`` is NaN or infinite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericError(f"{what} contains non-finite entries")


def _as_readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only and C-contiguous, else one read-only copy."""
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, order="C")
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Immutable dense tensor: an order-N array with explicit mode sizes.

    The wrapped array is C-contiguous, read-only, of float32 or float64 (see
    :func:`_real`), and finite: NumericError otherwise.
    """

    data: np.ndarray

    def __post_init__(self):
        a = _real(self.data, "tensor")
        if a.ndim < 1:
            raise ShapeError("tensor order must be at least 1")
        if any(s < 1 for s in a.shape):
            raise ShapeError(f"every mode size must be >= 1, got {a.shape}")
        _finite(a, what="tensor")
        object.__setattr__(self, "data", _as_readonly(a))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype
