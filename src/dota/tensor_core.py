"""Immutable dense tensors.

Everything is stored row-major (C order, last index fastest) and every
tensor wraps a fresh, read-only array. Axes are numbered from 0. Only
float32 and float64 payloads are supported; float64 is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

SUPPORTED_DTYPES = (np.float32, np.float64)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only and C-contiguous, else one read-only copy."""
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, order="C")
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Immutable dense tensor: an order-N array with explicit mode sizes.

    The wrapped array is C-contiguous and read-only.
    """

    data: np.ndarray

    def __post_init__(self):
        a = self.data
        if not isinstance(a, np.ndarray):
            a = np.asarray(a)
        if a.dtype.type not in SUPPORTED_DTYPES:
            a = a.astype(np.float64)
        if a.ndim < 1:
            raise ShapeError("tensor order must be at least 1")
        if any(s < 1 for s in a.shape):
            raise ShapeError(f"every mode size must be >= 1, got {a.shape}")
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
