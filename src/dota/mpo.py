"""Matrix product operator (tensor-train) decomposition of a weight matrix.

A matrix W of shape (prod(I_k), prod(J_k)) is tensorized, its row and
column factors interleaved as (i_1, j_1, ..., i_N, j_N), and then split
into a chain of order-4 cores by a sweep of truncated SVDs. Contracting
the chain over its bond indices reproduces W exactly when every bond
keeps its full rank, and gives the usual TT-SVD low-rank approximation
when the bonds are truncated to a threshold.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .errors import NumericError, ShapeError, _count_problem, _counts_problem, _reject
from .tensor_core import DenseTensor

# Default factorizations of common hidden dimensions (all chains of length 5).
SHAPE_PRESETS: dict[int, tuple[int, ...]] = {
    768: (4, 4, 4, 4, 3),
    1024: (4, 4, 4, 4, 4),
    2304: (4, 4, 8, 6, 3),
    3072: (4, 4, 8, 6, 4),
    4096: (4, 4, 8, 8, 4),
    11008: (4, 4, 43, 4, 4),
    14336: (4, 8, 8, 8, 7),
    50400: (5, 10, 14, 12, 6),
}


@dataclass(frozen=True)
class MpoShape:
    """Per-core row factors I_k and column factors J_k of the target matrix."""

    in_factors: tuple[int, ...]
    out_factors: tuple[int, ...]

    def __post_init__(self):
        try:
            inf, outf = tuple(self.in_factors), tuple(self.out_factors)
        except TypeError:
            raise ShapeError(f"bad factors {self.in_factors!r} x {self.out_factors!r}: "
                             "expected lists of integers") from None
        problem = ("lists differ in length" if len(inf) != len(outf)
                   else _counts_problem(inf + outf, 1))
        if problem:
            raise ShapeError(f"bad factors {inf} x {outf}: {problem}")
        # Stored as plain ints (numpy ones included) so the bundle header serializes.
        object.__setattr__(self, "in_factors", tuple(map(operator.index, inf)))
        object.__setattr__(self, "out_factors", tuple(map(operator.index, outf)))

    @property
    def n_cores(self) -> int:
        return len(self.in_factors)

    @property
    def rows(self) -> int:
        return math.prod(self.in_factors)

    @property
    def cols(self) -> int:
        return math.prod(self.out_factors)

    @classmethod
    def square(cls, factors: Sequence[int]) -> "MpoShape":
        f = tuple(factors)
        return cls(f, f)

    def core_shapes(self, ranks: Sequence[int]) -> list[tuple[int, int, int, int]]:
        """Shapes (r_k, I_k, J_k, r_{k+1}) of the cores of a chain with bond
        ranks (r_0, ..., r_N). Every rank must be an integer from 1 up to its
        ceiling in :func:`max_ranks`, which also makes r_0 = r_N = 1."""
        ranks, ceilings = tuple(ranks), max_ranks(self)
        problem = (f"expected {len(ceilings)} ranks" if len(ranks) != len(ceilings)
                   else _counts_problem(ranks, 1))
        if not problem and any(map(operator.gt, ranks, ceilings)):
            problem = f"above the ceilings {ceilings}"
        if problem:
            raise ShapeError(f"bad rank list {ranks} for {self}: {problem}")
        ranks = tuple(map(operator.index, ranks))
        return list(zip(ranks, self.in_factors, self.out_factors, ranks[1:]))

    def check_matrix(self, w: np.ndarray) -> None:
        if w.ndim != 2 or w.shape != (self.rows, self.cols):
            raise ShapeError(
                f"matrix shape {w.shape} does not match factors "
                f"{self.in_factors} x {self.out_factors} "
                f"(expected {(self.rows, self.cols)})"
            )


@dataclass(frozen=True)
class CoreChain:
    """Ordered chain of order-4 cores, core k shaped (r_{k-1}, I_k, J_k, r_k)."""

    cores: tuple[DenseTensor, ...]

    def __post_init__(self):
        cores = tuple(self.cores)
        for c in cores:
            if c.order != 4:
                raise ShapeError(f"cores must be order 4, got order {c.order}")
        object.__setattr__(self, "cores", cores)
        shapes = [c.shape for c in cores]
        if shapes != self.shape.core_shapes(self.ranks):
            raise ShapeError(f"core shapes {shapes} do not chain: bond ranks differ or end above 1")

    def __len__(self) -> int:
        return len(self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Bond ranks (r_0, ..., r_N) with r_0 = r_N = 1."""
        return tuple(c.shape[0] for c in self.cores) + (1,)

    @property
    def in_factors(self) -> tuple[int, ...]:
        return self.shape.in_factors

    @property
    def out_factors(self) -> tuple[int, ...]:
        return self.shape.out_factors

    @cached_property
    def shape(self) -> MpoShape:
        """Built once per chain; the chain is immutable."""
        modes = [c.shape for c in self.cores]
        return MpoShape(tuple(m[1] for m in modes), tuple(m[2] for m in modes))

    @property
    def num_params(self) -> int:
        return sum(c.size for c in self.cores)

    @property
    def dtype(self) -> np.dtype:
        return self.cores[0].dtype

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]) -> "CoreChain":
        return cls(tuple(DenseTensor(a) for a in arrays))


def max_ranks(shape: MpoShape) -> tuple[int, ...]:
    """Largest possible bond ranks (R_0..R_N): at bond k, the smaller of the
    combined mode sizes to its left and to its right. R_0 = R_N = 1."""
    prods = [i * j for i, j in zip(shape.in_factors, shape.out_factors)]
    # Running products keep this linear in N for long factor lists from a file.
    left = accumulate(prods[:-1], operator.mul)
    right = list(accumulate(prods[:0:-1], operator.mul))[::-1]
    return (1, *map(min, left, right), 1)


def truncated_ranks(shape: MpoShape, rank_threshold: int | None) -> tuple[int, ...]:
    """Bond ranks after clipping every interior bond to the threshold."""
    full = max_ranks(shape)
    if rank_threshold is None:
        return full
    _reject(rank_threshold=_count_problem(rank_threshold, 1))
    return tuple(min(r, rank_threshold) if 0 < k < len(full) - 1 else r
                 for k, r in enumerate(full))


def _interleaving(n: int) -> tuple[int, ...]:
    """Axis order (0, n, 1, n + 1, ...) taking (I_1..I_N, J_1..J_N) to
    (i_1, j_1, ..., i_N, j_N)."""
    return tuple(a for k in range(n) for a in (k, n + k))


def _deinterleaving(n: int) -> tuple[int, ...]:
    """Inverse of :func:`_interleaving`: (0, 2, ..., 2N - 2, 1, 3, ..., 2N - 1)."""
    return tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))


def reorder_for_mpo(w: np.ndarray, shape: MpoShape) -> tuple[DenseTensor, tuple[int, ...]]:
    """Tensorize W to (I_1..I_N, J_1..J_N) and interleave row/column factors.

    Returns the order-2N tensor with modes (i_1, j_1, ..., i_N, j_N) together
    with the axis order that undoes the interleaving.
    """
    w = np.asarray(w)
    shape.check_matrix(w)
    n = shape.n_cores
    separated = w.reshape(shape.in_factors + shape.out_factors)
    # One fresh copy, frozen here so DenseTensor need not copy it again.
    interleaved = np.transpose(separated, _interleaving(n)).copy()
    interleaved.flags.writeable = False
    return DenseTensor(interleaved), _deinterleaving(n)


def _zero_chain(shape: MpoShape, dtype) -> CoreChain:
    ones = (1,) * (shape.n_cores + 1)
    return CoreChain.from_arrays([np.zeros(s, dtype=dtype) for s in shape.core_shapes(ones)])


def mpo_decompose(
    w: np.ndarray,
    shape: MpoShape,
    rank_threshold: int | None = None,
) -> CoreChain:
    """Split W into a core chain by a left-to-right sweep of SVDs.

    At step k the working matrix is reshaped to (r_{k-1} * I_k * J_k, -1)
    and factored; the top r_k singular triples are kept, with r_k from
    :func:`truncated_ranks`, U becomes core k, and the rest is carried
    forward. Without a threshold every triple is kept and the chain
    reconstructs W exactly.
    The sweep runs in float64 regardless of input dtype; cores are cast
    back at the end.
    """
    w = np.asarray(w)
    shape.check_matrix(w)
    *sweep, last = shape.core_shapes(truncated_ranks(shape, rank_threshold))
    if not np.all(np.isfinite(w)):
        raise NumericError("matrix contains non-finite entries")
    out_dtype = w.dtype if w.dtype.type in (np.float32, np.float64) else np.float64
    if not w.any():
        return _zero_chain(shape, out_dtype)

    interleaved, _ = reorder_for_mpo(w.astype(np.float64, copy=False), shape)
    cores: list[np.ndarray] = []
    m = interleaved.data
    for k, (r0, i, j, r1) in enumerate(sweep):
        try:
            u, s, vt = np.linalg.svd(m.reshape(r0 * i * j, -1), full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD failed at core {k}: {exc}") from exc
        cores.append(u[:, :r1].reshape(r0, i, j, r1))
        m = s[:r1, None] * vt[:r1, :]
    cores.append(m.reshape(last))
    return CoreChain.from_arrays([c.astype(out_dtype, copy=False) for c in cores])


def _left_sweep(chain: CoreChain) -> Iterator[np.ndarray]:
    """Yield L_0 = ones((1, 1)), then L_k, the float64 contraction of cores
    0..k-1 as a (prod_{m<k} I_m J_m, r_k) matrix, in the interleaved layout.

    Only the current matrix is kept, so a caller that needs every L_k has
    to store them itself.
    """
    left = np.ones((1, 1))
    yield left
    for core in chain.cores:
        r0, _, _, r1 = core.shape
        left = (left @ core.data.astype(np.float64, copy=False).reshape(r0, -1)).reshape(-1, r1)
        yield left


def reconstruct(chain: CoreChain) -> np.ndarray:
    """Contract the chain over its bonds and reassemble the full matrix."""
    for left in _left_sweep(chain):
        pass
    # left is (prod I_k J_k, 1) in the interleaved layout (i_1, j_1, ...);
    # undo the interleaving and flatten to (prod I, prod J).
    shape = chain.shape
    interleaved = left.reshape([f for ij in zip(shape.in_factors, shape.out_factors) for f in ij])
    separated = np.transpose(interleaved, _deinterleaving(len(chain)))
    out = separated.reshape(shape.rows, shape.cols)
    return np.ascontiguousarray(out.astype(chain.dtype, copy=False))


def param_count(shape: MpoShape, ranks: Sequence[int]) -> int:
    """Total element count of a chain with the given bond ranks."""
    return sum(math.prod(s) for s in shape.core_shapes(ranks))


def _residual_error(w: np.ndarray, chain: CoreChain) -> tuple[np.ndarray, float]:
    """The float64 residual W - reconstruct(chain) and its Frobenius norm
    relative to W's. NumericError if either holds a non-finite entry (or
    their norms overflow)."""
    w = np.asarray(w, dtype=np.float64)
    chain.shape.check_matrix(w)
    denom = float(np.linalg.norm(w))
    # A non-finite w skips the subtraction, where inf - inf would warn.
    if not math.isfinite(denom):
        raise NumericError("non-finite entries in the matrix or the chain")
    d = w - reconstruct(chain).astype(np.float64, copy=False)
    diff = float(np.linalg.norm(d))
    if not math.isfinite(diff):
        raise NumericError("non-finite entries in the matrix or the chain")
    if denom == 0.0:
        return d, 0.0 if diff == 0.0 else float("inf")
    return d, diff / denom


def reconstruction_error(w: np.ndarray, chain: CoreChain) -> float:
    """Relative Frobenius error of the chain against the target matrix.
    NumericError if either holds a non-finite entry (or their norms overflow)."""
    return _residual_error(w, chain)[1]
