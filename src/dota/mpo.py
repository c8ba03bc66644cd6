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
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import NumericError, ShapeError, _count_problem, _reject
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
        inf = tuple(int(v) for v in self.in_factors)
        outf = tuple(int(v) for v in self.out_factors)
        if len(inf) != len(outf):
            raise ShapeError(
                f"factor lists differ in length: {len(inf)} vs {len(outf)}"
            )
        if len(inf) < 1:
            raise ShapeError("need at least one core")
        if any(v < 1 for v in inf + outf):
            raise ShapeError("factors must be positive")
        object.__setattr__(self, "in_factors", inf)
        object.__setattr__(self, "out_factors", outf)

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
        if not cores:
            raise ShapeError("a chain needs at least one core")
        for c in cores:
            if c.order != 4:
                raise ShapeError(f"cores must be order 4, got order {c.order}")
        if cores[0].shape[0] != 1 or cores[-1].shape[3] != 1:
            raise ShapeError("boundary bond ranks must be 1")
        for left, right in zip(cores, cores[1:]):
            if left.shape[3] != right.shape[0]:
                raise ShapeError(
                    f"adjacent cores disagree on bond rank: "
                    f"{left.shape[3]} vs {right.shape[0]}"
                )
        object.__setattr__(self, "cores", cores)
        ceilings = max_ranks(self.shape)
        if any(r > limit for r, limit in zip(self.ranks, ceilings)):
            raise ShapeError(
                f"bond ranks {self.ranks} exceed the ceilings {ceilings} "
                f"for factors {self.in_factors} x {self.out_factors}"
            )

    def __len__(self) -> int:
        return len(self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Bond ranks (r_0, ..., r_N) with r_0 = r_N = 1."""
        return tuple(c.shape[0] for c in self.cores) + (1,)

    @property
    def in_factors(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def out_factors(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores)

    @property
    def shape(self) -> MpoShape:
        return MpoShape(self.in_factors, self.out_factors)

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
    n = len(prods)
    ranks = [1]
    for k in range(1, n):
        ranks.append(min(math.prod(prods[:k]), math.prod(prods[k:])))
    ranks.append(1)
    return tuple(ranks)


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
    interleaved = np.ascontiguousarray(np.transpose(separated, _interleaving(n)))
    return DenseTensor(interleaved), _deinterleaving(n)


def _zero_chain(shape: MpoShape, dtype) -> CoreChain:
    cores = [
        np.zeros((1, i, j, 1), dtype=dtype)
        for i, j in zip(shape.in_factors, shape.out_factors)
    ]
    return CoreChain.from_arrays(cores)


def mpo_decompose(
    w: np.ndarray,
    shape: MpoShape,
    rank_threshold: int | None = None,
) -> CoreChain:
    """Split W into a core chain by a left-to-right sweep of SVDs.

    At step k the working matrix is reshaped to (r_{k-1} * I_k * J_k, -1)
    and factored; the top min(available, rank_threshold) singular triples
    are kept, U becomes core k, and the rest is carried forward. Without a
    threshold every triple is kept and the chain reconstructs W exactly.
    The sweep runs in float64 regardless of input dtype; cores are cast
    back at the end.
    """
    w = np.asarray(w)
    shape.check_matrix(w)
    if rank_threshold is not None:
        _reject(rank_threshold=_count_problem(rank_threshold, 1))
    if not np.all(np.isfinite(w)):
        raise NumericError("matrix contains non-finite entries")
    out_dtype = w.dtype if w.dtype.type in (np.float32, np.float64) else np.float64
    if not w.any():
        return _zero_chain(shape, out_dtype)

    interleaved, _ = reorder_for_mpo(w.astype(np.float64, copy=False), shape)
    inf, outf = shape.in_factors, shape.out_factors
    n = shape.n_cores

    cores: list[np.ndarray] = []
    m = interleaved.data
    r_prev = 1
    for k in range(n - 1):
        m = m.reshape(r_prev * inf[k] * outf[k], -1)
        try:
            u, s, vt = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD failed at core {k}: {exc}") from exc
        r_k = len(s) if rank_threshold is None else min(len(s), rank_threshold)
        cores.append(u[:, :r_k].reshape(r_prev, inf[k], outf[k], r_k))
        m = s[:r_k, None] * vt[:r_k, :]
        r_prev = r_k
    cores.append(np.reshape(m, (r_prev, inf[-1], outf[-1], 1)))
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
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != shape.n_cores + 1:
        raise ShapeError(
            f"expected {shape.n_cores + 1} ranks, got {len(ranks)}"
        )
    if ranks[0] != 1 or ranks[-1] != 1:
        raise ShapeError("boundary ranks must be 1")
    return sum(
        ranks[k] * i * j * ranks[k + 1]
        for k, (i, j) in enumerate(zip(shape.in_factors, shape.out_factors))
    )


def reconstruction_error(w: np.ndarray, chain: CoreChain) -> float:
    """Relative Frobenius error of the chain against the target matrix."""
    w = np.asarray(w, dtype=np.float64)
    diff = np.linalg.norm(w - reconstruct(chain).astype(np.float64, copy=False))
    denom = np.linalg.norm(w)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return float(diff / denom)
