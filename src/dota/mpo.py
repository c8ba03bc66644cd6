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
from .tensor_core import DenseTensor, _real

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
        ranks (r_0, ..., r_N): a list or tuple of integers, each from 1 up to
        its ceiling in :func:`max_ranks`, which also makes r_0 = r_N = 1."""
        ceilings = max_ranks(self)
        problem = _counts_problem(ranks, 1) or (
            f"expected {len(ceilings)} ranks" if len(ranks) != len(ceilings) else None)
        if not problem and any(map(operator.gt, ranks, ceilings)):
            problem = f"above the ceilings {ceilings}"
        if problem:
            raise ShapeError(f"bad rank list {ranks} for {self}: {problem}")
        ranks = tuple(map(operator.index, ranks))
        return list(zip(ranks, self.in_factors, self.out_factors, ranks[1:]))

    @cached_property
    def _axes(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Built once per shape: the modes (i_1, j_1, ..., i_N, j_N), the axis order
        (0, N, 1, N + 1, ...) taking (I_1..I_N, J_1..J_N) to them, and its inverse."""
        n = self.n_cores
        order = tuple(a for k in range(n) for a in (k, n + k))
        separated = self.in_factors + self.out_factors
        return tuple(separated[a] for a in order), order, _deinterleaving(n)

    def check_matrix(self, w: np.ndarray) -> None:
        if w.ndim != 2 or w.shape != (self.rows, self.cols):
            raise ShapeError(
                f"matrix shape {w.shape} does not match factors "
                f"{self.in_factors} x {self.out_factors} "
                f"(expected {(self.rows, self.cols)})"
            )


@dataclass(frozen=True)
class CoreChain:
    """Ordered chain of order-4 cores, core k shaped (r_{k-1}, I_k, J_k, r_k), all
    of one dtype; each is a DenseTensor, so every entry is finite."""

    cores: tuple[DenseTensor, ...]

    def __post_init__(self):
        cores = tuple(self.cores)
        for c in cores:
            if c.order != 4:
                raise ShapeError(f"cores must be order 4, got order {c.order}")
        object.__setattr__(self, "cores", cores)
        shapes = [c.shape for c in cores]
        if shapes != self.shape.core_shapes(self.ranks) or len({c.dtype for c in cores}) > 1:
            raise ShapeError(f"cores {shapes} of dtypes {[str(c.dtype) for c in cores]} do not "
                             "chain: bond ranks differ or end above 1, or dtypes differ")

    def __len__(self) -> int:
        return len(self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Bond ranks (r_0, ..., r_N) with r_0 = r_N = 1."""
        return tuple(c.shape[0] for c in self.cores) + (1,)

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


def _deinterleaving(n: int) -> tuple[int, ...]:
    """Axis order (0, 2, ..., 2N - 2, 1, 3, ..., 2N - 1) taking
    (i_1, j_1, ..., i_N, j_N) back to (I_1..I_N, J_1..J_N)."""
    return tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))


def reorder_for_mpo(w: np.ndarray, shape: MpoShape) -> tuple[DenseTensor, tuple[int, ...]]:
    """Tensorize W to (I_1..I_N, J_1..J_N) and interleave row/column factors.

    Returns the order-2N tensor with modes (i_1, j_1, ..., i_N, j_N) together
    with the axis order that undoes the interleaving.
    """
    w = _real(w, "matrix")
    shape.check_matrix(w)
    # One fresh copy, frozen here so DenseTensor need not copy it again.
    interleaved = _as_modes(w, shape).copy()
    interleaved.flags.writeable = False
    return DenseTensor(interleaved), shape._axes[2]


# Columns of a wide unfolding per block QR: a 16-row block's transpose is 256 KB.
_QR_BLOCK = 2048


def _r_factor(a: np.ndarray) -> np.ndarray:
    """The triangle R of A^T = QR for a wide A, by TSQR (Demmel et al.,
    arXiv:0808.2664): one QR per block of at most ``_QR_BLOCK`` columns of A,
    whose small transposed slab stays in cache, then one QR of the stacked
    triangles. R^T R = A A^T either way; only the signs of R's rows may
    differ from a single QR. A at most one block wide takes one QR."""
    rs = [np.linalg.qr(a[:, s:s + _QR_BLOCK].T, mode="r") for s in range(0, a.shape[1], _QR_BLOCK)]
    return rs[0] if len(rs) == 1 else np.linalg.qr(np.vstack(rs), mode="r")


def mpo_decompose(
    w: np.ndarray,
    shape: MpoShape,
    rank_threshold: int | None = None,
) -> CoreChain:
    """Split W into a core chain by a left-to-right sweep of SVDs.

    Step k reshapes the working matrix A to (r_{k-1} * I_k * J_k, -1), keeps
    its top r_k left singular vectors U_r (r_k from :func:`truncated_ranks`)
    as core k and carries U_r^T A = S_r V_r^T forward. A wide A takes U_r from
    the small triangle R^T of A^T = QR, so neither Q nor V^T is ever formed.
    R comes from :func:`_r_factor`, blockwise for A wider than one block.
    Untruncated, the chain reconstructs W exactly. Every finite W, zero
    included, takes this sweep; it runs in float64, and cores are cast back.
    A non-finite W, or a core that overflows, raises NumericError.
    """
    w = _real(w, "matrix")
    shape.check_matrix(w)
    *sweep, last = shape.core_shapes(truncated_ranks(shape, rank_threshold))
    m = reorder_for_mpo(w.astype(np.float64, copy=False), shape)[0].data
    cores: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (r0, i, j, r1) in enumerate(sweep):
            a = m.reshape(r0 * i * j, -1)
            small = _r_factor(a).T if a.shape[0] < a.shape[1] else a
            try:
                u = np.linalg.svd(small, full_matrices=False)[0][:, :r1]
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"SVD failed at core {k}: {exc}") from exc
            cores.append(u.reshape(r0, i, j, r1))
            m = u.T @ a
        cores.append(m.reshape(last))
        return CoreChain.from_arrays([c.astype(w.dtype, copy=False) for c in cores])


def _left_sweep(cores, left=None) -> Iterator[np.ndarray]:
    """Yield L_0 = ones((1, 1)), then L_k, the float64 contraction of cores
    0..k-1 as a (prod_{m<k} I_m J_m, r_k) matrix, in the interleaved layout;
    L_1 is a fresh float64 copy of core 0, as 1 times it is exact.
    Given ``left`` (rows of an L_k, or eye(r_0)), yield it and carry it on
    through every core of ``cores``: the ones after L_k, or a half-chain's.
    ``cores`` is a list of core arrays. They, or ``left`` alone, may have a
    leading stack axis: each L_k then has it too, and each product is one matmul.

    Only the current matrix is kept, so a caller that needs every L_k has
    to store them itself.
    """
    if left is None:
        first, *cores = cores
        yield np.ones(first.shape[:-4] + (1, 1))
        left = first.astype(np.float64).reshape(first.shape[:-4] + (-1, first.shape[-1]))
    lead = left.shape[:-2]
    yield left
    for core in cores:
        left = left @ core.astype(np.float64, copy=False).reshape(*core.shape[:-4], core.shape[-4], -1)
        left = left.reshape(lead + (-1, core.shape[-1]))
        yield left


def _core_gradients(cores, lefts, e: np.ndarray) -> list[np.ndarray]:
    """Gradients of sum(E * C) w.r.t. the core arrays, the backward kernel of :func:`_left_sweep`,
    from their left states L_0..L_{N-1}, C being L_N and the float64 E laid out like it (copied
    C-contiguous first, which fixes the GEMMs' rounding); all may share a leading stack axis. With
    E contracted with cores k+1..N-1, core k > 0's gradient is L_k^T @ E; E then absorbs core k.
    Core 0's is E itself: L_0 is the identity, ones((1, 1)) or eye(r_0), so no product is taken."""
    grads, e = [], np.ascontiguousarray(e)
    for left, core in zip(reversed(lefts[1:]), reversed(cores[1:])):
        lead = core.shape[:-4]
        e = e.reshape(lead + (left.shape[-2], -1))
        grads.append((np.swapaxes(left, -1, -2) @ e).reshape(core.shape))
        core = core.astype(np.float64, copy=False).reshape(lead + (core.shape[-4], -1))
        e = e @ np.swapaxes(core, -1, -2)
    return [e.reshape(c.shape) for c in cores[:1]] + grads[::-1]  # none for an empty half


def _lead_axes(lead: int, axes: Sequence[int]) -> tuple[int, ...]:
    """A transpose of a matrix's modes, applied past ``lead`` leading stack axes."""
    return tuple(range(lead)) + tuple(lead + a for a in axes)


def _as_matrix(left: np.ndarray, shape: MpoShape) -> np.ndarray:
    """L_N, or a stack of them, as (..., rows, cols) in W's layout: a view where numpy can."""
    lead, (modes, _, inverse) = left.shape[:-2], shape._axes
    out = np.transpose(left.reshape(lead + modes), _lead_axes(len(lead), inverse))
    return out.reshape(lead + (shape.rows, shape.cols))


def _as_modes(w: np.ndarray, shape: MpoShape) -> np.ndarray:
    """A matrix, or a stack of them, as a view in the interleaved modes (..., i_1, j_1, ...)."""
    lead = w.shape[:-2]
    separated = w.reshape(lead + shape.in_factors + shape.out_factors)
    return np.transpose(separated, _lead_axes(len(lead), shape._axes[1]))


# Past this many elements (8 MB of float64), panels go one at a time: no second full-size array.
_PANEL = 1 << 20


def reconstruct(chain: CoreChain) -> np.ndarray:
    """Contract the chain over its bonds and reassemble the full matrix.

    The left sweep runs to the first L_k with more than one row per (i_1, j_1) panel,
    or to L_N; each panel's rows then go through the remaining cores into W's layout,
    all panels as one stack (one matmul per core) or, past ``_PANEL`` elements, one at
    a time. numpy's stacked matmul makes the same GEMM call per panel: the same bytes."""
    shape, cores = chain.shape, [c.data for c in chain.cores]
    panels = shape.in_factors[0] * shape.out_factors[0]
    for k, left in enumerate(_left_sweep(cores)):
        if len(left) > panels:
            break
    stack = left.reshape(panels, -1, left.shape[-1])
    if shape.rows * shape.cols <= _PANEL:
        for stack in _left_sweep(cores[k:], stack):
            pass
        return np.ascontiguousarray(_as_matrix(stack.reshape(-1, 1), shape).astype(chain.dtype, copy=False))
    out = np.empty((shape.rows, shape.cols), dtype=chain.dtype)
    blocks, modes = _as_modes(out, shape), shape._axes[0]
    for p, rows in enumerate(stack):
        for panel in _left_sweep(cores[k:], rows):
            pass
        blocks[divmod(p, shape.out_factors[0])] = panel.reshape(modes[2:])
    return out


def param_count(shape: MpoShape, ranks: Sequence[int]) -> int:
    """Total element count of a chain with the given bond ranks."""
    return sum(math.prod(s) for s in shape.core_shapes(ranks))


# Below this norm, a sum of squares may have lost digits to underflow.
_NORM_SAFE = math.sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)


def _norm(x: np.ndarray) -> float:
    """Frobenius norm at any finite scale: np.linalg.norm's value where its sum
    of squares can neither overflow nor underflow, or where x is zero or not
    finite; else that of x / max|x| times max|x|, as LAPACK's dnrm2 scales."""
    with np.errstate(over="ignore", under="ignore"):
        n = float(np.linalg.norm(x))
        big = 0.0 if _NORM_SAFE <= n < math.inf else float(np.abs(x).max(initial=0.0))
        return big * float(np.linalg.norm(x / big)) if 0.0 < big < math.inf else n


def _residual_error(w: np.ndarray, chain: CoreChain) -> tuple[np.ndarray, float]:
    """The float64 residual W - reconstruct(chain) and its Frobenius norm
    relative to W's. NumericError if W holds a non-finite entry (or
    their norms overflow); the chain is finite by construction."""
    w = _real(w, "matrix").astype(np.float64, copy=False)
    chain.shape.check_matrix(w)
    denom = _norm(w)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries fail the check below
        d = reconstruct(chain).astype(np.float64, copy=False)
        np.subtract(w, d, out=d)  # in place: d is fresh, and one full-size array is enough
    diff = _norm(d)
    if not (math.isfinite(denom) and math.isfinite(diff)):
        raise NumericError("non-finite entries in the matrix or the chain")
    if denom == 0.0:
        return d, 0.0 if diff == 0.0 else float("inf")
    return d, diff / denom


def reconstruction_error(w: np.ndarray, chain: CoreChain) -> float:
    """Relative Frobenius error of the chain against the target matrix.
    NumericError if either holds a non-finite entry (or their norms overflow)."""
    return _residual_error(w, chain)[1]
