"""Tensor adapter for one linear layer: frozen residual + trainable chain.

The adapter splits a pretrained weight W0 into a truncated core chain and
the residual W0 - reconstruct(chain). The residual stays frozen, so the
effective weight starts exactly at W0 and all training signal flows into
the cores. Gradients w.r.t. each core are exact.

A training step applies the chain to the batch one core at a time (the
tensor-train matrix-by-vector product): the forward pass sweeps x through
the cores left to right, the backward pass sweeps dy right to left, and
each core's gradient pairs the two sweeps' states at that core, so no
dense delta or x^T dy is formed. Where that costs more multiply-adds than
the dense product, as for large batches on small layers, a step
multiplies by the reconstructed chain instead and takes the gradients
from x^T dy through :func:`chain_gradients`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, _number_problem
from .mpo import CoreChain, MpoShape, _left_sweep, mpo_decompose, reconstruct
from .tensor_core import _as_readonly


@dataclass(frozen=True)
class CoreGradients:
    """One gradient tensor per core, shaped exactly like the cores."""

    tensors: tuple[np.ndarray, ...]

    def check_against(self, chain: CoreChain) -> None:
        if len(self.tensors) != len(chain):
            raise ShapeError("gradient count does not match core count")
        for g, c in zip(self.tensors, chain.cores):
            if g.shape != c.shape:
                raise ShapeError(f"gradient shape {g.shape} != core shape {c.shape}")


def chain_gradients(chain: CoreChain, dw: np.ndarray) -> CoreGradients:
    """Gradients of sum(dw * reconstruct(chain)) w.r.t. every core.

    With L_k from the left sweep and E the interleaved dw contracted with
    cores k+1..N-1, the gradient of core k is L_k^T @ E; E then absorbs
    core k for the next core to the left.
    """
    shape = chain.shape
    dw = np.asarray(dw, dtype=np.float64)
    shape.check_matrix(dw)
    e = np.ascontiguousarray(np.transpose(
        dw.reshape(shape.in_factors + shape.out_factors), shape._axes[1]))
    lefts = list(islice(_left_sweep(chain), len(chain)))
    grads = []
    for left, core in zip(reversed(lefts), reversed(chain.cores)):
        e = e.reshape(left.shape[0], -1)
        grads.append((left.T @ e).reshape(core.shape))
        e = e @ core.data.astype(np.float64, copy=False).reshape(core.shape[0], -1).T
    return CoreGradients(tuple(reversed(grads)))


def _sweep_states(chain: CoreChain, batch: int) -> tuple[list, list]:
    """Shapes (P, c, Q) of the batch state at each core k, in the left sweep
    of x (c = r_k * I_k) and in the right sweep of dy (c = J_k * r_{k+1}).
    P is the batch times the output modes J_<k, Q the input modes I_>k."""
    i, j, r = chain.in_factors, chain.out_factors, chain.ranks
    pq = [(batch * math.prod(j[:k]), math.prod(i[k + 1:])) for k in range(len(chain))]
    return ([(p, r[k] * i[k], q) for k, (p, q) in enumerate(pq)],
            [(p, j[k] * r[k + 1], q) for k, (p, q) in enumerate(pq)])


def _sweep_is_cheaper(chain: CoreChain, batch: int) -> bool:
    """Whether one batch sweep takes no more multiply-adds than the dense
    path: x times the delta, the delta's addition and its reconstruction.

    This forward count also decides the backward pass. There the sweep path
    costs about three sweeps (x's, dy's and the gradient contractions) and
    the dense path two batch products, the rebuild and chain_gradients, so
    both sides grow about threefold and the crossover stays near the
    forward one. Timed at (4, 4, 4) and (8, 8) with R=8, the backward
    crossover falls at or just past the count's boundary and the forward
    one later, so the count errs towards the dense path."""
    sizes = [c.size for c in chain.cores]
    sweep = sum(p * q * s for (p, _, q), s in zip(_sweep_states(chain, batch)[0], sizes))
    modes = [i * j for i, j in zip(chain.in_factors, chain.out_factors)]
    rebuild = sum(math.prod(modes[:k]) * s for k, s in enumerate(sizes))
    area = chain.shape.rows * chain.shape.cols
    return sweep <= (batch + 1) * area + rebuild


def _sweep(a: np.ndarray, mats: Sequence[np.ndarray], states) -> Iterator[np.ndarray]:
    """Yield ``a`` reshaped to each (P, c, Q) state, then the product that
    the last matrix leaves. Matrix m maps a state to m @ state, (P, c', Q),
    whose next state is a free reshape."""
    for m, s in zip(mats, states):
        a = a.reshape(s)
        yield a
        a = m @ a if s[2] > 1 else a.reshape(s[:2]) @ m.T
    yield a


def _core_matrices(chain: CoreChain) -> list[np.ndarray]:
    """Core k as a float64 (r_k * I_k, J_k * r_{k+1}) matrix."""
    return [c.data.astype(np.float64, copy=False).reshape(c.shape[0] * c.shape[1], -1)
            for c in chain.cores]


def _chain_forward(x: np.ndarray, chain: CoreChain) -> np.ndarray:
    """x @ reconstruct(chain), by a left-to-right sweep of x through the cores."""
    lefts, _ = _sweep_states(chain, x.shape[0])
    *_, y = _sweep(x.astype(np.float64, copy=False), [m.T for m in _core_matrices(chain)], lefts)
    y = y.reshape(x.shape[0], chain.shape.cols)
    return y.astype(np.result_type(x, chain.dtype), copy=False)


def _chain_backward(x: np.ndarray, dy: np.ndarray,
                    chain: CoreChain) -> tuple[CoreGradients, np.ndarray]:
    """chain_gradients(chain, x.T @ dy) and dy @ reconstruct(chain).T, by
    the left sweep of x and a right-to-left sweep of dy. The gradient of
    core k sums the two sweeps' states at core k over P and Q."""
    lefts, rights = _sweep_states(chain, x.shape[0])
    mats = _core_matrices(chain)
    left = list(islice(_sweep(x.astype(np.float64, copy=False), [m.T for m in mats], lefts),
                       len(chain)))
    right = _sweep(dy.astype(np.float64, copy=False), mats[::-1], rights[::-1])
    grads = [np.tensordot(a, next(right), axes=([0, 2], [0, 2])).reshape(core.shape)
             for a, core in zip(left[::-1], chain.cores[::-1])]
    dx = next(right).reshape(x.shape[0], chain.shape.rows).astype(
        np.result_type(dy, chain.dtype), copy=False)
    return CoreGradients(tuple(grads[::-1])), dx


@dataclass(eq=False)
class DotaAdapter:
    """Frozen residual matrix plus a trainable core chain for one layer.

    A read-only, C-contiguous ``w_res`` is adopted as it is; any other is
    copied once and the copy made read-only."""

    w_res: np.ndarray
    cores: CoreChain
    shape: MpoShape

    def __post_init__(self):
        self.shape.check_matrix(self.w_res)
        if self.cores.shape != self.shape:
            raise ShapeError("core chain factors do not match the adapter shape")
        if not all(np.isfinite(a).all() for a in (self.w_res, *(c.data for c in self.cores.cores))):
            raise NumericError("residual or cores contain non-finite entries")
        self.w_res = _as_readonly(self.w_res)

    @property
    def trainable_params(self) -> int:
        return self.cores.num_params

    def merge(self) -> np.ndarray:
        """Residual plus contracted chain, as one dense matrix."""
        return self.w_res + reconstruct(self.cores)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """y = x @ w_res + x @ reconstruct(cores); the two branches are kept
        separate so the frozen and trainable paths stay distinguishable.
        The chain's branch is a batch sweep wherever that takes fewer
        multiply-adds than forming the delta."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.shape.rows:
            raise ShapeError(f"input shape {x.shape} does not match weight rows {self.shape.rows}")
        if _sweep_is_cheaper(self.cores, x.shape[0]):
            return x @ self.w_res + _chain_forward(x, self.cores)
        return x @ self.w_res + x @ reconstruct(self.cores)

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[CoreGradients, np.ndarray]:
        """Gradients of the loss w.r.t. every core, plus the input gradient.

        ``dy`` is the loss gradient at the output. Where batch sweeps take
        fewer multiply-adds, they give the core gradients and the chain's
        share of dx, which adds to dy @ w_res.T. Otherwise the weight
        gradient x^T dy goes through :func:`chain_gradients` and dx uses the
        merged effective weight, which is algebraically identical.
        """
        x, dy = np.asarray(x), np.asarray(dy)
        weight = (self.shape.rows, self.shape.cols)
        if x.ndim != 2 or dy.ndim != 2 or x.shape[0] != dy.shape[0]:
            raise ShapeError(f"batch mismatch: x {x.shape} vs dy {dy.shape}")
        if (x.shape[1], dy.shape[1]) != weight:
            raise ShapeError(f"x {x.shape} / dy {dy.shape} do not match weight {weight}")
        if _sweep_is_cheaper(self.cores, x.shape[0]):
            grads, dx = _chain_backward(x, dy, self.cores)
            return grads, dy @ self.w_res.T + dx
        return chain_gradients(self.cores, x.T @ dy), dy @ self.merge().T

    def apply_gradients(self, grads: CoreGradients, lr: float) -> None:
        """One plain gradient-descent step on the cores; the residual is untouched.
        A rate that is not a real number raises ParameterError, and a rate not
        finite as a float, or a non-finite gradient entry, NumericError, before
        any core changes."""
        grads.check_against(self.cores)
        problem = _number_problem(lr, -math.inf)
        if problem and not problem.startswith("expected a finite"):
            raise ParameterError(f"learning rate: {problem}")
        if problem or not all(np.isfinite(g).all() for g in grads.tensors):
            raise NumericError("non-finite learning rate or gradient entry")
        self.cores = self.cores._stepped([c.data - float(lr) * g.astype(c.dtype, copy=False)
                                          for c, g in zip(self.cores.cores, grads.tensors)])


def dota_init(
    w0: np.ndarray,
    shape: MpoShape,
    rank_threshold: int | None = None,
) -> DotaAdapter:
    """Decompose W0 at the given rank threshold and keep the leftover as a
    frozen residual, so the adapter's effective weight starts at W0."""
    w0 = np.asarray(w0)
    cores = mpo_decompose(w0, shape, rank_threshold)
    w_res = reconstruct(cores)
    np.subtract(w0, w_res, out=w_res)  # in place: the reconstruction is fresh
    w_res.flags.writeable = False  # so the adapter adopts it without a copy
    return DotaAdapter(w_res=w_res, cores=cores, shape=shape)
