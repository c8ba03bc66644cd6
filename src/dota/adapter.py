"""Tensor adapter for one linear layer: frozen residual + trainable chain.

The adapter splits a pretrained weight W0 into a truncated core chain and
the residual W0 - reconstruct(chain). The residual stays frozen, so the
effective weight starts exactly at W0 and all training signal flows into
the cores. Gradients w.r.t. each core are exact: the upstream weight
gradient x^T dy is contracted with the chain in one right-to-left pass,
against the same left sweep that ``reconstruct`` runs, so a full
backward costs two passes over the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NumericError, ShapeError
from .mpo import CoreChain, MpoShape, _left_sweep, mpo_decompose, reconstruct, reorder_for_mpo
from .tensor_core import DenseTensor, _as_readonly


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
    interleaved, _ = reorder_for_mpo(np.asarray(dw, dtype=np.float64), chain.shape)
    lefts = list(islice(_left_sweep(chain), len(chain)))
    e = interleaved.data
    grads = []
    for left, core in zip(reversed(lefts), reversed(chain.cores)):
        e = e.reshape(left.shape[0], -1)
        grads.append((left.T @ e).reshape(core.shape))
        e = e @ core.data.astype(np.float64, copy=False).reshape(core.shape[0], -1).T
    return CoreGradients(tuple(reversed(grads)))


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
        if not np.isfinite(self.w_res).all():
            raise NumericError("residual contains non-finite entries")
        self.w_res = _as_readonly(self.w_res)

    @property
    def trainable_params(self) -> int:
        return self.cores.num_params

    def merge(self) -> np.ndarray:
        """Residual plus contracted chain, as one dense matrix."""
        return self.w_res + reconstruct(self.cores)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """y = x @ w_res + x @ reconstruct(cores); the two branches are kept
        separate so the frozen and trainable paths stay distinguishable."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.shape.rows:
            raise ShapeError(f"input shape {x.shape} does not match weight rows {self.shape.rows}")
        return x @ self.w_res + x @ reconstruct(self.cores)

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[CoreGradients, np.ndarray]:
        """Gradients of the loss w.r.t. every core, plus the input gradient.

        ``dy`` is the loss gradient at the output. The weight gradient
        x^T dy goes through :func:`chain_gradients`; dx uses the merged
        effective weight, which is algebraically identical to
        backpropagating the two branches separately.
        """
        x, dy = np.asarray(x), np.asarray(dy)
        weight = (self.shape.rows, self.shape.cols)
        if x.ndim != 2 or dy.ndim != 2 or x.shape[0] != dy.shape[0]:
            raise ShapeError(f"batch mismatch: x {x.shape} vs dy {dy.shape}")
        if (x.shape[1], dy.shape[1]) != weight:
            raise ShapeError(f"x {x.shape} / dy {dy.shape} do not match weight {weight}")
        grads = chain_gradients(self.cores, x.T @ dy)
        dx = dy @ self.merge().T
        return grads, dx

    def apply_gradients(self, grads: CoreGradients, lr: float) -> None:
        """One plain gradient-descent step on the cores; the residual is untouched.
        A non-finite rate or gradient entry raises before any core changes."""
        grads.check_against(self.cores)
        if not (np.isfinite(lr) and all(np.isfinite(g).all() for g in grads.tensors)):
            raise NumericError("non-finite learning rate or gradient entry")
        self.cores = CoreChain(tuple(
            DenseTensor(c.data - lr * g.astype(c.dtype, copy=False))
            for c, g in zip(self.cores.cores, grads.tensors)
        ))


def dota_init(
    w0: np.ndarray,
    shape: MpoShape,
    rank_threshold: int | None = None,
) -> DotaAdapter:
    """Decompose W0 at the given rank threshold and keep the leftover as a
    frozen residual, so the adapter's effective weight starts at W0."""
    w0 = np.asarray(w0)
    cores = mpo_decompose(w0, shape, rank_threshold)
    w_res = w0 - reconstruct(cores)
    w_res.flags.writeable = False  # fresh, so the adapter adopts it without a copy
    return DotaAdapter(w_res=w_res, cores=cores, shape=shape)
