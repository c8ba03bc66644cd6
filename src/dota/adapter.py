"""Tensor adapter for one linear layer: frozen residual + trainable chain.

The adapter splits a pretrained weight W0 into a truncated core chain and
the residual W0 - reconstruct(chain). The residual stays frozen, so the
effective weight starts exactly at W0 and all training signal flows into
the cores. Gradients w.r.t. each core are exact.

A training step cuts the chain at one bond s into two half-chain matrices,
Lp (I_<s, J_<s * r_s) and Rp (r_s * I_>=s, J_>=s), and takes y = (Lp^T x) Rp,
dx and their gradients in two GEMMs each way; the core-gradient loop of
:func:`chain_gradients` takes those on to the cores, so no dense delta or
x^T dy is formed. Where that costs more multiply-adds, as for large batches
on small layers, a step multiplies by the reconstructed chain instead and
takes the gradients from x^T dy through :func:`chain_gradients`.

On the split-bond path the frozen residual's product, x @ w_res forward and
dy @ w_res.T backward, runs on a helper thread while the calling thread
takes the chain's products, where that was measured to gain: a product of
at least ``_OVERLAP`` multiply-adds while OpenBLAS runs one thread and the
process may use another core. It is the one worker of a ThreadPoolExecutor,
made by the first such product (never at import) and again in a forked child;
it runs numpy only, under the caller's errstate. It is not a daemon: the
interpreter joins it at exit, and a product begun after exit has started runs
on the calling thread. The sum is the same, byte for byte, either way.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, _number_problem
from .mpo import (CoreChain, MpoShape, _as_matrix, _as_modes, _core_gradients, _left_sweep,
                  mpo_decompose, reconstruct)
from .tensor_core import _as_readonly, _finite, _real


@dataclass(frozen=True)
class CoreGradients:
    """One gradient tensor per core, shaped exactly like the cores."""

    tensors: tuple[np.ndarray, ...]

    def check_against(self, chain: CoreChain) -> None:
        """ShapeError unless there is one real (see :func:`_real`) gradient per core, shaped like it."""
        if len(self.tensors) != len(chain):
            raise ShapeError("gradient count does not match core count")
        for g, c in zip(self.tensors, chain.cores):
            if _real(g, "gradient").shape != c.shape:
                raise ShapeError(f"gradient shape {g.shape} != core shape {c.shape}")


def chain_gradients(chain: CoreChain, dw: np.ndarray) -> CoreGradients:
    """Gradients of sum(dw * reconstruct(chain)) w.r.t. every core."""
    dw = _real(dw, "weight gradient").astype(np.float64, copy=False)
    chain.shape.check_matrix(dw)
    cores = [c.data for c in chain.cores]
    lefts = list(islice(_left_sweep(cores), len(chain)))
    return CoreGradients(tuple(_core_gradients(cores, lefts, _as_modes(dw, chain.shape))))


def _split_bond(chain: CoreChain) -> tuple[int, int]:
    """(s, count): the bond 0 < s < N (0 for one core) at which a batch product through the cut
    chain takes the fewest multiply-adds per batch row, J_<s * r_s * I_>=s * (I_<s + J_>=s)."""
    i, j, r = chain.shape.in_factors, chain.shape.out_factors, chain.ranks
    return min((math.prod(j[:s]) * r[s] * math.prod(i[s:]) * (math.prod(i[:s]) + math.prod(j[s:])),
                s) for s in range(1, len(chain)) or range(1))[::-1]


def _sweep_bond(chain: CoreChain, batch: int) -> int | None:
    """The bond to cut at, :func:`_split_bond`'s, if the split-bond batch product takes no
    more multiply-adds than the dense path (x times the delta, its addition, its rebuild);
    else None. The backward pass follows it: there the split path takes four products of the
    forward's sizes and the dense path two, the rebuild and chain_gradients: both about double."""
    shape = chain.shape
    modes = [i * j for i, j in zip(shape.in_factors, shape.out_factors)]
    rebuild = sum(math.prod(modes[:k]) * c.size for k, c in enumerate(chain.cores))
    s, per_row = _split_bond(chain)
    return s if batch * per_row <= (batch + 1) * shape.rows * shape.cols + rebuild else None


def _halves(chain: CoreChain, s: int) -> list[tuple]:
    """The chain cut at bond s: for each half, its cores, their left states from eye(bond),
    its float64 contraction as a matrix, Lp (I_<s, J_<s * r_s) or Rp (r_s * I_>=s, J_>=s),
    with W[(i<, i>), (j<, j>)] = sum_a Lp[i<, (j<, a)] Rp[(a, i>), j>], and its MpoShape
    for mpo's layout, the bond as one more factor pair, (1, r_s) or (r_s, 1)."""
    cores, r = [c.data for c in chain.cores], chain.ranks[s]
    i, j = chain.shape.in_factors, chain.shape.out_factors
    shapes = MpoShape(i[:s] + (1,), j[:s] + (r,)), MpoShape((r,) + i[s:], (1,) + j[s:])
    halves = []
    for part, bond, half in zip((cores[:s], cores[s:]), (1, r), shapes):
        *lefts, c = _left_sweep(part, np.eye(bond))
        halves.append((part, lefts, _as_matrix(c, half), half))
    return halves


def _left_product(x: np.ndarray, halves) -> tuple[np.ndarray, ...]:
    """Lp, Rp, x as float64 (batch, I_<s, I_>=s), and Lp^T x as (batch * J_<s, r_s * I_>=s)."""
    lp, rp = (h[2] for h in halves)
    xr = x.astype(np.float64, copy=False).reshape(len(x), len(lp), x.shape[1] // len(lp))
    return lp, rp, xr, np.matmul(lp.T, xr).reshape(-1, len(rp))


def _chain_forward(x: np.ndarray, chain: CoreChain, s: int) -> np.ndarray:
    """x @ reconstruct(chain) as (Lp^T x) @ Rp, through the chain cut at bond s (:func:`_halves`)."""
    _, rp, _, t = _left_product(x, _halves(chain, s))
    y = (t @ rp).reshape(len(x), chain.shape.cols)
    return y.astype(np.result_type(x, chain.dtype), copy=False)


def _chain_backward(x: np.ndarray, dy: np.ndarray, chain: CoreChain,
                    s: int) -> tuple[CoreGradients, np.ndarray]:
    """chain_gradients(chain, x.T @ dy) and dy @ reconstruct(chain).T, through the chain cut
    at bond s (:func:`_halves`). With t = Lp^T x, Rp's gradient is t^T dy, and dt = dy Rp^T
    gives dx = Lp dt and Lp's gradient, summed over the batch; :func:`_core_gradients` takes
    each half's gradient on to its cores."""
    halves = _halves(chain, s)
    lp, rp, xr, t = _left_product(x, halves)
    dyr = dy.astype(np.float64, copy=False).reshape(-1, rp.shape[1])
    g_rp = t.T @ dyr
    dt = np.matmul(dyr, rp.T, out=t).reshape(xr.shape[0], lp.shape[1], xr.shape[2])  # t is spent
    dx = np.matmul(lp, dt).reshape(x.shape).astype(np.result_type(dy, chain.dtype), copy=False)
    grads = [g for (part, lefts, _, half), gm in zip(
                 halves, (np.matmul(xr, np.swapaxes(dt, 1, 2)).sum(0), g_rp))
             for g in _core_gradients(part, lefts, _as_modes(gm, half))]
    return CoreGradients(tuple(grads)), dx


# A residual product of fewer multiply-adds (batch * rows * cols) than this runs on
# the calling thread: a round trip to the helper thread costs about 75 us. With one
# BLAS thread on a 2-vCPU Xeon, forward plus backward through the helper lost below
# it (1.5-2.7x at 64 and 256 rows, batch 1-8) and gained from it up at 512 and 1024
# rows (16-35%); 256 rows at batch 16-64 came out about even.
_OVERLAP = 1 << 20


@lru_cache
def _openblas(name: str):
    """The OpenBLAS function ``name`` (``get_num_threads``, ``get_corename``, ...) of the
    library numpy's matmul calls, the bundled scipy_openblas64_ or a system build, found
    through ctypes; or None for another BLAS. It returns a C int unless the caller sets
    its ``restype``."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    lib = ctypes.CDLL(_multiarray_umath.__file__)  # its symbols and its libraries'
    symbols = (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}")
    return next((getattr(lib, s) for s in symbols if hasattr(lib, s)), None)


def _overlaps(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a @ b runs on a helper thread: only where that was measured to gain, a
    product of at least ``_OVERLAP`` multiply-adds while OpenBLAS runs one thread and
    the process may use another core. Where BLAS already keeps the cores busy (two
    BLAS threads on two cores), a helper made a 1024 step about 5% slower."""
    if a.shape[0] * a.shape[1] * b.shape[1] < _OVERLAP:
        return False
    threads = _openblas("get_num_threads")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return threads is not None and threads() == 1 and (cores or 1) > 1


_helper = None  # the helper thread's executor, made on first use
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    """In a forked child: the helper thread is not there, so the next product starts one."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _product(a: np.ndarray, b: np.ndarray, err: dict, call) -> np.ndarray:
    """a @ b under the caller's errstate: a thread starts with numpy's default one."""
    with np.errstate(call=call, **err):
        return a @ b


def _beside(a: np.ndarray, b: np.ndarray, chain, *args) -> tuple:
    """(a @ b, chain(*args)). Where :func:`_overlaps`, the product runs on the helper
    thread while chain runs on the calling thread; it is waited for even when chain
    raises, and its error wins. Otherwise, or once the interpreter has begun to exit
    (the executor then takes no more work), the calling thread takes both, a @ b first."""
    global _helper
    product = None
    if _overlaps(a, b):
        try:
            with _helper_lock:
                if _helper is None:
                    from concurrent.futures import ThreadPoolExecutor  # not at `import dota`

                    _helper = ThreadPoolExecutor(1, thread_name_prefix="dota-residual")
                product = _helper.submit(_product, a, b, np.geterr(), np.geterrcall())
        except RuntimeError:  # exiting: the executor's module neither imports nor takes work
            pass
    if product is None:
        return a @ b, chain(*args)
    try:
        out = chain(*args)
    finally:
        ab = product.result()
    return ab, out


@dataclass(eq=False)
class DotaAdapter:
    """Frozen residual matrix plus a trainable core chain for one layer.

    A read-only, C-contiguous ``w_res`` is adopted as it is; any other is
    copied once and the copy made read-only. NumericError if it is not
    finite; the chain is finite by construction."""

    w_res: np.ndarray
    cores: CoreChain
    shape: MpoShape

    def __post_init__(self):
        w_res = _real(self.w_res, "residual")
        self.shape.check_matrix(w_res)
        self.cores = self.cores  # checked, as every later assignment is
        _finite(w_res, what="residual")
        self.w_res = _as_readonly(w_res)

    def __setattr__(self, name, value):
        """ShapeError, and no change, for ``cores`` not a CoreChain of ``shape`` once that is set."""
        if name == "cores" and "shape" in vars(self) and (
                not isinstance(value, CoreChain) or value.shape != self.shape):
            raise ShapeError("core chain factors do not match the adapter shape")
        super().__setattr__(name, value)

    @property
    def trainable_params(self) -> int:
        return self.cores.num_params

    def merge(self) -> np.ndarray:
        """Residual plus contracted chain, as one dense matrix."""
        return self.w_res + reconstruct(self.cores)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """y = x @ w_res + x @ reconstruct(cores); the two branches are kept
        separate so the frozen and trainable paths stay distinguishable.
        The chain's branch is the split-bond product wherever that takes
        fewer multiply-adds than forming the delta; there the residual's
        product may run on a helper thread meanwhile (:func:`_beside`)."""
        x = _real(x, "input")
        if x.ndim != 2 or x.shape[1] != self.shape.rows:
            raise ShapeError(f"input shape {x.shape} does not match weight rows {self.shape.rows}")
        s = _sweep_bond(self.cores, x.shape[0])
        if s is not None:
            y, chain = _beside(x, self.w_res, _chain_forward, x, self.cores, s)
            return y + chain
        return x @ self.w_res + x @ reconstruct(self.cores)

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[CoreGradients, np.ndarray]:
        """Gradients of the loss w.r.t. every core, plus the input gradient.

        ``dy`` is the loss gradient at the output. Where the split-bond products
        take fewer multiply-adds, they give the core gradients and the chain's
        share of dx, which adds to dy @ w_res.T, taken meanwhile on a helper
        thread where that gains (:func:`_beside`). Otherwise the weight
        gradient x^T dy goes through :func:`chain_gradients` and dx uses the
        merged effective weight, which is algebraically identical.
        """
        x, dy = _real(x, "input", ndim=2), _real(dy, "output gradient", ndim=2)
        weight = (self.shape.rows, self.shape.cols)
        if x.shape[0] != dy.shape[0] or (x.shape[1], dy.shape[1]) != weight:
            raise ShapeError(f"x {x.shape} / dy {dy.shape}: batches differ or weight is not {weight}")
        s = _sweep_bond(self.cores, x.shape[0])
        if s is not None:
            dx_res, (grads, dx) = _beside(dy, self.w_res.T, _chain_backward, x, dy, self.cores, s)
            return grads, dx_res + dx
        return chain_gradients(self.cores, x.T @ dy), dy @ self.merge().T

    def apply_gradients(self, grads: CoreGradients, lr: float) -> None:
        """One plain gradient-descent step on the cores; the residual is untouched.
        A rate that is not a real number raises ParameterError, and a rate not
        finite as a float, or a step that leaves a core entry non-finite (a
        non-finite gradient, or an overflow), NumericError, before any core changes."""
        grads.check_against(self.cores)
        problem = _number_problem(lr, -math.inf)
        if problem:
            kind = NumericError if problem.startswith("expected a finite") else ParameterError
            raise kind(f"learning rate: {problem}")
        with np.errstate(over="ignore", invalid="ignore"):  # the stepped chain checks its cores
            self.cores = CoreChain.from_arrays([c.data - float(lr) * g.astype(c.dtype, copy=False)
                                                for c, g in zip(self.cores.cores, grads.tensors)])


def dota_init(
    w0: np.ndarray,
    shape: MpoShape,
    rank_threshold: int | None = None,
) -> DotaAdapter:
    """Decompose W0 at the given rank threshold and keep the leftover as a
    frozen residual, so the adapter's effective weight starts at W0."""
    w0 = _real(w0, "matrix")
    cores = mpo_decompose(w0, shape, rank_threshold)
    with np.errstate(over="ignore", invalid="ignore"):  # the adapter refuses an overflow
        w_res = reconstruct(cores)
        np.subtract(w0, w_res, out=w_res)  # in place: the reconstruction is fresh
    w_res.flags.writeable = False  # so the adapter adopts it without a copy
    return DotaAdapter(w_res=w_res, cores=cores, shape=shape)
