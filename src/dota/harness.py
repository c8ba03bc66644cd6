"""Desk-scale initialization ablation on synthetic linear-regression tasks.

The task is matrix regression: recover w_star = w0 + delta from Gaussian
batches, starting every method at the pretrained weight w0. delta is a
low-tensor-rank perturbation built from the truncated chain of w0 itself,
so a decomposition-initialized adapter can express the target update while
a randomly initialized chain of the same shape has to discover the right
subspaces from scratch. Runs are pure functions of (task, method, hyper,
seed): every random draw comes from a named SeedSequence stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .adapter import dota_init
from .errors import (DotaError, ParameterError, ShapeError, _count_problem, _counts_problem,
                     _number_problem, _reject)
from .mpo import (
    SHAPE_PRESETS,
    CoreChain,
    MpoShape,
    _as_modes,
    _core_gradients,
    _left_sweep,
    mpo_decompose,
    reconstruct,
    truncated_ranks,
)
from .tensor_core import DenseTensor, _finite, _real

METHODS = ("dota", "dota-random", "lora", "full-ft")
_METHOD_IDS = {name: i for i, name in enumerate(METHODS)}
_CHAIN = METHODS[:2]  # equal core shapes, so they share one stack

# SeedSequence stream tags, so the different random draws never collide.
_STREAM_TASK = 0
_STREAM_BATCH = 1
_STREAM_EVAL = 2
_STREAM_INIT = 3


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def balanced_factors(n: int, k: int) -> tuple[int, ...]:
    """Factor n into k near-equal integers (largest prime factors first)."""
    _reject(n=_count_problem(n, 1), k=_count_problem(k, 1))
    primes = []
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            primes.append(p)
            m //= p
        p += 1
    if m > 1:
        primes.append(m)
    if len(primes) < k and n != 1:
        raise ParameterError(f"{n} has only {len(primes)} prime factors, cannot split into {k}")
    factors = [1] * k
    for p in sorted(primes, reverse=True):
        factors[int(np.argmin(factors))] *= p
    return tuple(sorted(factors, reverse=True))


def default_tensor_shape(dim: int, n_cores: int) -> tuple[int, ...]:
    """Preset factorization for known hidden dimensions, else a balanced split."""
    if n_cores == 5 and dim in SHAPE_PRESETS:
        return SHAPE_PRESETS[dim]
    return balanced_factors(dim, n_cores)


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """Frozen regression task: pretrained w0, target w_star = w0 + delta."""

    w0: np.ndarray
    w_star: np.ndarray
    shape: MpoShape
    r_delta: int
    delta_scale: float
    batch_size: int
    seed: int

    @property
    def delta_fro_ratio(self) -> float:
        """Recorded perturbation size ||delta||_F / ||w0||_F."""
        return float(
            np.linalg.norm(self.w_star - self.w0) / np.linalg.norm(self.w0)
        )


def make_task(
    shape: MpoShape,
    r_delta: int,
    delta_scale: float,
    batch_size: int = 32,
    seed: int = 0,
) -> SyntheticTask:
    """Draw w0 and build the low-tensor-rank target perturbation.

    delta is w0's rank-``r_delta`` chain (bond ranks at most r_delta) with the
    last core replaced by a Gaussian draw projected out of that core's row
    space, away from what the truncated chain holds, scaled to ``delta_scale``
    times ||w0||_F. The sign of each vector kept at the last bond is LAPACK's
    choice and reaches delta: flipping them all gives w0 - delta, under which
    lora, full-ft and dota-random losses are symmetric but dota's are not.
    NumericError if ``delta_scale`` is so large that w_star overflows.
    """
    _reject(
        r_delta=_count_problem(r_delta, 1),
        delta_scale=_number_problem(delta_scale, 0),
        batch_size=_count_problem(batch_size, 1),
        seed=_count_problem(seed, 0),
    )
    rng = _rng(seed, _STREAM_TASK)
    sigma = 1.0 / math.sqrt(shape.rows)
    w0 = rng.normal(0.0, sigma, (shape.rows, shape.cols))

    base = mpo_decompose(w0, shape, r_delta)
    last = base.cores[-1]
    rows2d = last.data.reshape(last.shape[0], -1)
    draw = rng.normal(size=rows2d.shape)
    q, _ = np.linalg.qr(rows2d.T)
    projected = draw - (draw @ q) @ q.T
    if np.linalg.norm(projected) <= 1e-12 * np.linalg.norm(draw):
        projected = draw  # row space fills everything; keep the raw draw
    delta_chain = CoreChain(
        base.cores[:-1] + (DenseTensor(projected.reshape(last.shape)),)
    )
    d_raw = reconstruct(delta_chain)
    # Nonzero: the earlier cores are orthonormal, so ||d_raw|| = ||projected|| > 0.
    with np.errstate(over="ignore", invalid="ignore"):
        w_star = w0 + d_raw * (delta_scale * np.linalg.norm(w0) / np.linalg.norm(d_raw))
    _finite(w_star, what="target w_star")
    return SyntheticTask(
        w0=w0,
        w_star=w_star,
        shape=shape,
        r_delta=r_delta,
        delta_scale=float(delta_scale),
        batch_size=int(batch_size),
        seed=int(seed),
    )


def _seeded(seed) -> np.random.Generator:
    """A generator from a SeedSequence or an integer >= 0; else ParameterError naming ``seed``."""
    _reject(seed=None if isinstance(seed, np.random.SeedSequence) else _count_problem(seed, 0))
    return np.random.default_rng(seed)


def random_init_cores(shape: MpoShape, ranks: Sequence[int], seed) -> CoreChain:
    """Gaussian cores of std 1/sqrt(rows) except the last, which is zero, so
    the chain's contraction vanishes and training starts at the frozen base
    weight. ``seed`` is an integer >= 0 or a SeedSequence."""
    *drawn, last = shape.core_shapes(ranks)
    sigma = 1.0 / math.sqrt(shape.rows)
    rng = _seeded(seed)
    return CoreChain.from_arrays([rng.normal(0.0, sigma, s) for s in drawn] + [np.zeros(last)])


@dataclass(eq=False)
class LoraBaseline:
    """Low-rank matrix baseline: w0 + a @ b with a Gaussian and b zero at init."""

    w0: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def trainable_params(self) -> int:
        return self.a.size + self.b.size

    def effective_weight(self) -> np.ndarray:
        return self.w0 + self.a @ self.b

    def gradient_step(self, dw: np.ndarray, lr: float) -> None:
        ga = dw @ self.b.T
        gb = self.a.T @ dw
        self.a = self.a - lr * ga
        self.b = self.b - lr * gb


def lora_init(w0: np.ndarray, rank: int, seed) -> LoraBaseline:
    """LoRA factors, ``a`` of std 1/sqrt(rows) and ``b`` zero, for the real matrix w0;
    ``seed`` is an integer >= 0 or a SeedSequence."""
    _reject(rank=_count_problem(rank, 1))
    w0 = _real(w0, "matrix", ndim=2)
    rows, cols = w0.shape
    rng = _seeded(seed)
    a = rng.normal(0.0, 1.0 / math.sqrt(rows), (rows, rank))
    b = np.zeros((rank, cols))
    return LoraBaseline(w0=w0, a=a, b=b)


@dataclass(frozen=True)
class Hyper:
    """Training hyperparameters shared by every method in a comparison."""

    steps: int
    lr: float
    rank: int
    eval_every: int = 10

    def __post_init__(self):
        _reject(
            steps=_count_problem(self.steps, 0),
            lr=_number_problem(self.lr, 0, strict=True),
            rank=_count_problem(self.rank, 1),
            eval_every=_count_problem(self.eval_every, 1),
        )


@dataclass
class TrainLog:
    """Loss trajectory of one run: (step, train loss, eval loss) records."""

    method: str
    seed: int
    hyper: dict
    trainable_params: int
    records: list[tuple[int, float, float]] = field(default_factory=list)
    diverged: bool = False
    diverged_at: int | None = None

    @property
    def steps(self) -> list[int]:
        return [r[0] for r in self.records]

    @property
    def final_eval_loss(self) -> float:
        return self.records[-1][2]

    def csv_lines(self) -> list[str]:
        lines = ["step,train_loss,eval_loss"]
        for step, train, ev in self.records:
            lines.append(f"{step},{float(train)!r},{float(ev)!r}")
        return lines

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def _init_state(task: SyntheticTask, method: str, hyper: Hyper):
    """The frozen base, core arrays and MpoShape of one method at the task's w0: the chain
    methods' residual or w0 and cores under the task's shape; lora's w0 and its factors a and
    b as the cores (1, rows, 1, r) and (r, 1, cols, 1) of MpoShape((rows, 1), (1, cols));
    full-ft's None and w0 as the one core (1, rows, cols, 1) of MpoShape((rows,), (cols,))."""
    seed = np.random.SeedSequence([task.seed, _STREAM_INIT, _METHOD_IDS[method]])
    shape, rows, cols = task.shape, task.shape.rows, task.shape.cols
    if method == "dota":
        adapter = dota_init(task.w0, shape, hyper.rank)
        return adapter.w_res, [c.data for c in adapter.cores.cores], shape
    if method == "dota-random":
        ranks = truncated_ranks(shape, hyper.rank)
        return task.w0, [c.data for c in random_init_cores(shape, ranks, seed).cores], shape
    if method == "lora":
        lora = lora_init(task.w0, hyper.rank, seed)
        return task.w0, [lora.a.reshape(1, rows, 1, -1), lora.b.reshape(-1, 1, cols, 1)], \
            MpoShape((rows, 1), (1, cols))
    return None, [task.w0.reshape(1, rows, cols, 1)], MpoShape((rows,), (cols,))


class _Stack:
    """Runs of one kind of method on tasks of one shape, each a frozen base plus a core chain
    of :func:`_init_state`: the chain methods, whose core shapes agree (``truncated_ranks``
    for both), lora, or full-ft. Each run owns one slot of ``w`` and of ``dw``, slices of the
    grid's (methods, tasks, rows, cols) weight and gradient buffers; its log, base and cores
    are stacked the same way."""

    def __init__(self, tasks: Sequence[SyntheticTask], methods: Sequence[str], hyper: Hyper,
                 w: np.ndarray, dw: np.ndarray):
        bases, params, shapes = zip(*(_init_state(task, m, hyper) for m in methods for task in tasks))
        self.methods, self.shape, self.w = tuple(methods), shapes[0], w
        self.base = None if bases[0] is None else np.reshape(bases, w.shape)
        self.params = [np.reshape(p, w.shape[:2] + p[0].shape) for p in zip(*params)]
        size = sum(p[0, 0].size for p in self.params)
        self.logs = [TrainLog(m, task.seed, asdict(hyper), size) for m in methods for task in tasks]
        self.lefts: list[np.ndarray] = []  # L_0..L_{N-1}, kept for the step
        # where L_N is written, and where the step reads the gradient
        self.modes, self.dmodes = _as_modes(w, self.shape), _as_modes(dw, self.shape)

    def weights(self) -> None:
        """Write every run's effective weight, base + L_N, into its slot of ``w``."""
        *self.lefts, last = _left_sweep(self.params)
        np.copyto(self.modes, last.reshape(self.modes.shape))
        if self.base is not None:
            np.add(self.w, self.base, out=self.w)  # base + L_N: addition commutes exactly

    def zero(self, dead: np.ndarray) -> None:
        """Zero the weights, cores and left states of the runs ``dead`` marks, so that
        their later steps, built or not, stay finite: a zero gradient keeps them zero."""
        for a in [self.w] + self.params + self.lefts:
            a[dead] = 0.0

    def step(self, lr: float) -> None:
        """One gradient-descent step of each run's cores at the weights last built, from
        ``dw``, which it may overwrite. NumericError, before any core changes, if a core
        gradient has a non-finite entry."""
        grads = _core_gradients(self.params, self.lefts, self.dmodes)
        _finite(*grads, what="core gradient")
        for p, g in zip(self.params, grads):
            g *= lr  # p - lr * g, rounded alike
            np.subtract(p, g, out=p)


def run_experiment(task: SyntheticTask, method: str, hyper: Hyper) -> TrainLog:
    """Train one method on the task, logging eval loss on a fixed held-out
    batch every ``eval_every`` steps (plus step 0 and the final step).

    The one-task, one-method case of the lockstep loop :func:`ablate` runs.
    The batch stream is a function of (task seed, step index) only, so all
    methods on the same task see identical data. Every method takes the same
    step: the dense weight gradient x^T dy of the mean squared error at its
    effective weight, mapped onto its cores. The ``train_loss``
    logged at step t is the loss of the weight after t steps on the batch
    that step t + 1 trains on. A non-finite loss ends the run, leaving the
    partial log with ``diverged`` set; ``diverged_at`` is t if step t is
    logged, else t + 1, the step that would have trained on that loss.
    """
    return _train([task], (method,), hyper)[0]


def _train(tasks: Sequence[SyntheticTask], methods: Sequence[str], hyper: Hyper) -> list[TrainLog]:
    """:func:`run_experiment` of each method on each task, one log each, task by
    task in the given method order, in lockstep on tasks of one shape and batch size.

    Every run's effective weight sits in one slot of a float64 buffer of shape
    (methods, tasks, rows, cols), allocated once with the residual and gradient
    buffers. Each step draws the batch and target of every task with a live run
    once; the residual, both losses and x^T dy are then one numpy call each over
    the whole grid, and each :class:`_Stack` builds and steps its slots with one
    call per stage. A diverged run keeps its slot but is never logged again: its
    weight and cores are zeroed once and its residual at every step, so its
    later steps do finite work that nothing reads, until its stack has no live run left."""
    for m in set(methods) - set(METHODS):
        raise ParameterError(f"unknown method {m!r} (expected one of {METHODS})")
    order = [m for m in METHODS if m in methods]  # dota and dota-random adjacent
    shape, n, batch = tasks[0].shape, len(tasks), tasks[0].batch_size
    w = np.empty((len(order), n, shape.rows, shape.cols))
    err = np.empty((len(order), n, batch, shape.cols))
    spare = np.empty(max(w.size, err.size))  # the squares, then x^T dy
    sq, dw = spare[:err.size].reshape(err.shape), spare[:w.size].reshape(w.shape)
    groups = [list(g) for _, g in itertools.groupby(order, lambda m: m in _CHAIN or m)]
    cuts = np.cumsum([len(g) for g in groups])[:-1]
    stacks = [_Stack(tasks, group, hyper, w_group, dw_group)
              for group, w_group, dw_group in zip(groups, np.split(w, cuts), np.split(dw, cuts))]
    grid = [log for s in stacks for log in s.logs]  # in w's slot order
    w_star = np.stack([task.w_star for task in tasks])
    x_eval = np.stack([_rng(t.seed, _STREAM_EVAL).standard_normal((batch, shape.rows))
                       for t in tasks])
    y_eval = x_eval @ w_star
    xb, yb = np.empty_like(x_eval), np.empty_like(y_eval)
    # drawn: the tasks with a live run; active: the stacks with one, the only ones stepped
    live, drawn, active = np.ones(w.shape[:2], dtype=bool), range(n), stacks
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(hyper.steps + 1):
            if not drawn:
                break
            for i in drawn:  # a task with no live run keeps its last batch
                _rng(tasks[i].seed, _STREAM_BATCH, t + 1).standard_normal(out=xb[i])
            np.matmul(xb, w_star, out=yb)
            for s in active:
                s.weights()
            np.subtract(np.matmul(xb, w, out=err), yb, out=err)
            loss = np.mean(np.square(err, out=sq), axis=(2, 3))
            ok = np.isfinite(loss)
            logged = t % hyper.eval_every == 0 or t == hyper.steps
            if logged:
                np.subtract(np.matmul(x_eval, w, out=sq), y_eval, out=sq)
                ev = np.mean(np.square(sq, out=sq), axis=(2, 3))
                ok &= np.isfinite(ev)
                for i in np.flatnonzero(live & ok):
                    grid[i].records.append((t, loss.item(i), ev.item(i)))
            dead = live & ~ok
            if dead.any():  # before the step, whose checks would see these runs
                for i in np.flatnonzero(dead):
                    grid[i].diverged, grid[i].diverged_at = True, t if logged else t + 1
                for s, runs in zip(stacks, np.split(dead, cuts)):
                    s.zero(runs)
                live &= ok
                drawn = np.flatnonzero(live.any(axis=0)).tolist()
                active = [s for s, runs in zip(stacks, np.split(live, cuts)) if runs.any()]
            if t < hyper.steps:
                if not live.all():
                    err[~live] = 0.0
                np.divide(np.multiply(err, 2.0, out=err), err[0, 0].size, out=err)
                np.matmul(np.swapaxes(xb, 1, 2), err, out=dw)
                for s in active:
                    s.step(float(hyper.lr))
    return [grid[order.index(m) * n + i] for i in range(n) for m in methods]


# The JSON keys of a config, with the defaults of the optional ones.
_CONFIG_DEFAULTS = {
    "dims": None, "shapes": None, "N": None, "R": None, "steps": None, "lr": None,
    "seeds": None, "methods": METHODS, "r_delta": None, "delta_scale": None,
    "eval_every": 10, "batch_size": 32,
}


@dataclass(frozen=True)
class AblationConfig:
    """Validated experiment grid: methods x seeds on one task family."""

    shape: MpoShape
    hyper: Hyper
    seeds: tuple[int, ...]
    methods: tuple[str, ...]
    r_delta: int
    delta_scale: float
    batch_size: int = 32

    @classmethod
    def from_dict(cls, raw: dict) -> "AblationConfig":
        """Build a config from a parsed JSON document, naming every invalid
        field by its JSON key (or the document, if not an object) in one ParameterError."""
        if not isinstance(raw, dict):
            raise ParameterError("config must be a JSON object")
        problems = {repr(key): "unknown field" for key in raw if key not in _CONFIG_DEFAULTS}
        c = {**_CONFIG_DEFAULTS, **raw}
        counts = {"R": 1, "steps": 0, "eval_every": 1, "batch_size": 1, "r_delta": 1}
        for key, minimum in counts.items():
            problems[key] = _count_problem(c[key], minimum)
        problems["lr"] = _number_problem(c["lr"], 0, strict=True)
        problems["delta_scale"] = _number_problem(c["delta_scale"], 0)
        problems["seeds"] = _counts_problem(c["seeds"], 0)
        methods = c["methods"]
        if not isinstance(methods, (list, tuple)) or not methods \
                or not all(m in METHODS for m in methods):
            problems["methods"] = f"expected a non-empty subset of {list(METHODS)}, got {methods!r}"
        for key in ("seeds", "methods"):  # each run writes one CSV per method and seed
            if not problems.get(key) and len(set(c[key])) < len(c[key]):
                problems[key] = f"expected no repeated entries, got {c[key]!r}"
        dims = c["dims"] if isinstance(c["dims"], (list, tuple)) else [c["dims"]] * 2
        problems["dims"] = (
            _counts_problem(dims, 1) if len(dims) == 2
            else f"expected an integer or [rows, cols], got {c['dims']!r}"
        )
        problems["N"] = None if c["N"] is None else _count_problem(c["N"], 1)
        if not (problems["dims"] or problems["N"]):
            try:
                shape = _resolve_shape(dims, c["shapes"], c["N"])
            except DotaError as exc:
                problems["shapes"] = str(exc)
        _reject(**problems)
        return cls(
            shape=shape,
            hyper=Hyper(steps=c["steps"], lr=float(c["lr"]), rank=c["R"],
                        eval_every=c["eval_every"]),
            seeds=tuple(c["seeds"]),
            methods=tuple(methods),
            r_delta=c["r_delta"],
            delta_scale=float(c["delta_scale"]),
            batch_size=c["batch_size"],
        )


def _resolve_shape(dims, shapes, n) -> MpoShape:
    rows, cols = dims
    if shapes is None:
        if n is None:
            raise ParameterError("either 'shapes' or 'N' must be given")
        return MpoShape(default_tensor_shape(rows, n), default_tensor_shape(cols, n))
    if isinstance(shapes, dict) and set(shapes) == {"in", "out"}:
        inf, outf = shapes["in"], shapes["out"]
    elif isinstance(shapes, (list, tuple)):
        inf = outf = shapes
    else:
        raise ParameterError(f"expected a list or an {{'in', 'out'}} object, got {shapes!r}")
    shape = MpoShape(inf, outf)
    if (shape.rows, shape.cols) != (rows, cols):
        raise ShapeError(f"factors {shape.in_factors} x {shape.out_factors} multiply to "
                         f"{shape.rows}x{shape.cols}, not {rows}x{cols}")
    if n is not None and shape.n_cores != n:
        raise ParameterError(f"N={n} disagrees with shape length {shape.n_cores}")
    return shape


def ablate(config: AblationConfig) -> tuple[list[TrainLog], list[tuple[int, str, float, float]]]:
    """Run the full method-by-seed grid and summarize eval losses.

    Every seed's task is built first; then all seeds and methods train in
    lockstep, all held at once, every run's weight in one grid buffer (see :func:`_train`).
    Returns every TrainLog, seed by seed in the config's method order, plus
    summary rows (step, method, mean, std) with the mean and population
    standard deviation taken across seeds.
    """
    tasks = [make_task(config.shape, r_delta=config.r_delta, delta_scale=config.delta_scale,
                       batch_size=config.batch_size, seed=seed) for seed in config.seeds]
    logs = _train(tasks, config.methods, config.hyper)
    return logs, summarize(logs)


def summarize(logs: Sequence[TrainLog]) -> list[tuple[int, str, float, float]]:
    """Per-method mean/std of eval loss at every step present in all seeds."""
    evals: dict[str, list[dict[int, float]]] = {}
    for log in logs:
        evals.setdefault(log.method, []).append({s: ev for s, _, ev in log.records})
    rows = []
    for method, group in evals.items():
        for step in sorted(set.intersection(*map(set, group))):
            vals = np.array([by_step[step] for by_step in group])
            e = math.frexp(np.abs(vals).max())[1]  # 2^-e scales vals into [-1, 1]: no sum overflows
            scaled = np.ldexp(vals, -e)  # by a power of two, so numpy's roundings are unchanged
            mean, std = np.ldexp([scaled.mean(), scaled.std()], e)
            rows.append((step, method, float(mean), float(std)))
    return rows


def write_summary_csv(summary: Sequence[tuple[int, str, float, float]], path) -> None:
    lines = ["step,method,mean_eval_loss,std_eval_loss"]
    for step, method, mean, std in summary:
        lines.append(f"{step},{method},{float(mean)!r},{float(std)!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
