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

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .adapter import DotaAdapter, chain_gradients, dota_init
from .errors import (DotaError, ParameterError, ShapeError, _count_problem, _counts_problem,
                     _number_problem, _reject)
from .mpo import (
    SHAPE_PRESETS,
    CoreChain,
    MpoShape,
    mpo_decompose,
    reconstruct,
    truncated_ranks,
)
from .tensor_core import DenseTensor

METHODS = ("dota", "dota-random", "lora", "full-ft")
_METHOD_IDS = {name: i for i, name in enumerate(METHODS)}

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
    delta = d_raw * (delta_scale * np.linalg.norm(w0) / np.linalg.norm(d_raw))
    return SyntheticTask(
        w0=w0,
        w_star=w0 + delta,
        shape=shape,
        r_delta=r_delta,
        delta_scale=float(delta_scale),
        batch_size=int(batch_size),
        seed=int(seed),
    )


def random_init_cores(shape: MpoShape, ranks: Sequence[int], seed) -> CoreChain:
    """Gaussian cores of std 1/sqrt(rows) except the last, which is zero, so
    the chain's contraction vanishes and training starts at the frozen base
    weight."""
    *drawn, last = shape.core_shapes(ranks)
    sigma = 1.0 / math.sqrt(shape.rows)
    rng = np.random.default_rng(seed)
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
    """LoRA factors with ``a`` of std 1/sqrt(rows) and ``b`` zero."""
    _reject(rank=_count_problem(rank, 1))
    rows, cols = w0.shape
    rng = np.random.default_rng(seed)
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


@dataclass(eq=False)
class _DenseWeight:
    """Full fine-tuning: every entry of the weight is trainable."""

    w: np.ndarray

    @property
    def trainable_params(self) -> int:
        return self.w.size

    def effective_weight(self) -> np.ndarray:
        return self.w

    def gradient_step(self, dw: np.ndarray, lr: float) -> None:
        self.w = self.w - lr * dw


@dataclass
class _ChainWeight:
    """A core chain over a frozen residual, stepped through its core gradients."""

    adapter: DotaAdapter

    @property
    def trainable_params(self) -> int:
        return self.adapter.trainable_params

    def effective_weight(self) -> np.ndarray:
        return self.adapter.merge()

    def gradient_step(self, dw: np.ndarray, lr: float) -> None:
        self.adapter.apply_gradients(chain_gradients(self.adapter.cores, dw), lr)


def _init_method(task: SyntheticTask, method: str, hyper: Hyper):
    """The trainable state of one method, started at the task's w0."""
    if method not in _METHOD_IDS:
        raise ParameterError(f"unknown method {method!r} (expected one of {METHODS})")
    seed = np.random.SeedSequence([task.seed, _STREAM_INIT, _METHOD_IDS[method]])
    if method == "dota":
        return _ChainWeight(dota_init(task.w0, task.shape, hyper.rank))
    if method == "dota-random":
        ranks = truncated_ranks(task.shape, hyper.rank)
        chain = random_init_cores(task.shape, ranks, seed)
        return _ChainWeight(DotaAdapter(w_res=task.w0, cores=chain, shape=task.shape))
    if method == "lora":
        return lora_init(task.w0, hyper.rank, seed)
    return _DenseWeight(task.w0.copy())


def run_experiment(task: SyntheticTask, method: str, hyper: Hyper) -> TrainLog:
    """Train one method on the task, logging eval loss on a fixed held-out
    batch every ``eval_every`` steps (plus step 0 and the final step).

    The one-method case of the lockstep loop :func:`ablate` runs per task.
    The batch stream is a function of (task seed, step index) only, so all
    methods on the same task see identical data. Every method takes the same
    step: the dense weight gradient x^T dy of the mean squared error at its
    effective weight goes to its ``gradient_step``. The ``train_loss`` logged
    at step t is the loss of the weight after t steps on the batch that step
    t + 1 trains on. A non-finite loss ends the run, leaving the partial log
    with ``diverged`` set; ``diverged_at`` is t if step t is logged, else
    t + 1, the step that would have trained on that loss.
    """
    return _train(task, (method,), hyper)[0]


def _train(task: SyntheticTask, methods: Sequence[str], hyper: Hyper) -> list[TrainLog]:
    """:func:`run_experiment` of each method, one log each in the given order,
    in lockstep: each step draws one batch and target for every live method."""
    states = [_init_method(task, m, hyper) for m in methods]
    logs = [TrainLog(m, task.seed, asdict(hyper), s.trainable_params)
            for m, s in zip(methods, states)]
    live = list(zip(states, logs))
    batch_shape = (task.batch_size, task.shape.rows)
    x_eval = _rng(task.seed, _STREAM_EVAL).standard_normal(batch_shape)
    y_eval = x_eval @ task.w_star
    for t in range(hyper.steps + 1):
        if not live:
            break
        xb = _rng(task.seed, _STREAM_BATCH, t + 1).standard_normal(batch_shape)
        logged = t % hyper.eval_every == 0 or t == hyper.steps
        with np.errstate(over="ignore", invalid="ignore"):
            yb = xb @ task.w_star
            for state, log in live:
                w = state.effective_weight()
                ev = float(np.mean((x_eval @ w - y_eval) ** 2)) if logged else 0.0
                err = xb @ w - yb
                loss = float(np.mean(err**2))
                if not (math.isfinite(ev) and math.isfinite(loss)):
                    log.diverged, log.diverged_at = True, t if logged else t + 1
                    continue
                if t < hyper.steps:
                    state.gradient_step(xb.T @ (2.0 * err / err.size), hyper.lr)
                if logged:
                    log.records.append((t, loss, ev))
        live = [(state, log) for state, log in live if not log.diverged]
    return logs


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
        field by its JSON key in one ParameterError."""
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

    A seed's methods train in lockstep on one batch stream, all held at once.
    Returns every TrainLog, seed by seed in the config's method order, plus
    summary rows (step, method, mean, std) with the mean and population
    standard deviation taken across seeds.
    """
    logs = []
    for seed in config.seeds:
        task = make_task(config.shape, r_delta=config.r_delta, delta_scale=config.delta_scale,
                         batch_size=config.batch_size, seed=seed)
        logs.extend(_train(task, config.methods, config.hyper))
    summary = summarize(logs)
    return logs, summary


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
