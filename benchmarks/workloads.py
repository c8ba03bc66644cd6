"""The three closed-loop workloads of the dota benchmark.

Each workload is driven by one caller that waits on every call. The runner
calls ``setup`` (timed as set-up), then ``op`` repeatedly until the run's
time is spent, and ``check`` after each ``op``. ``op`` returns the timings
of the user-visible calls it made, in seconds; ``check`` returns one
verdict per operation attempted, so failures are counted against the
number of operations. All inputs derive from the seed argument alone.

- ``convert-4096``: offline conversion of 4096x4096 preset layers through
  ``dota.cli.main``. Memory-bound: each dense array is 128 MB, at least
  four times the 32 MB L3. The adapter layer is idle.
- ``finetune-1024``: lockstep training steps of a dense-residual and an
  NF4-residual adapter on a 1024 preset layer. Each dense matrix is 8 MB
  and fits in L3; ``chain_gradients`` dominates; the decomposition sweep
  runs only in set-up and file I/O is unused.
- ``ablation-64``: the standard ``dota train`` grid at 64x64, thousands of
  tiny steps where Python per-call overhead dominates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import struct
import tempfile
import time

import numpy as np

import dota.adapter
import dota.cli
import dota.fileio
import dota.harness
import dota.mpo
import dota.quant
from dota.mpo import SHAPE_PRESETS, MpoShape

RANK = 8

# Sizes per scale. "smoke" shrinks the two large workloads so the
# benchmark's own tests can run every code path in a few seconds.
SCALES = {
    "full": {
        "convert-4096": {"factors": SHAPE_PRESETS[4096], "presets": True},
        "finetune-1024": {"factors": SHAPE_PRESETS[1024], "batch": 32, "lr": 10.0},
        "ablation-64": {},
    },
    "smoke": {
        "convert-4096": {"factors": (4, 4, 4), "presets": False},
        "finetune-1024": {"factors": (4, 4, 4), "batch": 32, "lr": 2.0},
        "ablation-64": {},
    },
}

# The standard ablation of the README and acceptance criterion 9.
ABLATION_CONFIG = {
    "dims": 64,
    "shapes": [4, 4, 4],
    "R": RANK,
    "steps": 500,
    "lr": 0.1,
    "methods": ["dota", "dota-random", "lora", "full-ft"],
    "r_delta": 8,
    "delta_scale": 0.05,
}

# Generated layers: a bond-rank-16 chain whose bond weights decay
# geometrically, normalized to unit Frobenius norm, plus Gaussian noise of
# Frobenius norm 0.02. Truncation to rank 8 then discards a known, non-trivial
# share of the energy.
LAYER_RANK = 16
LAYER_DECAY = 0.7
LAYER_NOISE = 0.02

_DOTM_HEADER = struct.Struct("<4sBBII")
_DOTC_HEADER = struct.Struct("<4sBI")


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def dense_from_cores(cores) -> np.ndarray:
    """Contract order-4 cores (r, I, J, r') into the (prod I, prod J) matrix.

    Written independently of ``dota.mpo.reconstruct``: rows and columns are
    grown separately, one core at a time, instead of interleaving the modes
    and permuting at the end.
    """
    acc = np.asarray(cores[0], dtype=np.float64)[0]
    for core in cores[1:]:
        core = np.asarray(core, dtype=np.float64)
        rows, cols, _ = acc.shape
        grown = np.tensordot(acc, core, axes=([2], [0])).transpose(0, 2, 1, 3, 4)
        acc = grown.reshape(rows * core.shape[1], cols * core.shape[2], core.shape[3])
    return acc[:, :, 0]


def make_layer(seed: int, index: int, factors) -> np.ndarray:
    """Layer ``index`` of a run: low-tensor-rank chain plus Gaussian noise."""
    rng = _rng(seed, index)
    n = len(factors)
    ranks = [1] + [LAYER_RANK] * (n - 1) + [1]
    cores = []
    for k, f in enumerate(factors):
        weights = LAYER_DECAY ** np.arange(ranks[k + 1])
        cores.append(rng.standard_normal((ranks[k], f, f, ranks[k + 1])) * weights)
    w = dense_from_cores(cores)
    w /= np.linalg.norm(w)
    noise = rng.standard_normal(w.shape)
    noise *= LAYER_NOISE / math.sqrt(w.size)
    w += noise
    return w


def read_dotm(path) -> np.ndarray:
    """Independent reader of a float64 DOTM file."""
    with open(path, "rb") as fh:
        magic, _, dtype_code, rows, cols = _DOTM_HEADER.unpack(fh.read(_DOTM_HEADER.size))
        if magic != b"DOTM" or dtype_code != 1:
            raise ValueError(f"{path}: not a float64 DOTM file")
        return np.fromfile(fh, dtype="<f8").reshape(rows, cols)


def read_dotc(path):
    """Independent reader of a float64 DOTC bundle's header, cores and, for
    an NF4 residual, its block scales."""
    with open(path, "rb") as fh:
        magic, _, header_len = _DOTC_HEADER.unpack(fh.read(_DOTC_HEADER.size))
        if magic != b"DOTC":
            raise ValueError(f"{path}: not a DOTC file")
        header = json.loads(fh.read(header_len))
        ranks = header["ranks"]
        cores = []
        for k, (i, j) in enumerate(zip(header["in_factors"], header["out_factors"])):
            shape = (ranks[k], i, j, ranks[k + 1])
            cores.append(np.fromfile(fh, dtype="<f8", count=math.prod(shape)).reshape(shape))
    absmax = None
    if header["residual_quantized"]:
        n = header["original_rows"] * header["original_cols"]
        n_blocks = math.ceil(n / header["block_size"])
        absmax = np.fromfile(path, dtype="<f8", offset=os.path.getsize(path) - 8 * n_blocks)
    return header, cores, absmax


def decode_nf4(q) -> np.ndarray:
    """Independent NF4 decode of a ``QuantizedMatrix``: unpack nibbles, look
    up the codebook, scale by the block absmax."""
    codes = np.empty(q.packed.size * 2, dtype=np.uint8)
    codes[0::2] = q.packed & 0x0F
    codes[1::2] = q.packed >> 4
    n = q.rows * q.cols
    values = np.asarray(dota.quant.NF4_LEVELS)[codes[:n]]
    scales = np.repeat(np.asarray(q.absmax, dtype=np.float64), q.block_size)[:n]
    return (values * scales).reshape(q.rows, q.cols)


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class Workload:
    name = ""
    ops = ()  # names of the operations one ``op`` call attempts
    setup_repeats = 3
    setup_each_op = False
    main_array_bytes = 0

    def __init__(self, seed: int, size: dict, workdir: str):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.hash = hashlib.blake2b(digest_size=16)
        self.truncation_errors: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> dict[str, float]:
        raise NotImplementedError

    def check(self) -> dict[str, bool]:
        raise NotImplementedError

    def finish(self) -> dict[str, bool]:
        """Checks that need the whole run; each failure fails the last op."""
        return {}

    def probe(self, tracer) -> None:
        """Extra spans for the traced run, taken outside the timed op."""

    def named_metrics(self, samples: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Convert(Workload):
    name = "convert-4096"
    ops = ("decompose", "decompose_nf4", "reconstruct", "reconstruct_nf4")
    setup_repeats = 1
    setup_each_op = True

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.shape = MpoShape.square(size["factors"])
        self.main_array_bytes = self.shape.rows * self.shape.cols * 8
        self.index = -1
        self.dir = None
        self.w = None

    def _clear(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def setup(self) -> None:
        """Generate the next layer and write it as a DOTM file at a fresh path."""
        self._clear()
        self.index += 1
        self.w = None  # free the previous layer before drawing the next
        self.w = make_layer(self.seed, self.index, self.size["factors"])
        self.hash.update(self.w.tobytes())
        self.dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        self.paths = {
            key: os.path.join(self.dir, name)
            for key, name in (
                ("input", "w.dotm"), ("bundle", "dense.dotc"), ("bundle_nf4", "nf4.dotc"),
                ("back", "dense.dotm"), ("back_nf4", "nf4.dotm"),
            )
        }
        dota.fileio.write_matrix(self.paths["input"], self.w)

    def op(self) -> dict[str, float]:
        p = self.paths
        shape_args = [] if self.size["presets"] else [
            "--shape-in", ",".join(map(str, self.shape.in_factors)),
            "--shape-out", ",".join(map(str, self.shape.out_factors)),
        ]
        decompose = ["decompose", "--input", p["input"], "--rank", str(RANK)] + shape_args
        calls = {
            "decompose": decompose + ["--out", p["bundle"]],
            "decompose_nf4": decompose + ["--quantize-residual", "--out", p["bundle_nf4"]],
            "reconstruct": ["reconstruct", "--bundle", p["bundle"], "--out", p["back"]],
            "reconstruct_nf4": ["reconstruct", "--bundle", p["bundle_nf4"], "--out", p["back_nf4"]],
        }
        self.codes, self.stdout, timings = {}, {}, {}
        for key, argv in calls.items():
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = dota.cli.main(argv)
            timings[f"{key}_s"] = time.perf_counter() - start
            self.codes[key], self.stdout[key] = code, out.getvalue()
        return timings

    def check(self) -> dict[str, bool]:
        p, w = self.paths, self.w
        ok = {key: code == 0 for key, code in self.codes.items()}
        for key, bundle in (("decompose", "bundle"), ("decompose_nf4", "bundle_nf4")):
            _, cores, absmax = read_dotc(p[bundle])
            independent = rel_error(dense_from_cores(cores), w)
            if ok[key]:
                reported = json.loads(self.stdout[key])["relative_truncation_error"]
                ok[key] = abs(reported - independent) <= 1e-9 * independent
        self.truncation_errors.append(independent)
        if ok["reconstruct"]:
            ok["reconstruct"] = rel_error(read_dotm(p["back"]), w) <= 1e-12
        if ok["reconstruct_nf4"]:
            # Criterion 7's bound: every element within half the largest
            # codebook gap times its block's absmax, plus rounding of the sum.
            half_gap = dota.quant.nf4_codebook().max_gap / 2.0
            back = read_dotm(p["back_nf4"])
            err = np.abs(back - w).reshape(-1)
            slack = 4 * np.finfo(np.float64).eps * (np.abs(w) + np.abs(back)).reshape(-1)
            block = dota.quant.DEFAULT_BLOCK_SIZE
            limit = np.repeat(absmax, block)[: err.size] * half_gap + slack
            ok["reconstruct_nf4"] = bool(np.all(err <= limit))
        self._clear()
        return ok

    def named_metrics(self, samples):
        return {
            key: (float(np.median([s[key] for s in samples])), "s")
            for key in ("decompose_s", "decompose_nf4_s", "reconstruct_s", "reconstruct_nf4_s")
        }

    def close(self) -> None:
        self._clear()


class Finetune(Workload):
    name = "finetune-1024"
    ops = ("train_step", "qtrain_step")

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.shape = MpoShape.square(size["factors"])
        self.main_array_bytes = self.shape.rows * self.shape.cols * 8
        eval_rng = _rng(seed, 2)
        self.x_eval = eval_rng.standard_normal((size["batch"], self.shape.rows))
        self.first_forward_ok = True

    def _batch(self, t: int):
        x = _rng(self.seed, 1, t).standard_normal((self.size["batch"], self.shape.rows))
        return x, x @ self.task.w_star

    def setup(self) -> None:
        """Task, both adapters, their first forward (checked) and one warm-up
        step each, which also decodes the NF4 residual once."""
        self.task = dota.harness.make_task(
            self.shape, r_delta=RANK, delta_scale=0.05,
            batch_size=self.size["batch"], seed=self.seed,
        )
        self.dense = dota.adapter.dota_init(self.task.w0, self.shape, RANK)
        self.nf4 = dota.quant.qdota_init(self.task.w0, self.shape, RANK)
        y0 = self.dense.forward(self.x_eval)
        q0 = self.nf4.forward(self.x_eval)
        self.first_forward_ok &= rel_error(y0, self.x_eval @ self.task.w0) <= 1e-10
        q_weight = decode_nf4(self.nf4.q_res) + dense_from_cores(
            [c.data for c in self.nf4.cores.cores])
        self.first_forward_ok &= rel_error(q0, self.x_eval @ q_weight) <= 1e-10
        self.truncation_errors.append(
            float(np.linalg.norm(self.dense.w_res) / np.linalg.norm(self.task.w0)))
        y = self.x_eval @ self.task.w_star
        self.eval_start = (float(np.mean((y0 - y) ** 2)), float(np.mean((q0 - y) ** 2)))
        self.step = 0
        self.op()

    def _train_step(self, adapter, x, y) -> float:
        y_hat = adapter.forward(x)
        loss = float(np.mean((y_hat - y) ** 2))
        grads, _ = adapter.backward(x, 2.0 * (y_hat - y) / y_hat.size)
        adapter.apply_gradients(grads, self.size["lr"])
        return loss

    def op(self) -> dict[str, float]:
        x, y = self._batch(self.step)
        self.hash.update(x.tobytes())
        self.step += 1
        timings, self.losses = {}, {}
        for key, adapter in (("train_step_s", self.dense), ("qtrain_step_s", self.nf4)):
            start = time.perf_counter()
            self.losses[key] = self._train_step(adapter, x, y)
            timings[key] = time.perf_counter() - start
        self.last_x = x
        return timings

    def check(self) -> dict[str, bool]:
        return {
            "train_step": math.isfinite(self.losses["train_step_s"]),
            "qtrain_step": math.isfinite(self.losses["qtrain_step_s"]),
        }

    def finish(self) -> dict[str, bool]:
        y = self.x_eval @ self.task.w_star
        dense_end, nf4_end = (
            float(np.mean((a.forward(self.x_eval) - y) ** 2)) for a in (self.dense, self.nf4))
        return {
            "first_forward": bool(self.first_forward_ok),
            "dense_loss_falls": dense_end < self.eval_start[0],
            "nf4_loss_falls": nf4_end < self.eval_start[1],
        }

    def probe(self, tracer) -> None:
        with tracer.span("adapter.residual_matmul"):
            self.last_x @ self.dense.w_res

    def named_metrics(self, samples):
        out = {}
        for key, name in (("train_step_s", "train_step_ms"), ("qtrain_step_s", "qtrain_step_ms")):
            ms = np.array([s[key] for s in samples]) * 1e3
            out[f"{name}_p50"] = (float(np.percentile(ms, 50)), "ms")
            out[f"{name}_p90"] = (float(np.percentile(ms, 90)), "ms")
        return out


class Ablation(Workload):
    name = "ablation-64"
    ops = ("ablation",)
    setup_repeats = 9  # set-up takes milliseconds; more repeats steady its median
    main_array_bytes = 64 * 64 * 8

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.index = 0

    def _config(self, **overrides):
        base = self.seed * 10_000 + 3 * self.index
        raw = dict(ABLATION_CONFIG, seeds=[base + 1, base + 2, base + 3], **overrides)
        self.hash.update(json.dumps(raw, sort_keys=True).encode())
        return dota.harness.AblationConfig.from_dict(raw)

    def setup(self) -> None:
        """Validate a config and run a one-step warm-up grid: the fixed cost
        of three tasks and four initializations per seed."""
        dota.harness.ablate(self._config(steps=1))

    def op(self) -> dict[str, float]:
        start = time.perf_counter()
        self.logs, _ = dota.harness.ablate(self._config())
        elapsed = time.perf_counter() - start
        self.index += 1
        return {"ablation_s": elapsed}

    def check(self) -> dict[str, bool]:
        return {"ablation": criterion_9_holds(self.logs)}

    def finish(self) -> dict[str, bool]:
        # Quality guard: truncation error of the rank-R chain on one task.
        task = dota.harness.make_task(
            MpoShape.square((4, 4, 4)), r_delta=8, delta_scale=0.05, seed=self.seed * 10_000 + 1)
        chain = dota.mpo.mpo_decompose(task.w0, task.shape, RANK)
        self.truncation_errors.append(rel_error(dense_from_cores(
            [c.data for c in chain.cores]), task.w0))
        return {}

    def named_metrics(self, samples):
        return {"ablation_s": (float(np.median([s["ablation_s"] for s in samples])), "s")}


def criterion_9_holds(logs) -> bool:
    """Acceptance criterion 9's margins on one grid's final eval losses."""
    if len(logs) != 12 or any(log.diverged for log in logs):
        return False
    finals: dict[str, list[float]] = {}
    for log in logs:
        finals.setdefault(log.method, []).append(log.final_eval_loss)
    mean = {m: float(np.mean(v)) for m, v in finals.items()}
    ordered = mean["dota"] <= mean["dota-random"]
    within_two = 0.5 * mean["full-ft"] <= mean["dota"] <= 2.0 * mean["full-ft"]
    random_margin = mean["dota-random"] >= 1.2 * mean["dota"]
    if within_two and random_margin:
        return ordered
    per_seed = all(
        f <= d <= r for f, d, r in zip(finals["full-ft"], finals["dota"], finals["dota-random"])
    )
    return ordered and per_seed


WORKLOADS = {cls.name: cls for cls in (Convert, Finetune, Ablation)}
