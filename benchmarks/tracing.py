"""Outside-in span tracing of the ``dota`` layers.

The tracer replaces public functions and methods of the ``dota`` modules
with timing wrappers, at the module or class attribute through which
another layer calls them, and puts the originals back on ``restore``.
Nothing inside ``src/`` changes: a span covers one call across a layer
boundary, seen from the caller's side.

Spans stay in memory as parallel arrays (name id, start, end, parent,
bytes) and are written out once, at the end of a run. A span's self time
is its duration minus the durations of its direct children; calls are
strictly nested in this single-threaded program, so children never
overlap each other and lie inside their parent.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


def _cli_name(args, kwargs, result):
    argv = kwargs.get("argv", args[0] if args else None)
    return f"cli.{argv[0]}" if argv else "cli.main"


def _write_bundle_name(args, kwargs, result):
    residual = kwargs.get("residual", args[2] if len(args) > 2 else None)
    quantized = type(residual).__name__ == "QuantizedMatrix"
    return "fileio.write_bundle_nf4" if quantized else "fileio.write_bundle"


def _read_bundle_name(args, kwargs, result):
    nf4 = result is not None and result.residual_quantized
    return "fileio.read_bundle_nf4" if nf4 else "fileio.read_bundle"


def _run_experiment_name(args, kwargs, result):
    method = kwargs.get("method", args[1] if len(args) > 1 else "?")
    return f"harness.run_experiment.{method}"


# (module, attribute, span name, records file bytes). The attribute is the
# one the calling layer looks up at call time: a function imported by name
# into another module is wrapped there, a method on its class. A span name
# is either fixed or derived from the call's arguments and result.
TRACE_POINTS = (
    ("dota.cli", "main", _cli_name, False),
    ("dota.cli", "mpo_decompose", "mpo.mpo_decompose", False),
    ("dota.adapter", "mpo_decompose", "mpo.mpo_decompose", False),
    ("dota.quant", "mpo_decompose", "mpo.mpo_decompose", False),
    ("dota.harness", "mpo_decompose", "mpo.mpo_decompose", False),
    ("dota.mpo", "reorder_for_mpo", "mpo.reorder_for_mpo", False),
    ("dota.cli", "reconstruct", "mpo.reconstruct", False),
    ("dota.mpo", "reconstruct", "mpo.reconstruct", False),
    ("dota.adapter", "reconstruct", "mpo.reconstruct", False),
    ("dota.quant", "reconstruct", "mpo.reconstruct", False),
    ("dota.harness", "reconstruct", "mpo.reconstruct", False),
    ("dota.cli", "reconstruction_error", "mpo.reconstruction_error", False),
    ("dota.mpo", "CoreChain.__post_init__", "mpo.CoreChain", False),
    ("dota.tensor_core", "DenseTensor.__post_init__", "tensor_core.DenseTensor", False),
    ("dota.adapter", "DotaAdapter.forward", "adapter.forward", False),
    ("dota.adapter", "DotaAdapter.backward", "adapter.backward", False),
    ("dota.adapter", "DotaAdapter.apply_gradients", "adapter.apply_gradients", False),
    ("dota.adapter", "DotaAdapter.merge", "adapter.merge", False),
    ("dota.adapter", "chain_gradients", "adapter.chain_gradients", False),
    ("dota.quant", "chain_gradients", "adapter.chain_gradients", False),
    ("dota.adapter", "dota_init", "adapter.dota_init", False),
    ("dota.harness", "dota_init", "adapter.dota_init", False),
    ("dota.quant", "QdotaAdapter.forward", "quant.qdota_forward", False),
    ("dota.quant", "QdotaAdapter.backward", "quant.qdota_backward", False),
    ("dota.quant", "QdotaAdapter.apply_gradients", "quant.qdota_apply_gradients", False),
    ("dota.quant", "QdotaAdapter.merge", "quant.qdota_merge", False),
    ("dota.quant", "qdota_init", "quant.qdota_init", False),
    ("dota.cli", "quantize_nf4", "quant.quantize_nf4", False),
    ("dota.quant", "quantize_nf4", "quant.quantize_nf4", False),
    ("dota.cli", "dequantize_nf4", "quant.dequantize_nf4", False),
    ("dota.quant", "dequantize_nf4", "quant.dequantize_nf4", False),
    ("dota.cli", "read_matrix", "fileio.read_matrix", True),
    ("dota.fileio", "read_matrix", "fileio.read_matrix", True),
    ("dota.cli", "write_matrix", "fileio.write_matrix", True),
    ("dota.fileio", "write_matrix", "fileio.write_matrix", True),
    ("dota.cli", "read_bundle", _read_bundle_name, True),
    ("dota.cli", "write_bundle", _write_bundle_name, True),
    ("dota.harness", "make_task", "harness.make_task", False),
    ("dota.harness", "run_experiment", _run_experiment_name, False),
    ("dota.harness", "ablate", "harness.ablate", False),
)


def _resolve(module_name: str, attribute: str):
    """The object that owns the attribute (module or class) and its local name."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.nbytes = array("q")
        self._stack = [NO_PARENT]
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name) if isinstance(name, str) else 0)
        self.parent.append(self._stack[-1])
        self.nbytes.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name, with_bytes: bool):
        open_, close = self._open, self._close
        name_id, nbytes = self.name_id, self.nbytes
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            i = open_(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(i)
                if not fixed:
                    name_id[i] = self._id(name(args, kwargs, result))
                if with_bytes:
                    path = _path_arg(args, kwargs)
                    if path is not None and os.path.exists(path):
                        nbytes[i] = os.path.getsize(path)

        return traced

    def install(self) -> None:
        """Replace every trace point with a recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, attribute, name, with_bytes in TRACE_POINTS:
                owner, local = _resolve(module_name, attribute)
                original = vars(owner)[local]
                self._saved.append((owner, local, original))
                setattr(owner, local, self._wrap(original, name, with_bytes))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original attribute back, in reverse order of installation."""
        while self._saved:
            owner, local, original = self._saved.pop()
            setattr(owner, local, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, **self.arrays())


class SpanTable:
    """Read-only analysis of recorded spans."""

    def __init__(self, names, name_id, start, end, parent, nbytes):
        self.names = list(names)
        self.name = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.nbytes = np.asarray(nbytes, dtype=np.int64)
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent],
            weights=self.duration[has_parent],
            minlength=len(self.duration),
        )
        self.self_time = self.duration - covered[: len(self.duration)]

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanTable":
        a = tracer.arrays()
        return cls(a["names"], a["name_id"], a["start"], a["end"], a["parent"], a["nbytes"])

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def nearest(self, kinds) -> np.ndarray:
        """Index of each span's nearest ancestor (or itself) named in ``kinds``,
        or -1. Parents precede their children, so one forward pass suffices."""
        ids = {self.names.index(k) for k in kinds if k in self.names}
        out = np.full(len(self.name), NO_PARENT, dtype=np.int64)
        name, parent = self.name.tolist(), self.parent.tolist()
        for i in range(len(name)):
            if name[i] in ids:
                out[i] = i
            elif parent[i] >= 0:
                out[i] = out[parent[i]]
        return out

    def median_ms(self, name: str, self_time: bool = False, where=None) -> float:
        """Median per-call time in ms; 0.0 when the layer was never called."""
        m = self.mask(name)
        if where is not None:
            m &= where
        values = (self.self_time if self_time else self.duration)[m]
        return float(np.median(values)) * 1e3 if values.size else 0.0

    def count(self, name: str, where=None) -> int:
        m = self.mask(name)
        if where is not None:
            m &= where
        return int(m.sum())


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when nothing was counted."""
    return float(numerator) / denominator if denominator else 0.0


def overhead_pct(traced_s, untraced_s) -> float:
    """Median traced operation time over median untraced, minus one, in percent."""
    if not traced_s or not untraced_s:
        return 0.0
    return (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0) * 100.0


STEP_SPANS = (
    "adapter.forward", "adapter.backward", "adapter.apply_gradients",
    "quant.qdota_forward", "quant.qdota_backward", "quant.qdota_apply_gradients",
)

# Per-call timings: metric name -> (span name, self time instead of duration).
_TIMINGS_MS = {
    "mpo.mpo_decompose_ms": ("mpo.mpo_decompose", False),
    "mpo.reorder_for_mpo_ms": ("mpo.reorder_for_mpo", False),
    "mpo.reconstruct_ms": ("mpo.reconstruct", False),
    "adapter.forward_ms": ("adapter.forward", True),
    "adapter.backward_ms": ("adapter.backward", True),
    "adapter.apply_gradients_ms": ("adapter.apply_gradients", True),
    "adapter.chain_gradients_ms": ("adapter.chain_gradients", False),
    "adapter.merge_ms": ("adapter.merge", False),
    "adapter.residual_matmul_ms": ("adapter.residual_matmul", False),
    "adapter.dota_init_ms": ("adapter.dota_init", False),
    "quant.quantize_nf4_ms": ("quant.quantize_nf4", False),
    "quant.dequantize_nf4_ms": ("quant.dequantize_nf4", False),
    "quant.qdota_forward_ms": ("quant.qdota_forward", True),
    "quant.qdota_backward_ms": ("quant.qdota_backward", True),
    "quant.qdota_apply_gradients_ms": ("quant.qdota_apply_gradients", True),
    "quant.qdota_merge_ms": ("quant.qdota_merge", False),
    "quant.qdota_init_ms": ("quant.qdota_init", False),
    "fileio.write_matrix_ms": ("fileio.write_matrix", False),
    "fileio.write_bundle_ms": ("fileio.write_bundle", False),
    "fileio.write_bundle_nf4_ms": ("fileio.write_bundle_nf4", False),
    "fileio.read_matrix_ms": ("fileio.read_matrix", False),
    "fileio.read_bundle_ms": ("fileio.read_bundle", False),
    "fileio.read_bundle_nf4_ms": ("fileio.read_bundle_nf4", False),
    "cli.decompose_self_ms": ("cli.decompose", True),
    "cli.reconstruct_self_ms": ("cli.reconstruct", True),
    "harness.make_task_ms": ("harness.make_task", False),
    "harness.run_experiment_ms.dota": ("harness.run_experiment.dota", False),
    "harness.run_experiment_ms.dota-random": ("harness.run_experiment.dota-random", False),
    "harness.run_experiment_ms.lora": ("harness.run_experiment.lora", False),
    "harness.run_experiment_ms.full-ft": ("harness.run_experiment.full-ft", False),
}


def layer_metrics(t: SpanTable) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a run's spans, as name -> (value, unit).

    Timings are medians per call over the calls made inside traced
    operations, or over the set-up calls for a layer that only set-up uses.
    Counts use only the spans inside traced operations, so warm-up work is
    excluded and they repeat exactly from run to run. A layer that the
    workload never calls reads 0.
    """
    in_op = t.nearest(["bench.op"]) >= 0
    out = {}
    for name, (span, self_time) in _TIMINGS_MS.items():
        where = in_op if t.count(span, in_op) else None
        out[name] = (t.median_ms(span, self_time, where), "ms")
    in_step = t.nearest(STEP_SPANS) >= 0
    in_qstep = t.nearest(STEP_SPANS[3:]) >= 0
    in_decompose = t.nearest(["cli.decompose"]) >= 0
    steps = t.count("adapter.forward", in_op) + t.count("quant.qdota_forward", in_op)
    qsteps = t.count("quant.qdota_forward", in_op)
    ops = t.count("bench.op")
    def named_like(prefix):
        return np.isin(t.name, [i for i, n in enumerate(t.names) if n.startswith(prefix)])

    written = in_op & named_like("fileio.write")
    read = in_op & named_like("fileio.read")
    out.update({
        "mpo.reconstruct_calls_per_decompose": (ratio(
            t.count("mpo.reconstruct", in_op & in_decompose),
            t.count("cli.decompose", in_op)), "count"),
        "mpo.reconstruct_calls_per_step": (ratio(
            t.count("mpo.reconstruct", in_op & in_step), steps), "count"),
        "mpo.core_chain_build_us": (t.median_ms("mpo.CoreChain", where=in_op) * 1e3, "us"),
        "quant.dequantize_calls_per_step": (ratio(
            t.count("quant.dequantize_nf4", in_op & in_qstep), qsteps), "count"),
        "fileio.bytes_written": (ratio(int(t.nbytes[written].sum()), ops), "bytes"),
        "fileio.bytes_read": (ratio(int(t.nbytes[read].sum()), ops), "bytes"),
        "tensor_core.dense_tensors_per_step": (ratio(
            t.count("tensor_core.DenseTensor", in_op & in_step), steps), "count"),
    })
    return out
