"""Benchmark of the dota library: conversion, fine-tuning and the ablation.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload convert-4096 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

One run is one process and one closed loop: a single caller issues an
operation, waits for it, checks its output, and issues the next until
``--seconds`` of measuring are spent. ``--workload all`` runs the three
workloads one after another, each in its own process.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics of BENCHMARK.json. With ``--trace 1`` it carries the
per-layer metrics instead: every other operation runs with span wrappers
installed around the ``dota`` layers, the rest without, and the gap between
the two medians is reported as the tracing overhead. The lines before it
name every workload metric with its unit, every check, and the machine.

Exit codes: 0 when every check passed, 1 when one failed, 2 when the
library sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "dota")
NAMES = ("convert-4096", "finetune-1024", "ablation-64")

# One BLAS thread: on a 2-core AMD EPYC guest, mpo_decompose at 4096 took
# a bimodal 1.23 to 1.91 s with two threads against 1.60 to 1.74 s with one.
BLAS_THREADS = 1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="problem sizes; 'smoke' is for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _blas_threads_in_use():
    """Ask the OpenBLAS that numpy loaded how many threads it runs, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    units = {"K": 1024, "M": 1024 ** 2}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = _l3_bytes()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "l3_bytes": l3,
        "main_array_bytes": workload.main_array_bytes,
        "main_array_over_l3": round(workload.main_array_bytes / l3, 4) if l3 else None,
        "src_lines": _src_lines(),
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _as_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_workload(name, seed, seconds, trace, scale):
    """Run one workload in this process; returns (result, report lines)."""
    import statistics
    import time
    import traceback

    import numpy as np

    from tracing import SpanTable, Tracer, layer_metrics, overhead_pct
    from workloads import SCALES, WORKLOADS

    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[name](seed, SCALES[scale][name], WORKDIR)
    tracer = Tracer() if trace else None
    setup_s, samples, op_s, traced_s, untraced_s = [], [], [], [], []
    attempted = failed = 0
    verdicts: dict[str, list[bool]] = {}

    def timed_setup():
        start = time.perf_counter()
        if tracer is None:
            workload.setup()
        else:
            with tracer.installed(), tracer.span("bench.setup"):
                workload.setup()
        setup_s.append(time.perf_counter() - start)

    try:
        for _ in range(workload.setup_repeats):
            timed_setup()
        min_ops = 2 if trace else 1
        deadline = time.perf_counter() + seconds
        n = 0
        while n < min_ops or time.perf_counter() < deadline:
            if n and workload.setup_each_op:
                timed_setup()
            traced = tracer is not None and n % 2 == 0
            try:
                if traced:
                    with tracer.installed(), tracer.span("bench.op"):
                        timings = workload.op()
                    workload.probe(tracer)
                else:
                    timings = workload.op()
                checks = workload.check()
            except Exception:
                traceback.print_exc()
                checks = {op: False for op in workload.ops}
            else:
                samples.append(timings)
                op_s.append(sum(timings.values()))
                (traced_s if traced else untraced_s).append(op_s[-1])
            for op, ok in checks.items():
                verdicts.setdefault(op, []).append(ok)
            attempted += len(checks)
            failed += sum(not ok for ok in checks.values())
            n += 1
        last_failed = not all(checks.values())
        final = workload.finish()
        for check, ok in final.items():
            verdicts.setdefault(check, []).append(ok)
        if not all(final.values()) and not last_failed:
            failed += 1
    finally:
        workload.close()

    lines = [f"workload {name} seed {seed} scale {scale} trace {trace}: "
             f"{len(op_s)} operations timed, {attempted} attempted, {failed} failed"]
    for check, oks in verdicts.items():
        lines.append(f"check {check}: {sum(oks)}/{len(oks)} passed")
    if trace:
        path = os.path.join(ROOT, ".bench_build", "traces", f"{name}-seed{seed}.npz")
        tracer.save(path)
        metrics = layer_metrics(SpanTable.from_tracer(tracer))
        metrics["mpo.relative_truncation_error"] = (
            float(np.median(workload.truncation_errors)), "ratio")
        metrics["bench.trace_overhead_pct"] = (overhead_pct(traced_s, untraced_s), "%")
        lines.append(f"trace {len(tracer)} spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "op_s_p50": (statistics.median(op_s) if op_s else 0.0, "s"),
        }
        named = {
            "setup_s": metrics["setup_s"],
            "peak_rss_mb": metrics["peak_rss_mb"],
            "failed_frac": (failed / attempted, "ratio"),
        }
        if samples:
            named.update(workload.named_metrics(samples))
        for key, (value, unit) in named.items():
            lines.append(f"metric {key} = {value:.6g} {unit}")
        lines.append("named " + json.dumps(_as_json(named)))
    env = dict(environment(workload), input_hash=workload.hash.hexdigest())
    lines.append("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _as_json(metrics),
    }
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process; prints their lines and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
            if line.startswith("named ") and not args.trace:
                for key, value in json.loads(line[len("named "):]).items():
                    combined["metrics"][f"{name}/{key}"] = value
        if args.trace:
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = value
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "dota", "__init__.py")):
        print(f"error: no dota sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if BLAS_THREADS > (os.cpu_count() or 1):
        print("error: more BLAS threads pinned than processors", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    import dota

    if os.path.dirname(os.path.dirname(os.path.abspath(dota.__file__))) != SRC:
        print(f"error: dota imported from {dota.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
