"""Tests of the benchmark itself: metric coverage, tracing, inputs, checks.

Run from the repository root with ``python -m pytest benchmarks``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import dota  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# End-to-end metrics named by the benchmark's design, per workload; printed
# on the "named" line of every untraced run.
NAMED = {
    "convert-4096": {"decompose_s", "decompose_nf4_s", "reconstruct_s", "reconstruct_nf4_s"},
    "finetune-1024": {"train_step_ms_p50", "train_step_ms_p90",
                      "qtrain_step_ms_p50", "qtrain_step_ms_p90"},
    "ablation-64": {"ablation_s"},
}
COMMON = {"setup_s", "peak_rss_mb", "failed_frac"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result, lines = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert np.isfinite(value["value"])
    if not trace:
        named = json.loads(next(line for line in lines if line.startswith("named "))[6:])
        assert set(named) == COMMON | NAMED[workload]
        assert all(v["unit"] for v in named.values())
    assert any(line.startswith("env ") for line in lines)


def test_all_prints_every_named_metric():
    proc = bench("--workload", "all", "--seed", "4", "--seconds", "0.2", "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {f"{w}/{m}" for w, names in NAMED.items() for m in names | COMMON}
    assert set(result["metrics"]) == expected
    assert len({key.split("/")[1] for key in expected}) == 12


def test_counts_repeat_across_runs_and_seeds():
    first, _ = smoke("finetune-1024", 1, seed=5)
    second, _ = smoke("finetune-1024", 1, seed=6)
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "bytes"):
            name = m["name"]
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["mpo.reconstruct_calls_per_step"]["value"] == 2.0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ablation-64", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _originals():
    return {
        (module, attribute): tracing._resolve(module, attribute)
        for module, attribute, _, _ in tracing.TRACE_POINTS
    }


def _current(resolved):
    return {key: vars(owner)[name] for key, (owner, name) in resolved.items()}


def test_tracer_restores_originals_even_after_an_error():
    resolved = _originals()
    before = _current(resolved)
    tracer = tracing.Tracer()
    with pytest.raises(dota.ShapeError):
        with tracer.installed():
            during = _current(resolved)
            assert all(during[k] is not before[k] for k in before)
            dota.cli.mpo_decompose(np.ones((3, 3)), dota.MpoShape.square((2, 2)))
    assert all(_current(resolved)[k] is before[k] for k in before)
    assert "mpo.mpo_decompose" in tracer.names


def test_traced_run_restores_originals():
    resolved = _originals()
    before = _current(resolved)
    result, _ = run.run_workload("finetune-1024", 1, 0.1, 1, "smoke")
    assert result["correct"]
    assert all(_current(resolved)[k] is before[k] for k in before)


def test_a_failed_check_fails_the_run(monkeypatch):
    monkeypatch.setattr(workloads.Finetune, "check",
                        lambda self: {"train_step": True, "qtrain_step": False})
    result, lines = run.run_workload("finetune-1024", 1, 0.1, 0, "smoke")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2
    assert result["metrics"]["ok_frac"]["value"] == 0.5
    assert any(line.startswith("check qtrain_step: 0/") for line in lines)


def test_self_time_on_a_synthetic_span_tree():
    #   root [0, 10]
    #     a  [1, 4]
    #     b  [5, 9]
    #       c [6, 7]
    #   d    [11, 12]   second root
    names = ["root", "a", "b", "c", "d"]
    table = tracing.SpanTable(
        names=names,
        name_id=[0, 1, 2, 3, 4],
        start=[0.0, 1.0, 5.0, 6.0, 11.0],
        end=[10.0, 4.0, 9.0, 7.0, 12.0],
        parent=[-1, 0, 0, 2, -1],
        nbytes=[0, 0, 0, 0, 0],
    )
    assert table.self_time.tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert table.nearest(["b"]).tolist() == [-1, -1, 2, 2, -1]
    assert table.nearest(["root"]).tolist() == [0, 0, 0, 0, -1]
    assert table.median_ms("b", self_time=True) == 3000.0
    assert table.median_ms("missing") == 0.0


def test_wrapper_records_nesting_and_file_bytes(tmp_path):
    tracer = tracing.Tracer()
    path = tmp_path / "m.dotm"
    with tracer.installed(), tracer.span("bench.op"):
        dota.fileio.write_matrix(str(path), np.ones((4, 4)))
    table = tracing.SpanTable.from_tracer(tracer)
    i = table.names.index("fileio.write_matrix")
    assert table.parent[i] == table.names.index("bench.op")
    assert table.nbytes[i] == os.path.getsize(path)


def test_inputs_depend_only_on_the_seed():
    a = workloads.make_layer(7, 0, (4, 4, 4))
    assert a.tobytes() == workloads.make_layer(7, 0, (4, 4, 4)).tobytes()
    assert not np.array_equal(a, workloads.make_layer(8, 0, (4, 4, 4)))
    assert not np.array_equal(a, workloads.make_layer(7, 1, (4, 4, 4)))


def test_independent_checks_agree_with_the_library(tmp_path):
    shape = dota.MpoShape.square((4, 4, 4))
    w = workloads.make_layer(1, 0, shape.in_factors)
    chain = dota.mpo_decompose(w, shape, 8)
    assert np.allclose(workloads.dense_from_cores([c.data for c in chain.cores]),
                       dota.reconstruct(chain), rtol=0, atol=1e-14)
    q = dota.quantize_nf4(w, 64)
    assert np.array_equal(workloads.decode_nf4(q), dota.dequantize_nf4(q))
    dota.write_matrix(tmp_path / "w.dotm", w)
    assert np.array_equal(workloads.read_dotm(tmp_path / "w.dotm"), w)
    dota.write_bundle(tmp_path / "q.dotc", chain, q)
    header, cores, absmax = workloads.read_dotc(tmp_path / "q.dotc")
    assert header["block_size"] == 64
    assert np.array_equal(absmax, q.absmax)
    assert all(np.array_equal(a, c.data) for a, c in zip(cores, chain.cores))
