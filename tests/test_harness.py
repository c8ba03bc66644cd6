import itertools
import math

import numpy as np
import pytest

import dota.harness
from dota import (
    AblationConfig,
    Hyper,
    MpoShape,
    ParameterError,
    ShapeError,
    ablate,
    balanced_factors,
    default_tensor_shape,
    dota_init,
    lora_init,
    make_task,
    mpo_decompose,
    param_count,
    random_init_cores,
    reconstruct,
    reconstruction_error,
    run_experiment,
    summarize,
    truncated_ranks,
)

SHAPE_64 = MpoShape.square([4, 4, 4])


def small_task(seed=1, r_delta=4, delta_scale=0.05):
    return make_task(SHAPE_64, r_delta=r_delta, delta_scale=delta_scale, seed=seed)


def reference_dota_records(task, hyper):
    """The records of a dota run, stepped through the adapter's own
    forward/backward/apply_gradients on the harness's batch streams
    (SeedSequence [seed, 1, step] for training, [seed, 2] for eval)."""

    def draw(*key):
        rng = np.random.default_rng(np.random.SeedSequence(list(key)))
        return rng.standard_normal((task.batch_size, task.shape.rows))

    adapter = dota_init(task.w0, task.shape, hyper.rank)
    x_eval = draw(task.seed, 2)
    records = []

    def record(step):
        w = adapter.merge()
        xb = draw(task.seed, 1, step + 1)
        train = float(np.mean((xb @ w - xb @ task.w_star) ** 2))
        records.append((step, train, float(np.mean((x_eval @ w - x_eval @ task.w_star) ** 2))))

    record(0)
    for t in range(1, hyper.steps + 1):
        xb = draw(task.seed, 1, t)
        y = adapter.forward(xb)
        grads, _ = adapter.backward(xb, 2.0 * (y - xb @ task.w_star) / y.size)
        adapter.apply_gradients(grads, hyper.lr)
        if t % hyper.eval_every == 0 or t == hyper.steps:
            record(t)
    return records


def reference_run(task, method, hyper):
    """(records, diverged, diverged_at) of the two-pass loop that
    run_experiment replaced: after each logged step, a separate pass rebuilt
    the weight and drew the next batch again for the train loss."""
    state = dota.harness._init_method(task, method, hyper)
    shape = (task.batch_size, task.shape.rows)

    def draw(*key):
        return np.random.default_rng(np.random.SeedSequence(list(key))).standard_normal(shape)

    def batch(t):
        return draw(task.seed, 1, t)

    x_eval = draw(task.seed, 2)
    y_eval = x_eval @ task.w_star
    records = []

    def record(step):
        with np.errstate(over="ignore", invalid="ignore"):
            w = state.effective_weight()
            ev = float(np.mean((x_eval @ w - y_eval) ** 2))
            xb = batch(step + 1)
            tr = float(np.mean((xb @ w - xb @ task.w_star) ** 2))
        if not (math.isfinite(ev) and math.isfinite(tr)):
            return False
        records.append((step, tr, ev))
        return True

    if not record(0):
        return records, True, 0
    for t in range(1, hyper.steps + 1):
        xb = batch(t)
        with np.errstate(over="ignore", invalid="ignore"):
            err = xb @ state.effective_weight() - xb @ task.w_star
            loss = float(np.mean(err**2))
            if math.isfinite(loss):
                state.gradient_step(xb.T @ (2.0 * err / err.size), hyper.lr)
        if not math.isfinite(loss):
            return records, True, t
        if (t % hyper.eval_every == 0 or t == hyper.steps) and not record(t):
            return records, True, t
    return records, False, None


class TestRandomInit:
    def test_chain_contracts_to_zero(self):
        chain = random_init_cores(SHAPE_64, truncated_ranks(SHAPE_64, 8), seed=3)
        assert not reconstruct(chain).any()

    def test_same_seed_is_bitwise_identical(self):
        ranks = truncated_ranks(SHAPE_64, 8)
        a = random_init_cores(SHAPE_64, ranks, seed=7)
        b = random_init_cores(SHAPE_64, ranks, seed=7)
        for ca, cb in zip(a.cores, b.cores):
            assert np.array_equal(ca.data, cb.data)

    def test_matches_decomposed_adapter_geometry(self):
        # same core shapes and ranks as the decomposition-initialized chain
        w0 = np.random.default_rng(0).normal(size=(64, 64))
        decomposed = mpo_decompose(w0, SHAPE_64, 8)
        random_chain = random_init_cores(SHAPE_64, truncated_ranks(SHAPE_64, 8), seed=1)
        assert random_chain.ranks == decomposed.ranks
        for a, b in zip(random_chain.cores, decomposed.cores):
            assert a.shape == b.shape

    def test_single_core_chain_is_zero(self):
        shape = MpoShape((8,), (8,))
        chain = random_init_cores(shape, (1, 1), seed=5)
        assert not reconstruct(chain).any()

    @pytest.mark.parametrize("ranks", [(1, 2.5, 4.0, 1), (1, True, 4, 1), (1.0, 4, 4, 1)])
    def test_non_integer_rank_is_shape_error(self, ranks):
        with pytest.raises(ShapeError):
            random_init_cores(SHAPE_64, ranks, seed=1)


class TestTask:
    def test_perturbation_ratio_recorded(self):
        task = small_task(seed=2, delta_scale=0.05)
        assert task.delta_fro_ratio == pytest.approx(0.05, rel=1e-12)

    def test_delta_has_bounded_tensor_rank(self):
        task = small_task(seed=3, r_delta=4)
        delta = task.w_star - task.w0
        chain = mpo_decompose(delta, SHAPE_64, task.r_delta)
        assert reconstruction_error(delta, chain) <= 1e-10

    def test_deterministic(self):
        a, b = small_task(seed=4), small_task(seed=4)
        assert np.array_equal(a.w0, b.w0)
        assert np.array_equal(a.w_star, b.w_star)

    def test_zero_delta_scale(self):
        task = make_task(SHAPE_64, r_delta=2, delta_scale=0.0, seed=5)
        assert np.array_equal(task.w0, task.w_star)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            make_task(SHAPE_64, r_delta=0, delta_scale=0.05)
        with pytest.raises(ParameterError):
            make_task(SHAPE_64, r_delta=2, delta_scale=-1.0)
        for bad in (dict(batch_size=0), dict(r_delta=2.5), dict(seed=1.5),
                    dict(batch_size=2.5), dict(delta_scale="x"), dict(seed=True)):
            with pytest.raises(ParameterError):
                make_task(SHAPE_64, **{"r_delta": 2, "delta_scale": 0.05, **bad})


class TestRunExperiment:
    def test_zero_steps_logs_shared_initial_loss(self):
        task = small_task(seed=6)
        hyper = Hyper(steps=0, lr=0.1, rank=8)
        losses = {}
        for method in ("dota", "dota-random", "lora", "full-ft"):
            log = run_experiment(task, method, hyper)
            assert len(log.records) == 1
            assert log.records[0][0] == 0
            losses[method] = log.records[0][2]
        values = list(losses.values())
        assert max(values) - min(values) <= 1e-10 * max(values)

    def test_rerun_is_identical(self):
        task = small_task(seed=7)
        hyper = Hyper(steps=25, lr=0.1, rank=8, eval_every=5)
        a = run_experiment(task, "dota", hyper)
        b = run_experiment(task, "dota", hyper)
        assert a.records == b.records

    def test_trainable_parameter_reporting(self):
        task = small_task(seed=8)
        hyper = Hyper(steps=0, lr=0.1, rank=8)
        expected = {
            "dota": param_count(SHAPE_64, truncated_ranks(SHAPE_64, 8)),
            "dota-random": param_count(SHAPE_64, truncated_ranks(SHAPE_64, 8)),
            "lora": 8 * (64 + 64),
            "full-ft": 64 * 64,
        }
        for method, count in expected.items():
            assert run_experiment(task, method, hyper).trainable_params == count

    def test_divergence_leaves_partial_finite_log(self):
        task = small_task(seed=9)
        log = run_experiment(task, "full-ft", Hyper(steps=200, lr=1e6, rank=8))
        assert log.diverged
        assert log.diverged_at is not None
        assert all(np.isfinite(tr) and np.isfinite(ev) for _, tr, ev in log.records)
        assert len(log.records) < 21

    def test_dota_matches_adapter_reference_loop(self):
        task = small_task(seed=12, r_delta=8)
        hyper = Hyper(steps=60, lr=0.1, rank=8, eval_every=15)
        records = run_experiment(task, "dota", hyper).records
        reference = reference_dota_records(task, hyper)
        assert [r[0] for r in records] == [r[0] for r in reference]
        np.testing.assert_allclose(
            [r[1:] for r in records], [r[1:] for r in reference], rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("method", dota.harness.METHODS)
    def test_matches_the_two_pass_reference_loop(self, method):
        task = small_task(seed=14, r_delta=8)
        outcomes = []  # (diverged_at, eval_every, steps) of each diverged run
        for lr, eval_every, steps in itertools.product(
                (0.1, 5, 30, 1e3, 1e6), (1, 3, 7), (0, 1, 40)):
            hyper = Hyper(steps=steps, lr=lr, rank=8, eval_every=eval_every)
            log = run_experiment(task, method, hyper)
            got = (log.records, log.diverged, log.diverged_at)
            assert got == reference_run(task, method, hyper), (lr, eval_every, steps)
            if log.diverged:
                outcomes.append((log.diverged_at, eval_every, steps))
        # divergences charged to a logged step (every step is logged at
        # eval_every 1) and to the step after an unlogged one both occur
        assert any(ee == 1 for _, ee, _ in outcomes)
        assert any(at % ee and at != steps for at, ee, steps in outcomes)

    @pytest.mark.parametrize("method", dota.harness.METHODS)
    def test_each_weight_and_batch_is_made_once(self, method, monkeypatch):
        task = small_task(seed=15)
        weights, keys = [], []
        for cls in (dota.harness._DenseWeight, dota.harness._ChainWeight,
                    dota.harness.LoraBaseline):
            built = cls.effective_weight
            monkeypatch.setattr(cls, "effective_weight",
                                lambda self, built=built: weights.append(1) or built(self))
        rng = dota.harness._rng
        monkeypatch.setattr(dota.harness, "_rng", lambda *key: keys.append(key) or rng(*key))
        run_experiment(task, method, Hyper(steps=50, lr=0.1, rank=8, eval_every=10))
        assert len(weights) == 51
        # one eval batch, then batch t + 1 for each t in 0..50, in order
        assert keys == [(15, 2)] + [(15, 1, t) for t in range(1, 52)]

    @pytest.mark.parametrize(
        "field, value",
        [("steps", 1.5), ("steps", True), ("rank", 2.5), ("rank", True),
         ("eval_every", True), ("eval_every", 2.0),
         ("lr", "0.1"), ("lr", None), ("lr", True)],
    )
    def test_hyper_requires_integer_counts(self, field, value):
        kwargs = dict(steps=10, lr=0.1, rank=4, eval_every=5)
        kwargs[field] = value
        with pytest.raises(ParameterError):
            Hyper(**kwargs)

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            run_experiment(small_task(), "adamw", Hyper(steps=1, lr=0.1, rank=8))

    def test_decomposed_init_beats_random_init(self):
        task = small_task(seed=10, r_delta=8)
        hyper = Hyper(steps=120, lr=0.1, rank=8, eval_every=20)
        dota_loss = run_experiment(task, "dota", hyper).final_eval_loss
        random_loss = run_experiment(task, "dota-random", hyper).final_eval_loss
        assert dota_loss < random_loss

    def test_full_ft_optimality_envelope(self):
        # convex task trained to convergence: full fine-tuning wins
        task = small_task(seed=11, r_delta=8)
        hyper = Hyper(steps=800, lr=0.3, rank=8, eval_every=100)
        finals = {
            m: run_experiment(task, m, hyper).final_eval_loss
            for m in ("full-ft", "dota", "dota-random", "lora")
        }
        for method in ("dota", "dota-random", "lora"):
            assert finals["full-ft"] <= finals[method] + 1e-8


class TestLora:
    def test_init_effective_weight_is_base(self):
        w0 = np.random.default_rng(12).normal(size=(16, 8))
        baseline = lora_init(w0, 4, seed=13)
        assert np.array_equal(baseline.effective_weight(), w0)
        assert baseline.trainable_params == 4 * (16 + 8)

    def test_gradient_step_moves_weight(self):
        w0 = np.random.default_rng(14).normal(size=(8, 8))
        baseline = lora_init(w0, 2, seed=15)
        dw = np.ones((8, 8))
        baseline.gradient_step(dw, 0.1)
        # b was zero, so a is unchanged on the first step but b moves
        assert not np.array_equal(baseline.effective_weight(), w0)

    @pytest.mark.parametrize("rank", [0, 2.5, True])
    def test_bad_rank(self, rank):
        with pytest.raises(ParameterError):
            lora_init(np.zeros((8, 8)), rank, seed=1)


class TestAblate:
    def config(self, **overrides):
        base = dict(
            dims=64,
            shapes=[4, 4, 4],
            R=8,
            N=3,
            steps=20,
            lr=0.1,
            seeds=[1, 2, 3],
            methods=["dota", "dota-random"],
            r_delta=8,
            delta_scale=0.05,
            eval_every=10,
        )
        base.update(overrides)
        return AblationConfig.from_dict(base)

    def test_grid_size(self):
        logs, summary = ablate(self.config())
        assert len(logs) == 6
        methods = {log.method for log in logs}
        assert methods == {"dota", "dota-random"}

    def test_summary_means_match_recomputation(self):
        logs, summary = ablate(self.config())
        for step, method, mean, std in summary:
            vals = [
                ev
                for log in logs
                if log.method == method
                for (s, _, ev) in log.records
                if s == step
            ]
            assert len(vals) == 3
            assert mean == pytest.approx(np.mean(vals), abs=1e-15)
            assert std == pytest.approx(np.std(vals), abs=1e-15)

    def test_rank_sweep_produces_final_losses(self):
        finals = {}
        for rank in (8, 16, 32):
            logs, _ = ablate(self.config(R=rank, seeds=[1], steps=10))
            finals[rank] = {log.method: log.final_eval_loss for log in logs}
        for rank, by_method in finals.items():
            assert all(np.isfinite(v) for v in by_method.values())

    def test_deterministic_summary(self):
        _, a = ablate(self.config(seeds=[5], steps=10))
        _, b = ablate(self.config(seeds=[5], steps=10))
        assert a == b

    def test_lockstep_logs_equal_one_method_runs(self):
        methods = tuple(reversed(dota.harness.METHODS))  # logs keep the config's order
        mixed = []  # grids where some methods diverged and others ran on
        for lr, eval_every, steps in itertools.product((0.1, 5, 1e3, 1e6), (1, 3, 7), (0, 1, 40)):
            config = self.config(lr=lr, eval_every=eval_every, steps=steps, seeds=[14, 15],
                                 methods=list(methods))
            logs, _ = ablate(config)
            expected = []
            for seed in config.seeds:
                task = make_task(SHAPE_64, r_delta=8, delta_scale=0.05, seed=seed)
                expected += [run_experiment(task, m, config.hyper) for m in methods]
            assert [(log.seed, log.method) for log in logs] == \
                [(log.seed, log.method) for log in expected]
            for got, want in zip(logs, expected):
                assert (got.records, got.diverged, got.diverged_at, got.trainable_params) == \
                    (want.records, want.diverged, want.diverged_at, want.trainable_params)
            diverged = {log.diverged for log in logs}
            if diverged == {True, False}:
                mixed.append((lr, eval_every, steps))
        assert mixed

    def test_each_task_draws_each_batch_once(self, monkeypatch):
        keys = []
        rng = dota.harness._rng
        monkeypatch.setattr(dota.harness, "_rng", lambda *key: keys.append(key) or rng(*key))
        ablate(self.config(seeds=[3, 4], steps=20, eval_every=5, methods=list(dota.harness.METHODS)))
        # per task: its own draw, one eval batch, then batch t + 1 for each t in 0..20
        assert keys == [key for seed in (3, 4) for key in
                        [(seed, 0), (seed, 2)] + [(seed, 1, t) for t in range(1, 22)]]


class TestConfigValidation:
    def test_minimal_valid(self):
        cfg = AblationConfig.from_dict(
            dict(dims=64, N=3, R=8, steps=10, lr=0.1, seeds=[1],
                 methods=["dota"], r_delta=8, delta_scale=0.05)
        )
        assert cfg.shape == MpoShape.square([4, 4, 4])
        assert cfg.batch_size == 32
        assert cfg.hyper == Hyper(steps=10, lr=0.1, rank=8, eval_every=10)

    def test_preset_used_for_known_dimension(self):
        cfg = AblationConfig.from_dict(
            dict(dims=1024, N=5, R=8, steps=1, lr=0.1, seeds=[1],
                 methods=["dota"], r_delta=8, delta_scale=0.05)
        )
        assert cfg.shape.in_factors == (4, 4, 4, 4, 4)

    def test_rectangular_dims_and_shapes(self):
        cfg = AblationConfig.from_dict(
            dict(dims=[16, 8], shapes={"in": [4, 4], "out": [2, 4]}, R=2,
                 steps=1, lr=0.1, seeds=[1], methods=["lora"],
                 r_delta=2, delta_scale=0.1)
        )
        assert cfg.shape.rows == 16 and cfg.shape.cols == 8

    def test_invalid_fields_are_enumerated(self):
        with pytest.raises(ParameterError) as excinfo:
            AblationConfig.from_dict(
                dict(dims="big", R=0, steps=-1, lr=-0.5, seeds=[],
                     methods=["sgd"], r_delta=8, delta_scale=0.05,
                     bogus=True)
            )
        message = str(excinfo.value)
        for token in ("dims", "R", "steps", "lr", "seeds", "methods", "bogus"):
            assert token in message

    def test_shape_product_mismatch(self):
        with pytest.raises(ParameterError) as excinfo:
            AblationConfig.from_dict(
                dict(dims=64, shapes=[4, 4], R=2, steps=1, lr=0.1,
                     seeds=[1], methods=["dota"], r_delta=2, delta_scale=0.05)
            )
        assert "shapes" in str(excinfo.value)

    @pytest.mark.parametrize("key, overrides", [
        ("shapes", dict(shapes=[4, 4, "a"])),
        ("shapes", dict(shapes=[4, 4, 4.7])),
        ("shapes", dict(shapes=[4, 4, 4, True])),
        ("shapes", dict(shapes=[4, 4, None])),
        ("shapes", dict(shapes=[4, 4, [4]])),
        ("shapes", dict(shapes={"in": "444", "out": [4, 4, 4]})),
        ("shapes", dict(shapes={"in": 64, "out": 64})),
        ("N", dict(shapes=None, N=True)),
        ("dims", dict(dims=[True, 1], shapes=None, N=1)),
    ], ids=["str", "float", "bool", "null", "list", "in-string", "in-int", "N-bool", "dims-bool"])
    def test_non_integer_shape_fields_are_named(self, key, overrides):
        # none of these may be coerced to an integer or escape as a raw error
        raw = dict(dims=64, shapes=[4, 4, 4], R=2, steps=1, lr=0.1, seeds=[1],
                   methods=["dota"], r_delta=2, delta_scale=0.05)
        raw.update(overrides)
        with pytest.raises(ParameterError) as excinfo:
            AblationConfig.from_dict(raw)
        assert key in str(excinfo.value)

    def test_n_shape_disagreement(self):
        with pytest.raises(ParameterError):
            AblationConfig.from_dict(
                dict(dims=64, shapes=[4, 4, 4], N=2, R=2, steps=1, lr=0.1,
                     seeds=[1], methods=["dota"], r_delta=2, delta_scale=0.05)
            )


class TestShapeHelpers:
    def test_balanced_factorization(self):
        assert balanced_factors(64, 3) == (4, 4, 4)
        assert balanced_factors(12, 2) == (4, 3)
        assert balanced_factors(7, 1) == (7,)

    def test_balanced_factorization_errors(self):
        with pytest.raises(ParameterError):
            balanced_factors(6, 3)
        for n, k in ((64, 2.5), (64, True), (0, 1)):
            with pytest.raises(ParameterError):
                balanced_factors(n, k)

    def test_default_shape_prefers_presets(self):
        assert default_tensor_shape(4096, 5) == (4, 4, 8, 8, 4)
        assert default_tensor_shape(64, 3) == (4, 4, 4)


def test_summarize_skips_steps_missing_from_any_seed():
    task_a = small_task(seed=20)
    hyper = Hyper(steps=10, lr=0.1, rank=4, eval_every=5)
    log_a = run_experiment(task_a, "dota", hyper)
    log_b = run_experiment(small_task(seed=21), "dota", hyper)
    log_b.records = log_b.records[:-1]  # simulate a shorter (diverged) run
    rows = summarize([log_a, log_b])
    steps = [r[0] for r in rows]
    assert steps == sorted(set(log_a.steps) & set(log_b.steps))


def test_summarize_std_of_finite_losses_at_any_scale():
    for losses in ([4.77e281, 2.10e287], [1e307, 3e306, 1e307], [1.5, 2.5, 0.25]):
        logs = [dota.harness.TrainLog("dota", seed, {}, 1, [(0, 1.0, loss)])
                for seed, loss in enumerate(losses)]
        (_, _, mean, std), = summarize(logs)
        vals = np.array(losses)
        assert mean == float(vals.mean())
        if max(losses) < 1e100:
            assert std == float(vals.std())  # the plain path, bit for bit
        else:
            assert std == pytest.approx(float((vals / 1e300).std()) * 1e300, rel=1e-12)
