import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dota.adapter
from blas_threads import at_one_and_two_threads, blas_threads
from dota.adapter import _chain_backward, _chain_forward, _split_bond, _sweep_is_cheaper
from dota.mpo import _as_matrix, _as_modes, _left_sweep
from dota import (
    SHAPE_PRESETS,
    CoreChain,
    CoreGradients,
    DotaAdapter,
    MpoShape,
    ShapeError,
    chain_gradients,
    dota_init,
    mpo_decompose,
    param_count,
    qdota_init,
    reconstruct,
    reorder_for_mpo,
    truncated_ranks,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def brute_force_contraction(chain):
    """The chain as a dense matrix, via raw nested tensordot calls in float64."""
    acc = chain.cores[0].data.astype(np.float64)
    for core in chain.cores[1:]:
        acc = np.tensordot(acc, core.data.astype(np.float64), axes=1)
    acc = acc.reshape(acc.shape[1:-1])
    n = len(chain)
    sep = np.transpose(acc, [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)])
    return sep.reshape(chain.shape.rows, chain.shape.cols)


def brute_force_weight(adapter):
    """Residual plus chain contraction."""
    return adapter.w_res + brute_force_contraction(adapter.cores)


def einsum_chain_gradients(chain, dw):
    """Reference core gradients: each core's left and right environments built
    with einsum, then one three-operand einsum per core."""
    n = len(chain)
    cores = [c.data.astype(np.float64) for c in chain.cores]
    shape = chain.shape
    prods = [i * j for i, j in zip(shape.in_factors, shape.out_factors)]
    left = [np.ones((1, 1))]
    for k in range(n - 1):
        r0, _, _, r1 = cores[k].shape
        grown = np.einsum("la,amb->lmb", left[k], cores[k].reshape(r0, prods[k], r1))
        left.append(grown.reshape(-1, r1))
    right = [np.ones((1, 1))] * n
    for k in range(n - 2, -1, -1):
        r0, _, _, r1 = cores[k + 1].shape
        grown = np.einsum("amb,br->amr", cores[k + 1].reshape(r0, prods[k + 1], r1), right[k + 1])
        right[k] = grown.reshape(r0, -1)
    separated = dw.reshape(shape.in_factors + shape.out_factors)
    flat = np.transpose(separated, [a for k in range(n) for a in (k, n + k)]).reshape(-1)
    grads = []
    for k in range(n):
        d3 = flat.reshape(left[k].shape[0], prods[k], right[k].shape[1])
        g = np.einsum("la,lmr,br->amb", left[k], d3, right[k])
        grads.append(g.reshape(cores[k].shape))
    return grads


def reference_chain_gradients(chain, dw):
    """chain_gradients with dw interleaved through reorder_for_mpo."""
    interleaved, _ = reorder_for_mpo(np.asarray(dw, dtype=np.float64), chain.shape)
    lefts = list(islice(_left_sweep(chain), len(chain)))
    e = interleaved.data
    grads = []
    for left, core in zip(reversed(lefts), reversed(chain.cores)):
        e = e.reshape(left.shape[0], -1)
        grads.append((left.T @ e).reshape(core.shape))
        e = e @ core.data.astype(np.float64, copy=False).reshape(core.shape[0], -1).T
    return grads[::-1]


@st.composite
def random_chains(draw, max_cores=4, max_rank=4):
    """Chains of 1-max_cores cores, factors 1-4, bonds truncated at
    1-max_rank, f32 or f64."""
    n = draw(st.integers(1, max_cores))
    factors = st.lists(st.integers(1, 4), min_size=n, max_size=n)
    shape = MpoShape(tuple(draw(factors)), tuple(draw(factors)))
    ranks = truncated_ranks(shape, draw(st.integers(1, max_rank)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return CoreChain.from_arrays([
        rng.normal(size=(ranks[k], i, j, ranks[k + 1])).astype(dtype)
        for k, (i, j) in enumerate(zip(shape.in_factors, shape.out_factors))
    ])


@st.composite
def chain_stacks(draw):
    """1-4 chains that share one of random_chains' shapes, rank lists and dtypes."""
    first = draw(random_chains())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [first] + [
        CoreChain.from_arrays([rng.normal(size=c.shape).astype(c.dtype) for c in first.cores])
        for _ in range(draw(st.integers(0, 3)))]


SINGLE_CORE = CoreChain.from_arrays([rand((1, 3, 2, 1), seed=40)])


class TestChainKernel:
    @given(random_chains(), st.integers(0, 2**32 - 1))
    @example(SINGLE_CORE, 41)
    @settings(deadline=None, max_examples=60)
    def test_gradients_match_einsum_reference(self, chain, seed):
        dw = np.random.default_rng(seed).normal(size=(chain.shape.rows, chain.shape.cols))
        grads = chain_gradients(chain, dw)
        for g, ref, core in zip(grads.tensors, einsum_chain_gradients(chain, dw), chain.cores):
            assert g.shape == core.shape
            assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    @given(random_chains(), st.integers(0, 2**32 - 1),
           st.sampled_from([np.float32, np.float64]), st.booleans())
    @example(SINGLE_CORE, 43, np.float64, True)
    @settings(deadline=None, max_examples=60)
    def test_gradients_are_the_bytes_of_the_reorder_reference(self, chain, seed, dtype,
                                                               transposed):
        rows, cols = chain.shape.rows, chain.shape.cols
        dw = rand((cols, rows) if transposed else (rows, cols), seed).astype(dtype)
        dw = dw.T if transposed else dw  # a non-contiguous dw, too
        grads = chain_gradients(chain, dw).tensors
        for g, ref in zip(grads, reference_chain_gradients(chain, dw), strict=True):
            assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes()

    @given(chain_stacks(), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_stacked_build_and_gradients_are_each_chains_bytes(self, chains, seed):
        # the training grid's kernels: one matmul per core over a leading stack axis
        shape = chains[0].shape
        dws = rand((len(chains), shape.rows, shape.cols), seed)
        stack = [np.stack(cores) for cores in zip(*([c.data for c in ch.cores] for ch in chains))]
        *lefts, last = _left_sweep(stack)
        weights = _as_matrix(last, shape)
        grads = dota.adapter._core_gradients(stack, lefts, _as_modes(dws, shape))
        for g, (chain, dw) in enumerate(zip(chains, dws)):
            assert weights[g].astype(chain.dtype).tobytes() == reconstruct(chain).tobytes()
            for got, want in zip(grads, chain_gradients(chain, dw).tensors, strict=True):
                assert got[g].tobytes() == want.tobytes()

    @pytest.mark.parametrize("dw_shape", [(8, 9), (9, 8), (64,), (8, 8, 1)])
    def test_gradients_of_a_wrong_shape_raise(self, dw_shape):
        chain = mpo_decompose(rand((8, 8), seed=44), MpoShape.square([2, 4]), 2)
        with pytest.raises(ShapeError):
            chain_gradients(chain, np.zeros(dw_shape))

    @given(random_chains())
    @example(SINGLE_CORE)
    @settings(deadline=None, max_examples=60)
    def test_reconstruct_matches_dense_oracle(self, chain):
        out = reconstruct(chain)
        oracle = brute_force_contraction(chain)
        assert out.dtype == chain.dtype
        assert out.shape == oracle.shape
        tol = 1e-12 if chain.dtype == np.float64 else 1e-6
        assert np.linalg.norm(out - oracle) <= tol * np.linalg.norm(oracle)


def relative_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), np.finfo(np.float64).tiny)


class TestBatchSweep:
    """The batch sweep against the dense path it replaces, called directly."""

    @given(random_chains(max_cores=5, max_rank=8), st.integers(0, 64),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @example(SINGLE_CORE, 0, np.float64, 42)
    @settings(deadline=None, max_examples=80)
    def test_matches_dense_path(self, chain, batch, dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, chain.shape.rows)).astype(dtype)
        dy = rng.normal(size=(batch, chain.shape.cols)).astype(dtype)
        y = _chain_forward(x, chain)
        grads, dx = _chain_backward(x, dy, chain)
        got = [y, dx, *grads.tensors]
        # The dense path on the inputs as given sets the dtypes; run in
        # float64 throughout, as the sweep is, it sets the values.
        w = reconstruct(chain)
        dtypes = [(x @ w).dtype, (dy @ w.T).dtype,
                  *(g.dtype for g in chain_gradients(chain, x.T @ dy).tensors)]
        x64, dy64 = x.astype(np.float64), dy.astype(np.float64)
        chain64 = CoreChain.from_arrays([c.data.astype(np.float64) for c in chain.cores])
        w64 = reconstruct(chain64)
        dense = [x64 @ w64, dy64 @ w64.T, *chain_gradients(chain64, x64.T @ dy64).tensors]
        assert [a.dtype for a in got] == dtypes
        for a, ref in zip(got, dense):
            assert a.shape == ref.shape
            # An output rounded to float32 carries that rounding, and no more.
            tol = 1e-12 if a.dtype == np.float64 else 1e-6
            assert np.linalg.norm(a - ref) <= tol * np.linalg.norm(ref)

    def test_matches_central_finite_differences(self):
        chain = mpo_decompose(rand((12, 12), seed=50), MpoShape((2, 3, 2), (3, 2, 2)), 3)
        x, dy = rand((4, 12), seed=51), rand((4, 12), seed=52)
        grads, _ = _chain_backward(x, dy, chain)
        h = 1e-6
        for k, (g, core) in enumerate(zip(grads.tensors, chain.cores)):
            numeric = np.zeros(core.shape)
            for idx in np.ndindex(core.shape):
                values = []
                for step in (h, -h):
                    arrays = [c.data.copy() for c in chain.cores]
                    arrays[k][idx] += step
                    values.append(np.sum(_chain_forward(x, CoreChain.from_arrays(arrays)) * dy))
                numeric[idx] = (values[0] - values[1]) / (2 * h)
            assert relative_gap(g, numeric) <= 1e-7

    def test_reruns_are_bitwise_equal(self):
        shape = MpoShape.square(SHAPE_PRESETS[1024])
        chain = mpo_decompose(rand((shape.rows, shape.cols), seed=53), shape, 8)
        x, dy = rand((32, shape.rows), seed=54), rand((32, shape.cols), seed=55)
        first, again = _chain_backward(x, dy, chain), _chain_backward(x, dy, chain)
        assert _chain_forward(x, chain).tobytes() == _chain_forward(x, chain).tobytes()
        assert first[1].tobytes() == again[1].tobytes()
        for a, b in zip(first[0].tensors, again[0].tensors):
            assert a.tobytes() == b.tobytes()


# Rectangular factors and every bond of rank 1.
RANK_ONE = CoreChain.from_arrays([rand((1, 2, 3, 1), seed=60), rand((1, 3, 1, 1), seed=61),
                                  rand((1, 1, 4, 1), seed=62), rand((1, 4, 2, 1), seed=63)])


class TestSplitBond:
    """The batch product through the chain cut at each bond against the dense oracle."""

    @given(random_chains(max_cores=5, max_rank=8), st.integers(0, 40),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @example(SINGLE_CORE, 0, np.float64, 64)
    @example(SINGLE_CORE, 5, np.float32, 65)
    @example(RANK_ONE, 0, np.float32, 66)
    @example(RANK_ONE, 7, np.float64, 67)
    @settings(deadline=None, max_examples=60)
    def test_every_bond_matches_dense_oracle(self, chain, batch, dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, chain.shape.rows)).astype(dtype)
        dy = rng.normal(size=(batch, chain.shape.cols)).astype(dtype)
        chain64 = CoreChain.from_arrays([c.data.astype(np.float64) for c in chain.cores])
        w64, x64, dy64 = brute_force_contraction(chain64), x.astype(np.float64), dy.astype(np.float64)
        dense = [x64 @ w64, dy64 @ w64.T, *einsum_chain_gradients(chain64, x64.T @ dy64)]
        # the two ends, s = 0 and s = N, hold every core in one half
        for s in range(len(chain) + 1):
            grads, dx = _chain_backward(x, dy, chain, s)
            got = [_chain_forward(x, chain, s), dx, *grads.tensors]
            assert len(got) == len(dense)
            for a, ref in zip(got, dense):
                assert a.shape == ref.shape
                tol = 1e-12 if a.dtype == np.float64 else 1e-6
                assert np.linalg.norm(a - ref) <= tol * np.linalg.norm(ref)

    @pytest.mark.parametrize("dim, bond, per_row", [(1024, 2, 655_360), (4096, 3, 5_242_880)])
    def test_preset_layers_cut_at_the_cheapest_bond(self, dim, bond, per_row):
        # (4, 4, 4, 4, 4) at R=8: s = 2 and 3 both take 16 * 8 * 64 * (16 + 64); the first wins
        assert _split_bond(zero_chain(SHAPE_PRESETS[dim])) == (bond, per_row)

    def test_peak_memory_of_a_preset_step(self):
        shape = MpoShape.square(SHAPE_PRESETS[1024])
        adapter = dota_init(rand((shape.rows, shape.cols), seed=59), shape, 8)
        x, dy = rand((32, shape.rows), seed=60), rand((32, shape.cols), seed=61)
        adapter.backward(x, adapter.forward(x))  # numpy's one-time allocations are not the step's
        tracemalloc.start()
        try:
            adapter.forward(x)
            adapter.backward(x, dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.59 MB; the five-core batch sweep this path replaced peaked at 14.71 MB
        assert peak <= 4.5e6


def zero_chain(factors, rank=8):
    shape = MpoShape.square(factors)
    return CoreChain.from_arrays(
        [np.zeros(s) for s in shape.core_shapes(truncated_ranks(shape, rank))])


class TestPathChoice:
    """A multiply-add count of (batch, factors, ranks) picks the sweep or the
    dense path."""

    def test_small_layer_sweeps_only_tiny_batches(self):
        chain = zero_chain((4, 4, 4))
        assert _sweep_is_cheaper(chain, 1)
        assert _sweep_is_cheaper(chain, 2)
        assert not _sweep_is_cheaper(chain, 32)

    def test_adding_the_delta_counts(self):
        # (4, 4) at R=8, batch 3: 3072 sweep multiply-adds against 2944
        # without the delta's 256-entry addition and 3200 with it.
        chain = zero_chain((4, 4))
        assert _sweep_is_cheaper(chain, 3)
        assert not _sweep_is_cheaper(chain, 4)

    @pytest.mark.parametrize("dim", [1024, 4096])
    @pytest.mark.parametrize("batch", [1, 32, 1024])
    def test_preset_layers_always_sweep(self, dim, batch):
        assert _sweep_is_cheaper(zero_chain(SHAPE_PRESETS[dim]), batch)

    @pytest.mark.parametrize("batch, sweeps", [(2, True), (32, False)])
    def test_adapter_takes_the_chosen_path(self, monkeypatch, batch, sweeps):
        adapter = dota_init(rand((64, 64), seed=56), MpoShape.square([4, 4, 4]), 8)
        x, dy = rand((batch, 64), seed=57), rand((batch, 64), seed=58)
        w = adapter.merge()
        calls = []
        for name in ("reconstruct", "chain_gradients"):
            original = getattr(dota.adapter, name)
            monkeypatch.setattr(dota.adapter, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        y = adapter.forward(x)
        grads, dx = adapter.backward(x, dy)
        assert bool(calls) != sweeps
        assert relative_gap(y, x @ w) <= 1e-12
        assert relative_gap(dx, dy @ w.T) <= 1e-12
        reference = chain_gradients(adapter.cores, x.T @ dy).tensors
        for g, ref in zip(grads.tensors, reference):
            assert relative_gap(g, ref) <= 1e-12


def perturb_core(adapter, core_index, element, amount):
    arrays = [c.data.copy() for c in adapter.cores.cores]
    arrays[core_index][element] += amount
    return DotaAdapter(
        w_res=adapter.w_res,
        cores=CoreChain.from_arrays(arrays),
        shape=adapter.shape,
    )


def fd_core_gradients(adapter, x, h=1e-6):
    """Central finite differences of sum(forward(x)) w.r.t. every core element."""
    grads = []
    for k, core in enumerate(adapter.cores.cores):
        g = np.zeros(core.shape)
        it = np.nditer(core.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            up = perturb_core(adapter, k, idx, h).forward(x).sum()
            down = perturb_core(adapter, k, idx, -h).forward(x).sum()
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


class TestInit:
    def test_untruncated_residual_vanishes(self):
        w0 = rand((16, 16), seed=1)
        adapter = dota_init(w0, MpoShape.square([4, 4]))
        assert np.linalg.norm(adapter.w_res) / np.linalg.norm(w0) <= 1e-12

    def test_merge_recovers_w0_despite_truncation(self):
        w0 = rand((64, 64), seed=2)
        adapter = dota_init(w0, MpoShape.square([4, 4, 4]), 4)
        assert np.linalg.norm(adapter.merge() - w0) / np.linalg.norm(w0) <= 1e-12

    def test_parameter_budget_at_preset_scale(self):
        shape = MpoShape.square([4, 4, 8, 8, 4])
        ranks = truncated_ranks(shape, 16)
        trainable = param_count(shape, ranks)
        frozen = shape.rows * shape.cols
        assert trainable == 37376
        assert frozen == 4096 * 4096
        assert trainable / frozen == pytest.approx(0.00223, rel=0.02)

    def test_residual_is_frozen_storage(self):
        adapter = dota_init(rand((8, 8), seed=3), MpoShape.square([2, 4]), 2)
        with pytest.raises(ValueError):
            adapter.w_res[0, 0] = 1.0

    def test_read_only_residual_is_adopted_and_writeable_one_copied(self):
        shape = MpoShape.square([2, 4])
        chain = mpo_decompose(rand((8, 8), seed=3), shape, 2)
        frozen = rand((8, 8), seed=4)
        frozen.flags.writeable = False
        assert np.shares_memory(DotaAdapter(frozen, chain, shape).w_res, frozen)
        writeable = rand((8, 8), seed=4)
        adapter = DotaAdapter(writeable, chain, shape)
        assert not np.shares_memory(adapter.w_res, writeable)
        assert not adapter.w_res.flags.writeable

    def test_init_residual_is_not_copied_again(self, monkeypatch):
        handed_over = []

        class Spy(DotaAdapter):
            def __post_init__(self):
                handed_over.append(self.w_res)
                super().__post_init__()

        monkeypatch.setattr(dota.adapter, "DotaAdapter", Spy)
        adapter = dota_init(rand((8, 8), seed=3), MpoShape.square([2, 4]), 2)
        # dota_init computes the residual once; the adapter keeps that very array
        assert adapter.w_res is handed_over[0]


class TestForward:
    def test_matches_w0_at_init(self):
        w0 = rand((64, 64), seed=4)
        adapter = dota_init(w0, MpoShape.square([4, 4, 4]), 8)
        x = rand((7, 64), seed=5)
        expected = x @ w0
        assert np.linalg.norm(adapter.forward(x) - expected) / np.linalg.norm(expected) <= 1e-10

    def test_zero_input(self):
        adapter = dota_init(rand((8, 8), seed=6), MpoShape.square([2, 4]), 2)
        assert not adapter.forward(np.zeros((3, 8))).any()

    def test_perturbed_core_matches_materialized_weight(self):
        adapter = dota_init(rand((8, 8), seed=7), MpoShape.square([2, 4]), 2)
        adapter = perturb_core(adapter, 1, (0, 1, 2, 0), 0.37)
        x = rand((5, 8), seed=8)
        expected = x @ brute_force_weight(adapter)
        assert np.linalg.norm(adapter.forward(x) - expected) <= 1e-12 * max(
            1.0, np.linalg.norm(expected)
        )

    def test_linearity(self):
        adapter = dota_init(rand((8, 8), seed=9), MpoShape.square([4, 2]), 2)
        x1, x2 = rand((3, 8), seed=10), rand((3, 8), seed=11)
        alpha = 1.7
        lhs = adapter.forward(alpha * x1 + x2)
        rhs = alpha * adapter.forward(x1) + adapter.forward(x2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_shape_mismatch(self):
        adapter = dota_init(rand((8, 8), seed=12), MpoShape.square([2, 4]), 2)
        with pytest.raises(ShapeError):
            adapter.forward(np.zeros((3, 9)))


class TestBackward:
    def test_zero_cotangent(self):
        adapter = dota_init(rand((8, 8), seed=13), MpoShape.square([2, 4]), 2)
        x = rand((3, 8), seed=14)
        grads, dx = adapter.backward(x, np.zeros((3, 8)))
        assert all(not g.any() for g in grads.tensors)
        assert not dx.any()

    def test_single_core_reduces_to_dense_gradient(self):
        w0 = rand((6, 7), seed=15)
        adapter = dota_init(w0, MpoShape((6,), (7,)))
        x = rand((4, 6), seed=16)
        dy = rand((4, 7), seed=17)
        grads, _ = adapter.backward(x, dy)
        assert np.allclose(grads.tensors[0].reshape(6, 7), x.T @ dy, atol=1e-12)

    def test_matches_finite_differences(self):
        adapter = dota_init(rand((8, 8), seed=18), MpoShape((2, 4), (4, 2)), 3)
        x = rand((3, 8), seed=19)
        grads, _ = adapter.backward(x, np.ones((3, 8)))
        numeric = fd_core_gradients(adapter, x)
        for g, n in zip(grads.tensors, numeric):
            rel = np.abs(g - n) / np.maximum(np.abs(n), 1e-8)
            assert rel.max() <= 1e-4

    def test_dx_uses_effective_weight(self):
        adapter = dota_init(rand((8, 8), seed=20), MpoShape.square([2, 4]), 2)
        x = rand((3, 8), seed=21)
        dy = rand((3, 8), seed=22)
        _, dx = adapter.backward(x, dy)
        assert np.allclose(dx, dy @ adapter.merge().T, atol=1e-13)

    def test_batch_mismatch(self):
        adapter = dota_init(rand((8, 8), seed=23), MpoShape.square([2, 4]), 2)
        with pytest.raises(ShapeError):
            adapter.backward(np.zeros((3, 8)), np.zeros((4, 8)))


class TestTraining:
    def test_residual_bitwise_frozen_across_steps(self):
        adapter = dota_init(rand((8, 8), seed=24), MpoShape.square([2, 4]), 2)
        before = adapter.w_res.tobytes()
        x = rand((5, 8), seed=25)
        for _ in range(10):
            dy = 2.0 * adapter.forward(x) / x.size
            grads, _ = adapter.backward(x, dy)
            adapter.apply_gradients(grads, 0.05)
        assert adapter.w_res.tobytes() == before

    def test_merge_tracks_updates(self):
        adapter = dota_init(rand((8, 8), seed=26), MpoShape.square([2, 4]), 2)
        x = rand((5, 8), seed=27)
        grads, _ = adapter.backward(x, np.ones((5, 8)))
        adapter.apply_gradients(grads, 0.1)
        assert np.allclose(adapter.merge(), brute_force_weight(adapter), atol=1e-12)

    def test_zeroed_cores_leave_residual(self):
        adapter = dota_init(rand((8, 8), seed=28), MpoShape.square([2, 4]), 2)
        zeros = CoreChain.from_arrays([np.zeros(c.shape) for c in adapter.cores.cores])
        adapter.cores = zeros
        assert np.array_equal(adapter.merge(), adapter.w_res)

    @given(random_chains(), st.integers(0, 2**32 - 1), st.floats(1e-3, 10.0))
    @example(SINGLE_CORE, 45, 0.1)
    @settings(deadline=None, max_examples=60)
    def test_step_matches_a_rebuilt_chain(self, chain, seed, lr):
        shape = chain.shape
        adapter = DotaAdapter(np.zeros((shape.rows, shape.cols)), chain, shape)
        grads = chain_gradients(chain, rand((shape.rows, shape.cols), seed))
        adapter.apply_gradients(grads, lr)
        want = CoreChain.from_arrays([c.data - lr * g.astype(c.dtype)
                                      for c, g in zip(chain.cores, grads.tensors)])
        assert adapter.cores.shape is chain.shape
        assert adapter.cores.ranks == want.ranks
        for got, ref in zip(adapter.cores.cores, want.cores, strict=True):
            assert got.dtype == ref.dtype and got.data.tobytes() == ref.data.tobytes()
            assert got.data.flags.c_contiguous and not got.data.flags.writeable

    def test_gradient_shape_check(self):
        adapter = dota_init(rand((8, 8), seed=29), MpoShape.square([2, 4]), 2)
        x = rand((3, 8), seed=30)
        grads, _ = adapter.backward(x, np.ones((3, 8)))
        other = dota_init(rand((8, 8), seed=31), MpoShape.square([4, 2]), 2)
        with pytest.raises(ShapeError):
            other.apply_gradients(grads, 0.1)

    def test_gradient_count_check(self):
        adapter = dota_init(rand((8, 8), seed=29), MpoShape.square([2, 4]), 2)
        grads, _ = adapter.backward(rand((3, 8), seed=30), np.ones((3, 8)))
        chain = adapter.cores
        with pytest.raises(ShapeError, match="count"):
            adapter.apply_gradients(CoreGradients(grads.tensors[:1]), 0.1)
        assert adapter.cores is chain


def test_chain_in_adapter_must_match_shape():
    w0 = rand((8, 8), seed=32)
    chain = mpo_decompose(w0, MpoShape.square([2, 4]), 2)
    with pytest.raises(ShapeError):
        DotaAdapter(w_res=w0, cores=chain, shape=MpoShape.square([4, 2]))


def test_reconstruct_of_adapter_chain_is_consistent():
    w0 = rand((16, 16), seed=33)
    adapter = dota_init(w0, MpoShape.square([4, 4]), 3)
    assert np.allclose(
        adapter.merge(), adapter.w_res + reconstruct(adapter.cores), atol=1e-14
    )


PRESET = MpoShape.square(SHAPE_PRESETS[1024])


@pytest.fixture(scope="module")
def preset_adapters():
    w0 = rand((PRESET.rows, PRESET.cols), seed=70)
    return {"dense": dota_init(w0, PRESET, 8), "nf4": qdota_init(w0, PRESET, 8)}


def huge_step(adapter, which, sequential=False):
    """y, or dx, of a batch of 1e308 (as x, or as dy): through the adapter, or as the
    residual's product plus the chain's, one after the other on this thread."""
    big = np.full((32, PRESET.rows), 1e308)
    if which == "forward":
        return (big @ adapter.w_res + _chain_forward(big, adapter.cores) if sequential
                else adapter.forward(big))
    x = rand((32, PRESET.rows), seed=73)
    return (big @ adapter.w_res.T + _chain_backward(x, big, adapter.cores)[1] if sequential
            else adapter.backward(x, big)[1])


def outcome(fn):
    """fn()'s bytes, or the type and text of what it raised."""
    try:
        return fn().tobytes()
    except (FloatingPointError, RuntimeWarning) as error:
        return type(error), str(error)


needs_two_cores = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
    reason="the helper thread runs only where the process may use two cores")


class TestOverlap:
    """The residual's product on a helper thread, beside the chain's split-bond products."""

    @pytest.mark.parametrize("kind", ["dense", "nf4"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 4, 32])
    def test_bytes_equal_the_sequential_sum(self, preset_adapters, kind, dtype, batch):
        adapter = preset_adapters[kind]
        assert batch * PRESET.rows * PRESET.cols >= dota.adapter._OVERLAP
        x = rand((batch, PRESET.rows), seed=71).astype(dtype)
        dy = rand((batch, PRESET.cols), seed=72).astype(dtype)

        def outputs():
            grads, dx = adapter.backward(x, dy)
            ref_grads, ref_dx = _chain_backward(x, dy, adapter.cores)
            return ([adapter.forward(x), dx, *grads.tensors],
                    [x @ adapter.w_res + _chain_forward(x, adapter.cores),
                     dy @ adapter.w_res.T + ref_dx, *ref_grads.tensors])

        for got, ref in at_one_and_two_threads(outputs):
            assert [a.dtype for a in got] == [a.dtype for a in ref]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]

    @pytest.mark.parametrize("which", ["forward", "backward"])
    def test_ignored_overflow_gives_non_finite_output_and_no_warning(self, preset_adapters,
                                                                     which):
        def step():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(over="ignore", invalid="ignore"):
                    return huge_step(preset_adapters["dense"], which)

        for out in at_one_and_two_threads(step):
            assert not np.isfinite(out).all()

    @pytest.mark.parametrize("which", ["forward", "backward"])
    def test_raised_overflow_reaches_the_caller(self, preset_adapters, which):
        adapter = preset_adapters["dense"]

        def outcomes():
            with np.errstate(over="raise"):
                return (outcome(lambda: huge_step(adapter, which)),
                        outcome(lambda: huge_step(adapter, which, sequential=True)))

        for got, want in at_one_and_two_threads(outcomes):
            assert got == want and got[0] is FloatingPointError

    @pytest.mark.parametrize("which", ["forward", "backward"])
    def test_default_errstate_warns_as_the_sequential_path(self, preset_adapters, which):
        adapter = preset_adapters["dense"]

        def outcomes():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
                    return (outcome(lambda: huge_step(adapter, which)),
                            outcome(lambda: huge_step(adapter, which, sequential=True)))

        for got, want in at_one_and_two_threads(outcomes):
            assert got == want and got[0] is RuntimeWarning

    @needs_two_cores
    def test_the_helper_takes_only_large_products_at_one_blas_thread(self, preset_adapters):
        if dota.adapter._openblas_threads() is None:
            pytest.skip("numpy's BLAS is not OpenBLAS, so the adapter takes no helper")
        products = [(np.ones((32, 64)), np.ones((64, 64))),  # 2^17 multiply-adds
                    (np.ones((1, 1024)), preset_adapters["dense"].w_res)]  # 2^20
        assert at_one_and_two_threads(
            lambda: [dota.adapter._overlaps(a, b) for a, b in products]
        ) == ([False, True], [False, False])

    def test_callers_on_many_threads_share_the_helper(self, preset_adapters):
        """More calling threads than cores, each with its own adapter and batch, all
        handing residual products to the one helper: each gets its own sum back."""
        adapters = [preset_adapters["dense"], preset_adapters["nf4"]] * 3
        xs = [rand((32, PRESET.rows), seed=80 + k) for k in range(len(adapters))]
        got = [[] for _ in adapters]

        def steps(k):
            for _ in range(5):
                got[k].append(adapters[k].forward(xs[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with blas_threads(1):
                want = [x @ a.w_res + _chain_forward(x, a.cores) for a, x in zip(adapters, xs)]
                threads = [threading.Thread(target=steps, args=(k,)) for k in range(len(adapters))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for ys, y in zip(got, want):
            assert [a.tobytes() for a in ys] == [y.tobytes()] * 5

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_a_helper_of_its_own(self, preset_adapters):
        adapter = preset_adapters["dense"]
        x = rand((32, PRESET.rows), seed=74)
        with blas_threads(1):
            y = adapter.forward(x)  # the helper thread is running now, where two cores are
            with warnings.catch_warnings():
                # Python 3.12 and later warn that a forked child gets only the forking thread.
                warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    signal.alarm(20)  # a child left waiting on the parent's helper dies of SIGALRM
                    code = 0 if adapter.forward(x).tobytes() == y.tobytes() else 1
                finally:
                    os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @needs_two_cores
    @pytest.mark.parametrize("blas", ["1", "2"])
    def test_one_helper_thread_starts_on_the_first_large_product(self, blas):
        if dota.adapter._openblas_threads() is None:
            pytest.skip("numpy's BLAS is not OpenBLAS, so the adapter takes no helper")
        script = """if True:
            import threading
            import numpy as np
            import dota
            from dota import CoreChain, DotaAdapter, MpoShape, SHAPE_PRESETS, truncated_ranks
            counts = [threading.active_count()]
            def adapter(factors):
                shape = MpoShape.square(factors)
                cores = [np.zeros(s) for s in shape.core_shapes(truncated_ranks(shape, 8))]
                return DotaAdapter(np.zeros((shape.rows, shape.cols)),
                                   CoreChain.from_arrays(cores), shape)
            for factors, batch in (((4, 4, 4), 2), ((4, 4, 4, 4, 4), 1), ((4, 4, 4, 4, 4), 32)):
                layer, x = adapter(factors), np.ones((batch, 4 ** len(factors)))
                layer.backward(x, layer.forward(x))
                counts.append(threading.active_count())
            print(*counts)
        """
        src = os.path.dirname(os.path.dirname(dota.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        # import, a 64x64 product below the size rule, then two 1024 ones above it:
        # one thread joins at one BLAS thread, and none at two
        assert run.stdout.split() == (["1", "1", "2", "2"] if blas == "1" else ["1"] * 4)
