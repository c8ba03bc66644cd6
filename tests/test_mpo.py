import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blas_threads import at_one_and_two_threads
from dota import (
    CoreChain,
    MpoShape,
    NumericError,
    ParameterError,
    SHAPE_PRESETS,
    ShapeError,
    dota_init,
    make_task,
    max_ranks,
    mpo_decompose,
    param_count,
    qdota_init,
    reconstruct,
    reconstruction_error,
    reorder_for_mpo,
    truncated_ranks,
)
from dota import mpo
from dota.mpo import _QR_BLOCK, _deinterleaving, _r_factor, _residual_error

# Its first unfolding is 4 x 9600: four whole QR blocks of 2048 columns and 1408 more.
WIDE = MpoShape((2, 96), (2, 100))


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def eckart_young_error(w, shape, rank):
    """Best rank-``rank`` Frobenius error of the reordered matrix (N=2 only)."""
    assert shape.n_cores == 2
    t, _ = reorder_for_mpo(w, shape)
    m = t.data.reshape(
        shape.in_factors[0] * shape.out_factors[0],
        shape.in_factors[1] * shape.out_factors[1],
    )
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.sqrt((s[rank:] ** 2).sum()))


def tt_svd(w, shape, rank):
    """Reference TT-SVD (Oseledets 2011, Alg. 1): a full SVD of every
    unfolding, carrying S_r V_r^T forward. Returns the cores, cast back to
    the input's dtype, and each bond's singular values."""
    *sweep, last = shape.core_shapes(truncated_ranks(shape, rank))
    m = reorder_for_mpo(np.asarray(w, dtype=np.float64), shape)[0].data
    cores, spectra = [], []
    for r0, i, j, r1 in sweep:
        u, s, vt = np.linalg.svd(m.reshape(r0 * i * j, -1), full_matrices=False)
        cores.append(u[:, :r1].reshape(r0, i, j, r1))
        spectra.append(s)
        m = s[:r1, None] * vt[:r1, :]
    cores.append(m.reshape(last))
    return [c.astype(w.dtype) for c in cores], spectra


def reference_reconstruct(chain):
    """The per-panel contraction, written out: the float64 product L_k of the
    cores up to the first L_k with more than one row per (i_1, j_1) panel (or
    of all of them); then, one panel at a time, its rows through the remaining
    cores, de-interleaved and cast into that panel's block of W."""
    shape, n = chain.shape, len(chain)
    cores = [c.data.astype(np.float64, copy=False) for c in chain.cores]
    i1, j1 = shape.in_factors[0], shape.out_factors[0]
    left, k = np.ones((1, 1)), 0
    while k < n and len(left) <= i1 * j1:
        left = (left @ cores[k].reshape(cores[k].shape[0], -1)).reshape(-1, cores[k].shape[-1])
        k += 1
    out = np.empty((shape.rows, shape.cols), dtype=chain.dtype)
    rows, cols = shape.rows // i1, shape.cols // j1
    modes = [f for ij in zip(shape.in_factors[1:], shape.out_factors[1:]) for f in ij]
    for p, panel in enumerate(np.split(left, i1 * j1)):
        for core in cores[k:]:
            panel = (panel @ core.reshape(core.shape[0], -1)).reshape(-1, core.shape[-1])
        i, j = divmod(p, j1)
        block = np.transpose(panel.reshape(modes), _deinterleaving(n - 1)).reshape(rows, cols)
        out[i * rows:(i + 1) * rows, j * cols:(j + 1) * cols] = block
    return out


def same_bytes(a, b):
    """Equal dtypes, shapes and bytes, compared without a copy of either."""
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8))


def random_chain(shape, ranks, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    return CoreChain.from_arrays([rng.normal(size=s).astype(dtype) for s in shape.core_shapes(ranks)])


@st.composite
def panel_chains(draw, budget=1 << 16):
    """A random chain of 3-5 cores, factors 1-5 and ranks up to their
    ceilings, with at most ``budget`` matrix elements. Its last factor pair
    is often (4, 4), as in most presets."""
    n = draw(st.integers(3, 5))
    last = draw(st.sampled_from([(4, 4), None])) or (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    factors, size = [], last[0] * last[1]
    for _ in range(2 * (n - 1)):
        factors.append(draw(st.integers(1, max(1, min(5, budget // size)))))
        size *= factors[-1]
    shape = MpoShape(tuple(factors[::2]) + last[:1], tuple(factors[1::2]) + last[1:])
    ranks = [draw(st.integers(1, r)) for r in max_ranks(shape)]
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return random_chain(shape, ranks, dtype, seed=draw(st.integers(0, 99)))


@st.composite
def half_shapes(draw):
    """An MpoShape as the adapter's split-bond halves take one: 0-3 factor pairs
    of 1-4 and the bond r as one more pair, (1, r) after them or (r, 1) before."""
    i, j = (tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
            for n in [draw(st.integers(0, 3))] * 2)
    r = draw(st.integers(1, 5))
    return MpoShape(i + (1,), j + (r,)) if draw(st.booleans()) else MpoShape((r,) + i, (1,) + j)


def tol(dtype, f64):
    """A float64 tolerance, or 1e-6 for float32 cores, which carry the cast's
    rounding (about 6e-8 relative)."""
    return f64 if dtype == np.float64 else 1e-6


def unfolding_tail_energy(w, shape, rank):
    """Sum over bonds of the energy W's own k-th unfolding has beyond the
    bond's rank: the right-hand side of the TT-SVD bound (Oseledets 2011,
    Thm 2.2)."""
    t = reorder_for_mpo(np.asarray(w, dtype=np.float64), shape)[0].data
    ranks = truncated_ranks(shape, rank)
    total, rows = 0.0, 1
    for k, (i, j) in enumerate(zip(shape.in_factors[:-1], shape.out_factors[:-1])):
        rows *= i * j
        s = np.linalg.svd(t.reshape(rows, -1), compute_uv=False)
        total += float((s[ranks[k + 1]:] ** 2).sum())
    return total


class TestMpoShape:
    @pytest.mark.parametrize("in_factors, out_factors", [
        ((2.5, 2), (2, 2)),
        ((2, 2), (2, True)),
        (("4",), (4,)),
        ((0,), (1,)),
        ((), ()),
        ((2, 2), (4,)),
        (4, 4),
    ], ids=["float", "bool", "str", "zero", "empty", "lengths", "not-a-list"])
    def test_rejects_bad_factors(self, in_factors, out_factors):
        with pytest.raises(ShapeError):
            MpoShape(in_factors, out_factors)

    def test_numpy_integer_factors_stored_as_int(self):
        shape = MpoShape((np.int64(2), np.int32(3)), (np.int32(4), np.int64(5)))
        assert shape.in_factors == (2, 3) and shape.out_factors == (4, 5)
        assert all(type(v) is int for v in shape.in_factors + shape.out_factors)

    def test_core_shapes(self):
        shapes = MpoShape((2, 3), (4, 5)).core_shapes((1, np.int64(6), 1))
        assert shapes == [(1, 2, 4, 6), (6, 3, 5, 1)]
        assert all(type(v) is int for s in shapes for v in s)


class TestMaxRanks:
    def test_five_core_example(self):
        shape = MpoShape.square([4, 4, 4, 4, 4])
        assert max_ranks(shape) == (1, 16, 256, 256, 16, 1)

    def test_single_core(self):
        assert max_ranks(MpoShape.square([6])) == (1, 1)

    def test_two_core(self):
        assert max_ranks(MpoShape(((2, 2)), (2, 2))) == (1, 4, 1)

    def test_threshold_clipping(self):
        shape = MpoShape.square([4, 4, 4, 4, 4])
        assert truncated_ranks(shape, 8) == (1, 8, 8, 8, 8, 1)
        assert truncated_ranks(shape, None) == max_ranks(shape)
        with pytest.raises(ParameterError):
            truncated_ranks(shape, 0)


class TestReorder:
    def test_single_core_identity(self):
        w = rand((3, 5))
        t, inv = reorder_for_mpo(w, MpoShape((3,), (5,)))
        assert t.shape == (3, 5)
        assert np.array_equal(t.data, w)
        assert not np.shares_memory(t.data, w)
        assert inv == (0, 1)

    def test_exhaustive_index_map(self):
        w = rand((4, 4), seed=2)
        t, _ = reorder_for_mpo(w, MpoShape.square([2, 2]))
        assert t.shape == (2, 2, 2, 2)
        for i1 in range(2):
            for j1 in range(2):
                for i2 in range(2):
                    for j2 in range(2):
                        assert t.data[i1, j1, i2, j2] == w[2 * i1 + i2, 2 * j1 + j2]

    def test_roundtrip(self):
        shape = MpoShape((2, 3, 4), (4, 3, 2))
        w = rand((24, 24), seed=3)
        t, inv = reorder_for_mpo(w, shape)
        separated = np.transpose(t.data, inv)
        assert np.array_equal(separated.reshape(24, 24), w)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            reorder_for_mpo(rand((4, 5)), MpoShape.square([2, 2]))

    @given(half_shapes(), st.lists(st.integers(1, 3), max_size=2), st.integers(0, 99))
    @settings(deadline=None, max_examples=100)
    def test_as_matrix_undoes_as_modes_on_half_shapes(self, shape, lead, seed):
        w = rand(tuple(lead) + (shape.rows, shape.cols), seed)
        modes = np.ascontiguousarray(mpo._as_modes(w, shape))
        back = mpo._as_matrix(modes.reshape(tuple(lead) + (-1, modes.shape[-1])), shape)
        assert back.shape == w.shape and back.dtype == w.dtype
        assert back.tobytes() == w.tobytes()


class TestDecompose:
    def test_untruncated_is_exact(self):
        w = rand((64, 64), seed=4)
        chain = mpo_decompose(w, MpoShape.square([4, 4, 4]))
        assert reconstruction_error(w, chain) <= 1e-12

    def test_rank_one_matches_eckart_young(self):
        shape = MpoShape.square([2, 2])
        w = rand((4, 4), seed=5)
        chain = mpo_decompose(w, shape, 1)
        err = np.linalg.norm(w - reconstruct(chain))
        assert abs(err - eckart_young_error(w, shape, 1)) <= 1e-10

    def test_thousand_dim_parameter_count(self):
        shape = MpoShape.square([4, 4, 4, 4, 4])
        w = rand((1024, 1024), seed=6)
        chain = mpo_decompose(w, shape, 8)
        assert chain.num_params == 3328
        assert chain.ranks == (1, 8, 8, 8, 8, 1)

    def test_rank_ceiling(self):
        shape = MpoShape.square([4, 4, 4])
        chain = mpo_decompose(rand((64, 64), seed=7), shape, 5)
        limits = truncated_ranks(shape, 5)
        assert all(r <= lim for r, lim in zip(chain.ranks, limits))

    def test_zero_matrix_takes_the_sweep(self):
        shape = MpoShape.square([2, 2, 2])
        chain = mpo_decompose(np.zeros((8, 8)), shape)
        assert chain.ranks == truncated_ranks(shape, None)
        for core in chain.cores[:-1]:  # orthonormal columns, so the chain can train
            u = core.data.reshape(-1, core.shape[-1])
            assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        assert not reconstruct(chain).any()
        assert reconstruction_error(np.zeros((8, 8)), chain) == 0.0

    @given(kind=st.sampled_from(["zero", "rank-one", "random"]),
           factors=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1,
                            max_size=4),
           rank=st.none() | st.integers(1, 6), seed=st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_ranks_depend_on_shape_and_threshold_alone(self, kind, factors, rank, seed):
        shape = MpoShape(*zip(*factors))
        w = rand((shape.rows, shape.cols), seed)
        w = {"zero": np.zeros_like(w), "rank-one": np.outer(w[:, 0], w[0]), "random": w}[kind]
        assert mpo_decompose(w, shape, rank).ranks == truncated_ranks(shape, rank)

    def test_non_finite_rejected(self):
        w = rand((4, 4))
        w[1, 1] = np.nan
        with pytest.raises(NumericError):
            mpo_decompose(w, MpoShape.square([2, 2]))

    def test_bad_threshold(self):
        shape = MpoShape.square([2, 2])
        for threshold in (0, 2.5, True):
            with pytest.raises(ParameterError):
                mpo_decompose(rand((4, 4)), shape, threshold)
            with pytest.raises(ParameterError):
                truncated_ranks(shape, threshold)
            with pytest.raises(ParameterError):
                dota_init(rand((4, 4)), shape, threshold)
            with pytest.raises(ParameterError):
                qdota_init(rand((4, 4)), shape, threshold)

    def test_deterministic(self):
        w = rand((64, 64), seed=8)
        a = mpo_decompose(w, MpoShape.square([4, 4, 4]), 4)
        b = mpo_decompose(w, MpoShape.square([4, 4, 4]), 4)
        for ca, cb in zip(a.cores, b.cores):
            assert np.array_equal(ca.data, cb.data)

    def test_float32_path(self):
        w = rand((16, 16), seed=9).astype(np.float32)
        chain = mpo_decompose(w, MpoShape.square([4, 4]))
        assert chain.dtype == np.float32
        assert reconstruction_error(w, chain) <= 1e-5

    @given(st.integers(1, 6), st.integers(0, 99))
    @settings(deadline=None, max_examples=20)
    def test_param_accounting_matches_chain(self, rank, seed):
        shape = MpoShape((2, 3, 2), (2, 2, 3))
        w = rand((12, 12), seed=seed)
        chain = mpo_decompose(w, shape, rank)
        assert param_count(shape, chain.ranks) == chain.num_params

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_ranks_are_the_truncated_ranks(self, data):
        # the sweep keeps exactly the bond ranks truncated_ranks promises
        n = data.draw(st.integers(1, 4))
        factors = st.lists(st.integers(1, 4), min_size=n, max_size=n)
        shape = MpoShape(tuple(data.draw(factors)), tuple(data.draw(factors)))
        rank = data.draw(st.one_of(st.none(), st.integers(1, 6)))
        w = rand((shape.rows, shape.cols), seed=data.draw(st.integers(0, 99)))
        assert mpo_decompose(w, shape, rank).ranks == truncated_ranks(shape, rank)


class TestOracle:
    """The sweep against the reference TT-SVD :func:`tt_svd`."""

    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_matches_reference_tt_svd(self, data):
        n = data.draw(st.integers(1, 5))
        factors = st.lists(st.integers(1, 4), min_size=n, max_size=n)
        shape = MpoShape(tuple(data.draw(factors)), tuple(data.draw(factors)))
        rank = data.draw(st.one_of(st.none(), st.integers(1, 8)))
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        w = rand((shape.rows, shape.cols), seed=data.draw(st.integers(0, 99))).astype(dtype)
        chain = mpo_decompose(w, shape, rank)

        for core in chain.cores[:-1]:
            c = core.data.astype(np.float64).reshape(-1, core.shape[3])
            assert np.abs(c.T @ c - np.eye(c.shape[1])).max() <= tol(dtype, 1e-12)
        err = reconstruction_error(w, chain)
        norm2 = float(np.linalg.norm(w.astype(np.float64)) ** 2)
        assert err ** 2 * norm2 <= unfolding_tail_energy(w, shape, rank) + tol(dtype, 1e-12) * norm2

        want, spectra = tt_svd(w, shape, rank)
        for s, r in zip(spectra, chain.ranks[1:]):
            # every kept vector, and the kept span, is well determined
            assume(np.all(-np.diff(s[:r + 1]) >= 1e-6 * s[0]))
        flip = np.ones(1)  # the sign of each kept vector at the bond before the core
        for core, ref in zip(chain.cores, want):
            got = core.data.astype(np.float64) * flip[:, None, None, None]
            flip = np.sign(np.einsum("aijb,aijb->b", got, ref))
            assert np.linalg.norm(got * flip - ref) <= tol(dtype, 1e-10) * np.linalg.norm(ref)
        assert flip.tolist() == [1.0]  # no sign left over on the chain as a whole
        oracle_err = reconstruction_error(w, CoreChain.from_arrays(want))
        assert abs(err - oracle_err) <= tol(dtype, 1e-12)

    @pytest.mark.parametrize("factors, seed", [
        ((4, 4, 4), 1), ((4, 4, 4), 2), ((4, 4, 4), 3), (SHAPE_PRESETS[1024], 1), (WIDE, 1),
    ])
    def test_standard_tasks_keep_the_reference_signs(self, factors, seed):
        # make_task's target, and with it the standard grid, depends on the
        # sign of each kept vector, so these cores must match without flips
        shape = factors if isinstance(factors, MpoShape) else MpoShape.square(factors)
        w = make_task(shape, 8, 0.05, seed=seed).w0
        chain = mpo_decompose(w, shape, 8)
        for core, ref in zip(chain.cores, tt_svd(w, shape, 8)[0]):
            assert np.linalg.norm(core.data - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("c", [1e-200, 1e160])
    @pytest.mark.parametrize("shape, rank", [
        (MpoShape.square([4, 4, 4]), 8),
        (MpoShape((2, 3, 4), (4, 3, 2)), None),
        (WIDE, None),
    ])
    def test_scale_moves_only_the_last_core(self, c, shape, rank):
        w = rand((shape.rows, shape.cols), seed=16)
        want = mpo_decompose(w, shape, rank).cores
        got = mpo_decompose(c * w, shape, rank).cores  # a warning fails it (filterwarnings)
        # compared core by core: a Frobenius norm of the scaled matrix overflows
        for g, ref, scale in zip(got, want, [1.0] * (len(want) - 1) + [c]):
            assert np.linalg.norm(g.data / scale - ref.data) <= 1e-12 * np.linalg.norm(ref.data)


class TestBlockedQr:
    """The R factor of a wide unfolding, one QR per block of columns."""

    def test_one_block_takes_a_single_qr(self):
        a = rand((16, _QR_BLOCK), seed=17)
        assert _r_factor(a).tobytes() == np.linalg.qr(a.T, mode="r").tobytes()

    def test_blocks_give_the_gram_matrix_of_a_single_qr(self):
        a = rand((4, 4 * _QR_BLOCK + 1408), seed=18)
        r = _r_factor(a)
        assert r.shape == (4, 4)
        assert np.abs(r.T @ r - a @ a.T).max() <= 1e-12 * np.abs(a @ a.T).max()

    def test_rank_one_unfolding_is_exact_with_orthonormal_cores(self):
        # kron(A, B) unfolds to vec(A) vec(B)^T, so the stacked triangles are
        # singular and three of the four kept vectors are LAPACK's choice.
        w = np.kron(rand((2, 2), seed=19), rand((96, 100), seed=20))
        chain = mpo_decompose(w, WIDE)
        assert chain.ranks == (1, 4, 1)
        c = chain.cores[0].data.reshape(-1, 4)
        assert np.abs(c.T @ c - np.eye(4)).max() <= 1e-12
        assert reconstruction_error(w, chain) <= 1e-12


class TestReconstruct:
    def test_single_core_identity(self):
        w = rand((6, 7), seed=10)
        chain = mpo_decompose(w, MpoShape((6,), (7,)))
        assert np.allclose(reconstruct(chain), w, atol=1e-14)

    def test_zero_chain(self):
        cores = [np.zeros((1, 2, 2, 3)), np.zeros((3, 2, 2, 1))]
        chain = CoreChain.from_arrays(cores)
        assert not reconstruct(chain).any()

    def test_bond_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            CoreChain.from_arrays([np.zeros((1, 2, 2, 3)), np.zeros((2, 2, 2, 1))])

    def test_cores_must_be_order_4(self):
        with pytest.raises(ShapeError, match="order 4"):
            CoreChain.from_arrays([np.zeros((2, 2))])

    def test_boundary_rank_enforced(self):
        with pytest.raises(ShapeError):
            CoreChain.from_arrays([np.zeros((2, 2, 2, 1))])
        with pytest.raises(ShapeError):
            CoreChain.from_arrays([np.zeros((1, 2, 2, 2))])

    def test_rank_ceiling_enforced(self):
        # bond rank 5 exceeds min(4, 4) for 2x2 factor pairs
        with pytest.raises(ShapeError):
            CoreChain.from_arrays([np.zeros((1, 2, 2, 5)), np.zeros((5, 2, 2, 1))])


class TestPanels:
    """reconstruct, its panels stacked or one at a time, against the per-panel
    contraction, at one and at two BLAS threads."""

    @given(panel_chains(), st.integers(0, 99))
    @settings(deadline=None, max_examples=150)
    def test_forced_panels_are_byte_identical(self, chain, seed):
        w = rand((chain.shape.rows, chain.shape.cols), seed=seed)

        def outputs():  # the norms too: ddot splits its sum by thread count
            want = reference_reconstruct(chain)
            want_d = w - want.astype(np.float64, copy=False)
            got = [reconstruct(chain)]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mpo, "_PANEL", 0)
                got += [reconstruct(chain), *_residual_error(w, chain)]
            return want, want_d, float(np.linalg.norm(want_d)) / float(np.linalg.norm(w)), got

        for want, want_d, want_err, (stacked, forced, d, err) in at_one_and_two_threads(outputs):
            assert same_bytes(stacked, want) and same_bytes(forced, want)
            assert same_bytes(d, want_d) and err == want_err

    def test_4096_preset_is_byte_identical_and_fresh(self):
        shape = MpoShape.square(SHAPE_PRESETS[4096])
        chain = random_chain(shape, truncated_ranks(shape, 8), seed=1)

        def checks():
            got = reconstruct(chain)
            return (got.flags.writeable and got.flags.c_contiguous,
                    not any(np.shares_memory(got, c.data) for c in chain.cores),
                    same_bytes(got, reference_reconstruct(chain)))

        assert at_one_and_two_threads(checks) == ((True,) * 3,) * 2

    def test_peak_holds_one_full_size_array(self, monkeypatch):
        """Forced panels at 1024, and the 2304 preset as it is built by default."""
        for dims, panel in [(1024, 0), (2304, mpo._PANEL)]:
            shape = MpoShape.square(SHAPE_PRESETS[dims])
            chain = random_chain(shape, truncated_ranks(shape, 8), seed=2)
            w = rand((shape.rows, shape.cols), seed=3)
            monkeypatch.setattr(mpo, "_PANEL", panel)
            for build in (lambda: reconstruct(chain), lambda: _residual_error(w, chain)):
                tracemalloc.start()
                try:
                    build()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 1.25 * w.nbytes, dims  # one contraction in one piece would hold two

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("core", [0, 1, 2])
    def test_non_finite_core_raises(self, monkeypatch, value, core):
        shape = MpoShape.square([2, 2, 4])  # four panels of four rows
        arrays = [c.data.copy() for c in random_chain(shape, max_ranks(shape), seed=4).cores]
        arrays[core].flat[0] = value
        monkeypatch.setattr(mpo, "_PANEL", 0)
        with pytest.raises(NumericError):  # a warning fails it (filterwarnings)
            reconstruction_error(rand((16, 16), seed=5), CoreChain.from_arrays(arrays))


class TestParamCount:
    def test_thousand_dim_uniform_rank(self):
        shape = MpoShape.square([4, 4, 4, 4, 4])
        assert param_count(shape, (1, 8, 8, 8, 8, 1)) == 3328

    def test_single_core_is_full_matrix(self):
        assert param_count(MpoShape((8,), (16,)), (1, 1)) == 8 * 16

    def test_4096_preset(self):
        shape = MpoShape.square([4, 4, 8, 8, 4])
        ranks = truncated_ranks(shape, 16)
        assert ranks == (1, 16, 16, 16, 16, 1)
        assert param_count(shape, ranks) == 37376

    def test_closed_form_uniform_rank(self):
        # R*(I1*J1 + IN*JN) + R^2 * sum of middle products
        shape = MpoShape.square([4, 4, 4, 4, 4])
        r = 8
        closed = r * (16 + 16) + r * r * (16 + 16 + 16)
        assert param_count(shape, (1, r, r, r, r, 1)) == closed

    def test_rank_list_validation(self):
        shape = MpoShape.square([4, 4])
        with pytest.raises(ShapeError):
            param_count(shape, (1, 4))
        with pytest.raises(ShapeError):
            param_count(shape, (2, 4, 1))
        for ranks in ((1, True, 1), (1, 17, 1)):  # 17 is above the ceiling 4 * 4
            with pytest.raises(ShapeError):
                param_count(shape, ranks)
        with pytest.raises(ShapeError):
            param_count(MpoShape.square([4, 4, 4]), (1, 2.7, 0.5, 1))


class TestReconstructionError:
    def test_untruncated_near_zero(self):
        w = rand((36, 36), seed=11)
        chain = mpo_decompose(w, MpoShape.square([6, 6]))
        assert reconstruction_error(w, chain) <= 1e-12

    def test_truncated_matches_oracle(self):
        shape = MpoShape.square([2, 2])
        w = rand((4, 4), seed=12)
        chain = mpo_decompose(w, shape, 1)
        expected = eckart_young_error(w, shape, 1) / np.linalg.norm(w)
        assert abs(reconstruction_error(w, chain) - expected) <= 1e-10

    def test_monotone_in_rank(self):
        shape = MpoShape.square([4, 4, 4])
        w = rand((64, 64), seed=13)
        errs = [
            reconstruction_error(w, mpo_decompose(w, shape, r))
            for r in (1, 2, 4, 8, 16)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    @given(k=st.integers(-1000, 1000))
    @example(k=-1000)
    @example(k=1000)
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_power_of_two_scaling_keeps_the_error(self, k):
        # 2^k scales W exactly, so only a norm that under- or overflows moves the error
        shape, w = MpoShape.square([4, 4, 4]), rand((64, 64), seed=17)
        want = reconstruction_error(w, mpo_decompose(w, shape, 8))
        scaled = w * 2.0**k
        got = reconstruction_error(scaled, mpo_decompose(scaled, shape, 8))
        assert abs(got - want) <= 1e-12 * want

    def test_zero_matrix_zero_chain(self):
        chain = mpo_decompose(np.zeros((4, 4)), MpoShape.square([2, 2]))
        assert reconstruction_error(np.zeros((4, 4)), chain) == 0.0

    @pytest.mark.parametrize("target", [np.zeros((1, 16)), np.zeros(16), 3.0, np.zeros((4, 4))])
    def test_target_shape_checked(self, target):
        chain = mpo_decompose(rand((16, 16), seed=14), MpoShape.square([4, 4]))
        with pytest.raises(ShapeError):
            reconstruction_error(target, chain)
