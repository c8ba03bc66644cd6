import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dota import (
    CoreChain,
    MpoShape,
    NumericError,
    ParameterError,
    ShapeError,
    dota_init,
    max_ranks,
    mpo_decompose,
    param_count,
    qdota_init,
    reconstruct,
    reconstruction_error,
    reorder_for_mpo,
    truncated_ranks,
)


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

    def test_zero_matrix_gives_zero_rank_one_chain(self):
        shape = MpoShape.square([2, 2, 2])
        chain = mpo_decompose(np.zeros((8, 8)), shape)
        assert chain.ranks == (1, 1, 1, 1)
        assert all(not c.data.any() for c in chain.cores)
        assert reconstruction_error(np.zeros((8, 8)), chain) == 0.0

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

    def test_boundary_rank_enforced(self):
        with pytest.raises(ShapeError):
            CoreChain.from_arrays([np.zeros((2, 2, 2, 1))])
        with pytest.raises(ShapeError):
            CoreChain.from_arrays([np.zeros((1, 2, 2, 2))])

    def test_rank_ceiling_enforced(self):
        # bond rank 5 exceeds min(4, 4) for 2x2 factor pairs
        with pytest.raises(ShapeError):
            CoreChain.from_arrays([np.zeros((1, 2, 2, 5)), np.zeros((5, 2, 2, 1))])


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

    def test_zero_matrix_zero_chain(self):
        chain = mpo_decompose(np.zeros((4, 4)), MpoShape.square([2, 2]))
        assert reconstruction_error(np.zeros((4, 4)), chain) == 0.0

    @pytest.mark.parametrize("target", [np.zeros((1, 16)), np.zeros(16), 3.0, np.zeros((4, 4))])
    def test_target_shape_checked(self, target):
        chain = mpo_decompose(rand((16, 16), seed=14), MpoShape.square([4, 4]))
        with pytest.raises(ShapeError):
            reconstruction_error(target, chain)
