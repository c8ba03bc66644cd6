import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dota import (
    CoreGradients,
    DotaAdapter,
    MpoShape,
    NF4_LEVELS,
    NumericError,
    ParameterError,
    QdotaAdapter,
    QuantizedMatrix,
    ShapeError,
    chain_gradients,
    dequantize_nf4,
    derive_nf4_levels,
    dota_init,
    nf4_codebook,
    qdota_init,
    quantize_nf4,
)


def rand(shape, seed=0, scale=0.02):
    return np.random.default_rng(seed).normal(0, scale, size=shape)


class TestCodebook:
    def test_structure(self):
        book = nf4_codebook()
        assert len(book.levels) == 16
        assert book.levels[0] == -1.0
        assert book.levels[-1] == 1.0
        assert 0.0 in book.levels
        assert all(b > a for a, b in zip(book.levels, book.levels[1:]))

    def test_regeneration_matches_frozen_constants(self):
        regenerated = derive_nf4_levels()
        assert len(regenerated) == 16
        assert np.abs(np.array(regenerated) - np.array(NF4_LEVELS)).max() <= 1e-6

    def test_zero_code_decodes_to_zero(self):
        book = nf4_codebook()
        assert book.levels[book.zero_code] == 0.0

    def test_tie_rounds_to_lower_code(self):
        book = nf4_codebook()
        mid = (book.levels[3] + book.levels[4]) / 2.0
        codes = book.encode(np.array([mid]))
        assert codes[0] == 3


class TestQuantize:
    def test_zero_matrix(self):
        q = quantize_nf4(np.zeros((4, 8)), 16)
        assert not q.absmax.any()
        assert not dequantize_nf4(q).any()
        assert np.all(q.codes() == nf4_codebook().zero_code)

    def test_endpoints_roundtrip_exactly(self):
        w = np.array([[0.5, 0.0, 0.0, -0.5]])
        q = quantize_nf4(w, 4)
        assert q.absmax[0] == 0.5
        assert np.array_equal(dequantize_nf4(q), w)

    def test_roundtrip_error_bound(self):
        w = rand((16, 16), seed=1)
        q = quantize_nf4(w, 64)
        back = dequantize_nf4(q)
        half_gap = nf4_codebook().max_gap / 2.0
        scales = np.repeat(q.absmax, 64)[: w.size].reshape(w.shape)
        assert np.all(np.abs(back - w) <= scales * half_gap + 1e-15)

    def test_partial_final_block(self):
        w = rand((3, 7), seed=2)  # 21 elements, block 8 -> 3 blocks
        q = quantize_nf4(w, 8)
        assert q.n_blocks == 3
        assert q.packed.size == math.ceil(21 / 2)
        back = dequantize_nf4(q)
        assert back.shape == w.shape

    def test_non_finite_rejected(self):
        w = np.array([[1.0, np.inf]])
        with pytest.raises(NumericError):
            quantize_nf4(w, 4)

    def test_bad_block_size(self):
        q = quantize_nf4(np.zeros((2, 2)))
        for block_size in (0, 2.5, True):
            with pytest.raises(ParameterError):
                quantize_nf4(np.zeros((2, 2)), block_size)
            with pytest.raises(ParameterError):
                QuantizedMatrix(q.packed, q.absmax, block_size, 2, 2)
            with pytest.raises(ParameterError):
                qdota_init(np.eye(4), MpoShape.square([2, 2]), 2, block_size)

    @given(st.integers(0, 999), st.sampled_from([1, 3, 16, 64, 100]))
    @settings(deadline=None, max_examples=30)
    def test_roundtrip_bound_property(self, seed, block_size):
        w = rand((6, 9), seed=seed, scale=0.5)
        q = quantize_nf4(w, block_size)
        back = dequantize_nf4(q)
        half_gap = nf4_codebook().max_gap / 2.0
        scales = np.repeat(q.absmax, block_size)[: w.size].reshape(w.shape)
        assert np.all(np.abs(back - w) <= scales * half_gap + 1e-12)

    def test_deterministic(self):
        w = rand((8, 8), seed=3)
        a, b = quantize_nf4(w, 16), quantize_nf4(w, 16)
        assert np.array_equal(a.packed, b.packed)
        assert np.array_equal(a.absmax, b.absmax)


class TestDequantize:
    def test_idempotent_codes(self):
        w = rand((8, 16), seed=4)
        q1 = quantize_nf4(w, 32)
        q2 = quantize_nf4(dequantize_nf4(q1), 32)
        assert np.array_equal(q1.packed, q2.packed)
        assert np.allclose(q1.absmax, q2.absmax)

    def test_values_bounded_by_block_scale(self):
        w = rand((8, 8), seed=5)
        q = quantize_nf4(w, 16)
        back = np.abs(dequantize_nf4(q)).reshape(-1)
        scales = np.repeat(q.absmax, 16)[: w.size]
        assert np.all(back <= scales + 1e-15)

    def test_storage_accounting(self):
        w = rand((13, 5), seed=6)  # 65 elements
        q = quantize_nf4(w, 16)
        assert q.packed.size == math.ceil(65 / 2)
        assert q.absmax.size == math.ceil(65 / 16)

    def test_packing_low_nibble_first(self):
        w = rand((1, 6), seed=7)
        q = quantize_nf4(w, 6)
        codes = q.codes()
        assert q.packed[0] == (codes[0] | (codes[1] << 4))


@pytest.mark.parametrize("init", [dota_init, qdota_init])
def test_non_finite_step_raises_and_leaves_cores(init):
    adapter = init(rand((16, 16), seed=20, scale=1.0), MpoShape.square([4, 4]), 2)
    grads = chain_gradients(adapter.cores, rand((16, 16), seed=21))
    before = adapter.merge().tobytes()
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = [g.copy() for g in grads.tensors]
        poisoned[-1].flat[0] = bad
        with pytest.raises(NumericError):
            adapter.apply_gradients(CoreGradients(tuple(poisoned)), 0.1)
        with pytest.raises(NumericError):
            adapter.apply_gradients(grads, bad)
    assert adapter.merge().tobytes() == before


class TestQdota:
    def test_init_deviation_is_exactly_residual_error(self):
        w0 = rand((16, 16), seed=8, scale=1.0)
        shape = MpoShape.square([4, 4])
        plain = dota_init(w0, shape, 2)
        quantized = qdota_init(w0, shape, 2, block_size=32)
        # the chain is shared, so merge difference == residual quantization error
        merge_gap = np.linalg.norm(quantized.merge() - plain.merge())
        res_gap = np.linalg.norm(quantized.w_res - plain.w_res)
        assert abs(merge_gap - res_gap) <= 1e-12

    def test_merge_error_triangle_bound(self):
        w0 = rand((16, 16), seed=9, scale=1.0)
        shape = MpoShape.square([4, 4])
        adapter = qdota_init(w0, shape, 2, block_size=32)
        plain = dota_init(w0, shape, 2)
        quant_err = np.linalg.norm(adapter.w_res - plain.w_res)
        assert np.linalg.norm(adapter.merge() - w0) <= quant_err + 1e-10

    def test_untruncated_residual_is_exact(self):
        w0 = rand((16, 16), seed=10, scale=1.0)
        adapter = qdota_init(w0, MpoShape.square([4, 4]))
        assert np.linalg.norm(adapter.merge() - w0) / np.linalg.norm(w0) <= 1e-12

    def test_forward_zero_input(self):
        adapter = qdota_init(rand((8, 8), seed=11, scale=1.0), MpoShape.square([2, 4]), 2)
        assert not adapter.forward(np.zeros((3, 8))).any()

    def test_batch_mismatch(self):
        adapter = qdota_init(rand((8, 8), seed=19, scale=1.0), MpoShape.square([2, 4]), 2)
        with pytest.raises(ShapeError):
            adapter.backward(np.ones((3, 8)), np.ones((4, 8)))

    def test_forward_matches_dequantized_plain_adapter(self):
        w0 = rand((16, 16), seed=12, scale=1.0)
        shape = MpoShape.square([4, 4])
        adapter = qdota_init(w0, shape, 2, block_size=32)
        substitute = DotaAdapter(
            w_res=adapter.w_res.copy(),
            cores=adapter.cores,
            shape=shape,
        )
        x = rand((5, 16), seed=13, scale=1.0)
        assert np.array_equal(adapter.forward(x), substitute.forward(x))

    def test_gradients_leave_residual_untouched(self):
        w0 = rand((8, 8), seed=14, scale=1.0)
        adapter = qdota_init(w0, MpoShape.square([2, 4]), 2, block_size=16)
        packed_before = adapter.q_res.packed.tobytes()
        absmax_before = adapter.q_res.absmax.tobytes()
        x = rand((4, 8), seed=15, scale=1.0)
        for _ in range(5):
            grads, _ = adapter.backward(x, adapter.forward(x))
            adapter.apply_gradients(grads, 0.05)
        assert adapter.q_res.packed.tobytes() == packed_before
        assert adapter.q_res.absmax.tobytes() == absmax_before

    def test_core_gradients_match_plain_adapter(self):
        w0 = rand((8, 8), seed=16, scale=1.0)
        shape = MpoShape.square([2, 4])
        adapter = qdota_init(w0, shape, 2, block_size=16)
        substitute = DotaAdapter(
            w_res=adapter.w_res.copy(),
            cores=adapter.cores,
            shape=shape,
        )
        x = rand((4, 8), seed=17, scale=1.0)
        dy = rand((4, 8), seed=18, scale=1.0)
        ga, dxa = adapter.backward(x, dy)
        gb, dxb = substitute.backward(x, dy)
        for a, b in zip(ga.tensors, gb.tensors):
            assert np.array_equal(a, b)
        assert np.array_equal(dxa, dxb)

    def test_is_a_dota_adapter_with_residual_decoded_once(self):
        adapter = qdota_init(rand((16, 16), seed=22, scale=1.0), MpoShape.square([4, 4]), 2)
        assert isinstance(adapter, DotaAdapter)
        assert not adapter.w_res.flags.writeable
        assert adapter.w_res.tobytes() == dequantize_nf4(adapter.q_res).tobytes()

    @pytest.mark.parametrize("rows, cols", [(8, 16), (16, 8)])
    def test_quantized_residual_of_wrong_shape_raises(self, rows, cols):
        adapter = qdota_init(rand((16, 16), seed=23, scale=1.0), MpoShape.square([4, 4]), 2)
        q_res = quantize_nf4(rand((rows, cols), seed=24), 32)
        with pytest.raises(ShapeError):
            QdotaAdapter(q_res=q_res, cores=adapter.cores, shape=adapter.shape)
