import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dota.adapter
import dota.quant
from dota import (
    SHAPE_PRESETS,
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
    mpo_decompose,
    nf4_codebook,
    qdota_init,
    quantize_nf4,
    read_bundle,
    reconstruct,
    write_bundle,
)
from dota import mpo
from dota.quant import _BINS, _CHUNK


def rand(shape, seed=0, scale=0.02):
    return np.random.default_rng(seed).normal(0, scale, size=shape)


def reference_quantize(w, block_size):
    """The one-shot codec: a zero-padded float64 copy of the whole matrix,
    one scale per block, and a searchsorted over the level midpoints."""
    levels = np.array(NF4_LEVELS)
    midpoints = (levels[:-1] + levels[1:]) / 2.0
    flat = w.astype(np.float64).reshape(-1)
    n_blocks = -(-flat.size // block_size)
    padded = np.zeros(n_blocks * block_size)
    padded[: flat.size] = flat
    blocks = padded.reshape(n_blocks, block_size)
    scales = np.abs(blocks).max(axis=1)
    safe = np.where(scales == 0.0, 1.0, scales)
    codes = np.searchsorted(midpoints, blocks / safe[:, None], side="left").astype(np.uint8)
    codes = codes.reshape(-1)[: flat.size]
    if codes.size % 2:
        codes = np.append(codes, np.uint8(0))
    return (codes[0::2] | (codes[1::2] << 4)).astype(np.uint8), scales.astype(w.dtype)


def reference_dequantize(packed, absmax, block_size, shape):
    """The one-shot decode: unpack, gather, and multiply by the block
    scales repeated to full size, in float64."""
    n = shape[0] * shape[1]
    codes = np.empty(packed.size * 2, dtype=np.uint8)
    codes[0::2], codes[1::2] = packed & 0x0F, packed >> 4
    scales = np.repeat(absmax.astype(np.float64), block_size)[:n]
    return (np.array(NF4_LEVELS)[codes[:n]] * scales).reshape(shape).astype(absmax.dtype)


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

    def test_encode_matches_searchsorted_on_adversarial_values(self):
        book = nf4_codebook()
        levels = np.array(book.levels)
        midpoints = (levels[:-1] + levels[1:]) / 2.0
        edges = np.arange(2 * _BINS + 1) / _BINS - 1.0  # every table bin's lower edge
        near = np.concatenate([midpoints, levels, edges])
        x = np.concatenate([near, np.nextafter(near, 2.0), np.nextafter(near, -2.0),
                            [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]])
        x = x[np.abs(x) <= 1.0]
        for values in (x, x.astype(np.float32)):
            want = np.searchsorted(midpoints, values.astype(np.float64), side="left")
            got = book.encode(values)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=50))
    @settings(deadline=None, max_examples=100)
    def test_encode_matches_searchsorted(self, values):
        book = nf4_codebook()
        levels = np.array(book.levels)
        x = np.array(values)
        want = np.searchsorted((levels[:-1] + levels[1:]) / 2.0, x, side="left")
        assert np.array_equal(book.encode(x), want)

    def test_values_beyond_one_take_the_end_codes(self):
        codes = nf4_codebook().encode(np.array([-np.inf, -1e300, -1.5, 1.5, 1e300, np.inf]))
        assert codes.tolist() == [0, 0, 0, 15, 15, 15]

    def test_encode_of_nan_raises(self):
        with pytest.raises(NumericError):
            nf4_codebook().encode(np.array([0.5, np.nan]))

    def test_decode_is_the_levels(self):
        codes = np.arange(16, dtype=np.uint8)
        assert nf4_codebook().decode(codes).tolist() == list(NF4_LEVELS)
        assert nf4_codebook().decode(codes.astype(np.int64)).tolist() == list(NF4_LEVELS)

    @pytest.mark.parametrize("codes", [[16], [-1], [0.0], [True]], ids=["16", "-1", "float", "bool"])
    def test_decode_of_a_code_outside_0_to_15_raises(self, codes):
        with pytest.raises(ShapeError):
            nf4_codebook().decode(np.array(codes))

    def test_midpoints_sit_well_inside_their_table_bins(self):
        # The table holds one midpoint per bin, so no two may share one. The
        # lookup is exact regardless of the margin; it shows that a value
        # rounded by far more than float64's x + 1 would still get its code.
        levels = np.array(NF4_LEVELS)
        position = ((levels[:-1] + levels[1:]) / 2.0 + 1.0) * _BINS
        assert np.all(np.diff(np.floor(position)) > 0)
        assert np.abs(position - np.round(position)).min() >= 1e-3

    def test_one_codebook_built_once(self):
        book = nf4_codebook()
        assert book is nf4_codebook() and book.levels == NF4_LEVELS
        # every caller shares the tables, so none may write to them
        assert not any(t.flags.writeable for t in (book._thr, book._below, book._pairs))


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

    @pytest.mark.parametrize("field", ["packed", "absmax"])
    def test_rejects_arrays_of_the_wrong_size(self, field):
        q = quantize_nf4(np.ones((4, 4)), 4)
        arrays = {"packed": q.packed, "absmax": q.absmax}
        arrays[field] = arrays[field][:-1]
        with pytest.raises(ShapeError):
            QuantizedMatrix(arrays["packed"], arrays["absmax"], 4, 4, 4)

    @pytest.mark.parametrize("rows, cols, dtype", [
        (-2, -2, np.float64), (2.0, 2, np.float64), (True, 4, np.float64), (4, 4, np.int32),
        (4, 4, np.complex128), (4, 4, "U3"), (4, 4, object), (4, 4, np.float16),
        (4, 4, np.zeros(3)),
    ], ids=["negative", "float-count", "bool-count", "int32", "complex128", "U3", "object",
            "float16", "array"])
    def test_rejects_a_bad_shape_or_dtype(self, rows, cols, dtype):
        """Counts >= 1 and a float32 or float64 dtype, as dequantize_nf4 decodes into."""
        q = quantize_nf4(np.ones((4, 4)), 4)
        with pytest.raises(ShapeError):
            QuantizedMatrix(q.packed, q.absmax, 4, rows, cols, dtype)
        assert QuantizedMatrix(q.packed, q.absmax, 4, 4, 4, "float32").dtype == np.float32

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

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_chunked_codec_matches_one_shot_reference(self, data):
        block_size = data.draw(st.sampled_from([1, 3, 64, 100, _CHUNK + 5]), label="block_size")
        # Chunks hold an even number of whole blocks; sizes land on, just
        # before and just after the first chunk boundaries, odd counts included.
        step = 2 * max(1, _CHUNK // (2 * block_size)) * block_size
        n = data.draw(st.integers(0, 2), label="chunks") * step + data.draw(
            st.integers(-2 * block_size - 1, 2 * block_size + 1), label="offset")
        assume(n >= 1)
        shape = data.draw(st.sampled_from([(1, n), (n, 1)]), label="shape")
        dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
        rng = np.random.default_rng(data.draw(st.integers(0, 99), label="seed"))
        flat = rng.normal(0, 10.0 ** rng.integers(-3, 3), size=n)
        n_blocks = -(-n // block_size)
        for b in rng.choice(n_blocks, size=min(n_blocks, 3), replace=False):
            flat[b * block_size : (b + 1) * block_size] = 0.0  # all-zero blocks
        w = flat.reshape(shape).astype(dtype)

        q = quantize_nf4(w, block_size)
        packed, absmax = reference_quantize(w, block_size)
        assert q.packed.tobytes() == packed.tobytes()
        assert q.absmax.dtype == absmax.dtype and q.absmax.tobytes() == absmax.tobytes()
        back = dequantize_nf4(q)
        want = reference_dequantize(packed, absmax, block_size, shape)
        assert back.dtype == want.dtype and back.shape == want.shape
        assert back.tobytes() == want.tobytes()


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


class TestFrozenArrays:
    @pytest.mark.parametrize("source", ["quantize_nf4", "read_bundle", "constructor"])
    def test_codes_and_scales_are_read_only(self, tmp_path, source):
        q = quantize_nf4(rand((8, 8), seed=8), 16)
        if source == "read_bundle":
            chain = mpo_decompose(rand((8, 8)), MpoShape.square([2, 4]), 2)
            write_bundle(tmp_path / "b.dotc", chain, q)
            q = read_bundle(tmp_path / "b.dotc").residual
        elif source == "constructor":
            q = QuantizedMatrix(q.packed.copy(), q.absmax.copy(), 16, 8, 8)
        with pytest.raises(ValueError):
            q.packed[0] = 0
        with pytest.raises(ValueError):
            q.absmax[0] = np.nan

    def test_read_only_arrays_are_adopted_and_writeable_ones_copied(self):
        q = quantize_nf4(rand((8, 8), seed=9), 16)
        adopted = QuantizedMatrix(q.packed, q.absmax, 16, 8, 8)
        assert adopted.packed is q.packed and adopted.absmax is q.absmax
        packed, absmax = q.packed.copy(), q.absmax.copy()
        copied = QuantizedMatrix(packed, absmax, 16, 8, 8)
        assert not np.shares_memory(copied.packed, packed)
        assert not np.shares_memory(copied.absmax, absmax)
        assert copied.packed.tobytes() == packed.tobytes()
        assert copied.absmax.tobytes() == absmax.tobytes()


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


@pytest.mark.parametrize("init", [dota_init, qdota_init])
@pytest.mark.parametrize("lr", ["0.1", None, 1 + 1j, True, [0.1]])
def test_step_rejects_a_rate_that_is_not_a_real_number(init, lr):
    adapter = init(rand((16, 16), seed=20, scale=1.0), MpoShape.square([4, 4]), 2)
    grads = chain_gradients(adapter.cores, rand((16, 16), seed=21))
    before = adapter.merge().tobytes()
    with pytest.raises(ParameterError):
        adapter.apply_gradients(grads, lr)
    assert adapter.merge().tobytes() == before


@pytest.mark.parametrize("init", [dota_init, qdota_init])
def test_step_takes_any_real_rate_as_a_float(init):
    # Fraction and int are real numbers numpy cannot take as they are
    w0, shape = rand((16, 16), seed=20, scale=1.0), MpoShape.square([4, 4])
    adapter, twin = init(w0, shape, 2), init(w0, shape, 2)
    grads = chain_gradients(adapter.cores, rand((16, 16), seed=21))
    adapter.apply_gradients(grads, Fraction(1, 10))
    twin.apply_gradients(grads, 0.1)
    assert adapter.merge().tobytes() == twin.merge().tobytes()
    before = adapter.merge().tobytes()
    with pytest.raises(NumericError):
        adapter.apply_gradients(grads, 10**400)  # beyond float range
    assert adapter.merge().tobytes() == before


@pytest.mark.parametrize("init", [dota_init, qdota_init])
def test_adapter_of_a_zero_weight_trains(init):
    adapter = init(np.zeros((64, 64)), MpoShape.square([4, 4, 4]), 8)
    before = adapter.merge()
    grads, _ = adapter.backward(rand((8, 64), seed=22, scale=1.0), rand((8, 64), seed=23))
    adapter.apply_gradients(grads, 0.1)
    assert (adapter.merge() != before).any()


class TestInitResidual:
    """dota_init and qdota_init subtract W0 in place into the reconstruction."""

    @staticmethod
    def panels(monkeypatch, dtype):
        """A 1024 preset W0 rebuilt in panels, decomposed ahead of time."""
        shape = MpoShape.square(SHAPE_PRESETS[1024])
        w0 = rand((shape.rows, shape.cols), seed=50).astype(dtype)
        chain = mpo_decompose(w0, shape, 8)
        for module in (dota.adapter, dota.quant):
            monkeypatch.setattr(module, "mpo_decompose", lambda *args: chain)
        monkeypatch.setattr(mpo, "_PANEL", 0)
        return w0, shape, chain

    def test_dota_init_peak_holds_one_full_size_array(self, monkeypatch):
        w0, shape, _ = self.panels(monkeypatch, np.float64)
        tracemalloc.start()
        try:
            dota_init(w0, shape, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * w0.nbytes  # a separate difference would hold two

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_residuals_are_the_bytes_of_the_difference(self, monkeypatch, dtype):
        w0, shape, chain = self.panels(monkeypatch, dtype)
        want = w0 - reconstruct(chain)
        assert dota_init(w0, shape, 8).w_res.tobytes() == want.tobytes()
        got, ref = qdota_init(w0, shape, 8).q_res, quantize_nf4(want)
        assert got.packed.tobytes() == ref.packed.tobytes()
        assert got.absmax.tobytes() == ref.absmax.tobytes()


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
