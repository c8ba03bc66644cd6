import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dota.quant
import dota.tensor_core
from dota import (
    FormatError,
    MpoShape,
    SHAPE_PRESETS,
    ShapeError,
    dequantize_nf4,
    mpo_decompose,
    param_count,
    quantize_nf4,
    read_bundle,
    read_matrix,
    reconstruct,
    truncated_ranks,
    write_bundle,
    write_matrix,
)
from dota.cli import main


def rand(shape, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


def header_fields(blob: bytes) -> dict:
    """A bundle's JSON header, parsed."""
    return json.loads(blob[9 : 9 + int.from_bytes(blob[5:9], "little")])


def canonical(fields: dict) -> bytes:
    """A header as write_bundle serializes it."""
    return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()


def with_header(blob: bytes, header: bytes) -> bytes:
    """A bundle's bytes with its JSON header and declared length replaced."""
    n = int.from_bytes(blob[5:9], "little")
    return blob[:5] + len(header).to_bytes(4, "little") + header + blob[9 + n :]


def set_header_field(path, field, value) -> None:
    """Rewrite one field of a bundle's JSON header and its declared length."""
    blob = path.read_bytes()
    header = header_fields(blob)
    header[field] = value
    path.write_bytes(with_header(blob, canonical(header)))


class TestMatrixFile:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bitwise(self, tmp_path, dtype):
        path = tmp_path / "m.dotm"
        m = rand((5, 9), seed=1, dtype=dtype)
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.dtype == dtype
        assert back.tobytes() == m.tobytes()

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "m.dotm"
        write_matrix(path, rand((4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.dotm"
        write_matrix(path, rand((4, 4)))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "m.dotm"
        write_matrix(path, rand((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "m.dotm"
        write_matrix(path, rand((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_rejects_non_float(self, tmp_path):
        with pytest.raises(FormatError):
            write_matrix(tmp_path / "m.dotm", np.zeros((2, 2), dtype=np.int32))

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(FormatError, match="order-1"):
            write_matrix(tmp_path / "m.dotm", np.zeros(4))

    def test_rejects_ragged_list_before_opening(self, tmp_path):
        path = tmp_path / "m.dotm"
        with pytest.raises(ShapeError):
            write_matrix(path, [[1.0, 2.0], [3.0]])
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2**32, 0), (1, 2**32), (2**32, 1)],
                             ids=["0x0", "0x3", "3x0", "2^32x0", "1x2^32", "2^32x1"])
    def test_refuses_dimensions_the_reader_refuses_before_opening(self, tmp_path, shape):
        path = tmp_path / "m.dotm"
        m = np.broadcast_to(np.zeros((1, 1)), shape)  # a view: no payload is allocated
        with pytest.raises(FormatError, match="bad dimensions"):
            write_matrix(path, m)
        assert not path.exists()

    @pytest.mark.parametrize("offset, value, message", [
        (5, bytes([7]), "unknown dtype code 7"),
        (6, (0).to_bytes(4, "little"), "bad dimensions 0x2"),
    ], ids=["dtype-code", "zero-rows"])
    def test_rejects_bad_header_fields(self, tmp_path, offset, value, message):
        path = tmp_path / "m.dotm"
        write_matrix(path, rand((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[offset:offset + len(value)] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            read_matrix(path)

    def test_oversized_header_raises_before_allocating(self, tmp_path):
        path = tmp_path / "m.dotm"
        write_matrix(path, rand((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[6:14] = (2**32 - 1).to_bytes(4, "little") * 2  # rows and cols
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="file too short"):
                read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_payload_is_read_straight_into_the_matrix(self, tmp_path):
        path = tmp_path / "m.dotm"
        m = rand((256, 512), seed=3)  # 1 MB
        write_matrix(path, m)
        tracemalloc.start()
        try:
            back = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.tobytes() == m.tobytes()
        assert peak < 1.25 * m.nbytes  # no second copy of the payload


class TestBundleFile:
    def make_chain(self, dtype=np.float64, rank=3):
        w = rand((16, 16), seed=2, dtype=dtype)
        return w, mpo_decompose(w, MpoShape.square([4, 4]), rank)

    def test_roundtrip_without_residual(self, tmp_path):
        _, chain = self.make_chain()
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, None)
        bundle = read_bundle(path)
        assert bundle.residual is None
        assert bundle.chain.ranks == chain.ranks
        for a, b in zip(bundle.chain.cores, chain.cores):
            assert a.data.tobytes() == b.data.tobytes()

    def test_roundtrip_with_raw_residual(self, tmp_path):
        w, chain = self.make_chain()
        residual = w - reconstruct(chain)
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, residual)
        bundle = read_bundle(path)
        assert bundle.residual.tobytes() == residual.tobytes()

    def test_roundtrip_with_quantized_residual(self, tmp_path):
        w, chain = self.make_chain()
        q = quantize_nf4(w - reconstruct(chain), 32)
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, q)
        bundle = read_bundle(path)
        assert bundle.residual_quantized
        assert bundle.residual.block_size == 32
        assert bundle.residual.packed.tobytes() == q.packed.tobytes()
        assert bundle.residual.absmax.tobytes() == q.absmax.tobytes()

    def test_payload_arrays_are_adopted_without_a_second_copy(self, tmp_path, monkeypatch):
        w, chain = self.make_chain()
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, quantize_nf4(w - reconstruct(chain), 32))
        handed_over = []

        def spy(a, _adopt=dota.tensor_core._as_readonly):
            handed_over.append(a.flags.writeable)
            return _adopt(a)

        for module in (dota.tensor_core, dota.quant):
            monkeypatch.setattr(module, "_as_readonly", spy)
        read_bundle(path)
        # two cores, the packed codes and the block scales, each already read-only
        assert handed_over == [False] * 4

    def test_float32_payload(self, tmp_path):
        w, chain = self.make_chain(dtype=np.float32)
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, w - reconstruct(chain))
        bundle = read_bundle(path)
        assert bundle.chain.dtype == np.float32
        assert bundle.residual.dtype == np.float32

    def test_rejects_truncated_payload(self, tmp_path):
        _, chain = self.make_chain()
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, None)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_bundle(path)

    def test_rejects_header_payload_mismatch(self, tmp_path):
        _, chain = self.make_chain()
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, None)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(FormatError):
            read_bundle(path)

    def test_rejects_inconsistent_header(self, tmp_path):
        _, chain = self.make_chain()
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, None)
        set_header_field(path, "ranks", [1, 999, 1])
        with pytest.raises(FormatError):
            read_bundle(path)

    @pytest.mark.parametrize("field, value", [
        ("block_size", True),
        ("original_rows", True),
        ("original_cols", True),
        ("in_factors", [True]),
        ("out_factors", [True]),
        ("ranks", [True, 1]),
        ("ranks", [1, True]),
    ])
    def test_rejects_boolean_integer_fields(self, tmp_path, field, value):
        # every integer field of this bundle is 1, so true leaves all sizes consistent
        w = np.array([[2.0]])
        chain = mpo_decompose(w, MpoShape((1,), (1,)))
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, quantize_nf4(w - reconstruct(chain), 1))
        set_header_field(path, field, value)
        with pytest.raises(FormatError):
            read_bundle(path)

    def test_rejects_negative_block_scale(self, tmp_path):
        w, chain = self.make_chain()
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, quantize_nf4(w - reconstruct(chain), 32))
        blob = path.read_bytes()
        # the block scales end the file; make the last one negative
        path.write_bytes(blob[:-8] + np.float64(-0.5).tobytes())
        with pytest.raises(FormatError):
            read_bundle(path)

    def test_rejects_zero_block_size(self, tmp_path):
        # the scale count divides by the block size, so the block-size rule
        # has to reject 0 first, and as a FormatError
        w = np.array([[2.0]])
        chain = mpo_decompose(w, MpoShape((1,), (1,)))
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, quantize_nf4(np.array([[0.5]]), 1))
        set_header_field(path, "block_size", 0)
        with pytest.raises(FormatError):
            read_bundle(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["core", "residual"])
    def test_rejects_non_finite_payload(self, tmp_path, capsys, where, value):
        w, chain = self.make_chain()
        path = tmp_path / "b.dotc"
        write_bundle(path, chain, w - reconstruct(chain))
        blob = bytearray(path.read_bytes())
        header_len = int.from_bytes(blob[5:9], "little")
        # first element of the first core, or last element of the residual
        offset = 9 + header_len if where == "core" else len(blob) - 8
        blob[offset : offset + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_bundle(path)
        out = tmp_path / "back.dotm"
        assert main(["reconstruct", "--bundle", str(path), "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_non_json_header(self, tmp_path):
        path = tmp_path / "b.dotc"
        garbage = b"DOTC" + bytes([1]) + (7).to_bytes(4, "little") + b"not-js" + b"x"
        path.write_bytes(garbage)
        with pytest.raises(FormatError):
            read_bundle(path)

    def test_rejects_header_that_is_not_an_object(self, tmp_path):
        header = b"[1]"
        path = tmp_path / "b.dotc"
        path.write_bytes(b"DOTC" + bytes([1]) + len(header).to_bytes(4, "little") + header)
        with pytest.raises(FormatError, match="JSON object"):
            read_bundle(path)

    def test_rejects_deeply_nested_header(self, tmp_path, capsys):
        header = b"[" * 100000
        path = tmp_path / "b.dotc"
        path.write_bytes(b"DOTC" + bytes([1]) + len(header).to_bytes(4, "little") + header)
        with pytest.raises(FormatError):
            read_bundle(path)
        out = tmp_path / "back.dotm"
        assert main(["reconstruct", "--bundle", str(path), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["in_factors", "ranks"])
    def test_rejects_nested_lists_near_the_depth_limit(self, tmp_path, field):
        # Just inside the depth json can parse, the repr that names a bad
        # value in the error message can still run out of stack.
        parsed, failed = 1, 1 << 20
        while failed - parsed > 1:
            mid = (parsed + failed) // 2
            try:
                json.loads("[" * mid + "]" * mid)
                parsed = mid
            except RecursionError:
                failed = mid
        header = {"in_factors": [1], "out_factors": [1], "ranks": [1, 1], "dtype": "f64",
                  "has_residual": False, "residual_quantized": False, "block_size": None,
                  "original_rows": 1, "original_cols": 1, field: "X"}
        path = tmp_path / "b.dotc"
        for depth in range(parsed - 30, failed + 2):
            raw = json.dumps(header).replace('"X"', "[" * depth + "1" + "]" * depth).encode()
            path.write_bytes(b"DOTC" + bytes([1]) + len(raw).to_bytes(4, "little") + raw)
            with pytest.raises(FormatError):
                read_bundle(path)

    def test_residual_shape_checked_on_write(self, tmp_path):
        _, chain = self.make_chain()
        with pytest.raises(FormatError):
            write_bundle(tmp_path / "b.dotc", chain, np.zeros((3, 3)))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory and the bytes of one small valid file of each kind."""
    d = tmp_path_factory.mktemp("fuzz")
    w = rand((4, 4), seed=6)
    chain = mpo_decompose(w, MpoShape.square([2, 2]), 1)
    residual = w - reconstruct(chain)
    write_matrix(d / "dotm", w)
    for name, res in (("dotc", None), ("dotc-dense", residual),
                      ("dotc-nf4", quantize_nf4(residual, 4))):
        write_bundle(d / name, chain, res)
    return d, {path.name: path.read_bytes() for path in d.iterdir()}


# JSON digits and punctuation turn up often, so header edits stay parseable.
_BYTE = st.one_of(st.sampled_from(b'0123456789-.,:[]{}"'), st.integers(0, 255))
_BYTES = st.lists(_BYTE, min_size=1, max_size=16).map(bytes)
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 20) | st.floats(-1, 20) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=6,
)


def _mutated(data, blob: bytes) -> bytes:
    """One to three flips, truncations, extensions, insertions or deletions."""
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["flip", "truncate", "extend", "insert", "delete"]))
        at = data.draw(st.integers(0, len(blob)))
        if kind == "flip" and at < len(blob):
            blob[at] = data.draw(_BYTE)
        elif kind == "truncate":
            del blob[at:]
        elif kind == "extend":
            blob += data.draw(_BYTES)
        elif kind == "insert":
            blob[at:at] = data.draw(_BYTES)
        elif kind == "delete":
            del blob[at : at + data.draw(st.integers(1, 16))]
    return bytes(blob)


class TestFuzz:
    @given(data=st.data())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_mutated_files_raise_only_format_error(self, valid_files, data):
        d, blobs = valid_files
        name = data.draw(st.sampled_from(sorted(blobs)))
        blob = blobs[name]
        where = "file"
        if name != "dotm":
            where = data.draw(st.sampled_from(["file", "header", "field"]))
        if where == "file":
            blob = _mutated(data, blob)
        else:
            # Mutate only the JSON header, or one of its values, and fix its
            # declared length, so the mutation reaches the checks behind it.
            n = int.from_bytes(blob[5:9], "little")
            header = blob[9 : 9 + n]
            if where == "header":
                header = _mutated(data, header)
            else:
                fields = json.loads(header)
                fields[data.draw(st.sampled_from(sorted(fields)))] = data.draw(_JSON_VALUE)
                header = canonical(fields)
            blob = blob[:5] + len(header).to_bytes(4, "little") + header + blob[9 + n :]
        path = d / "mutated"
        path.write_bytes(blob)
        try:
            (read_matrix if name == "dotm" else read_bundle)(path)
        except FormatError:
            pass


class TestCanonicalHeader:
    """The reader accepts only the header that write_bundle writes."""

    @staticmethod
    def read_and_rewrite(d, blob: bytes) -> bytes | None:
        """The bytes write_bundle gives for what read_bundle makes of ``blob``,
        or None if the reader refuses it."""
        (d / "mutated").write_bytes(blob)
        try:
            bundle = read_bundle(d / "mutated")
        except FormatError:
            return None
        write_bundle(d / "rewritten", bundle.chain, bundle.residual)
        return (d / "rewritten").read_bytes()

    @given(data=st.data())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_accepted_field_mutations_rewrite_to_their_bytes(self, valid_files, data):
        d, blobs = valid_files
        blob = blobs[data.draw(st.sampled_from(["dotc", "dotc-dense", "dotc-nf4"]))]
        assert self.read_and_rewrite(d, blob) == blob
        fields = header_fields(blob)
        field = data.draw(st.sampled_from(sorted(fields)))
        if data.draw(st.booleans()):
            fields[field] = data.draw(_JSON_VALUE)
        else:
            del fields[field]
        blob = with_header(blob, canonical(fields))
        assert self.read_and_rewrite(d, blob) in (None, blob)

    @pytest.mark.parametrize("name, field, value", [
        ("dotc", "residual_quantized", True),
        ("dotc", "block_size", "junk"),
        ("dotc-dense", "block_size", 4),
    ])
    def test_rejects_fields_the_writer_never_writes(self, valid_files, name, field, value):
        d, blobs = valid_files
        fields = header_fields(blobs[name])
        fields[field] = value
        assert self.read_and_rewrite(d, with_header(blobs[name], canonical(fields))) is None

    @pytest.mark.parametrize("name", ["dotc", "dotc-dense", "dotc-nf4"])
    def test_rejects_the_header_in_other_json_formatting(self, valid_files, name):
        d, blobs = valid_files
        fields = header_fields(blobs[name])
        blob = with_header(blobs[name], json.dumps(fields).encode())
        assert self.read_and_rewrite(d, blob) is None


class TestCliDecomposeReconstruct:
    def test_roundtrip_f32(self, tmp_path, capsys):
        src = tmp_path / "w.dotm"
        out_bundle = tmp_path / "w.dotc"
        out_matrix = tmp_path / "back.dotm"
        w = rand((64, 64), seed=3, dtype=np.float32)
        write_matrix(src, w)

        code = main([
            "decompose", "--input", str(src), "--shape-in", "4,4,4",
            "--shape-out", "4,4,4", "--out", str(out_bundle),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frozen_params"] == 64 * 64
        assert report["relative_truncation_error"] <= 1e-5

        code = main(["reconstruct", "--bundle", str(out_bundle), "--out", str(out_matrix)])
        assert code == 0
        back = read_matrix(out_matrix)
        assert np.linalg.norm(back - w) / np.linalg.norm(w) <= 1e-5

    @pytest.mark.parametrize("scale", [1e154, 1e-200, 2.0**-1050])
    def test_decompose_reports_the_error_at_any_scale(self, tmp_path, capsys, scale):
        # 2^-1050 makes every entry subnormal. A warning fails the test
        # (filterwarnings), so no norm may over- or underflow.
        src, scaled = tmp_path / "w.dotm", rand((64, 64), seed=7) * scale
        errors = []
        for w in (scaled / scale, scaled):  # the first unscaled from the stored matrix
            write_matrix(src, w)
            assert main(["decompose", "--input", str(src), "--shape-in", "4,4,4", "--shape-out",
                         "4,4,4", "--rank", "8", "--out", str(tmp_path / "w.dotc")]) == 0
            errors.append(json.loads(capsys.readouterr().out)["relative_truncation_error"])
        assert errors[1] == pytest.approx(errors[0], rel=1e-6)
        assert errors[0] > 0.5

    def test_preset_shapes_and_reported_params(self, tmp_path, capsys):
        src = tmp_path / "w.dotm"
        w = rand((768, 768), seed=4, dtype=np.float32)
        write_matrix(src, w)
        code = main([
            "decompose", "--input", str(src), "--rank", "16",
            "--out", str(tmp_path / "w.dotc"),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        shape = MpoShape.square(SHAPE_PRESETS[768])
        assert report["trainable_params"] == param_count(shape, truncated_ranks(shape, 16))

    def test_quantized_bundle_differs_only_by_residual_error(self, tmp_path, capsys):
        src = tmp_path / "w.dotm"
        w = rand((64, 64), seed=5)
        write_matrix(src, w)
        bundle_path = tmp_path / "w.dotc"
        code = main([
            "decompose", "--input", str(src), "--shape-in", "4,4,4",
            "--shape-out", "4,4,4", "--rank", "4", "--quantize-residual",
            "--block-size", "32", "--out", str(bundle_path),
        ])
        assert code == 0
        out_matrix = tmp_path / "back.dotm"
        assert main(["reconstruct", "--bundle", str(bundle_path), "--out", str(out_matrix)]) == 0
        capsys.readouterr()

        chain = mpo_decompose(w, MpoShape.square([4, 4, 4]), 4)
        residual = w - reconstruct(chain)
        quant_error = np.linalg.norm(
            dequantize_nf4(quantize_nf4(residual, 32)) - residual
        )
        observed = np.linalg.norm(read_matrix(out_matrix) - w)
        assert observed == pytest.approx(quant_error, abs=1e-10)

    def test_reconstruct_adds_the_nf4_residual_in_place(self, tmp_path, capsys):
        w = rand((1024, 1024), seed=7)  # 8 MB
        chain = mpo_decompose(w, MpoShape.square(SHAPE_PRESETS[1024]), 8)
        bundle_path, out_matrix = tmp_path / "w.dotc", tmp_path / "back.dotm"
        write_bundle(bundle_path, chain, quantize_nf4(w - reconstruct(chain), 64))
        tracemalloc.start()
        try:
            assert main(["reconstruct", "--bundle", str(bundle_path),
                         "--out", str(out_matrix)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        bundle = read_bundle(bundle_path)
        expected = reconstruct(bundle.chain) + dequantize_nf4(bundle.residual)
        assert read_matrix(out_matrix).tobytes() == expected.tobytes()
        # the reconstruction and the decoded residual, but no third sum array
        assert peak < 2.5 * w.nbytes

    def test_deterministic_bundle_bytes(self, tmp_path, capsys):
        src = tmp_path / "w.dotm"
        write_matrix(src, rand((16, 16), seed=6))
        a, b = tmp_path / "a.dotc", tmp_path / "b.dotc"
        for out in (a, b):
            assert main([
                "decompose", "--input", str(src), "--shape-in", "4,4",
                "--shape-out", "4,4", "--rank", "3", "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_factor_mismatch_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "w.dotm"
        write_matrix(src, rand((16, 16), seed=7))
        code = main([
            "decompose", "--input", str(src), "--shape-in", "4,8",
            "--shape-out", "4,4", "--out", str(tmp_path / "o.dotc"),
        ])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--shape-in", "4,0"), ("--shape-out", "0"), ("--shape-in", "2.5"),
        ("--rank", "0"), ("--block-size", "0"), ("--rank", "2.5"),
    ])
    def test_bad_factor_is_usage_error_before_reading_input(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o.dotc"
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose", "--input", str(tmp_path / "missing.dotm"), "--quantize-residual",
                  flag, value, "--out", str(out)])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_no_preset_for_dimension_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "w.dotm"
        write_matrix(src, rand((10, 10), seed=8))
        code = main(["decompose", "--input", str(src), "--out", str(tmp_path / "o.dotc")])
        assert code == 2
        assert "preset" in capsys.readouterr().err

    def test_corrupt_input_is_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "w.dotm"
        src.write_bytes(b"garbage")
        code = main(["decompose", "--input", str(src), "--shape-in", "2",
                     "--shape-out", "2", "--out", str(tmp_path / "o.dotc")])
        assert code == 1
        capsys.readouterr()

    def test_truncated_bundle_no_partial_output(self, tmp_path, capsys):
        src = tmp_path / "w.dotm"
        write_matrix(src, rand((16, 16), seed=9))
        bundle_path = tmp_path / "w.dotc"
        assert main([
            "decompose", "--input", str(src), "--shape-in", "4,4",
            "--shape-out", "4,4", "--out", str(bundle_path),
        ]) == 0
        bundle_path.write_bytes(bundle_path.read_bytes()[:-7])
        out_matrix = tmp_path / "back.dotm"
        code = main(["reconstruct", "--bundle", str(bundle_path), "--out", str(out_matrix)])
        assert code == 1
        assert not out_matrix.exists()
        capsys.readouterr()


class TestCliTrain:
    def write_config(self, tmp_path, **overrides):
        config = dict(
            dims=64,
            shapes=[4, 4, 4],
            R=8,
            steps=12,
            lr=0.1,
            seeds=[1, 2, 3],
            methods=["dota", "dota-random"],
            r_delta=8,
            delta_scale=0.05,
            eval_every=4,
        )
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_emits_run_and_summary_csvs(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "logs"
        code = main(["train", "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["runs"] == 6
        csvs = sorted(p.name for p in out_dir.glob("*.csv"))
        assert csvs == [
            "dota-random_seed1.csv", "dota-random_seed2.csv", "dota-random_seed3.csv",
            "dota_seed1.csv", "dota_seed2.csv", "dota_seed3.csv",
            "summary.csv",
        ]
        run = (out_dir / "dota_seed1.csv").read_text().splitlines()
        assert run[0] == "step,train_loss,eval_loss"
        assert len(run) == 1 + 1 + 3  # header, step 0, steps 4/8/12
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "step,method,mean_eval_loss,std_eval_loss"

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config = self.write_config(tmp_path, seeds=[4], steps=8)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(config), "--out-dir", str(dir_a)]) == 0
        assert main(["train", "--config", str(config), "--out-dir", str(dir_b)]) == 0
        capsys.readouterr()
        for path_a in sorted(dir_a.glob("*.csv")):
            path_b = dir_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_invalid_config_enumerates_fields(self, tmp_path, capsys):
        for overrides, tokens in (
            (dict(R=0, lr=-1, steps="many"), ("R", "lr", "steps")),
            (dict(shapes=[4, "a", 4]), ("shapes",)),
        ):
            config = self.write_config(tmp_path, **overrides)
            code = main(["train", "--config", str(config), "--out-dir", str(tmp_path / "x")])
            assert code == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            for token in tokens:
                assert token in err

    @pytest.mark.parametrize("document", ["[]", '"x"'], ids=["list", "string"])
    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys, document):
        config = tmp_path / "config.json"
        config.write_text(document)
        out_dir = tmp_path / "x"
        assert main(["train", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"
        assert not out_dir.exists()

    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train"])
        assert excinfo.value.code == 2

    def test_missing_config_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1
        capsys.readouterr()


def test_stdout_is_json_and_diagnostics_go_to_stderr(tmp_path, capsys):
    src = tmp_path / "w.dotm"
    write_matrix(src, rand((16, 16), seed=10))
    assert main([
        "decompose", "--input", str(src), "--shape-in", "4,4",
        "--shape-out", "4,4", "--out", str(tmp_path / "o.dotc"),
    ]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # must parse cleanly
