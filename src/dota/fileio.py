"""Binary matrix and core-bundle files.

Both formats are fixed little-endian layouts with magic bytes, so
round-trips are bit-exact and corrupt files are rejected early.

Matrix file (``DOTM``)::

    magic   4s   "DOTM"
    version u8   1
    dtype   u8   0 = f32, 1 = f64
    rows    u32
    cols    u32
    payload rows * cols elements, row-major

Bundle file (``DOTC``)::

    magic      4s   "DOTC"
    version    u8   1
    header_len u32
    header     UTF-8 JSON (in_factors, out_factors, ranks, dtype,
                has_residual, residual_quantized, block_size,
                original_rows, original_cols)
    cores      core payloads in chain order, row-major
    residual   raw matrix, or packed NF4 codes followed by block scales

Every declared size is checked against the actual byte count; trailing
bytes or any header/payload mismatch raise :class:`FormatError`.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .mpo import CoreChain, MpoShape
from .quant import QuantizedMatrix

MATRIX_MAGIC = b"DOTM"
BUNDLE_MAGIC = b"DOTC"
FORMAT_VERSION = 1

_MATRIX_HEADER = struct.Struct("<4sBBII")
_BUNDLE_HEADER = struct.Struct("<4sBI")

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_NAME_DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


def _le(dtype: np.dtype) -> np.dtype:
    return dtype.newbyteorder("<")


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a 2-D float32/float64 array as a matrix file."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise FormatError(f"expected a matrix, got order-{m.ndim} data")
    dtype = np.dtype(m.dtype)
    if dtype not in _DTYPE_CODES:
        raise FormatError(f"unsupported dtype {dtype} (use float32 or float64)")
    header = _MATRIX_HEADER.pack(
        MATRIX_MAGIC, FORMAT_VERSION, _DTYPE_CODES[dtype], m.shape[0], m.shape[1]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(m, dtype=_le(dtype)).tobytes())


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, validating magic, version, and payload length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _MATRIX_HEADER.size:
        raise FormatError("file too short for a matrix header")
    magic, version, dtype_code, rows, cols = _MATRIX_HEADER.unpack_from(blob)
    if magic != MATRIX_MAGIC:
        raise FormatError(f"bad magic {magic!r} (expected {MATRIX_MAGIC!r})")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}")
    if dtype_code not in _CODE_DTYPES:
        raise FormatError(f"unknown dtype code {dtype_code}")
    if rows < 1 or cols < 1:
        raise FormatError(f"bad dimensions {rows}x{cols}")
    dtype = _CODE_DTYPES[dtype_code]
    expected = _MATRIX_HEADER.size + rows * cols * dtype.itemsize
    if len(blob) != expected:
        raise FormatError(
            f"payload length mismatch: file has {len(blob)} bytes, expected {expected}"
        )
    payload = np.frombuffer(blob, dtype=_le(dtype), offset=_MATRIX_HEADER.size)
    return payload.astype(dtype, copy=True).reshape(rows, cols)


@dataclass(frozen=True)
class Bundle:
    """In-memory view of a core-bundle file."""

    chain: CoreChain
    residual: np.ndarray | QuantizedMatrix | None

    @property
    def residual_quantized(self) -> bool:
        return isinstance(self.residual, QuantizedMatrix)


def write_bundle(path, chain: CoreChain, residual=None) -> None:
    """Write a core chain plus optional (possibly quantized) residual."""
    dtype = np.dtype(chain.dtype)
    if dtype not in _DTYPE_NAMES:
        raise FormatError(f"unsupported dtype {dtype}")
    shape = chain.shape
    quantized = isinstance(residual, QuantizedMatrix)
    if residual is not None:
        res_shape = (
            (residual.rows, residual.cols) if quantized else np.asarray(residual).shape
        )
        if res_shape != (shape.rows, shape.cols):
            raise FormatError(
                f"residual shape {res_shape} does not match chain {shape.rows}x{shape.cols}"
            )
    header = {
        "in_factors": list(shape.in_factors),
        "out_factors": list(shape.out_factors),
        "ranks": list(chain.ranks),
        "dtype": _DTYPE_NAMES[dtype],
        "has_residual": residual is not None,
        "residual_quantized": quantized,
        "block_size": residual.block_size if quantized else None,
        "original_rows": shape.rows,
        "original_cols": shape.cols,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_BUNDLE_HEADER.pack(BUNDLE_MAGIC, FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for core in chain.cores:
            fh.write(np.ascontiguousarray(core.data, dtype=_le(dtype)).tobytes())
        if quantized:
            fh.write(residual.packed.tobytes())
            fh.write(np.ascontiguousarray(residual.absmax, dtype=_le(dtype)).tobytes())
        elif residual is not None:
            fh.write(np.ascontiguousarray(residual, dtype=_le(dtype)).tobytes())


def _header_field(header: dict, name: str, kind) -> object:
    # JSON decodes to exact builtin types; an exact match keeps true/false
    # out of integer fields, since bool is a subclass of int.
    if name not in header:
        raise FormatError(f"bundle header missing field {name!r}")
    value = header[name]
    if type(value) is not kind:
        raise FormatError(f"bundle header field {name!r} has wrong type: {value!r}")
    return value


def _finite_payload(blob: bytes, dtype: np.dtype, offset: int, count: int) -> np.ndarray:
    arr = np.frombuffer(blob, dtype=_le(dtype), offset=offset, count=count).astype(dtype, copy=True)
    if not np.isfinite(arr).all():
        raise FormatError("payload contains non-finite values")
    return arr


def read_bundle(path) -> Bundle:
    """Read and validate a bundle file; rejects any size inconsistency."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _BUNDLE_HEADER.size:
        raise FormatError("file too short for a bundle header")
    magic, version, header_len = _BUNDLE_HEADER.unpack_from(blob)
    if magic != BUNDLE_MAGIC:
        raise FormatError(f"bad magic {magic!r} (expected {BUNDLE_MAGIC!r})")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}")
    if len(blob) < _BUNDLE_HEADER.size + header_len:
        raise FormatError("file too short for the declared header")
    try:
        header = json.loads(blob[_BUNDLE_HEADER.size : _BUNDLE_HEADER.size + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"bundle header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("bundle header must be a JSON object")

    in_factors = _header_field(header, "in_factors", list)
    out_factors = _header_field(header, "out_factors", list)
    ranks = _header_field(header, "ranks", list)
    dtype_name = _header_field(header, "dtype", str)
    has_residual = _header_field(header, "has_residual", bool)
    quantized = _header_field(header, "residual_quantized", bool)
    rows = _header_field(header, "original_rows", int)
    cols = _header_field(header, "original_cols", int)
    if dtype_name not in _NAME_DTYPES:
        raise FormatError(f"unknown dtype {dtype_name!r}")
    dtype = _NAME_DTYPES[dtype_name]
    if not all(type(v) is int and v >= 1 for v in in_factors + out_factors + ranks):
        raise FormatError("factors and ranks must be positive integers")

    try:
        shape = MpoShape(tuple(in_factors), tuple(out_factors))
    except Exception as exc:
        raise FormatError(f"inconsistent factors: {exc}") from exc
    n = shape.n_cores
    if len(ranks) != n + 1 or ranks[0] != 1 or ranks[-1] != 1:
        raise FormatError(f"bad rank list {ranks}")
    if rows != shape.rows or cols != shape.cols:
        raise FormatError(
            f"declared matrix {rows}x{cols} does not match factors "
            f"{shape.rows}x{shape.cols}"
        )

    core_shapes = [
        (ranks[k], shape.in_factors[k], shape.out_factors[k], ranks[k + 1])
        for k in range(n)
    ]
    core_bytes = sum(math.prod(s) for s in core_shapes) * dtype.itemsize
    expected = _BUNDLE_HEADER.size + header_len + core_bytes
    n_elements = rows * cols
    block_size = header.get("block_size")
    if has_residual:
        if quantized:
            if type(block_size) is not int or block_size < 1:
                raise FormatError(f"bad block_size {block_size!r}")
            n_blocks = math.ceil(n_elements / block_size)
            expected += math.ceil(n_elements / 2) + n_blocks * dtype.itemsize
        else:
            expected += n_elements * dtype.itemsize
    if len(blob) != expected:
        raise FormatError(
            f"payload length mismatch: file has {len(blob)} bytes, expected {expected}"
        )

    offset = _BUNDLE_HEADER.size + header_len
    cores = []
    for cshape in core_shapes:
        count = math.prod(cshape)
        cores.append(_finite_payload(blob, dtype, offset, count).reshape(cshape))
        offset += count * dtype.itemsize
    try:
        chain = CoreChain.from_arrays(cores)
    except Exception as exc:
        raise FormatError(f"inconsistent cores: {exc}") from exc

    residual = None
    if has_residual:
        if quantized:
            n_packed = math.ceil(n_elements / 2)
            packed = np.frombuffer(blob, dtype=np.uint8, offset=offset, count=n_packed).copy()
            offset += n_packed
            n_blocks = math.ceil(n_elements / block_size)
            absmax = _finite_payload(blob, dtype, offset, n_blocks)
            if np.any(absmax < 0):
                raise FormatError("block scales must be non-negative")
            residual = QuantizedMatrix(
                packed=packed,
                absmax=absmax,
                block_size=block_size,
                rows=rows,
                cols=cols,
                dtype=dtype,
            )
        else:
            residual = _finite_payload(blob, dtype, offset, n_elements).reshape(rows, cols)
    return Bundle(chain=chain, residual=residual)
