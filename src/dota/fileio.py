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

Readers make one pass over the bytes: each read checks that the file
still holds it, and bytes left after the last read, like any
header/payload mismatch, raise :class:`FormatError`.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NumericError, ParameterError, ShapeError
from .mpo import CoreChain, MpoShape
from .quant import QuantizedMatrix

MATRIX_MAGIC = b"DOTM"
BUNDLE_MAGIC = b"DOTC"
FORMAT_VERSION = 1

_MATRIX_HEADER = struct.Struct("<4sBBII")
_BUNDLE_HEADER = struct.Struct("<4sBI")

# One (bundle header name, dtype) entry per payload dtype; the position is
# the matrix header's dtype code.
_DTYPES = (("f32", np.dtype(np.float32)), ("f64", np.dtype(np.float64)))


def _dtype_entry(column: int, key) -> tuple[int, str, np.dtype]:
    """(code, name, dtype) of the entry whose name (column 0) or dtype
    (column 1) is ``key``."""
    for code, entry in enumerate(_DTYPES):
        if entry[column] == key:
            return code, *entry
    raise FormatError(f"unsupported dtype {key!r} (use float32 or float64)")


def _le(dtype: np.dtype) -> np.dtype:
    return dtype.newbyteorder("<")


class _Cursor:
    """One forward pass over a file's bytes. The constructor checks the
    magic and version, every read checks that the file still holds the
    bytes it takes, and :meth:`close` rejects bytes left over."""

    def __init__(self, path, magic: bytes, header: struct.Struct):
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.offset = 0
        start = self.take(header.size, f"{magic.decode()} header")
        found, version, *self.fields = header.unpack_from(self.blob, start)
        if found != magic:
            raise FormatError(f"bad magic {found!r} (expected {magic!r})")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported version {version}")

    def take(self, n: int, what: str) -> int:
        """Offset of the next ``n`` bytes, which count as read from now on."""
        start, left = self.offset, len(self.blob) - self.offset
        if n > left:
            raise FormatError(f"file too short: the {what} needs {n} bytes, {left} are left")
        self.offset += n
        return start

    def array(self, dtype: np.dtype, count: int, what: str, finite: bool = False) -> np.ndarray:
        """The next ``count`` little-endian values, copied into a fresh array."""
        offset = self.take(count * dtype.itemsize, what)
        a = np.frombuffer(self.blob, dtype=_le(dtype), count=count, offset=offset)
        a = a.astype(dtype, copy=True)
        if finite and not np.isfinite(a).all():
            raise FormatError(f"{what} contains non-finite values")
        return a

    def close(self) -> None:
        if self.offset != len(self.blob):
            raise FormatError(f"{len(self.blob) - self.offset} bytes follow the last payload")


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a 2-D float32/float64 array as a matrix file."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise FormatError(f"expected a matrix, got order-{m.ndim} data")
    code, _, dtype = _dtype_entry(1, np.dtype(m.dtype))
    with open(path, "wb") as fh:
        fh.write(_MATRIX_HEADER.pack(MATRIX_MAGIC, FORMAT_VERSION, code, *m.shape))
        fh.write(np.ascontiguousarray(m, dtype=_le(dtype)))


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, validating magic, version, and payload length."""
    cursor = _Cursor(path, MATRIX_MAGIC, _MATRIX_HEADER)
    dtype_code, rows, cols = cursor.fields
    if dtype_code >= len(_DTYPES):
        raise FormatError(f"unknown dtype code {dtype_code}")
    if rows < 1 or cols < 1:
        raise FormatError(f"bad dimensions {rows}x{cols}")
    matrix = cursor.array(_DTYPES[dtype_code][1], rows * cols, "payload").reshape(rows, cols)
    cursor.close()
    return matrix


@dataclass(frozen=True, eq=False)
class Bundle:
    """In-memory view of a core-bundle file."""

    chain: CoreChain
    residual: np.ndarray | QuantizedMatrix | None

    @property
    def residual_quantized(self) -> bool:
        return isinstance(self.residual, QuantizedMatrix)


def write_bundle(path, chain: CoreChain, residual=None) -> None:
    """Write a core chain plus optional (possibly quantized) residual.
    Non-finite cores, residual entries or block scales raise NumericError
    instead of giving a file that :func:`read_bundle` refuses."""
    _, dtype_name, dtype = _dtype_entry(1, np.dtype(chain.dtype))
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
    cores = [np.ascontiguousarray(c.data, dtype=_le(dtype)) for c in chain.cores]
    # The residual's float payload: its block scales, or the matrix itself.
    tail = [] if residual is None else [
        np.ascontiguousarray(residual.absmax if quantized else residual, dtype=_le(dtype))]
    if not all(np.isfinite(a).all() for a in cores + tail):
        raise NumericError("cannot write non-finite cores, residual entries or block scales")
    header = {
        "in_factors": list(shape.in_factors),
        "out_factors": list(shape.out_factors),
        "ranks": list(chain.ranks),
        "dtype": dtype_name,
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
        for a in cores:
            fh.write(a)
        if quantized:
            fh.write(residual.packed.tobytes())
        for a in tail:
            fh.write(a)


def _header_field(header: dict, name: str, kind) -> object:
    # JSON decodes to exact builtin types; an exact match keeps true/false
    # out of integer fields, since bool is a subclass of int.
    if name not in header:
        raise FormatError(f"bundle header missing field {name!r}")
    value = header[name]
    if type(value) is not kind:
        raise FormatError(f"bundle header field {name!r} has wrong type: {value!r}")
    return value


def read_bundle(path) -> Bundle:
    """Read and validate a bundle file in one pass over its bytes."""
    cursor = _Cursor(path, BUNDLE_MAGIC, _BUNDLE_HEADER)
    (header_len,) = cursor.fields
    start = cursor.take(header_len, "declared header")
    try:
        header = json.loads(cursor.blob[start : start + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"bundle header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("bundle header must be a JSON object")

    in_factors = _header_field(header, "in_factors", list)
    out_factors = _header_field(header, "out_factors", list)
    ranks = _header_field(header, "ranks", list)
    _, _, dtype = _dtype_entry(0, _header_field(header, "dtype", str))
    has_residual = _header_field(header, "has_residual", bool)
    quantized = _header_field(header, "residual_quantized", bool) and has_residual
    rows = _header_field(header, "original_rows", int)
    cols = _header_field(header, "original_cols", int)
    block_size = _header_field(header, "block_size", int) if quantized else None
    # RecursionError: naming a bad value nested near json's depth limit can overflow.
    try:
        shape = MpoShape(in_factors, out_factors)
        if (rows, cols) != (shape.rows, shape.cols):
            raise FormatError(f"declared matrix {rows}x{cols} does not match factors "
                              f"{shape.rows}x{shape.cols}")
        cores = [cursor.array(dtype, math.prod(s), f"core {k}", finite=True).reshape(s)
                 for k, s in enumerate(shape.core_shapes(ranks))]
        for core in cores:
            core.flags.writeable = False  # fresh, so the chain adopts it without a copy
        chain = CoreChain.from_arrays(cores)
        residual = None
        if quantized:
            n_packed, n_blocks = QuantizedMatrix.layout(rows * cols, block_size)
            packed = cursor.array(np.dtype(np.uint8), n_packed, "packed codes")
            absmax = cursor.array(dtype, n_blocks, "block scales", finite=True)
            packed.flags.writeable = absmax.flags.writeable = False  # fresh, so adopted without a copy
            residual = QuantizedMatrix(packed, absmax, block_size, rows, cols, dtype)
        elif has_residual:
            residual = cursor.array(dtype, rows * cols, "residual", finite=True).reshape(rows, cols)
    except (ShapeError, ParameterError, RecursionError) as exc:
        raise FormatError(f"inconsistent bundle: {exc}") from exc
    cursor.close()
    return Bundle(chain=chain, residual=residual)
