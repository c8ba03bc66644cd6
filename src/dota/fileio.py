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
    header     the UTF-8 JSON write_bundle writes, keys sorted, no whitespace:
                in_factors, out_factors, ranks, dtype, has_residual,
                residual_quantized, block_size, original_rows, original_cols
    cores      core payloads in chain order, row-major
    residual   raw matrix, or packed NF4 codes followed by block scales

Readers make one forward pass over the open file, whose size they take
from ``fstat``: each read checks that the file still holds its bytes before
anything is allocated, and reads a payload straight into its array. Bytes
left after the last read, any header/payload mismatch, and any header but
the JSON write_bundle writes for what it names raise :class:`FormatError`.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NumericError, ParameterError, ShapeError
from .mpo import CoreChain, MpoShape
from .quant import QuantizedMatrix
from .tensor_core import _asarray, _finite, _real

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
    """One forward pass over an open file. The constructor checks the magic
    and version, every read checks that the file still holds the bytes it
    takes before reading them, and :meth:`end` rejects bytes left over."""

    def __init__(self, fh, magic: bytes, header: struct.Struct):
        self.fh, self.left = fh, os.fstat(fh.fileno()).st_size
        raw = self.read(header.size, f"{magic.decode()} header")
        found, version, *self.fields = header.unpack(raw)
        if found != magic:
            raise FormatError(f"bad magic {found!r} (expected {magic!r})")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported version {version}")

    def read(self, n: int, what: str) -> bytes:
        """The next ``n`` bytes."""
        return self.array(np.dtype(np.uint8), n, what).tobytes()

    def array(self, dtype: np.dtype, count: int, what: str) -> np.ndarray:
        """The next ``count`` little-endian values, read into a fresh array
        once the file is known to hold them."""
        n = count * dtype.itemsize
        if n > self.left:
            raise FormatError(f"file too short: the {what} needs {n} bytes, {self.left} are left")
        self.left -= n
        a = np.empty(count, dtype=_le(dtype))
        got = self.fh.readinto(a)
        if got != n:  # the file shrank after fstat
            raise FormatError(f"file too short: the {what} needs {n} bytes, {got} are left")
        return a.astype(dtype, copy=False)  # a no-op on a little-endian host

    def end(self) -> None:
        if self.left:
            raise FormatError(f"{self.left} bytes follow the last payload")


def _check_dimensions(rows: int, cols: int) -> None:
    """FormatError unless both fit the header's u32 fields and neither is 0."""
    if not (0 < rows < 1 << 32 and 0 < cols < 1 << 32):
        raise FormatError(f"bad dimensions {rows}x{cols}: each must be from 1 to 2**32 - 1")


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a 2-D float32/float64 array as a matrix file. A ragged nested list raises
    ShapeError, and any other order, dtype or dimension read_matrix refuses FormatError,
    before the file is opened."""
    m = _asarray(matrix, "matrix")
    if m.ndim != 2:
        raise FormatError(f"expected a matrix, got order-{m.ndim} data")
    _check_dimensions(*m.shape)
    code, _, dtype = _dtype_entry(1, np.dtype(m.dtype))
    with open(path, "wb") as fh:
        fh.write(_MATRIX_HEADER.pack(MATRIX_MAGIC, FORMAT_VERSION, code, *m.shape))
        fh.write(np.ascontiguousarray(m, dtype=_le(dtype)))


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, validating magic, version, and payload length."""
    with open(path, "rb") as fh:
        cursor = _Cursor(fh, MATRIX_MAGIC, _MATRIX_HEADER)
        dtype_code, rows, cols = cursor.fields
        if dtype_code >= len(_DTYPES):
            raise FormatError(f"unknown dtype code {dtype_code}")
        _check_dimensions(rows, cols)
        matrix = cursor.array(_DTYPES[dtype_code][1], rows * cols, "payload").reshape(rows, cols)
        cursor.end()
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
    """Write a core chain (finite by construction) plus optional (possibly
    quantized) residual. A residual that is not real raises ShapeError, and a
    non-finite residual entry or block scale NumericError, before any write."""
    _, dtype_name, dtype = _dtype_entry(1, np.dtype(chain.dtype))
    shape = chain.shape
    quantized = isinstance(residual, QuantizedMatrix)
    cores = [np.ascontiguousarray(c.data, dtype=_le(dtype)) for c in chain.cores]
    tail = []  # the residual's float payload: its block scales, or the matrix itself
    if residual is not None:
        residual = residual if quantized else _real(residual, "residual")
        res_shape = (residual.rows, residual.cols) if quantized else residual.shape
        if res_shape != (shape.rows, shape.cols):
            raise FormatError(
                f"residual shape {res_shape} does not match chain {shape.rows}x{shape.cols}"
            )
        with np.errstate(over="ignore"):  # a cast past float32's range gives inf, refused below
            tail = [np.ascontiguousarray(residual.absmax if quantized else residual, dtype=_le(dtype))]
    _finite(*tail, what="residual or its block scales")
    header_bytes = _header_bytes(shape, chain.ranks, dtype_name, residual is not None,
                                 residual.block_size if quantized else None)
    with open(path, "wb") as fh:
        fh.write(_BUNDLE_HEADER.pack(BUNDLE_MAGIC, FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for a in cores:
            fh.write(a)
        if quantized:
            fh.write(residual.packed.tobytes())
        for a in tail:
            fh.write(a)


def _header_bytes(shape: MpoShape, ranks, dtype_name: str, has_residual: bool,
                  block_size: int | None) -> bytes:
    """The canonical JSON bundle header; ``block_size`` is None unless the residual is NF4."""
    header = {
        "in_factors": shape.in_factors,
        "out_factors": shape.out_factors,
        "ranks": ranks,
        "dtype": dtype_name,
        "has_residual": has_residual,
        "residual_quantized": block_size is not None,
        "block_size": block_size,
        "original_rows": shape.rows,
        "original_cols": shape.cols,
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def read_bundle(path) -> Bundle:
    """Read and validate a bundle file in one pass over its bytes."""
    with open(path, "rb") as fh:
        return _read_bundle(_Cursor(fh, BUNDLE_MAGIC, _BUNDLE_HEADER))


def _read_bundle(cursor: _Cursor) -> Bundle:
    (header_len,) = cursor.fields
    raw = cursor.read(header_len, "declared header")
    try:
        header = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"bundle header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("bundle header must be a JSON object")

    has_residual = header.get("has_residual") is True
    quantized = has_residual and header.get("residual_quantized") is True
    block_size = header.get("block_size") if quantized else None
    # RecursionError: naming a bad value nested near json's depth limit can overflow.
    try:
        shape = MpoShape(header.get("in_factors"), header.get("out_factors"))
        rows, cols = shape.rows, shape.cols
        ranks = header.get("ranks")
        _, dtype_name, dtype = _dtype_entry(0, header.get("dtype"))
        if raw != _header_bytes(shape, ranks, dtype_name, has_residual, block_size):
            raise FormatError("bundle header is not the canonical one write_bundle writes")
        cores = [cursor.array(dtype, math.prod(s), f"core {k}").reshape(s)
                 for k, s in enumerate(shape.core_shapes(ranks))]
        for core in cores:
            core.flags.writeable = False  # fresh, so the chain adopts it without a copy
        chain = CoreChain.from_arrays(cores)
        residual = None
        if quantized:
            n_packed, n_blocks = QuantizedMatrix.layout(rows * cols, block_size)
            packed = cursor.array(np.dtype(np.uint8), n_packed, "packed codes")
            absmax = cursor.array(dtype, n_blocks, "block scales")
            packed.flags.writeable = absmax.flags.writeable = False  # fresh, so adopted without a copy
            residual = QuantizedMatrix(packed, absmax, block_size, rows, cols, dtype)
        elif has_residual:
            residual = cursor.array(dtype, rows * cols, "residual").reshape(rows, cols)
            _finite(residual, what="residual")
    # NumericError: a non-finite core, block scale or residual entry.
    except (ShapeError, ParameterError, NumericError, RecursionError) as exc:
        raise FormatError(f"inconsistent bundle: {exc}") from exc
    cursor.end()
    return Bundle(chain=chain, residual=residual)
