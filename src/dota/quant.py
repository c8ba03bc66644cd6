"""Blockwise 4-bit NormalFloat quantization of frozen residual matrices.

The 16-level codebook places levels at equal-probability quantiles of a
standard normal, with an exact zero and both endpoints normalized to +-1.
Quantization is absmax-blockwise: each block of consecutive row-major
elements is scaled into [-1, 1] by its largest magnitude and each element
is rounded to the nearest level. Codes are packed two per byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, _count_problem, _reject
from .mpo import CoreChain, MpoShape, mpo_decompose, reconstruct
# chain_gradients is unused here; the benchmark's tracer wraps quant.chain_gradients.
from .adapter import DotaAdapter, chain_gradients

DEFAULT_BLOCK_SIZE = 64

# Frozen output of derive_nf4_levels(); regenerated and checked in the tests.
NF4_LEVELS: tuple[float, ...] = (
    -1.0,
    -0.6961928056323435,
    -0.5250729594465011,
    -0.39491742591990747,
    -0.2844413089210823,
    -0.18477340280045582,
    -0.09104997598578046,
    0.0,
    0.07958031495840917,
    0.16093014438029093,
    0.24611225134745948,
    0.3379151367131283,
    0.4407097318642165,
    0.5626168879699854,
    0.7229566441594739,
    1.0,
)


def derive_nf4_levels() -> tuple[float, ...]:
    """Rebuild the codebook from the normal-quantile construction.

    Seven negative and eight positive levels sit at evenly spaced quantile
    probabilities between an offset and 0.5 on each side of an exact zero;
    the offset is the mean of 1 - 1/32 and 1 - 1/30, which puts the extreme
    quantile at the endpoints once the list is scaled by its maximum.
    """
    nd = NormalDist()
    offset = (1 - 1 / 32 + 1 - 1 / 30) / 2
    pos = [nd.inv_cdf(p) for p in np.linspace(offset, 0.5, 9)[:-1]]
    neg = [-nd.inv_cdf(p) for p in np.linspace(offset, 0.5, 8)[:-1]]
    levels = np.sort(np.array(neg + [0.0] + pos))
    levels = levels / levels.max()
    return tuple(float(v) for v in levels)


@dataclass(frozen=True)
class NF4Codebook:
    """The 16 scalar levels, strictly increasing from -1 to +1 through 0."""

    levels: tuple[float, ...]

    def __post_init__(self):
        lv = tuple(float(v) for v in self.levels)
        if len(lv) != 16:
            raise ParameterError(f"expected 16 levels, got {len(lv)}")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ParameterError("levels must be strictly increasing")
        if lv[0] != -1.0 or lv[-1] != 1.0 or 0.0 not in lv:
            raise ParameterError("levels must span [-1, 1] and contain 0")
        object.__setattr__(self, "levels", lv)

    @property
    def zero_code(self) -> int:
        return self.levels.index(0.0)

    @property
    def max_gap(self) -> float:
        return max(b - a for a, b in zip(self.levels, self.levels[1:]))

    def encode(self, normalized: np.ndarray) -> np.ndarray:
        """Nearest-level code for values in [-1, 1]; ties go to the lower code."""
        lv = np.asarray(self.levels)
        midpoints = (lv[:-1] + lv[1:]) / 2.0
        return np.searchsorted(midpoints, normalized, side="left").astype(np.uint8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return np.asarray(self.levels)[codes]


def nf4_codebook() -> NF4Codebook:
    return NF4Codebook(NF4_LEVELS)


def _pack_codes(codes: np.ndarray) -> np.ndarray:
    """Two 4-bit codes per byte, earlier element in the low nibble."""
    if codes.size % 2:
        codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)])
    return (codes[0::2] | (codes[1::2] << 4)).astype(np.uint8)


def _unpack_codes(packed: np.ndarray, n: int) -> np.ndarray:
    low = packed & 0x0F
    high = packed >> 4
    out = np.empty(packed.size * 2, dtype=np.uint8)
    out[0::2] = low
    out[1::2] = high
    return out[:n]


@dataclass(frozen=True, eq=False)
class QuantizedMatrix:
    """NF4 codes (packed two per byte) plus one absmax scale per block."""

    packed: np.ndarray
    absmax: np.ndarray
    block_size: int
    rows: int
    cols: int
    dtype: np.dtype = np.dtype(np.float64)

    def __post_init__(self):
        n_packed, n_blocks = self.layout(self.rows * self.cols, self.block_size)
        if self.packed.dtype != np.uint8 or self.packed.size != n_packed:
            raise ShapeError("packed code array has the wrong size or dtype")
        if self.absmax.size != n_blocks:
            raise ShapeError(
                f"expected {n_blocks} block scales, got {self.absmax.size}"
            )
        if not np.isfinite(self.absmax).all():
            raise NumericError("block scales must be finite")
        if np.any(self.absmax < 0):
            raise ShapeError("block scales must be non-negative")

    @staticmethod
    def layout(n_elements: int, block_size: int) -> tuple[int, int]:
        """Packed code bytes and block scales for ``n_elements`` values: two
        codes per byte, one scale per block of ``block_size`` values."""
        _reject(block_size=_count_problem(block_size, 1))
        return -(-n_elements // 2), -(-n_elements // block_size)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @property
    def n_blocks(self) -> int:
        return self.absmax.size

    def codes(self) -> np.ndarray:
        """Unpacked 4-bit codes, one uint8 per matrix element."""
        return _unpack_codes(self.packed, self.n_elements)


def quantize_nf4(w: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedMatrix:
    """Blockwise absmax NF4 quantization of a matrix."""
    w = np.asarray(w)
    if w.ndim != 2:
        raise ShapeError(f"expected a matrix, got order-{w.ndim} input")
    _, n_blocks = QuantizedMatrix.layout(w.size, block_size)
    if not np.all(np.isfinite(w)):
        raise NumericError("matrix contains non-finite entries")
    book = nf4_codebook()
    dtype = w.dtype if w.dtype.type in (np.float32, np.float64) else np.dtype(np.float64)

    flat = w.astype(np.float64, copy=False).reshape(-1)
    n = flat.size
    padded = np.zeros(n_blocks * block_size)
    padded[:n] = flat
    blocks = padded.reshape(n_blocks, block_size)

    scales = np.abs(blocks).max(axis=1)
    # An all-zero block divides by 1 instead of 0; its zeros encode to the zero code.
    safe = np.where(scales == 0.0, 1.0, scales)
    codes = book.encode(blocks / safe[:, None])

    return QuantizedMatrix(
        packed=_pack_codes(codes.reshape(-1)[:n]),
        absmax=scales.astype(dtype),
        block_size=block_size,
        rows=w.shape[0],
        cols=w.shape[1],
        dtype=np.dtype(dtype),
    )


def dequantize_nf4(q: QuantizedMatrix) -> np.ndarray:
    """Decode every element as codebook[code] * block scale."""
    book = nf4_codebook()
    values = book.decode(q.codes())
    scales = np.repeat(q.absmax.astype(np.float64), q.block_size)[: q.n_elements]
    out = (values * scales).reshape(q.rows, q.cols)
    return out.astype(q.dtype, copy=False)


class QdotaAdapter(DotaAdapter):
    """A DotaAdapter whose frozen residual is stored in NF4: ``q_res`` is
    decoded once, at construction, into the read-only ``w_res``."""

    def __init__(self, q_res: QuantizedMatrix, cores: CoreChain, shape: MpoShape):
        self.q_res = q_res
        w_res = dequantize_nf4(q_res)
        w_res.flags.writeable = False  # fresh, so the adapter adopts it without a copy
        super().__init__(w_res=w_res, cores=cores, shape=shape)

    # DotaAdapter's functions, named here because the benchmark's tracer reads vars(QdotaAdapter).
    forward, backward = DotaAdapter.forward, DotaAdapter.backward
    apply_gradients, merge = DotaAdapter.apply_gradients, DotaAdapter.merge


def qdota_init(
    w0: np.ndarray,
    shape: MpoShape,
    rank_threshold: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> QdotaAdapter:
    """dota_init with the residual quantized to NF4; cores stay full precision."""
    w0 = np.asarray(w0)
    cores = mpo_decompose(w0, shape, rank_threshold)
    w_res = w0 - reconstruct(cores)
    return QdotaAdapter(q_res=quantize_nf4(w_res, block_size), cores=cores, shape=shape)
