"""Blockwise 4-bit NormalFloat quantization of frozen residual matrices.

The 16-level codebook places levels at equal-probability quantiles of a
standard normal, with an exact zero and both endpoints normalized to +-1.
Quantization is absmax-blockwise: each block of consecutive row-major
elements is scaled into [-1, 1] by its largest magnitude and each element
is rounded to the nearest level. Codes are packed two per byte.

Both directions work on chunks of whole blocks, about 256 KB of float64
each and always an even element count, so each chunk packs into whole
bytes and its float64 temporaries stay in a 2 MB L2 cache. Only the last
partial block is padded. Codes, scales and decodes are the same, bit for
bit, as those of one pass over the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, _count_problem, _reject
from .mpo import CoreChain, MpoShape, mpo_decompose, reconstruct
# chain_gradients is unused here; the benchmark's tracer wraps quant.chain_gradients.
from .adapter import DotaAdapter, chain_gradients
from .tensor_core import _as_readonly

DEFAULT_BLOCK_SIZE = 64

# Elements per codec chunk, rounded down to an even number of whole blocks.
# On a 4096 layer (2 MB L2, one thread) quantize_nf4 took 88 ms at 2^15, 105-140 ms at 2^17.
_CHUNK = 1 << 15
# Encode-table bins per unit: [-1, 1] is covered by 2 * _BINS + 1 bins.
_BINS = 4096

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
        # The encode table: per bin, how many midpoints lie in lower bins, and
        # the midpoint in the bin itself (2.0, above every value, if none).
        midpoints = (np.array(lv[:-1]) + np.array(lv[1:])) / 2.0
        bins = _bin(midpoints)
        if np.any(bins[1:] == bins[:-1]):
            raise ParameterError(f"levels must leave at most one midpoint per 1/{_BINS} bin")
        thr = np.full(2 * _BINS + 1, 2.0)
        thr[bins] = midpoints
        below = np.searchsorted(bins, np.arange(thr.size)).astype(np.uint8)
        object.__setattr__(self, "_table", (below, thr))

    @property
    def zero_code(self) -> int:
        return self.levels.index(0.0)

    @property
    def max_gap(self) -> float:
        return max(b - a for a, b in zip(self.levels, self.levels[1:]))

    def encode(self, normalized: np.ndarray) -> np.ndarray:
        """Nearest-level code for values in [-1, 1]; ties go to the lower code.
        Values beyond +-1 take the end codes.

        The code is the number of level midpoints below x, read from a table
        built with the codebook: with b = floor((x + 1) * 4096), it is
        ``below[b] + (x > thr[b])``, where ``below[b]`` counts the midpoints in
        lower bins and ``thr[b]`` is the one midpoint in bin b. This is exact
        whatever the rounding of x + 1, because b is computed by the same
        monotone rounding for x as for every midpoint: a midpoint in a lower
        bin lies below x, one in a higher bin above it, and the one in x's own
        bin is compared exactly. (No NF4 midpoint lies within 0.0195 bins of
        a bin edge anyway.)
        """
        return self._encode(np.clip(np.asarray(normalized, dtype=np.float64), -1.0, 1.0))

    def _encode(self, x: np.ndarray) -> np.ndarray:
        """:meth:`encode` of float64 values already in [-1, 1]."""
        below, thr = self._table
        b = _bin(x)
        return below[b] + (x > thr[b])

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return np.asarray(self.levels)[codes]


def _bin(x: np.ndarray) -> np.ndarray:
    """The encode-table bin floor((x + 1) * _BINS) of values in [-1, 1]."""
    t = x + 1.0
    t *= _BINS
    return t.astype(np.intp)


def nf4_codebook() -> NF4Codebook:
    return NF4Codebook(NF4_LEVELS)


def _pack_codes(codes: np.ndarray) -> np.ndarray:
    """Two 4-bit codes per byte, earlier element in the low nibble."""
    if codes.size % 2:
        codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)])
    return (codes[0::2] | (codes[1::2] << 4)).astype(np.uint8)


def _chunks(n_elements: int, block_size: int):
    """(first block, first element, end element) of each codec chunk: an
    even number of whole blocks, except that the last chunk ends at the last
    element, so every chunk but the last has an even element count."""
    step = 2 * max(1, _CHUNK // (2 * block_size)) * block_size
    for start in range(0, n_elements, step):
        yield start // block_size, start, min(start + step, n_elements)


def _nibbles(packed: np.ndarray) -> np.ndarray:
    """The two codes of each byte along a new last axis, low nibble first."""
    return np.stack([packed & 0x0F, packed >> 4], axis=-1)


@dataclass(frozen=True, eq=False)
class QuantizedMatrix:
    """NF4 codes (packed two per byte) plus one absmax scale per block.

    Both arrays are read-only: a read-only, C-contiguous array is adopted as
    it is, any other is copied once and the copy made read-only."""

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
        object.__setattr__(self, "packed", _as_readonly(self.packed))
        object.__setattr__(self, "absmax", _as_readonly(self.absmax))

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
        return _nibbles(self.packed).reshape(-1)[: self.n_elements]


def quantize_nf4(w: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedMatrix:
    """Blockwise absmax NF4 quantization of a matrix."""
    w = np.asarray(w)
    if w.ndim != 2:
        raise ShapeError(f"expected a matrix, got order-{w.ndim} input")
    n_packed, n_blocks = QuantizedMatrix.layout(w.size, block_size)
    book = nf4_codebook()
    dtype = w.dtype if w.dtype.type in (np.float32, np.float64) else np.dtype(np.float64)

    flat = w.reshape(-1)
    packed, scales = np.empty(n_packed, dtype=np.uint8), np.empty(n_blocks)
    for b0, e0, e1 in _chunks(flat.size, block_size):
        # A fresh float64 copy of whole blocks: the last partial block is zero-padded.
        blocks = np.zeros(-(-(e1 - e0) // block_size) * block_size)
        blocks[: e1 - e0] = flat[e0:e1]
        blocks = blocks.reshape(-1, block_size)
        s = np.abs(blocks).max(axis=1)
        if not np.isfinite(s).all():
            raise NumericError("matrix contains non-finite entries")
        scales[b0 : b0 + s.size] = s
        # An all-zero block divides by 1 instead of 0; its zeros encode to the zero code.
        blocks /= np.where(s == 0.0, 1.0, s)[:, None]
        packed[e0 // 2 : (e1 + 1) // 2] = _pack_codes(book._encode(blocks).reshape(-1)[: e1 - e0])

    absmax = scales.astype(dtype, copy=False)
    packed.flags.writeable = absmax.flags.writeable = False  # fresh, so adopted without a copy
    return QuantizedMatrix(
        packed=packed,
        absmax=absmax,
        block_size=block_size,
        rows=w.shape[0],
        cols=w.shape[1],
        dtype=np.dtype(dtype),
    )


def dequantize_nf4(q: QuantizedMatrix) -> np.ndarray:
    """Decode every element as codebook[code] * block scale, chunk by chunk
    straight into the output: one gather from a table of both codes of each
    byte value, then one multiply by the block scales, in float64."""
    pairs = nf4_codebook().decode(_nibbles(np.arange(256, dtype=np.uint8)))
    scales = q.absmax.astype(np.float64, copy=False)
    bs, out = q.block_size, np.empty(q.n_elements, dtype=q.dtype)
    for b0, e0, e1 in _chunks(q.n_elements, bs):
        values = np.take(pairs, q.packed[e0 // 2 : (e1 + 1) // 2], axis=0).reshape(-1)[: e1 - e0]
        full = (e1 - e0) // bs * bs  # the rest is the last, partial block
        np.multiply(values[:full].reshape(-1, bs), scales[b0 : b0 + full // bs, None],
                    out=out[e0 : e0 + full].reshape(-1, bs))
        np.multiply(values[full:], scales[b0 + full // bs : b0 + full // bs + 1],
                    out=out[e0 + full : e1])
    return out.reshape(q.rows, q.cols)


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
