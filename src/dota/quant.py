"""Blockwise 4-bit NormalFloat quantization of frozen residual matrices.

NF4's one fixed codebook places 16 levels at equal-probability quantiles of
a standard normal, with an exact zero and both endpoints at +-1; its tables
are built once, at import. Quantization is absmax-blockwise: each block of
consecutive row-major elements is scaled into [-1, 1] by its largest
magnitude and each element is rounded to the nearest level (two codes a byte).

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

from .errors import NumericError, ShapeError, _count_problem, _counts_problem, _reject
# mpo_decompose, reconstruct and chain_gradients are unused here; the benchmark's tracer wraps them.
from .mpo import CoreChain, MpoShape, mpo_decompose, reconstruct
from .adapter import DotaAdapter, chain_gradients, dota_init
from .tensor_core import _as_readonly, _finite, _real

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


class NF4Codebook:
    """The 16 NF4 levels, rising from -1 to +1 through 0, and read-only tables all callers share."""

    levels = NF4_LEVELS
    zero_code = NF4_LEVELS.index(0.0)
    max_gap = max(b - a for a, b in zip(NF4_LEVELS, NF4_LEVELS[1:]))

    def __init__(self):
        # The encode table: per bin, how many midpoints lie in lower bins, and
        # the midpoint in the bin itself (2.0, above every value, if none).
        midpoints = (np.array(self.levels[:-1]) + np.array(self.levels[1:])) / 2.0
        bins = _bin(midpoints)
        self._thr = np.full(2 * _BINS + 1, 2.0)
        self._thr[bins] = midpoints
        self._below = np.searchsorted(bins, np.arange(self._thr.size)).astype(np.uint8)
        # dequantize_nf4's gather table: both decoded codes of each byte, low nibble first.
        self._pairs = self.decode(_nibbles(np.arange(256, dtype=np.uint8)))
        self._thr.flags.writeable = self._below.flags.writeable = self._pairs.flags.writeable = False

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
        a bin edge anyway.) Values that are not real raise ShapeError (see :func:`_real`),
        and NaN raises NumericError.
        """
        x = _real(normalized, "values").astype(np.float64, copy=False)
        if np.isnan(x).any():
            raise NumericError("values contain NaN")
        return self._encode(np.clip(x, -1.0, 1.0))

    def _encode(self, x: np.ndarray) -> np.ndarray:
        """:meth:`encode` of float64 values already in [-1, 1]."""
        b = _bin(x)
        return self._below[b] + (x > self._thr[b])

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The level of each code; ShapeError for a code that is not an integer in 0..15."""
        codes = np.asarray(codes)
        if codes.dtype.kind not in "iu" or ((codes < 0) | (codes > 15)).any():
            raise ShapeError("NF4 codes must be integers in 0..15")
        return np.asarray(self.levels)[codes]


def _bin(x: np.ndarray) -> np.ndarray:
    """The encode-table bin floor((x + 1) * _BINS) of values in [-1, 1]."""
    t = x + 1.0
    t *= _BINS
    return t.astype(np.intp)


def nf4_codebook() -> NF4Codebook:
    return _CODEBOOK


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


_CODEBOOK = NF4Codebook()


@dataclass(frozen=True, eq=False)
class QuantizedMatrix:
    """NF4 codes (two per byte) and per-block absmax scales of a float32 or float64 matrix.

    Both arrays are read-only: a read-only, C-contiguous array is adopted as
    it is, any other is copied once and the copy made read-only. The block
    scales are real (see :func:`_real`), finite and non-negative."""

    packed: np.ndarray
    absmax: np.ndarray
    block_size: int
    rows: int
    cols: int
    dtype: np.dtype = np.dtype(np.float64)

    def __post_init__(self):
        problem = _counts_problem([self.rows, self.cols], 1)
        if problem or not (isinstance(self.dtype, (str, type, np.dtype))  # `in` would test an array
                           and self.dtype in (np.dtype(np.float32), np.dtype(np.float64))):
            raise ShapeError(f"bad {self.rows!r} x {self.cols!r} matrix of dtype {self.dtype!r}: "
                             f"{problem or 'expected float32 or float64'}")
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        n_packed, n_blocks = self.layout(self.rows * self.cols, self.block_size)
        if self.packed.dtype != np.uint8 or self.packed.size != n_packed:
            raise ShapeError("packed code array has the wrong size or dtype")
        absmax = _real(self.absmax, "block scales")
        if absmax.size != n_blocks:
            raise ShapeError(f"expected {n_blocks} block scales, got {absmax.size}")
        _finite(absmax, what="block scales")
        if np.any(absmax < 0):
            raise ShapeError("block scales must be non-negative")
        object.__setattr__(self, "packed", _as_readonly(self.packed))
        object.__setattr__(self, "absmax", _as_readonly(absmax))

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
    """Blockwise absmax NF4 quantization of a real matrix; NumericError if it is not finite."""
    w = _real(w, "matrix", ndim=2)
    n_packed, n_blocks = QuantizedMatrix.layout(w.size, block_size)

    flat = w.reshape(-1)
    packed, scales = np.empty(n_packed, dtype=np.uint8), np.empty(n_blocks)
    for b0, e0, e1 in _chunks(flat.size, block_size):
        # A fresh float64 copy of whole blocks: the last partial block is zero-padded.
        blocks = np.zeros(-(-(e1 - e0) // block_size) * block_size)
        blocks[: e1 - e0] = flat[e0:e1]
        blocks = blocks.reshape(-1, block_size)
        s = np.abs(blocks).max(axis=1)
        _finite(s, what="matrix")
        scales[b0 : b0 + s.size] = s
        # An all-zero block divides by 1 instead of 0; its zeros encode to the zero code.
        blocks /= np.where(s == 0.0, 1.0, s)[:, None]
        packed[e0 // 2 : (e1 + 1) // 2] = _pack_codes(_CODEBOOK._encode(blocks).reshape(-1)[: e1 - e0])

    absmax = scales.astype(w.dtype, copy=False)
    packed.flags.writeable = absmax.flags.writeable = False  # fresh, so adopted without a copy
    return QuantizedMatrix(packed, absmax, block_size, *w.shape, w.dtype)


def dequantize_nf4(q: QuantizedMatrix) -> np.ndarray:
    """Decode every element as codebook[code] * block scale, chunk by chunk
    straight into the output: one gather from a table of both codes of each
    byte value, then one multiply by the block scales, in float64."""
    scales = q.absmax.astype(np.float64, copy=False)
    bs, out = q.block_size, np.empty(q.n_elements, dtype=q.dtype)
    for b0, e0, e1 in _chunks(q.n_elements, bs):
        values = np.take(_CODEBOOK._pairs, q.packed[e0 // 2 : (e1 + 1) // 2], axis=0).reshape(-1)[: e1 - e0]
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
    dense = dota_init(w0, shape, rank_threshold)
    return QdotaAdapter(q_res=quantize_nf4(dense.w_res, block_size), cores=dense.cores, shape=shape)
