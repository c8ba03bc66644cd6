"""Every public entry point that takes a matrix rejects NaN and +-inf with
NumericError, and the CLI turns that into exit code 1."""

import copy

import numpy as np
import pytest

from dota import (
    CoreChain,
    DotaAdapter,
    MpoShape,
    NumericError,
    QdotaAdapter,
    QuantizedMatrix,
    dota_init,
    mpo_decompose,
    qdota_init,
    quantize_nf4,
    reconstruction_error,
    write_bundle,
    write_matrix,
)
from dota.cli import main

SHAPE = MpoShape.square([4, 4])


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def poisoned(value, shape=(16, 16)):
    w = rand(shape, seed=1)
    w.flat[w.size // 3] = value
    return w


def _chain():
    return mpo_decompose(rand((16, 16)), SHAPE, 2)


def _bundle_with_bad_core(w, path):
    cores = [c.data.copy() for c in _chain().cores]
    cores[-1].flat[0] = w.flat[w.size // 3]
    write_bundle(path, CoreChain.from_arrays(cores), None)


def _quantized_with_bad_block_scale(w, path):
    q = quantize_nf4(rand((16, 16)), 32)
    scales = q.absmax.copy()
    scales[-1] = w.flat[w.size // 3]
    QuantizedMatrix(q.packed, scales, 32, 16, 16)


def _bundle_with_bad_block_scale(w, path):
    q = quantize_nf4(rand((16, 16)), 32)
    scales = q.absmax.copy()
    scales[-1] = w.flat[w.size // 3]
    # QuantizedMatrix refuses a non-finite scale and its arrays are read-only,
    # so the bad scales go into a copy that skips the constructor's checks.
    bad = copy.copy(q)
    object.__setattr__(bad, "absmax", scales)
    write_bundle(path, _chain(), bad)


def _adapter_with_bad_core(make, core):
    """Builds ``make(w_res, chain)`` over a chain whose given core holds the bad value."""
    def build(w, path):
        cores = [c.data.copy() for c in _chain().cores]
        cores[core].flat[0] = w.flat[w.size // 3]
        make(rand((16, 16)), CoreChain.from_arrays(cores))
    return build


def _dense_adapter(w_res, chain):
    return DotaAdapter(w_res=w_res, cores=chain, shape=SHAPE)


def _nf4_adapter(w_res, chain):
    return QdotaAdapter(quantize_nf4(w_res), chain, SHAPE)


# Each takes the poisoned matrix and a path to write to.
ENTRY_POINTS = {
    "mpo_decompose": lambda w, path: mpo_decompose(w, SHAPE, 2),
    "dota_init": lambda w, path: dota_init(w, SHAPE, 2),
    "qdota_init": lambda w, path: qdota_init(w, SHAPE, 2),
    "quantize_nf4": lambda w, path: quantize_nf4(w),
    "QuantizedMatrix": _quantized_with_bad_block_scale,
    "reconstruction_error": lambda w, path: reconstruction_error(w, _chain()),
    "DotaAdapter": lambda w, path: DotaAdapter(w_res=w, cores=_chain(), shape=SHAPE),
    "DotaAdapter-core0": _adapter_with_bad_core(_dense_adapter, 0),
    "DotaAdapter-core1": _adapter_with_bad_core(_dense_adapter, 1),
    "QdotaAdapter-core0": _adapter_with_bad_core(_nf4_adapter, 0),
    "QdotaAdapter-core1": _adapter_with_bad_core(_nf4_adapter, 1),
    "write_bundle-residual": lambda w, path: write_bundle(path, _chain(), w),
    "write_bundle-core": _bundle_with_bad_core,
    "write_bundle-block-scale": _bundle_with_bad_block_scale,
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_rejects_non_finite_input(tmp_path, entry, value):
    path = tmp_path / "b.dotc"
    with pytest.raises(NumericError):
        ENTRY_POINTS[entry](poisoned(value), path)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_cli_decompose_of_non_finite_matrix_exits_1(tmp_path, capsys, value):
    src = tmp_path / "w.dotm"
    write_matrix(src, poisoned(value))
    out = tmp_path / "o.dotc"
    code = main(["decompose", "--input", str(src), "--shape-in", "4,4",
                 "--shape-out", "4,4", "--out", str(out)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
