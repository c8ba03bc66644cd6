"""The array rules: every public entry point that takes a matrix rejects NaN
and +-inf with NumericError (and the CLI turns that into exit code 1), and
every public name, fed adversarial arrays and counts, returns finite reals
or raises a DotaError, never a raw numpy error or warning."""

import copy
import warnings

import numpy as np
import pytest

import dota
from dota import (
    AblationConfig,
    CoreChain,
    CoreGradients,
    DenseTensor,
    DotaAdapter,
    DotaError,
    Hyper,
    MpoShape,
    NumericError,
    QdotaAdapter,
    QuantizedMatrix,
    balanced_factors,
    chain_gradients,
    default_tensor_shape,
    dota_init,
    lora_init,
    make_task,
    mpo_decompose,
    nf4_codebook,
    param_count,
    qdota_init,
    quantize_nf4,
    random_init_cores,
    reconstruction_error,
    reorder_for_mpo,
    truncated_ranks,
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


def adversarial(kind, shape=(16, 16)):
    """A stand-in of the given kind for a valid float64 array of ``shape``."""
    base = rand(shape, seed=3)
    return {
        "complex": lambda: base + 1j,
        "object": lambda: base.astype(object),
        "string": lambda: base.astype(str),
        "1e308": lambda: np.full(shape, 1e308),
        "-1e308": lambda: np.full(shape, -1e308),
        "view": lambda: np.repeat(base, 2, axis=-1)[..., ::2],  # not contiguous
        "bool": lambda: base > 0,
    }[kind]()


DTYPES = ("complex", "object", "string", "view", "bool")
KINDS = DTYPES + ("1e308", "-1e308")


def takes(call, kinds=KINDS, shape=(16, 16)):
    """Probes that give ``call(array, path)`` each kind of array."""
    return {kind: (lambda path, kind=kind: call(adversarial(kind, shape), path)) for kind in kinds}


def _adapter(init=dota_init):
    return init(rand((16, 16)), SHAPE, 2)


def _stepped(tensors, lr=0.1):
    adapter = _adapter()
    adapter.apply_gradients(CoreGradients(tuple(tensors)), lr)
    return adapter


def _bad_gradient(kind):
    good = chain_gradients(_adapter().cores, rand((16, 16), seed=4)).tensors
    return _stepped([good[0], adversarial(kind, good[1].shape)])


def _nf4_scales(absmax, path):
    q = quantize_nf4(rand((16, 16)))
    return QuantizedMatrix(q.packed, absmax, q.block_size, 16, 16)


# Products of finite operands (forward, backward, chain_gradients, reconstruct)
# may overflow; their outputs are not checked, so they take no 1e308 probes.
PRODUCTS = {
    "forward": takes(lambda x, path: _adapter().forward(x), DTYPES, (8, 16)),
    "backward-x": takes(lambda x, path: _adapter().backward(x, rand((8, 16))), DTYPES, (8, 16)),
    "backward-dy": takes(lambda dy, path: _adapter().backward(rand((8, 16)), dy), DTYPES, (8, 16)),
}

RAGGED = [[1.0, 2.0], [3.0]]  # a nested list numpy cannot make an array of
BAD_SEEDS = (-1, 1.5, "x")  # numpy's default_rng raises ValueError or TypeError for these

CONFIG = dict(dims=16, shapes=[4, 4], R=2, steps=1, lr=0.1, seeds=[1], methods=["dota"],
              r_delta=2, delta_scale=0.05)
TAKES_NO_ARRAY = {}  # a name that takes no array, count or config has no probe

# For every public name, its probes: each takes a temporary path and returns
# what the call returns. Classes take probes of their constructors and of
# the methods that take arrays.
REGISTRY = {
    "AblationConfig": {
        "list": lambda path: AblationConfig.from_dict([]),
        "string": lambda path: AblationConfig.from_dict("x"),
        "bool-count": lambda path: AblationConfig.from_dict({**CONFIG, "R": True}),
    },
    "Bundle": TAKES_NO_ARRAY,  # a record; write_bundle checks what it writes
    "CoreChain": takes(lambda w, path: CoreChain.from_arrays([w.reshape(1, 16, 16, 1)])),
    "CoreGradients": {  # through apply_gradients, which steps by them
        kind: (lambda path, kind=kind: _bad_gradient(kind)) for kind in KINDS},
    "DenseTensor": {
        **takes(lambda w, path: DenseTensor(w)),
        "ragged": lambda path: DenseTensor(RAGGED),
    },
    "DotaAdapter": {
        **takes(lambda w, path: DotaAdapter(w_res=w, cores=_chain(), shape=SHAPE)),
        **{f"{method}-{kind}": probe for method, probes in PRODUCTS.items()
           for kind, probe in probes.items()},
        # finite gradients and a finite rate whose product overflows
        "apply_gradients-lr-1e308": lambda path: _stepped(
            chain_gradients(_adapter().cores, rand((16, 16))).tensors, 1e308),
    },
    "DotaError": TAKES_NO_ARRAY,
    "FormatError": TAKES_NO_ARRAY,
    "Hyper": {"bool-count": lambda path: Hyper(steps=True, lr=0.1, rank=2)},
    "LoraBaseline": TAKES_NO_ARRAY,  # a record; lora_init checks its matrix
    "MpoShape": {"bool-count": lambda path: MpoShape((True, 4), (4, 4))},
    "NF4Codebook": {
        **takes(lambda w, path: nf4_codebook().encode(w)),
        "encode-nan": lambda path: nf4_codebook().encode(np.array([0.5, np.nan])),
        "decode-16": lambda path: nf4_codebook().decode(np.array([3, 16], dtype=np.uint8)),
    },
    "NF4_LEVELS": TAKES_NO_ARRAY,
    "NumericError": TAKES_NO_ARRAY,
    "ParameterError": TAKES_NO_ARRAY,
    "QdotaAdapter": takes(lambda x, path: _adapter(qdota_init).forward(x), DTYPES, (8, 16)),
    "QuantizedMatrix": {
        **takes(_nf4_scales, shape=(4,)),
        "bool-count": lambda path: QuantizedMatrix(np.zeros(2, np.uint8), np.ones(2), True, 2, 1),
    },
    "SHAPE_PRESETS": TAKES_NO_ARRAY,
    "ShapeError": TAKES_NO_ARRAY,
    "SyntheticTask": TAKES_NO_ARRAY,  # a record; make_task checks what it builds
    "TrainLog": TAKES_NO_ARRAY,
    "ablate": TAKES_NO_ARRAY,  # takes a config
    "balanced_factors": {"bool-count": lambda path: balanced_factors(True, 2)},
    "chain_gradients": takes(lambda dw, path: chain_gradients(_chain(), dw), DTYPES),
    "default_tensor_shape": {"bool-count": lambda path: default_tensor_shape(1024, True)},
    "dequantize_nf4": TAKES_NO_ARRAY,  # takes a QuantizedMatrix
    "derive_nf4_levels": TAKES_NO_ARRAY,
    "dota_init": {
        **takes(lambda w, path: dota_init(w, SHAPE, 2)),
        "4x4-1e308": lambda path: dota_init(np.full((4, 4), 1e308), MpoShape.square([2, 2])),
        "bool-count": lambda path: dota_init(rand((16, 16)), SHAPE, True),
    },
    "lora_init": {
        **takes(lambda w, path: lora_init(w, 2, 0)),
        "vector": lambda path: lora_init(np.ones(4), 2, 0),
        "bool-count": lambda path: lora_init(rand((16, 16)), True, 0),
        **{f"seed-{seed}": (lambda path, seed=seed: lora_init(rand((16, 16)), 2, seed))
           for seed in BAD_SEEDS},
    },
    "make_task": {
        "delta-1e308": lambda path: make_task(SHAPE, 2, 1e308),
        "bool-count": lambda path: make_task(SHAPE, True, 0.05),
    },
    "max_ranks": TAKES_NO_ARRAY,  # takes an MpoShape
    "mpo_decompose": {
        **takes(lambda w, path: mpo_decompose(w, SHAPE, 2)),
        "bool-count": lambda path: mpo_decompose(rand((16, 16)), SHAPE, True),
    },
    "nf4_codebook": TAKES_NO_ARRAY,
    "param_count": {"bool-count": lambda path: param_count(SHAPE, [1, True, 1])},
    "qdota_init": {
        **takes(lambda w, path: qdota_init(w, SHAPE, 2)),
        "bool-count": lambda path: qdota_init(rand((16, 16)), SHAPE, 2, True),
    },
    "quantize_nf4": {
        **takes(lambda w, path: quantize_nf4(w)),
        "ragged": lambda path: quantize_nf4(RAGGED),
        "bool-count": lambda path: quantize_nf4(rand((16, 16)), True),
    },
    "random_init_cores": {
        "bool-count": lambda path: random_init_cores(SHAPE, [1, True, 1], 0),
        **{f"seed-{seed}": (lambda path, seed=seed: random_init_cores(SHAPE, [1, 2, 1], seed))
           for seed in BAD_SEEDS},
    },
    "read_bundle": TAKES_NO_ARRAY,  # takes a path; tests/test_formats_cli.py mutates the files
    "read_matrix": TAKES_NO_ARRAY,
    "reconstruct": TAKES_NO_ARRAY,  # takes a chain, finite by construction; a product
    "reconstruction_error": takes(lambda w, path: reconstruction_error(w, _chain())),
    "reorder_for_mpo": takes(lambda w, path: reorder_for_mpo(w, SHAPE)),
    "run_experiment": TAKES_NO_ARRAY,  # takes a task from make_task
    "summarize": TAKES_NO_ARRAY,  # takes logs
    "truncated_ranks": {"bool-count": lambda path: truncated_ranks(SHAPE, True)},
    "write_bundle": {
        **takes(lambda w, path: write_bundle(path, _chain(), w)),
        "float32-1e308": lambda path: write_bundle(
            path, mpo_decompose(rand((16, 16)).astype(np.float32), SHAPE, 2), np.full((16, 16), 1e308)),
    },
    "write_matrix": {
        **takes(lambda w, path: write_matrix(path, w)),
        "ragged": lambda path: write_matrix(path, RAGGED),
    },
}


def _arrays(result):
    """Every array, and every float as one, that ``result`` holds."""
    if isinstance(result, np.ndarray):
        yield result
    elif isinstance(result, float):
        yield np.array(result)
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _arrays(item)
    elif hasattr(result, "__dict__"):
        yield from _arrays(list(vars(result).values()))


def test_every_public_name_has_an_entry():
    assert sorted(REGISTRY) == sorted(dota.__all__)


@pytest.mark.parametrize("name, kind", [(name, kind) for name in sorted(REGISTRY)
                                        for kind in REGISTRY[name]])
def test_finite_result_or_dota_error(tmp_path, name, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = REGISTRY[name][kind](tmp_path / "out")
        except DotaError:
            return
    for a in _arrays(result):
        assert a.dtype.kind in "biuf" and np.isfinite(a).all()


def test_products_do_not_check_their_outputs():
    # A finite batch whose product overflows gives inf; the harness's loss check catches it.
    with np.errstate(over="ignore", invalid="ignore"):
        y = _adapter().forward(np.full((8, 16), 1e308))
    assert not np.isfinite(y).all()
