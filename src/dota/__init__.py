"""Weight-decomposed tensor adaptation.

A weight matrix is split into a chain of small order-4 tensors (a matrix
product operator) by a sweep of truncated SVDs; the truncated chain is
trainable while the leftover residual is frozen, so training starts
exactly at the pretrained weight. A 4-bit NormalFloat variant stores the
residual quantized. The harness compares this initialization against
random chains, a low-rank matrix baseline, and full fine-tuning on
synthetic regression tasks.
"""

from .adapter import CoreGradients, DotaAdapter, chain_gradients, dota_init
from .errors import DotaError, FormatError, NumericError, ParameterError, ShapeError
from .fileio import Bundle, read_bundle, read_matrix, write_bundle, write_matrix
from .harness import (
    AblationConfig,
    Hyper,
    LoraBaseline,
    SyntheticTask,
    TrainLog,
    ablate,
    balanced_factors,
    default_tensor_shape,
    lora_init,
    make_task,
    random_init_cores,
    run_experiment,
    summarize,
)
from .mpo import (
    SHAPE_PRESETS,
    CoreChain,
    MpoShape,
    max_ranks,
    mpo_decompose,
    param_count,
    reconstruct,
    reconstruction_error,
    reorder_for_mpo,
    truncated_ranks,
)
from .quant import (
    NF4Codebook,
    NF4_LEVELS,
    QdotaAdapter,
    QuantizedMatrix,
    dequantize_nf4,
    derive_nf4_levels,
    nf4_codebook,
    qdota_init,
    quantize_nf4,
)
from .tensor_core import DenseTensor

__version__ = "0.1.0"

__all__ = [
    "AblationConfig",
    "Bundle",
    "CoreChain",
    "CoreGradients",
    "DenseTensor",
    "DotaAdapter",
    "DotaError",
    "FormatError",
    "Hyper",
    "LoraBaseline",
    "MpoShape",
    "NF4Codebook",
    "NF4_LEVELS",
    "NumericError",
    "ParameterError",
    "QdotaAdapter",
    "QuantizedMatrix",
    "SHAPE_PRESETS",
    "ShapeError",
    "SyntheticTask",
    "TrainLog",
    "ablate",
    "balanced_factors",
    "chain_gradients",
    "default_tensor_shape",
    "dequantize_nf4",
    "derive_nf4_levels",
    "dota_init",
    "lora_init",
    "make_task",
    "max_ranks",
    "mpo_decompose",
    "nf4_codebook",
    "param_count",
    "qdota_init",
    "quantize_nf4",
    "random_init_cores",
    "read_bundle",
    "read_matrix",
    "reconstruct",
    "reconstruction_error",
    "reorder_for_mpo",
    "run_experiment",
    "summarize",
    "truncated_ranks",
    "write_bundle",
    "write_matrix",
]
