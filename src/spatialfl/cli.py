"""Command-line entry points.

Subcommands: ``run`` (full experiment), ``validate-config``,
``gen-synthetic`` (write a benchmark as CSV), and ``evaluate-model``
(score a serialized model file against a CSV). Exit codes: 0 success,
2 config error, 3 data error (:class:`~spatialfl.errors.DataError`),
4 any other error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .data import export_csv, generate_synthetic
from .errors import ConfigError, DataError, DivergenceError, SpatialFLError
from .federation import deserialize_model, stack_split
from .harness import (
    emit_report,
    load_config,
    load_datasets,
    read_json_file,
    run_experiment,
    synthetic_spec_from_dict,
    vocabulary,
    write_models,
)
from .nn import predict_rows
from .spatial import encoding_table


def _stage_suffix(exc: Exception) -> str:
    stage = getattr(exc, "stage", None)
    return f" [stage={stage}]" if stage else ""


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.output_dir = args.out
    result = run_experiment(config)
    written = emit_report(result.report, config.output_dir)
    written += write_models(result.node_models, config.output_dir)
    for method, accuracy in result.report.global_accuracy.items():
        print(f"{method}: global accuracy {accuracy:.4f}")
    print(f"wrote {len(written)} files under {config.output_dir}")
    return 0


def cmd_validate_config(args: argparse.Namespace) -> int:
    load_config(args.config)
    print("config OK")
    return 0


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    spec = synthetic_spec_from_dict(read_json_file(Path(args.spec), "spec"))
    datasets, _, oracle = generate_synthetic(spec)
    export_csv(datasets, args.out)
    rows = sum(ds.n_rows for ds in datasets.values())
    print(f"wrote {rows} rows for {len(datasets)} clients to {args.out} "
          f"(best achievable accuracy {oracle:.3f})")
    return 0


def cmd_evaluate_model(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    model_path, data_path = Path(args.model), Path(args.data)
    if not model_path.exists():
        raise FileNotFoundError(f"model file does not exist: {model_path}")
    if model_path.is_dir():
        raise IsADirectoryError(f"model file is a directory: {model_path}")
    if not data_path.exists():
        raise DataError(f"data file does not exist: {data_path}")
    if data_path.is_dir():
        raise DataError(f"data file is a directory: {data_path}")
    model = deserialize_model(model_path.read_bytes())
    if model.n_classes != config.n_classes:
        raise SpatialFLError(f"model {model_path}: n_classes {model.n_classes} does not match "
                             f"the config's n_classes {config.n_classes}")
    datasets, topology, _ = load_datasets(config, data_path)
    # The file's rows in the layout a run scores them in.
    raw, labels, codes, _ = stack_split(topology, datasets)
    enc, _ = encoding_table([datasets[c].spatial for c in topology.client_order], vocabulary(config, datasets))
    width = enc.shape[1] + raw.shape[1]
    if model.input_dim != width:
        raise SpatialFLError(f"model {model_path}: input_dim {model.input_dim} does not match the "
                             f"data's {width} columns ({enc.shape[1]} encoding + {raw.shape[1]} raw)")
    with DivergenceError.naming(f"model {model_path}"):
        predicted = predict_rows(model, raw, codes, enc)
    print(f"accuracy={(predicted == labels).mean():.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialfl",
        description="Tiered federated averaging over spatially encoded clients",
    )
    parser.add_argument("--version", action="version", version=f"spatialfl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None, help="override the config's output directory")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate-config", help="check a config without running it")
    validate.add_argument("--config", required=True)
    validate.set_defaults(func=cmd_validate_config)

    gen = sub.add_parser("gen-synthetic", help="write a synthetic benchmark as CSV")
    gen.add_argument("--spec", required=True, help="JSON file with the synthetic spec fields")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=cmd_gen_synthetic)

    ev = sub.add_parser("evaluate-model", help="score a serialized model against a CSV")
    ev.add_argument("--model", required=True, help="model file written by run")
    ev.add_argument("--data", required=True, help="CSV in the configured schema")
    ev.add_argument("--config", required=True, help="config supplying schema and encoding settings")
    ev.set_defaults(func=cmd_evaluate_model)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error{_stage_suffix(exc)}: {exc}", file=sys.stderr)
        return 3
    except (SpatialFLError, OSError) as exc:
        # An OSError of the system names its file; ours carry a message.
        message = exc if getattr(exc, "filename", None) is None else f"{exc.strerror}: {exc.filename}"
        print(f"error{_stage_suffix(exc)}: {message}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print("error: out of memory" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
