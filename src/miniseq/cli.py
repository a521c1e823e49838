"""Command-line entry point.

    miniseq-run --config_file CONFIG.json --mode {train|eval|train_eval|infer}
                [--num_workers N] [--use_allreduce true|false] [--enable_logs]
                [--infer_input PATH --infer_output PATH]

Also runnable as `python -m miniseq.cli`. The flags override the config file,
which is validated once here; a TCP run's worker processes get that Config.
"""

from __future__ import annotations

import argparse
import sys

from .config import RUN_MODES, ConfigError, load_config
from .runner import run


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="miniseq-run",
                                description="Config-driven seq2seq training engine")
    p.add_argument("--config_file", required=True, help="JSON run configuration")
    p.add_argument("--mode", required=True, choices=RUN_MODES)
    p.add_argument("--num_workers", type=int, default=None,
                   help="override the config's worker count")
    p.add_argument("--use_allreduce", type=_parse_bool, default=None,
                   help="override the config's aggregation mode (true|false)")
    p.add_argument("--enable_logs", action="store_true",
                   help="print a per-step text log while training")
    p.add_argument("--infer_input", default=None, help="input file for infer mode")
    p.add_argument("--infer_output", default=None, help="output file for infer mode")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config_file)
    except (OSError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.num_workers is not None:
        config.num_workers = args.num_workers
    if args.use_allreduce is not None:
        config.use_allreduce = args.use_allreduce
    try:
        config.validate()
        result = run(config, args.mode, enable_logs=args.enable_logs,
                     infer_input=args.infer_input, infer_output=args.infer_output)
    except (ConfigError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return result.status


if __name__ == "__main__":
    sys.exit(main())
