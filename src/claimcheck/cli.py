"""Command-line interface for the claim-verification pipeline.

Every subcommand takes --config pointing at the JSON pipeline config.
Exit codes: 0 success, 1 validation error, 2 backend failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import partial

from . import pipeline
from .errors import BackendError, ValidationError
from .store import DOC_ENCODER


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are validation errors (exit 1), not backend failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON pipeline config")
    for flag, (_, kind, text) in pipeline.OVERRIDES.items():
        sub.add_argument(f"--{flag}", type=kind, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="claimcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in pipeline.COMMANDS.values():
        cmd = sub.add_parser(stage.name, help=stage.help)
        _add_common(cmd)
        cmd.set_defaults(run=partial(pipeline.run_command, name=stage.name))
    sub.choices["ingest"].set_defaults(printer=_print_ingest)
    sub.choices["annotate-export"].add_argument("--n", type=int, default=None,
                                                help="number of tasks to sample")
    sub.choices["annotate-aggregate"].add_argument("files", nargs="+",
                                                   help="filled annotation files")
    return parser


def _print(payload: dict) -> None:
    print(DOC_ENCODER.encode(payload))


def _print_ingest(summary: dict) -> None:
    print(f"records: {summary['total']}")
    for label, count in summary["per_label"].items():
        print(f"  {label}: {count}")
    print(f"mean claim tokens: {summary['mean_claim_tokens']:.1f}")
    print(f"mean evidence tokens: {summary['mean_evidence_tokens']:.1f}")
    if summary["dropped_ids"]:
        print(f"dropped (evidence fully blocklisted): {', '.join(summary['dropped_ids'])}")
    if summary["matches_benchmark"]:
        sizes = "/".join(str(s) for s in pipeline.BENCHMARK_SPLIT_SIZES)
        labels = ", ".join(
            f"{label.value} {count}" for label, count in pipeline.BENCHMARK_PER_LABEL.items()
        )
        print("corpus matches the published benchmark release:")
        print(f"  total {pipeline.BENCHMARK_TOTAL}, {labels}; "
              f"expected split sizes {sizes} at ratios 0.70/0.15/0.15")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = vars(build_parser().parse_args(argv))
        overrides = {flag: args.pop(flag) for flag in pipeline.OVERRIDES}
        config = pipeline.load_config(args.pop("config"), **overrides)
        printer, run = args.pop("printer", _print), args.pop("run")
        del args["command"]
        printer(run(config, **args))  # what remains are the command's own arguments
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
