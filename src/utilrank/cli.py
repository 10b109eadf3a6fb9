"""Command-line surface.

Verbs:
  simulate         generate a deterministic sample log from a scenario spec
  weights          derive attribute weights from a sample log
  rank             derive weights and rank alternatives by expected utility
  reproduce-paper  regenerate and verify the bundled reference use case

Exit codes: 0 success, 2 validation failure, 3 reproduction mismatch,
4 I/O failure. Configuration precedence is flags over config file over
defaults; environment variables are intentionally unsupported so that
identical invocations always produce identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from contextlib import contextmanager
from functools import partial
from typing import Optional, Sequence

from .errors import ReproductionMismatch, UtilrankError, UtilrankWarning
from .io_files import (
    parse_config,
    read_config,
    read_prior,
    read_samples,
    read_scenario_spec,
    write_samples,
)
from .model import EngineConfig
from .pipeline import run_pipeline
from .report import emit_report
from .reproduce import reproduce_paper, table_verdicts
from .scenario import generate_samples

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utilrank",
        description="Derive attribute weights from simulation-run statistics "
                    "and rank alternatives by weighted expected utility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a sample log from a scenario spec")
    sim.add_argument("--spec", required=True, help="scenario spec (JSON)")
    sim.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    sim.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    sim.set_defaults(run=_cmd_simulate)

    for name, about in (("weights", "derive attribute weights"),
                        ("rank", "derive weights and rank alternatives")):
        cmd = sub.add_parser(name, help=about)
        cmd.add_argument("--samples", required=True, help="sample log (CSV)")
        cmd.add_argument("--prior", default=None, help="prior table (CSV), needed for IGHW")
        cmd.add_argument("--methods", default=None,
                         help="comma-separated subset of icw,ighw,igdw "
                              "(default: every runnable method)")
        cmd.add_argument("--config", default=None, help="engine config (JSON)")
        cmd.add_argument("--entropy-base", default=None, help="entropy log base ('e' or a number)")
        cmd.add_argument("--kld-base", default=None, help="divergence log base ('e' or a number)")
        cmd.add_argument("--round-weights", type=int, default=None,
                         help="round weights to N decimals before aggregation")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        cmd.set_defaults(run=_cmd_pipeline, include_rankings=name == "rank")

    rep = sub.add_parser("reproduce-paper",
                         help="regenerate the bundled reference use case and verify it")
    rep.add_argument("--out", default="reproduction", help="output directory")
    rep.set_defaults(run=_cmd_reproduce)

    return parser


def _build_config(args: argparse.Namespace) -> EngineConfig:
    flags = {"entropy_log_base": args.entropy_base, "kld_log_base": args.kld_base,
             "report_weight_rounding": args.round_weights}
    settings = read_config(args.config) if args.config else {}
    return parse_config({**settings, **{k: v for k, v in flags.items() if v is not None}})


def _parse_methods(raw: Optional[str]):
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = read_scenario_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    sample_set = generate_samples(spec)
    with _destination(args.out) as out:
        write_samples(sample_set, out)
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    sample_set = read_samples(args.samples)
    prior = read_prior(args.prior, sample_set) if args.prior else None
    config = _build_config(args)
    report = run_pipeline(
        sample_set,
        prior=prior,
        config=config,
        methods=_parse_methods(args.methods),
        include_rankings=args.include_rankings,
    )
    del sample_set, prior  # the report holds what it needs: the emit runs without the inputs
    with _destination(args.out) as out:
        emit_report(report, args.format, destination=out)
    return EXIT_OK


@contextmanager
def _destination(path: Optional[str]):
    """``--out``'s path, or stdout's byte stream, so stdout gets the bytes a file would."""
    if path is not None:
        yield path
        return
    sys.stdout.flush()
    yield sys.stdout.buffer
    sys.stdout.buffer.flush()


def _cmd_reproduce(args: argparse.Namespace) -> int:
    try:
        reproduce_paper(args.out)
    except ReproductionMismatch as exc:
        sys.stdout.write("".join(line + "\n" for line in table_verdicts(exc.departures)))
        raise
    sys.stdout.write("".join(line + "\n" for line in table_verdicts()))
    sys.stdout.write(f"reference use case reproduced in {args.out}\n")
    return EXIT_OK


def _show_warning(show_other, message, category, filename, lineno, file=None, line=None) -> None:
    """Print utilrank's own warnings as one line, without a source location."""
    if issubclass(category, UtilrankWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        show_other(message, category, filename, lineno, file, line)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = partial(_show_warning, warnings.showwarning)
            return args.run(args)
    except ReproductionMismatch as exc:
        print(f"reproduction mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except UtilrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
