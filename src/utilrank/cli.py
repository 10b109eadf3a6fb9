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
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import InvalidSpec, ReproductionMismatch, UtilrankError
from .io_files import parse_log_base, read_config, read_prior, read_samples, read_scenario_spec, write_samples
from .model import EngineConfig
from .pipeline import run_pipeline
from .report import emit_report
from .reproduce import reproduce_paper
from .scenario import ScenarioSpec, generate_samples

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

    rep = sub.add_parser("reproduce-paper",
                         help="regenerate the bundled reference use case and verify it")
    rep.add_argument("--out", default="reproduction", help="output directory")

    return parser


def _build_config(args: argparse.Namespace) -> EngineConfig:
    overrides = read_config(args.config) if args.config else {}
    if args.entropy_base is not None:
        overrides["entropy_log_base"] = parse_log_base(args.entropy_base)
    if args.kld_base is not None:
        overrides["kld_log_base"] = parse_log_base(args.kld_base)
    if args.round_weights is not None:
        overrides["report_weight_rounding"] = args.round_weights
    try:
        return EngineConfig(**overrides)
    except ValueError as exc:
        raise InvalidSpec(f"invalid config: {exc}") from None


def _parse_methods(raw: Optional[str]):
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _write_out(text: str, destination: Optional[str]) -> None:
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = read_scenario_spec(args.spec)
    if args.seed is not None:
        spec = ScenarioSpec(spec.pairs, args.seed, spec.moment_mode, spec.family)
    sample_set = generate_samples(spec)
    if args.out is None:
        from .io_files import samples_to_csv

        sys.stdout.write(samples_to_csv(sample_set))
    else:
        write_samples(sample_set, args.out)
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace, include_rankings: bool) -> int:
    sample_set = read_samples(args.samples)
    prior = read_prior(args.prior, sample_set) if args.prior else None
    config = _build_config(args)
    report = run_pipeline(
        sample_set,
        prior=prior,
        config=config,
        methods=_parse_methods(args.methods),
        include_rankings=include_rankings,
    )
    _write_out(emit_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    reproduce_paper(args.out)
    sys.stdout.write(f"reference use case reproduced in {args.out}\n")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "weights":
            return _cmd_pipeline(args, include_rankings=False)
        if args.command == "rank":
            return _cmd_pipeline(args, include_rankings=True)
        if args.command == "reproduce-paper":
            return _cmd_reproduce(args)
        raise AssertionError(f"unhandled command {args.command!r}")
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
