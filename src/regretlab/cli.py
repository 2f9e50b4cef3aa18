"""Command-line front end.

Subcommands: ``simulate <config>``, ``report <trace.csv>``,
``lowerbound --eta X --T N``, ``verify-smooth <config>``, and
``plot <trace.csv>... --kind {regret|bids}``.

Exit codes: 0 success, 1 usage or config problem, 2 certificate failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, parse_config
from .dynamics import read_trace_csv, report
from .experiment import (bids_plot, build_game_from_config, lower_bound_experiment, regret_plot,
                         run_experiment, write_report_csv)
from .games import verify_smoothness
from .svgplot import write_svg

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this artifact reserves 2 for
    certificate failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="regretlab",
                     description="No-regret dynamics with checkable guarantees.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="run a config end to end, writing artifacts")
    p.add_argument("config", help="experiment config file")
    p.add_argument("--out", default=None, help="output directory (overrides "
                   "$REGRETLAB_OUT/<outputs.dir>)")

    p = sub.add_parser("report", help="recompute regrets and certificates from a trace")
    p.add_argument("trace", help="trace CSV written by simulate")

    p = sub.add_parser("lowerbound", help="two-strategy adversarial lower-bound runs")
    p.add_argument("--eta", type=float, required=True, help="step size")
    p.add_argument("--T", type=int, required=True, help="number of rounds (even)")

    p = sub.add_parser("verify-smooth", help="brute-force check a config's "
                       "smoothness claim")
    p.add_argument("config", help="experiment config file")

    p = sub.add_parser("plot", help="render an SVG from one or more traces")
    p.add_argument("trace", nargs="+", help="trace CSVs written by simulate")
    p.add_argument("--kind", choices=("regret", "bids"), default="regret")
    p.add_argument("--out", default=None, help="output SVG path")
    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _parse_config_file(path: str):
    try:
        spec = parse_config(_read_file(path))
    except ConfigError as exc:
        print(f"error: {path} is not a valid config:", file=sys.stderr)
        for problem in exc.errors:
            print(f"  {problem}", file=sys.stderr)
        raise SystemExit(1)
    # file references inside a config are relative to the config itself
    ref = spec.game.get("path")
    if ref is not None and not os.path.isabs(ref):
        spec.game["path"] = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    return spec


def _cmd_simulate(args) -> int:
    manifest = run_experiment(_parse_config_file(args.config), out_dir=args.out)
    summary = manifest["summary"]
    fields = [f"T={summary['T']}", f"mode={summary['mode']}"]
    for key in ("sum_regret", "max_regret", "cce_gap", "avg_welfare",
                "sum_linearized_regret", "avg_total_cost", "eta"):
        if key in summary:
            fields.append(f"{key}={summary[key]:.6g}")
    print(" ".join(fields))
    for name, status in sorted(summary["certificates"].items()):
        print(f"certificate {name}: {status}")
    for key, path in sorted(manifest["artifacts"].items()):
        print(f"wrote {key}: {path}")
    return manifest["exit_code"]


def _cmd_report(args) -> int:
    rep = report(read_trace_csv(args.trace))
    sys.stdout.write(write_report_csv(rep))
    return 2 if rep.failed() else 0


def _cmd_lowerbound(args) -> int:
    result = lower_bound_experiment(args.eta, args.T)
    print(f"eta={result.eta} T={result.T}")
    print(f"regret_on_identity={result.r_game_A!r}")
    print(f"regret_on_degenerate={result.r_game_Aprime!r}")
    print(f"closed_form_identity={result.closed_form_A!r}")
    print(f"closed_form_degenerate_floor={result.closed_form_Aprime_lb!r}")
    return 0


def _cmd_verify_smooth(args) -> int:
    spec = _parse_config_file(args.config)
    if spec.smoothness is None:
        print("error: config claims no smoothness (game.lambda / game.mu missing)",
              file=sys.stderr)
        return 1
    claim = spec.smoothness
    cert = verify_smoothness(build_game_from_config(spec.game), claim["lambda"],
                             claim["mu"], claim["s_star"], mode=spec.mode)
    status = "verified" if cert.verified else "REFUTED"
    print(f"smoothness ({claim['lambda']}, {claim['mu']}) {status}")
    print(f"s_star={list(cert.s_star)} slack={cert.slack!r} "
          f"worst_profile={list(cert.worst_profile)} opt={cert.opt!r}")
    return 0 if cert.verified else 2


def _cmd_plot(args) -> int:
    # each trace's arm label is the runner's: trace.csv is main, trace_<label>.csv is <label>
    stems = [os.path.splitext(os.path.basename(path))[0] for path in args.trace]
    labels = ["main" if stem == "trace" else stem.removeprefix("trace_") for stem in stems]
    if args.kind == "bids" and len(labels) > 1:
        raise ValueError("plot --kind bids takes one trace")
    if len(set(labels)) < len(labels):
        raise ValueError(f"two traces have the same arm label: {', '.join(labels)}")
    traces = [read_trace_csv(path) for path in args.trace]
    svg = regret_plot(dict(zip(labels, traces))) if args.kind == "regret" else bids_plot(traces[0])
    out = args.out or os.path.join(os.path.dirname(os.path.abspath(args.trace[0])),
                                   f"{args.kind}.svg")
    write_svg(svg, out)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "report": _cmd_report,
        "lowerbound": _cmd_lowerbound,
        "verify-smooth": _cmd_verify_smooth,
        "plot": _cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:  # bad input: a one-line message, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
