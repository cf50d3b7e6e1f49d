"""Command-line front end emitting CSV/JSON tables.

Subcommands: exact, simulate, asymptotic, lemma, identities.  Exit codes:
0 success, 1 identity-suite failure, 2 usage error, 3 size guard (a route's limit on n).
Exact rationals are serialized as "p/q" strings, always next to a decimal
companion column; stdout carries the table, stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING

from . import __version__

# Each handler imports the modules it runs, so start-up (import and build_parser) loads only
# argparse, this module and simulation.  simulation is numpy-free and stays a top-level
# import: perfbench's tracer looks it up in sys.modules once it has imported this module.
from .simulation import SimulationConfig, estimate

if TYPE_CHECKING:
    from fractions import Fraction

_USAGE_ERROR = 2
_GUARD_ERROR = 3

# Exact per-sensor values pass Python's default 4300-digit limit on str(int)
# from about n = 1250; p/q output prints every digit.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


def _frac(x: Fraction, denominator_text: str | None = None) -> str:
    """x as "p/q", or "p" for an integer; a caller that has the text of q passes it."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{denominator_text or x.denominator}"


def _flt(x: float) -> str:
    return repr(float(x))


def _render(args: argparse.Namespace, params: dict[str, str], rows: list[dict[str, str]]) -> str:
    """One command's table as CSV (columns from the first row) or as JSON with metadata."""
    if args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    import json
    metadata = {"version": __version__}
    if "seed" in args:
        metadata["seed"] = str(args.seed)
    if not args.no_timestamp:
        from datetime import datetime, timezone
        metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(
        {
            "command": args.command,
            "parameters": params,
            "rows": rows,
            "metadata": metadata,
        },
        indent=2,
    )


# --- subcommand handlers: (args, parser) -> (parameters, rows) -------------

Table = tuple[dict[str, str], list[dict[str, str]]]


def _cmd_exact(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Table:
    from .moments import MomentQuery, _exact_total, total_moment_exact
    q = MomentQuery(n=args.n, a=args.a)
    params = {"n": str(args.n), "a": str(args.a), "per_sensor": str(args.per_sensor).lower()}
    if args.per_sensor:
        breakdown = total_moment_exact(q)
        # mirrors share their values, and for even a e_signed_part is e_total
        shared = {id(x): x for e in breakdown.per_sensor
                  for x in (e.e_total, e.e_signed_part, e.e_folded_part)}
        # the fields share few denominators and str(int) is quadratic in the digits: in
        # denominator order, each is converted once and one text is kept at a time
        texts, q, q_text = {}, None, ""
        for key, x in sorted(shared.items(), key=lambda item: item[1].denominator):
            if x.denominator != q:
                q, q_text = x.denominator, str(x.denominator)
            texts[key] = _frac(x, q_text)
        totals = {id(e.e_total): e.e_total for e in breakdown.per_sensor}  # mirrors share one
        approx = {key: _flt(float(x)) for key, x in totals.items()}
        rows = [
            {
                "i": str(e.i),
                "t": _frac(e.t),
                "e_total": texts[id(e.e_total)],
                "e_signed_part": texts[id(e.e_signed_part)],
                "e_folded_part": texts[id(e.e_folded_part)],
                "e_total_approx": approx[id(e.e_total)],
            }
            for e in breakdown.per_sensor
        ]
        rows.append(
            {
                "i": "total",
                "t": "",
                "e_total": _frac(breakdown.total),
                "e_signed_part": "",
                "e_folded_part": "",
                "e_total_approx": _flt(float(breakdown.total)),
            }
        )
    else:
        total = _exact_total(q)
        rows = [{"total": _frac(total), "total_approx": _flt(float(total))}]
    return params, rows


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Table:
    from .moments import MomentQuery, SizeGuardError, _exact_total
    result = estimate(SimulationConfig(n=args.n, a=args.a, trials=args.trials,
                                       seed=args.seed, workers=args.workers))
    row = {
        "mean": _flt(result.mean),
        "std_error": _flt(result.std_error),
        "ci_low": _flt(result.ci95[0]),
        "ci_high": _flt(result.ci95[1]),
        "trials": str(result.trials),
        "seed": str(result.seed),
    }
    try:
        exact = _exact_total(MomentQuery(n=args.n, a=args.a))
    except SizeGuardError:  # an odd order past the exact route's limit: no exact columns
        pass
    else:
        z = (result.mean - float(exact)) / result.std_error if result.std_error > 0 else float("nan")
        row["exact"] = _frac(exact)
        row["exact_approx"] = _flt(float(exact))
        row["z_score"] = _flt(z)
    params = {"n": str(args.n), "a": str(args.a), "trials": str(args.trials),
              "seed": str(args.seed), "workers": str(args.workers)}
    return params, [row]


def _cmd_asymptotic(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Table:
    from .asymptotics import remainder_diagnostic
    if args.theorem == 1 and args.a % 2 != 0:
        parser.error("--theorem 1 covers even a")
    if args.theorem == 2 and args.a % 2 != 1:
        parser.error("--theorem 2 covers odd a")
    report = remainder_diagnostic(args.a, args.grid)
    rows = [
        {
            "n": str(n),
            "measured": _flt(m),
            "normalized": _flt(v),
            "constant": _flt(report.constant_float),
            "fitted_exponent": _flt(report.fitted_exponent),
        }
        for n, m, v in zip(report.n_grid, report.measured, report.normalized)
    ]
    params = {
        "theorem": str(args.theorem),
        "a": str(args.a),
        "grid": ",".join(str(n) for n in args.grid),
        "constant_exact": str(report.constant),
        "degenerate_fit": str(report.degenerate_fit).lower(),
    }
    return params, rows


def _cmd_lemma(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Table:
    from .asymptotics import abel_anchor_sum, vanishing_signed_sum, vanishing_tail_correction_sum
    grid = args.grid if args.grid is not None else [args.n]
    params = {"id": str(args.id), "grid": ",".join(str(n) for n in grid)}
    rows = []
    if args.id in (1, 2):
        if args.a is None:
            parser.error(f"--a is required for --id {args.id}")
        if args.c is not None:
            parser.error("--c applies to --id 4 only")
        params["a"] = str(args.a)
        fn = vanishing_signed_sum if args.id == 1 else vanishing_tail_correction_sum
        half = (args.a - 1) // 2
        for n in grid:
            try:
                scale = float(n) ** half
            except OverflowError:
                raise ValueError(f"n^((a-1)/2) exceeds the float range at n = {n}, "
                                 f"a = {args.a}") from None
            v = fn(n, args.a)
            rows.append(
                {
                    "n": str(n),
                    "value": _frac(v),
                    "value_approx": _flt(float(v)),
                    "normalized": _flt(scale * abs(float(v))),
                }
            )
    else:
        if args.c is None:
            parser.error("--c is required for --id 4")
        if args.a is not None:
            parser.error("--a applies to --id 1 and --id 2 only")
        params["c"] = _flt(args.c)
        for n in grid:
            v = abel_anchor_sum(n, args.c)
            rows.append({"n": str(n), "value": _flt(v), "normalized": _flt(v / n**1.5)})
    return params, rows


def _cmd_identities(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Table:
    from .identities import run_suite
    results = run_suite(args.suite)
    rows = [
        {
            "name": r.name,
            "passed": str(r.passed).lower(),
            "residual": _flt(r.residual),
            "detail": r.detail,
        }
        for r in results
    ]
    failures = sum(not r.passed for r in results)
    params = {"suite": args.suite, "checks": str(len(results)), "failures": str(failures)}
    return params, rows


# --- parser -----------------------------------------------------------------

# identities.suite_names(), spelled out so that building the parser loads no identity check;
# a test keeps the two equal
_SUITES = ("all", "stirling", "eulerian", "beta", "gould", "finite-diff", "technical2b")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # refused below, like any count under 1
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _grid(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from exc
    if len(values) < 1:
        raise argparse.ArgumentTypeError("grid must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("grid must be strictly increasing")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchor-moments",
        description="Expected power-displacement of uniform sensors moved to equidistant anchors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, handler: Callable[..., Table]) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from metadata (stable output)")
        p.set_defaults(handler=handler)

    p_exact = sub.add_parser("exact", help="exact total expected cost")
    p_exact.add_argument("--n", type=_positive_int, required=True)
    p_exact.add_argument("--a", type=_positive_int, required=True)
    p_exact.add_argument("--per-sensor", action="store_true", dest="per_sensor")
    common(p_exact, _cmd_exact)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate")
    p_sim.add_argument("--n", type=_positive_int, required=True)
    p_sim.add_argument("--a", type=_positive_int, required=True)
    p_sim.add_argument("--trials", type=_positive_int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=_positive_int, default=1)
    common(p_sim, _cmd_simulate)

    p_asym = sub.add_parser("asymptotic", help="leading-constant convergence on a grid")
    p_asym.add_argument("--theorem", type=int, choices=(1, 2), required=True,
                        help="1: even-order result, 2: odd-order result")
    p_asym.add_argument("--a", type=_positive_int, required=True)
    p_asym.add_argument("--grid", type=_grid, required=True)
    common(p_asym, _cmd_asymptotic)

    p_lem = sub.add_parser("lemma", help="diagnostic sums with their normalizations")
    p_lem.add_argument("--id", type=int, choices=(1, 2, 4), required=True)
    p_lem.add_argument("--a", type=_positive_int)
    p_lem.add_argument("--c", type=float)
    group = p_lem.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_int)
    group.add_argument("--grid", type=_grid)
    common(p_lem, _cmd_lemma)

    p_id = sub.add_parser("identities", help="run the verified-identity suites")
    p_id.add_argument("--suite", choices=_SUITES, default="all")
    common(p_id, _cmd_identities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        params, rows = args.handler(args, parser)
    except SystemExit as exc:  # --help, and usage errors from the parser or a handler
        return int(exc.code) if exc.code is not None else 0
    except ValueError as exc:  # SizeGuardError is a ValueError too
        from .moments import SizeGuardError
        print(f"error: {exc}", file=sys.stderr)
        return _GUARD_ERROR if isinstance(exc, SizeGuardError) else _USAGE_ERROR
    print(_render(args, params, rows))
    return 0 if params.get("failures", "0") == "0" else 1  # identities: a check failed


if __name__ == "__main__":
    sys.exit(main())
