"""Benchmark of anchor-moments: exact, float and Monte Carlo routes.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Run from anywhere; the package is imported from src/ next to this directory.
Set-up time is the median over fresh interpreters that import
anchor_moments.cli and build its parser.  The workload then runs whole rounds
(see workloads.py) until --seconds have passed; an end-to-end time sums each
operation's fastest time over the rounds.  With --trace 1 the rounds alternate
untraced and traced, and the run reports per-layer metrics (medians over the
traced rounds) plus the tracing overhead.
The last line of stdout is the result as one JSON object; the line before it
gives the end-to-end figures under their own names.  Results and spans are
also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 3  # before the rounds and again after them

_PROBE = """
import sys, time
src = sys.argv[1]
sys.path.insert(0, src)
start = time.perf_counter()
import anchor_moments.cli as cli
cli.build_parser()
elapsed = time.perf_counter() - start
if not cli.__file__.startswith(src):
    sys.exit(f"anchor_moments came from {cli.__file__}, not {src}")
print(repr(elapsed))
"""


def _setup_samples() -> list[float]:
    """Times to import anchor_moments.cli and build its parser, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip()))
    return samples


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="anchor-moments benchmark")
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"], required=True,
                        help="'all' runs every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    return args


def _run_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "anchor_moments" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/anchor_moments", file=sys.stderr)
        return 2
    try:
        setup = _setup_samples()
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import anchor_moments.cli as cli
    from anchor_moments import identities, moments

    from spans import Tracer, self_times
    from workloads import WORKLOADS, best_of_rounds, layer_metrics, median_metrics

    workload = WORKLOADS[args.workload](args.seed, cli, moments)
    workload.prepare()
    tracer = Tracer() if args.trace else None
    rounds = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rounds.append(workload.run_round(tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        if len(rounds) == 1:
            # Peak after one round, so that the number of rounds cannot move it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if perf_counter() - start >= args.seconds and (tracer is None or len(rounds) % 2 == 0):
            break

    setup_s = statistics.median(setup + _setup_samples())

    attempted = sum(len(r.results) for r in rounds)
    failed = sum(res.failed for r in rounds for res in r.results)
    unexpected = [(res.op.label, res.problems) for r in rounds for res in r.results
                  if res.failed and not res.op.known_fault]
    for label, problems in unexpected[:10]:
        print(f"unexpected failure: {label}: {'; '.join(problems[:3])}", file=sys.stderr)

    plain = [r for r in rounds if not r.traced]
    named = best_of_rounds(plain)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "work_s": (sum(named.values()), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        own = self_times(tracer.spans)
        traced_rounds = [r for r in rounds if r.traced]
        layers = median_metrics([layer_metrics(tracer, r, own, identities) for r in traced_rounds])
        untraced_s = statistics.median(r.seconds for r in plain)
        traced_s = statistics.median(r.seconds for r in traced_rounds)
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        layers["trace.spans_per_round"] = len(tracer.spans) / len(traced_rounds)
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        tag = f"{args.workload}-seed{args.seed}"
        tracer.write(RESULTS / f"trace-{tag}.json", workload=args.workload, seed=args.seed)

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    named_line = {"workload": args.workload,
                  "round_s": [[r.seconds, int(r.traced)] for r in rounds],
                  "named": {k: {"value": v, "unit": "s"} for k, v in named.items()}}
    RESULTS.mkdir(exist_ok=True)
    failures = [[res.op.label, res.problems] for res in rounds[0].results if res.failed]
    (RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**named_line, "failures_in_first_round": failures, "result": result},
                   indent=1) + "\n")
    print(json.dumps(named_line))
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count" if name.endswith(("_calls", "_evals", "_requests", "per_round")) else "ratio"


if __name__ == "__main__":
    sys.exit(main())
