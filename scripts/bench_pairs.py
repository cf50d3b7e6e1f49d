#!/usr/bin/env python3
"""Paired benchmark of two source trees: a parent and a change.

    python3 scripts/bench_pairs.py --parent ../parent --change . --label mc_tiles \\
        --workload simulate:10:3401 --workload exact-sweep:5:3501 \\
        --change-text "what the change does" --claim simulate:work_s

Each --workload is NAME:PAIRS:FIRST_SEED.  Pair p runs perfbench/run.py once in
each tree with seed FIRST_SEED + p; even pairs run the parent first, odd pairs
the change first.  Every __pycache__ under a tree is removed before each of its
runs, so both sides start from source.  The result is written to
BENCH_<label>.json in the current directory: for each end-to-end metric the
runs, median and inclusive quartiles of each side to 4 significant figures
(the verdicts use the unrounded values), the number of pairs in which
the change was lower, and the failed and attempted operation counts.  Each
metric also gets its bound from the change tree's BENCHMARK.json (a fraction of
the parent's median), the relative change between the medians and a verdict:
"worse" when the change's median exceeds the parent's by more than the bound,
"unresolved" when the parent's quartile spread over its median is wider than
the bound and not every change run is below every parent run, else "within".
The --claim metric gets "claim_met": the change was lower in at least nine
tenths of the pairs, and the medians differ by more than the parent's quartile
spread.  Every metric here is better when lower.  If a run
exits non-zero, the file keeps every run so far, the unfinished workload's runs
as they are, and the failing run under "failed_run"; the script then exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "work_s", "peak_rss_mb")
SIDES = ("parent", "change")


class _RunFailed(Exception):
    """A perfbench run exited non-zero; args[0] describes it."""


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise _RunFailed({"tree": str(tree), "workload": workload, "seed": seed,
                         "exit_code": proc.returncode, "stderr_tail": proc.stderr.strip()[-500:]})
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _shown(value: float) -> float:
    """value to 4 significant figures, as the report writes it."""
    return float(f"{value:.4g}")


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": _shown(q1), "median": _shown(median), "q3": _shown(q3)}


def _verdict(parent: list[float], change: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    relative = statistics.median(change) / median - 1
    if relative > bound:
        verdict = "worse"
    elif (q3 - q1) / median > bound and max(change) >= min(parent):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"bound": bound, "relative_change": round(relative, 4), "verdict": verdict}


def _claim_met(parent: list[float], change: list[float]) -> bool:
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(c < p for p, c in zip(parent, change))
    return wins >= 0.9 * len(parent) and median - statistics.median(change) > q3 - q1


def _summary(runs: dict[str, list[dict]], seeds: list[int], bounds: dict[str, float],
             claim: str | None) -> dict:
    out: dict = {"pairs": len(seeds), "seeds": seeds}
    for metric in METRICS:
        values = {side: [r["metrics"][metric]["value"] for r in runs[side]] for side in SIDES}
        out[metric] = {side: _spread(values[side]) for side in SIDES}
        out[metric]["change_lower_in"] = sum(
            c < p for p, c in zip(values["parent"], values["change"]))
        out[metric].update(_verdict(values["parent"], values["change"], bounds[metric]))
        if metric == claim:
            out[metric]["claim_met"] = _claim_met(values["parent"], values["change"])
        out[metric]["runs"] = {side: [_shown(v) for v in values[side]] for side in SIDES}
    out["failed"] = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    out["failed"].update({f"attempted_{side}": sum(r["attempted"] for r in runs[side])
                          for side in SIDES})
    return out


def _machine() -> str:
    import numpy

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    text = (f"{cpus}-core {platform.system()} machine, CPython {platform.python_version()}, "
            f"numpy {numpy.__version__}")
    try:  # the package does not need scipy; report it only where it is installed
        import scipy
    except ImportError:
        return text
    return f"{text}, scipy {scipy.__version__}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:PAIRS:FIRST_SEED, repeatable")
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--change-text", default="")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in declared}
    claim = dict(zip(("workload", "metric"), args.claim.split(":"))) if args.claim else None

    workloads, failed_run = {}, None
    for spec in args.workload:
        name, pairs, first = spec.split(":")
        seeds = [int(first) + p for p in range(int(pairs))]
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        try:
            for p, seed in enumerate(seeds):
                for side in SIDES if p % 2 == 0 else SIDES[::-1]:
                    runs[side].append(_run(trees[side], name, seed, args.seconds))
                    metrics = runs[side][-1]["metrics"]
                    print(f"{name} pair {p + 1}/{len(seeds)} {side}: " + ", ".join(
                        f"{m} {metrics[m]['value']:.3f}" for m in METRICS), flush=True)
        except _RunFailed as err:
            failed_run = err.args[0]
            print(f"{failed_run['tree']}: {name} seed {failed_run['seed']} exited "
                  f"{failed_run['exit_code']}: {failed_run['stderr_tail']}", file=sys.stderr)
            workloads[name] = {"unfinished": True, "seeds": seeds, "runs": {
                side: [{m: _shown(r["metrics"][m]["value"]) for m in METRICS}
                       for r in runs[side]] for side in SIDES}}
            break
        workloads[name] = _summary(runs, seeds, bounds,
                                   claim["metric"] if claim and claim["workload"] == name else None)

    report = {
        "label": args.label,
        "change": args.change_text,
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": "parent and change in two source trees; pairs alternate which side runs "
                  "first; __pycache__ removed before every run; quartiles are the inclusive "
                  "method over the runs of one side",
        "machine": _machine(),
        "claim": claim,
        "workloads": workloads,
    }
    if failed_run:
        report["failed_run"] = failed_run
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed_run else 0


if __name__ == "__main__":
    sys.exit(main())
