#!/usr/bin/env python3
"""Paired timing of the float totals' integer layers in two source trees, as a markdown table.

    python3 scripts/bench_layers.py PARENT_SRC CHANGE_SRC [--pairs 5] [--repeat 5]

PARENT_SRC and CHANGE_SRC are directories that hold the anchor_moments
package (a checkout's src/).  Each layer is one function called on fixed
inputs (LAYERS below).  Pair k runs one fresh interpreter per tree, the parent
first for even k and the change first for odd k; each interpreter times every
layer --repeat times and keeps the best.  A layer's time is one pass over its
inputs, averaged over the passes of one round (200 for the short calls, else
one).  The table gives each side's best time over all pairs and the median
over the pairs of the change's time over the parent's.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (label, module, function, inputs (n, a), calls per timed pass); the labels are the rows
LAYERS = (
    ("expansion_value, odd a <= 13 at n = 2000, 10^5, 10^6", "_expansion", "expansion_value",
     tuple((n, a) for a in range(1, 14, 2) for n in (2000, 10**5, 10**6)), 200),
    ("_power_sum_terms, a = 2..8 at n = 2000, 10^5", "moments", "_power_sum_terms",
     tuple((n, a) for a in range(2, 9) for n in (2000, 10**5)), 200),
    ("_power_sum_terms (2000, 300)", "moments", "_power_sum_terms", ((2000, 300),), 1),
    ("_power_sum_terms (10^6, 500)", "moments", "_power_sum_terms", ((10**6, 500),), 1),
    ("_power_sum_terms (1000, 1000)", "moments", "_power_sum_terms", ((1000, 1000),), 1),
    ("_sensor_sum_terms (100, 1000)", "moments", "_sensor_sum_terms", ((100, 1000),), 1),
)

_ONE_TREE = "--one-tree"  # the child's mode: time every layer, print one JSON list


def time_layers(repeat: int) -> list[float]:
    """Each layer's best time over repeat rounds, in this interpreter's anchor_moments."""
    best = []
    for _, module, name, inputs, calls in LAYERS:
        function = getattr(importlib.import_module(f"anchor_moments.{module}"), name)
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(calls):
                for n, a in inputs:
                    function(n, a)
            times.append((time.perf_counter() - start) / calls)
        best.append(min(times))
    return best


def one_tree(src: Path, repeat: int) -> list[float]:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), _ONE_TREE,
                           str(repeat)], cwd=src, capture_output=True, text=True, timeout=3600,
                          env={**os.environ, "PYTHONPATH": str(src)})
    if proc.returncode != 0:
        sys.exit(f"{src}: exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == [_ONE_TREE]:
        print(json.dumps(time_layers(int(argv[1]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=5, help="interpreters per tree")
    parser.add_argument("--repeat", type=int, default=5, help="timed rounds per layer")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    for src in trees:
        if not (src / "anchor_moments" / "moments.py").is_file():
            parser.error(f"{src} holds no anchor_moments/moments.py")
    if args.pairs < 1 or args.repeat < 1:
        parser.error("--pairs and --repeat must be at least 1")

    before: list[list[float]] = []
    after: list[list[float]] = []
    sides = ((trees[0], before), (trees[1], after))
    for k in range(args.pairs):
        for src, runs in sides if k % 2 == 0 else sides[::-1]:
            runs.append(one_tree(src, args.repeat))
    print(f"| layer | parent best | change best | change / parent, median of {args.pairs} |")
    print("|---|---|---|---|")
    for row, (label, *_) in enumerate(LAYERS):
        ratio = statistics.median(y[row] / x[row] for x, y in zip(before, after))
        print(f"| {label} | {min(x[row] for x in before):.3g} s | "
              f"{min(y[row] for y in after):.3g} s | {ratio:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
