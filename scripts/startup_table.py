#!/usr/bin/env python3
"""Whole-process wall time of five CLI commands in two source trees, as a markdown table.

    python3 scripts/startup_table.py PARENT_SRC CHANGE_SRC [--runs 12]

PARENT_SRC and CHANGE_SRC are directories that hold the anchor_moments
package (a checkout's src/).  Each command runs --runs times per tree, each
time in a fresh interpreter with that tree alone on PYTHONPATH and no bytecode
written, so both sides compile from source.  Run k takes the parent first for
even k and the change first for odd k.  The table gives each side's median
and the number of runs in which the change was faster.
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

_RUN_MAIN = "import sys; from anchor_moments.cli import main; sys.exit(main(sys.argv[1:]))"

# the start-up examples of the README: help, then one command per handler family
COMMANDS = (
    "--help",
    "exact --n 100 --a 3",
    "simulate --n 50 --a 1 --trials 2000",
    "asymptotic --theorem 2 --a 3 --grid 1000,100000",
    "identities --suite all",
)


def wall_time(src: Path, command: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _RUN_MAIN, *shlex.split(command)], cwd=src,
                          capture_output=True, env=env, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{src}: {command} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=12, help="runs per command and tree")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    for src in trees:
        if not (src / "anchor_moments" / "cli.py").is_file():
            parser.error(f"{src} holds no anchor_moments/cli.py")
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    print("| command | parent | change | change faster in |")
    print("|---|---|---|---|")
    for command in COMMANDS:
        before: list[float] = []
        after: list[float] = []
        sides = ((trees[0], before), (trees[1], after))
        for k in range(args.runs):
            for src, times in sides if k % 2 == 0 else sides[::-1]:
                times.append(wall_time(src, command))
        faster = sum(a < b for b, a in zip(before, after))
        print(f"| `{command}` | {statistics.median(before):.3f} s | "
              f"{statistics.median(after):.3f} s | {faster}/{args.runs} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
