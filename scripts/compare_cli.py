#!/usr/bin/env python3
"""Byte-for-byte comparison of the CLI in two source trees.

    python3 scripts/compare_cli.py PARENT_SRC CHANGE_SRC [COMMAND ...]

PARENT_SRC and CHANGE_SRC are directories that hold the anchor_moments
package (a checkout's src/).  Each COMMAND is one quoted argument list for the
CLI, such as "exact --n 2 --a 1"; without any, the built-in list below runs.
Every command runs once per tree, each in a fresh interpreter with that tree
alone on PYTHONPATH and with --no-timestamp appended.  Stdout, stderr and the
exit code must match byte for byte.  One line per command says "same" or
"differs" (with what differs); the script exits 1 if any command differs.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

_RUN_MAIN = "import sys; from anchor_moments.cli import main; sys.exit(main(sys.argv[1:]))"

COMMANDS = (
    # the README's nine examples, simulate at fewer trials on two workers
    "exact --n 2 --a 1",
    "exact --n 10 --a 3 --per-sensor --format csv",
    "simulate --n 50 --a 2 --trials 100000 --seed 7 --workers 2",
    "asymptotic --theorem 2 --a 1 --grid 100,1000,10000,100000",
    "asymptotic --theorem 1 --a 2 --grid 100,1000",
    "lemma --id 1 --a 3 --grid 10,100,1000",
    "lemma --id 2 --a 1 --n 50",
    "lemma --id 4 --c 0 --grid 1000,10000,100000",
    "identities --suite all",
    "exact --n 7 --a 3 --per-sensor",
    "exact --n 200 --a 9 --per-sensor",
    "exact --n 13 --a 4 --per-sensor --format csv",
    "simulate --n 2500 --a 2 --trials 2000 --seed 1 --format csv",
    "asymptotic --theorem 2 --a 3 --grid 1000,100000 --format csv",
    "lemma --id 4 --c 0.5 --n 300 --format csv",
    "identities --suite technical2b --format csv",
    "identities --suite beta --format csv",
    # even totals in closed form past the size guard
    "exact --n 1000000000 --a 4",
    "exact --n 2001 --a 2",
    "exact --n 3 --a 20",  # n < a: the sensors' recurrences, summed
    "exact --n 2000 --a 8",
    "exact --n 2000 --a 400",  # a <= n at a large order: the power sums
    "exact --n 100 --a 1000",  # n < a at a large order: the sensors' recurrences
    "asymptotic --theorem 1 --a 8 --grid 2000,100000,1000000",  # even float totals
    # the other even float orders of the benchmark, each first at an n < a (sensor sum)
    "asymptotic --theorem 1 --a 4 --grid 3,2000,100000",
    "asymptotic --theorem 1 --a 6 --grid 5,2000,100000",
    "lemma --id 1 --a 9 --grid 1,2,3,100",  # odd a through the closed form: 0
    "simulate --n 2001 --a 2 --trials 2000 --seed 1",
    # an odd order past the size guard: no exact column
    "simulate --n 2001 --a 1 --trials 100",
    # the odd float route past n = 100: a >= 15 up to its limit, and a = 13 below N0(13)
    "asymptotic --theorem 2 --a 15 --grid 100,2000,20000",
    "asymptotic --theorem 2 --a 13 --grid 1000,2880",
    # the expansion from N0(a) on, for every odd a it serves past a = 3
    "asymptotic --theorem 2 --a 5 --grid 902,903,10000,123457,1000000,10000000,1000000000000",
    "asymptotic --theorem 2 --a 7 --grid 750,751,10000,123457,1000000,10000000,1000000000000",
    "asymptotic --theorem 2 --a 9 --grid 832,833,10000,123457,1000000,10000000,1000000000000",
    "asymptotic --theorem 2 --a 11 --grid 1818,1819,10000,123457,1000000,10000000,1000000000000",
    "asymptotic --theorem 2 --a 13 --grid 2881,2882,10000,123457,1000000,10000000,1000000000000",
    # a >= 3: the cost's power by repeated multiplication
    "simulate --n 50 --a 3 --trials 2000 --seed 7",
    # odd exact totals past n = 400, and a per-sensor table of odd n
    "exact --n 1000 --a 1",
    "exact --n 2000 --a 3",
    "exact --n 1001 --a 9 --per-sensor --format csv",
    # high powers of 5 in n: a total at 3 5^4, and a table with d = gcd(2i-1, n) up to 5^4
    "exact --n 1875 --a 1",
    "exact --n 625 --a 3 --per-sensor --format csv",
    # size guard: exit 3
    "exact --n 2001 --a 1",
    "exact --n 2001 --a 2 --per-sensor",
    "asymptotic --theorem 2 --a 15 --grid 100,20001",
    "lemma --id 4 --c 0 --n 100000000",
    # usage errors: exit 2
    "exact --n 0 --a 1",
    "asymptotic --theorem 1 --a 3 --grid 10,100",
    "lemma --id 1 --grid 10",
    "lemma --id 4 --a 3 --c 1 --n 10",
    "lemma --id 2 --a 2 --n 10",
    "simulate --n 5 --a 1 --seed -1 --trials 10",
    "identities --suite bogus",
    "asymptotic --theorem 2 --a 215 --grid 100,1000",  # n^(1-a/2) subnormal at the last n
    "asymptotic --theorem 2 --a 127 --grid 100,100000",
    # orders past the float range: C(a) or n^(1-a/2) in asymptotic, n^((a-1)/2) in lemma
    "asymptotic --theorem 1 --a 400 --grid 100,1000",
    "asymptotic --theorem 2 --a 219 --grid 100,1000",
    "lemma --id 1 --a 1001 --n 10",
    "lemma --id 2 --a 1001 --n 10",
    # a lemma-4 sum that underflows: t_i^(c+1) is 0
    "lemma --id 4 --c 1e308 --n 3",
    # help of the top-level parser and of each subcommand
    "--help",
    "exact --help",
    "simulate --help",
    "asymptotic --help",
    "lemma --help",
    "identities --help",
)


def run(src: Path, command: str) -> tuple[bytes, bytes, int]:
    argv = [*shlex.split(command), "--no-timestamp"]
    proc = subprocess.run([sys.executable, "-c", _RUN_MAIN, *argv], cwd=src,
                          capture_output=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return proc.stdout, proc.stderr, proc.returncode


def main(argv: list[str]) -> int:
    # plain argv: a command such as "--help" must not reach an option parser here
    if len(argv) < 2:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = (Path(arg).resolve() for arg in argv[:2])
    for src in (parent, change):
        if not (src / "anchor_moments" / "cli.py").is_file():
            sys.exit(f"{src} holds no anchor_moments/cli.py")
    differing = 0
    for command in argv[2:] or COMMANDS:
        before = run(parent, command)
        after = run(change, command)
        parts = [name for name, x, y in zip(("stdout", "stderr", "exit code"), before, after)
                 if x != y]
        differing += bool(parts)
        print(f"differs  {command}  ({', '.join(parts)})" if parts else f"same     {command}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
