import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_convergence_table_prints_one_row_per_order_and_size():
    lines = run_script("convergence_table.py", "--orders", "1,2", "--grid", "100,1000")
    assert [line.split()[2] for line in lines if line.startswith("a = ")] == ["1:", "2:"]
    rows = [line.split() for line in lines if line.startswith("  n = ")]
    assert [row[2] for row in rows] == ["100", "1000"] * 2
    assert sum("fitted remainder exponent" in line for line in lines) == 2


def test_mc_vs_exact_prints_one_row_per_pair():
    lines = run_script("mc_vs_exact.py", "--trials", "4096")
    assert lines[0].split() == ["n", "a", "exact", "mc", "mean", "std", "err", "z"]
    rows = [line.split() for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(2, 1), (5, 1), (10, 3), (50, 2), (200, 1)]
    assert all(len(r) == 6 for r in rows)
