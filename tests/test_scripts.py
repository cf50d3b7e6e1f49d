import json
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


_FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if {fail} and seed == 101:
    sys.exit("out of memory")
metrics = {{m: {{"value": seed / 100}} for m in ("setup_s", "work_s", "peak_rss_mb")}}
print(json.dumps({{"metrics": metrics, "failed": 0, "attempted": 1}}))
"""


def test_bench_pairs_keeps_the_runs_before_a_failing_one(tmp_path):
    trees = {}
    for side, fail in (("parent", False), ("change", True)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(_FAKE_RUN.format(fail=fail))
        trees[side] = tmp_path / side
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           "--parent", str(trees["parent"]), "--change", str(trees["change"]),
                           "--label", "fake", "--workload", "fake:3:100"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    report = json.loads((tmp_path / "BENCH_fake.json").read_text())
    # pair 1 (seed 101) runs the change first, and it fails
    assert report["failed_run"] == {"tree": str(trees["change"].resolve()), "workload": "fake",
                                    "seed": 101, "exit_code": 1, "stderr_tail": "out of memory"}
    done = report["workloads"]["fake"]
    assert done["unfinished"] and done["seeds"] == [100, 101, 102]
    one_run = {"setup_s": 1.0, "work_s": 1.0, "peak_rss_mb": 1.0}
    assert done["runs"] == {"parent": [one_run], "change": [one_run]}
