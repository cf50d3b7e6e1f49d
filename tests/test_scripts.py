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


def test_expansion_envelope_prints_residuals_and_n0_per_order():
    lines = run_script("expansion_envelope.py", "--orders", "1,3", "--grid", "100,400")
    assert [line.split(":")[0] for line in lines if line.startswith("a = ")] == ["a = 1", "a = 3"]
    rows = [line.split() for line in lines if line.startswith("  ") and line.split()[0].isdigit()]
    assert [row[0] for row in rows] == ["100", "400"] * 2
    assert all(0 < abs(float(row[1])) < 1e-9 for row in rows)  # the residual, small
    fits = [line for line in lines if "fitted coefficient at n = 400" in line]
    assert len(fits) == 2 and all("implies N0 = " in line for line in fits)
    assert sum(line.endswith("from n = 400 on: yes") for line in lines) == 2


def test_mc_vs_exact_prints_one_row_per_pair():
    lines = run_script("mc_vs_exact.py", "--trials", "4096")
    assert lines[0].split() == ["n", "a", "exact", "mc", "mean", "std", "err", "z"]
    rows = [line.split() for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(2, 1), (5, 1), (10, 3), (50, 2), (200, 1),
                                                     (5000, 2)]
    assert all(len(r) == 6 for r in rows)


def test_startup_table_prints_one_row_per_command():
    lines = run_script("startup_table.py", str(ROOT / "src"), str(ROOT / "src"), "--runs", "1")
    assert lines[:2] == ["| command | parent | change | change faster in |", "|---|---|---|---|"]
    rows = [line.split(" | ") for line in lines[2:]]
    assert [row[0] for row in rows] == [
        "| `--help`", "| `exact --n 100 --a 3`", "| `simulate --n 50 --a 1 --trials 2000`",
        "| `asymptotic --theorem 2 --a 3 --grid 1000,100000`", "| `identities --suite all`"]
    assert all(row[1].endswith(" s") and row[2].endswith(" s") for row in rows)
    assert all(row[3] in ("0/1 |", "1/1 |") for row in rows)


_COMPARED = ("exact --n 2 --a 1 --format csv", "exact --n 0 --a 1", "--help")


def _compare_cli(parent, change):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_cli.py"),
                           str(parent), str(change), *_COMPARED],
                          capture_output=True, text=True, timeout=120)


def test_compare_cli_finds_a_tree_the_same_as_itself():
    proc = _compare_cli(ROOT / "src", ROOT / "src")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"same     {command}" for command in _COMPARED]


def test_compare_cli_names_the_commands_that_differ(tmp_path):
    fake = tmp_path / "anchor_moments"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("def main(argv):\n    print('something else')\n    return 0\n")
    proc = _compare_cli(ROOT / "src", tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        f"differs  {_COMPARED[0]}  (stdout)",
        f"differs  {_COMPARED[1]}  (stdout, stderr, exit code)",
        f"differs  {_COMPARED[2]}  (stdout)",
    ]


_FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if {fail} and seed == 101:
    sys.exit("out of memory")
s = seed - 100
metrics = {{m: {{"value": eval(expr)}} for m, expr in {exprs!r}.items()}}
print(json.dumps({{"metrics": metrics, "failed": 0, "attempted": 1}}))
"""
_SEED_OVER_100 = {m: "seed / 100" for m in ("setup_s", "work_s", "peak_rss_mb")}
_BOUNDS = {"setup_s": 0.25, "work_s": 0.24, "peak_rss_mb": 0.1}


def _bench_pairs(tmp_path, sides, *argv):
    """Run bench_pairs.py on fake trees; sides maps each side to (fail, metric expressions)."""
    trees = {}
    for side, (fail, exprs) in sides.items():
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            _FAKE_RUN.format(fail=fail, exprs=exprs))
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": m, "bound": b} for m, b in _BOUNDS.items()]}))
        trees[side] = tmp_path / side
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           "--parent", str(trees["parent"]), "--change", str(trees["change"]),
                           "--label", "fake", *argv],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    return proc, trees, json.loads((tmp_path / "BENCH_fake.json").read_text())


def test_bench_pairs_keeps_the_runs_before_a_failing_one(tmp_path):
    proc, trees, report = _bench_pairs(
        tmp_path, {"parent": (False, _SEED_OVER_100), "change": (True, _SEED_OVER_100)},
        "--workload", "fake:3:100")
    assert proc.returncode == 1
    # pair 1 (seed 101) runs the change first, and it fails
    assert report["failed_run"] == {"tree": str(trees["change"].resolve()), "workload": "fake",
                                    "seed": 101, "exit_code": 1, "stderr_tail": "out of memory"}
    done = report["workloads"]["fake"]
    assert done["unfinished"] and done["seeds"] == [100, 101, 102]
    one_run = {"setup_s": 1.0, "work_s": 1.0, "peak_rss_mb": 1.0}
    assert done["runs"] == {"parent": [one_run], "change": [one_run]}


def test_bench_pairs_gives_each_metric_a_verdict_and_judges_the_claim(tmp_path):
    # s = 0..9 over the pairs; the parent's quartile spread is 0.45 on a 1.45 median for
    # setup_s and work_s, wider than either bound
    parent = {"setup_s": "1 + 0.1 * s", "work_s": "1 + 0.1 * s", "peak_rss_mb": "100 + 0.1 * s"}
    change = {"setup_s": "0.5 + 0.01 * s", "work_s": "1.05 + 0.1 * s", "peak_rss_mb": "120"}
    for claim, met in (("setup_s", True), ("work_s", False)):
        proc, _, report = _bench_pairs(
            tmp_path / claim, {"parent": (False, parent), "change": (False, change)},
            "--workload", "fake:10:100", "--claim", f"fake:{claim}")
        assert proc.returncode == 0, proc.stderr
        done = report["workloads"]["fake"]
        verdicts = {m: (done[m]["bound"], done[m]["verdict"]) for m in _BOUNDS}
        # setup_s: every change run is below every parent run, so the wide spread still resolves
        assert verdicts == {"setup_s": (0.25, "within"), "work_s": (0.24, "unresolved"),
                            "peak_rss_mb": (0.1, "worse")}
        assert done["setup_s"]["relative_change"] == round(0.545 / 1.45 - 1, 4)
        assert done["peak_rss_mb"]["relative_change"] == round(120 / 100.45 - 1, 4)
        assert [m for m in _BOUNDS if "claim_met" in done[m]] == [claim]
        assert done[claim]["claim_met"] is met
