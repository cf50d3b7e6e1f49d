import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from anchor_moments import IdentityCheckResult, cli, identities
from anchor_moments.cli import _frac, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exact -------------------------------------------------------------------


def test_exact_total_json(capsys):
    code, out, _ = run_cli(capsys, "exact", "--n", "2", "--a", "1", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "exact"
    assert payload["rows"] == [{"total": "19/48", "total_approx": repr(19 / 48)}]
    assert payload["metadata"] == {"version": "0.1.0"}


def test_frac_prints_past_the_int_digit_limit():
    # 3**9100 has 4342 digits, past Python's default 4300-digit str(int) limit
    assert _frac(Fraction(1, 3**9100)) == "1/" + str(3**9100)


def test_exact_small_cubic(capsys):
    code, out, _ = run_cli(capsys, "exact", "--n", "1", "--a", "3", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["rows"][0]["total"] == "1/32"


def test_exact_per_sensor_table(capsys):
    code, out, _ = run_cli(capsys, "exact", "--n", "2", "--a", "1",
                           "--per-sensor", "--format", "csv", "--no-timestamp")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["i"] for r in rows] == ["1", "2", "total"]
    assert rows[0]["t"] == "1/4" and rows[1]["t"] == "3/4"
    assert rows[0]["e_total"] == "19/96"
    assert rows[2]["e_total"] == "19/48"


def test_exact_per_sensor_formats_each_shared_total_once(capsys, monkeypatch):
    # a mirrored sensor shares its e_total Fraction with its mirror image
    formatted = []

    def recording_frac(x, *rest):
        formatted.append(x)  # keeps x alive, so ids stay distinct
        return _frac(x, *rest)

    monkeypatch.setattr(cli, "_frac", recording_frac)
    code, out, _ = run_cli(capsys, "exact", "--n", "9", "--a", "3",
                           "--per-sensor", "--format", "csv", "--no-timestamp")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["e_total"] for r in rows[:4]] == [r["e_total"] for r in rows[8:4:-1]]
    assert len({id(x) for x in formatted}) == len(formatted)


def test_exact_per_sensor_formats_even_order_signed_part_once(capsys, monkeypatch):
    # for even a, e_signed_part is the same Fraction as e_total
    formatted = []

    def recording_frac(x, *rest):
        formatted.append(x)
        return _frac(x, *rest)

    monkeypatch.setattr(cli, "_frac", recording_frac)
    code, out, _ = run_cli(capsys, "exact", "--n", "10", "--a", "2",
                           "--per-sensor", "--format", "csv", "--no-timestamp")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["e_signed_part"] == r["e_total"] for r in rows[:-1])
    assert len({id(x) for x in formatted}) == len(formatted)


def test_exact_per_sensor_converts_each_denominator_once(capsys, monkeypatch):
    # the fields share few denominators, and each is converted to text once
    passed = []

    def recording_frac(x, denominator_text=None):
        if denominator_text is not None:
            passed.append((x.denominator, denominator_text))  # keeps the text alive: ids differ
        return _frac(x, denominator_text)

    monkeypatch.setattr(cli, "_frac", recording_frac)
    code, out, _ = run_cli(capsys, "exact", "--n", "40", "--a", "3", "--per-sensor",
                           "--no-timestamp")
    assert code == 0
    fields = {Fraction(r[k]) for r in json.loads(out)["rows"][:-1]
              for k in ("e_total", "e_signed_part", "e_folded_part")}
    assert {q for q, _ in passed} == {x.denominator for x in fields}
    assert all(text == str(q) for q, text in passed)
    assert len({id(text) for _, text in passed}) == len({q for q, _ in passed}) < len(fields)


def test_exact_invalid_n_exits_2(capsys):
    code, _, _ = run_cli(capsys, "exact", "--n", "0", "--a", "1")
    assert code == 2


def test_exact_non_integer_n_exits_2_with_the_positive_integer_message(capsys):
    code, out, err = run_cli(capsys, "exact", "--n", "abc", "--a", "1")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith("argument --n: expected a positive integer, got abc")


def test_exact_missing_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, "exact", "--a", "1")
    assert code == 2


def test_exact_size_guard_exits_3(capsys):
    code, _, err = run_cli(capsys, "exact", "--n", "2001", "--a", "1")
    assert code == 3
    assert "guard" in err


def test_exact_per_sensor_size_guard_exits_3_for_even_orders(capsys):
    code, _, err = run_cli(capsys, "exact", "--n", "2001", "--a", "2", "--per-sensor")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize("argv,message", [
    (("exact", "--n", "2001", "--a", "1"),
     "exact path guarded at n <= 2000 (got n=2001); use total_moment_float for larger n"),
    (("lemma", "--id", "2", "--a", "1", "--n", "2001"),
     "tail-correction sum is exact-path only (n <= 2000, got 2001)"),
    (("asymptotic", "--theorem", "2", "--a", "15", "--grid", "100,20001"),
     "float path supports n <= 20000 for odd a >= 15"),
    (("lemma", "--id", "4", "--c", "0", "--n", "100000000"), "n must lie in [1, 10^7]"),
])
def test_every_size_limit_exits_3(capsys, argv, message):
    # the two exact limits and the two float limits, each with its own message
    assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("asymptotic", "--theorem", "1", "--a", "400", "--grid", "100,1000"),  # C(a) overflows
    ("asymptotic", "--theorem", "2", "--a", "219", "--grid", "100,1000"),  # n^(1-a/2) is 0
    ("asymptotic", "--theorem", "2", "--a", "215", "--grid", "100,1000"),  # it is subnormal
    ("asymptotic", "--theorem", "2", "--a", "127", "--grid", "100,100000"),
    ("lemma", "--id", "1", "--a", "1001", "--n", "10"),  # n^((a-1)/2) overflows
    ("lemma", "--id", "2", "--a", "1001", "--n", "10"),
    ("lemma", "--id", "4", "--c", "1e308", "--n", "3"),  # t_i^(c+1), and the sum, are 0
])
def test_large_orders_past_the_float_range_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_lemma_4_below_one_sensor_stays_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "lemma", "--id", "4", "--c", "0", "--grid", "0,10")
    assert (code, out, err) == (2, "", "error: n must lie in [1, 10^7]\n")


def test_exact_even_totals_pass_the_size_guard(capsys):
    code, out, _ = run_cli(capsys, "exact", "--n", "2001", "--a", "2", "--no-timestamp")
    assert code == 0
    assert Fraction(json.loads(out)["rows"][0]["total"]) == Fraction(1, 6) - Fraction(1, 12 * 2001)
    code, out, _ = run_cli(capsys, "exact", "--n", "1000000000", "--a", "4", "--no-timestamp")
    assert code == 0
    # C(4) n^-1 = n^-1 / 10, with a relative correction of order 1/n
    assert float(json.loads(out)["rows"][0]["total_approx"]) == pytest.approx(1e-10, rel=1e-8)


# --- simulate -----------------------------------------------------------------


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--n", "2", "--a", "1", "--trials", "20000",
            "--seed", "7", "--no-timestamp")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_reports_exact_reference(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--a", "1",
                           "--trials", "50000", "--seed", "3", "--no-timestamp")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["exact"] == "19/48"
    assert abs(float(row["z_score"])) < 6.0


def test_simulate_missing_n_exits_2(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--a", "1")
    assert code == 2


def test_simulate_large_n_scale_without_exact_reference(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "10000", "--a", "1",
                           "--trials", "1000", "--seed", "1", "--no-timestamp")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert "exact" not in row  # beyond the exact guard
    assert 25.0 < float(row["mean"]) < 38.0  # ~0.3133 * sqrt(10^4)


def test_simulate_worker_flag_does_not_change_payload(capsys):
    base = ("simulate", "--n", "3", "--a", "2", "--trials", "9000",
            "--seed", "5", "--no-timestamp")
    _, out1, _ = run_cli(capsys, *base, "--workers", "1")
    _, out2, _ = run_cli(capsys, *base, "--workers", "2")
    row1 = json.loads(out1)["rows"]
    row2 = json.loads(out2)["rows"]
    assert row1 == row2


# --- asymptotic ----------------------------------------------------------------


def test_asymptotic_quadratic(capsys):
    code, out, _ = run_cli(capsys, "asymptotic", "--theorem", "1", "--a", "2",
                           "--grid", "100,1000", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert [r["n"] for r in rows] == ["100", "1000"]
    assert float(rows[-1]["normalized"]) == pytest.approx(1 / 6, abs=1e-4)
    assert float(rows[0]["constant"]) == pytest.approx(1 / 6, rel=1e-12)


def test_asymptotic_linear_constant(capsys):
    code, out, _ = run_cli(capsys, "asymptotic", "--theorem", "2", "--a", "1",
                           "--grid", "100,1000,10000", "--no-timestamp")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert float(rows[-1]["normalized"]) == pytest.approx(0.3133285, abs=1e-4)


def test_asymptotic_unsorted_grid_exits_2(capsys):
    code, _, _ = run_cli(capsys, "asymptotic", "--theorem", "2", "--a", "1",
                         "--grid", "1000,100")
    assert code == 2


def test_asymptotic_parity_mismatch_exits_2(capsys):
    code, _, _ = run_cli(capsys, "asymptotic", "--theorem", "1", "--a", "1",
                         "--grid", "100,1000")
    assert code == 2


# --- lemma ------------------------------------------------------------------------


def test_lemma_one_grid(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--id", "1", "--a", "3",
                           "--grid", "10,100,1000", "--no-timestamp")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    normalized = [float(r["normalized"]) for r in rows]
    assert max(normalized) <= 10 * max(normalized[-1], 1e-30)


def test_lemma_two_single_value(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--id", "2", "--a", "1", "--n", "50",
                           "--no-timestamp")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    assert "/" in rows[0]["value"]


def test_lemma_four_normalization(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--id", "4", "--c", "0",
                           "--grid", "1000,10000,100000", "--no-timestamp")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert float(rows[-1]["normalized"]) == pytest.approx(0.3133285, abs=0.001)


def test_lemma_flag_validation(capsys):
    assert run_cli(capsys, "lemma", "--id", "1", "--n", "10")[0] == 2  # missing --a
    assert run_cli(capsys, "lemma", "--id", "4", "--n", "10")[0] == 2  # missing --c
    assert run_cli(capsys, "lemma", "--id", "1", "--a", "3", "--c", "1", "--n", "5")[0] == 2
    assert run_cli(capsys, "lemma", "--id", "3", "--a", "3", "--n", "5")[0] == 2
    assert run_cli(capsys, "lemma", "--id", "1", "--a", "3")[0] == 2  # no --n/--grid


def test_lemma_four_non_finite_c_exits_2(capsys):
    # NaN fails every comparison, so a bare c < 0 check let it through
    for c in ("nan", "inf"):
        code, out, err = run_cli(capsys, "lemma", "--id", "4", "--c", c, "--n", "10")
        assert code == 2 and out == "" and "c must lie in" in err


# --- identities ---------------------------------------------------------------------


def test_identities_gould_suite(capsys):
    code, out, _ = run_cli(capsys, "identities", "--suite", "gould", "--no-timestamp")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["passed"] == "true" for r in rows)


def test_identities_technical2b_suite(capsys):
    code, out, _ = run_cli(capsys, "identities", "--suite", "technical2b",
                           "--no-timestamp")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    assert all(r["passed"] == "true" and float(r["residual"]) <= 1e-12 for r in rows)


def test_identities_failure_exits_1_and_prints_the_whole_table(capsys, monkeypatch):
    def failing_check():
        return IdentityCheckResult(name="planted-failure", passed=False, residual=1.0,
                                   detail="planted")

    checks = list(identities.SUITES["gould"])
    checks[0] = failing_check
    monkeypatch.setitem(identities.SUITES, "gould", checks)
    code, out, _ = run_cli(capsys, "identities", "--suite", "gould", "--no-timestamp")
    assert code == 1
    payload = json.loads(out)
    assert payload["parameters"]["checks"] == str(len(checks))
    assert payload["parameters"]["failures"] == "1"
    rows = payload["rows"]
    assert len(rows) == len(checks)
    assert rows[0] == {"name": "planted-failure", "passed": "false", "residual": "1.0",
                       "detail": "planted"}
    assert all(r["passed"] == "true" for r in rows[1:])

    code, out, _ = run_cli(capsys, "identities", "--suite", "gould", "--format", "csv",
                           "--no-timestamp")
    assert code == 1
    csv_rows = list(csv.DictReader(io.StringIO(out)))
    assert [dict(r) for r in csv_rows] == rows


def test_identities_bad_suite_exits_2(capsys):
    code, _, _ = run_cli(capsys, "identities", "--suite", "bogus")
    assert code == 2


# --- output format invariants ----------------------------------------------------------


@pytest.mark.parametrize("argv, header", [
    (("exact", "--n", "2", "--a", "1"), "total,total_approx"),
    (("exact", "--n", "2", "--a", "1", "--per-sensor"),
     "i,t,e_total,e_signed_part,e_folded_part,e_total_approx"),
    (("simulate", "--n", "2000", "--a", "2", "--trials", "100"),
     "mean,std_error,ci_low,ci_high,trials,seed,exact,exact_approx,z_score"),
    (("simulate", "--n", "2001", "--a", "2", "--trials", "100"),
     "mean,std_error,ci_low,ci_high,trials,seed,exact,exact_approx,z_score"),
    (("asymptotic", "--theorem", "1", "--a", "2", "--grid", "100,1000"),
     "n,measured,normalized,constant,fitted_exponent"),
    (("lemma", "--id", "1", "--a", "3", "--n", "10"), "n,value,value_approx,normalized"),
    (("lemma", "--id", "4", "--c", "0", "--n", "100"), "n,value,normalized"),
    (("identities", "--suite", "technical2b"), "name,passed,residual,detail"),
    (("simulate", "--n", "2001", "--a", "1", "--trials", "100"),
     "mean,std_error,ci_low,ci_high,trials,seed"),
])
def test_csv_header_line(capsys, argv, header):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv", "--no-timestamp")
    assert code == 0
    assert out.splitlines()[0] == header


def test_csv_json_payloads_match(capsys):
    base = ("exact", "--n", "3", "--a", "2", "--per-sensor", "--no-timestamp")
    _, out_json, _ = run_cli(capsys, *base, "--format", "json")
    _, out_csv, _ = run_cli(capsys, *base, "--format", "csv")
    json_rows = json.loads(out_json)["rows"]
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert [dict(r) for r in csv_rows] == json_rows


def test_timestamp_present_unless_suppressed(capsys):
    _, out, _ = run_cli(capsys, "exact", "--n", "1", "--a", "1")
    assert "timestamp" in json.loads(out)["metadata"]
    _, out, _ = run_cli(capsys, "exact", "--n", "1", "--a", "1", "--no-timestamp")
    assert "timestamp" not in json.loads(out)["metadata"]


def test_byte_identical_output_modulo_timestamp(capsys):
    args = ("identities", "--suite", "beta", "--format", "csv", "--no-timestamp")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# --- imports on first use ----------------------------------------------------

_MODULES_AFTER_COMMANDS = """
import contextlib, io, json, sys
from anchor_moments.cli import build_parser, main
from anchor_moments.identities import suite_names

def loaded(*argv):
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--no-timestamp"]) == 0, argv
    return {m: m in sys.modules
            for m in ("numpy", "scipy", "concurrent.futures.process", "dataclasses", "inspect")}

build_parser()
print(json.dumps({
    "numpy_free": [
        loaded(),
        loaded("exact", "--n", "7", "--a", "3"),
        loaded("exact", "--n", "7", "--a", "3", "--per-sensor"),
        loaded("exact", "--n", "5000", "--a", "2"),
        loaded("lemma", "--id", "1", "--a", "3", "--grid", "10,100"),
        loaded("lemma", "--id", "2", "--a", "1", "--n", "50"),
        *(loaded("identities", "--suite", s) for s in suite_names() if s not in ("beta", "all")),
        loaded("asymptotic", "--theorem", "1", "--a", "2", "--grid", "100,1000"),
    ],
    "single_worker": [
        loaded("simulate", "--n", "7", "--a", "1", "--trials", "5000", "--workers", "1"),
        loaded("lemma", "--id", "4", "--c", "0", "--grid", "1000,10000"),
    ],
    "two_workers": loaded("simulate", "--n", "7", "--a", "1", "--trials", "5000", "--workers", "2"),
    "odd_float": loaded("asymptotic", "--theorem", "2", "--a", "3", "--grid", "100,1000"),
    "float_beta": [loaded("identities", "--suite", s) for s in ("beta", "all")],
}))
"""

_MODULES_AT_START_UP = """
import contextlib, io, json, sys
from anchor_moments.cli import build_parser, main

def loaded():
    package = ("moments", "asymptotics", "identities", "special_functions", "combinatorics",
               "_expansion")
    names = [*(f"anchor_moments.{m}" for m in package), "fractions", "decimal", "dataclasses",
             "inspect"]
    return [m for m in names if m in sys.modules]

build_parser()
start_up = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["exact", "--n", "7", "--a", "3"],
                 ["exact", "--n", "7", "--a", "3", "--per-sensor"],
                 ["exact", "--n", "5000", "--a", "2", "--format", "csv"]):
        assert main([*argv, "--no-timestamp"]) == 0, argv
print(json.dumps({"start_up": start_up, "exact": loaded()}))
"""

_STAR_IMPORT = """
import json, sys
import anchor_moments
numpy_on_import = "numpy" in sys.modules
names = {}
exec("from anchor_moments import *", names)
print(json.dumps([numpy_on_import, sorted(names)]))
"""

# what `from anchor_moments import *` bound before the package had an __all__, less
# incomplete_beta_step_down and incomplete_beta_regularized_exact, since removed
_PUBLIC_NAMES = {
    "AsymptoticReport", "CoefficientSet", "EXACT_N_GUARD", "FloatMomentBreakdown", "HalfIntValue",
    "IdentityCheckResult", "MomentBreakdown", "MomentQuery", "SensorMoment", "SimulationConfig",
    "SimulationResult", "SizeGuardError", "abel_anchor_sum", "anchor", "asymptotics",
    "beta_exact", "binomial", "combinatorics", "diagonal_coefficients", "estimate",
    "eulerian_second_order", "falling_factorial", "finite_difference", "gamma_half_int",
    "leading_constant",
    "moments", "per_sensor_moment_exact", "remainder_diagnostic", "rising_factorial",
    "simulation", "special_functions", "stirling_bounds", "stirling_cycle", "stirling_subset",
    "total_moment_exact", "total_moment_float", "vanishing_signed_sum",
    "vanishing_tail_correction_sum", "verify_diagonal_beta_identity",
}


def _fresh_interpreter(script: str):
    # the test session itself has long since imported numpy, scipy and the pool
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def modules_after_commands():
    return _fresh_interpreter(_MODULES_AFTER_COMMANDS)


def test_scipy_and_the_process_pool_load_only_when_used(modules_after_commands):
    seen = modules_after_commands
    assert all(not s["concurrent.futures.process"]
               for s in seen["numpy_free"] + seen["single_worker"])
    # no command loads scipy: the float route sums its own odd-order binomial tail
    every = seen["numpy_free"] + seen["single_worker"] + seen["float_beta"]
    assert not any(s["scipy"] for s in every + [seen["two_workers"], seen["odd_float"]])
    assert all(s["numpy"] for s in seen["float_beta"] + [seen["odd_float"]])


def test_numpy_loads_only_when_used(modules_after_commands):
    # importing the CLI and building its parser, exact totals (even ones past the size guard)
    # and tables, lemmas 1 and 2, every identity suite but the float-Beta one and theorem 1's
    # even-order fit run in exact arithmetic
    seen = modules_after_commands
    assert len(seen["numpy_free"]) >= 10
    assert not any(s["numpy"] for s in seen["numpy_free"])
    assert seen["single_worker"][0]["numpy"]  # the Monte Carlo draws


_EXPANSION_TIMES = """
import json, sys, time
from anchor_moments.moments import MomentQuery, total_moment_float
slowest = 0.0
for a in range(1, 14, 2):
    for n in (10**5, 10**9, 10**12):
        q = MomentQuery(n, a)
        total_moment_float(q)  # warm
        best = float("inf")
        for _ in range(20):
            start = time.perf_counter()
            total_moment_float(q)
            best = min(best, time.perf_counter() - start)
        slowest = max(slowest, best)
print(json.dumps(["numpy" in sys.modules, slowest]))
"""


def test_odd_float_totals_past_n0_load_no_numpy_and_take_under_a_millisecond():
    # odd a <= 13 at 10^5, 10^9 and 10^12 take the expansion: O(a) integer steps
    numpy_loaded, slowest = _fresh_interpreter(_EXPANSION_TIMES)
    assert not numpy_loaded
    assert slowest < 1e-3


def test_no_command_loads_dataclasses(modules_after_commands):
    # the package's records are namedtuple subclasses: dataclasses would pull in inspect, ast,
    # dis, tokenize and copy, most of start-up.  numpy imports inspect itself, so inspect is
    # pinned only where no numpy loads
    seen = modules_after_commands
    every = [*seen["numpy_free"], *seen["single_worker"], seen["two_workers"], seen["odd_float"],
             *seen["float_beta"]]
    assert not any(s["dataclasses"] for s in every)
    assert not any(s["inspect"] for s in seen["numpy_free"])


def test_star_import_keeps_the_public_names_and_loads_no_numpy():
    numpy_on_import, names = _fresh_interpreter(_STAR_IMPORT)
    assert not numpy_on_import
    assert _PUBLIC_NAMES <= set(names)


def test_start_up_loads_only_the_cli_and_simulation():
    # importing the CLI and building its parser loads no module that a command runs but
    # simulation, and neither dataclasses nor inspect; exact then loads the exact route, and neither asymptotics nor an identity
    seen = _fresh_interpreter(_MODULES_AT_START_UP)
    assert seen["start_up"] == []
    assert "anchor_moments.moments" in seen["exact"]
    assert "anchor_moments.asymptotics" not in seen["exact"]
    assert "anchor_moments.identities" not in seen["exact"]


def test_suite_choices_are_the_identity_suites(capsys):
    # the parser spells the suite names out; they must stay identities.suite_names()
    for name in identities.suite_names():
        assert cli.build_parser().parse_args(["identities", "--suite", name]).suite == name
    code, out, _ = run_cli(capsys, "identities", "--help")
    assert code == 0
    assert "{" + ",".join(identities.suite_names()) + "}" in out
