from fractions import Fraction

import pytest

from anchor_moments import identities
from anchor_moments.identities import SUITES, run_suite, suite_names
from anchor_moments.special_functions import HalfIntValue, gamma_half_int


def test_suite_names_cover_cli_contract():
    assert suite_names() == [
        "all", "stirling", "eulerian", "beta", "gould", "finite-diff", "technical2b",
    ]


@pytest.mark.parametrize("name", ["stirling", "eulerian", "gould", "finite-diff", "technical2b"])
def test_each_suite_passes(name):
    results = run_suite(name)
    assert results, f"suite {name} is empty"
    for r in results:
        assert r.passed, f"{r.name}: residual={r.residual} {r.detail}"


def test_beta_suite_passes():
    for r in run_suite("beta"):
        assert r.passed, f"{r.name}: residual={r.residual}"
        assert r.residual <= 1e-12


def test_all_suite_is_union():
    all_names = [r.name for r in run_suite("all")]
    assert all_names == [r.name for suite in SUITES for r in run_suite(suite)]
    assert len(set(all_names)) == len(all_names)


def test_all_suite_rows_in_order():
    assert [r.name for r in run_suite("all")] == [
        "rising-factorial-power-expansion", "falling-factorial-power-expansion",
        "power-falling-factorial-expansion", "power-basis-round-trip",
        "telescoping-product-sum", "power-sum-polynomial-degree", "factorial-two-sided-bounds",
        "eulerian-row-sum", "subset-near-diagonal-expansion", "cycle-near-diagonal-expansion",
        "regularized-beta-in-unit-range", "incomplete-beta-step-down",
        "incomplete-beta-complement", "beta-binomial-reciprocal",
        "float-beta-matches-exact",
        "alternating-odd-reciprocal-sum",
        "difference-annihilates-low-degree", "difference-top-degree-factorial",
        *(f"diagonal-beta-identity[a={a}]" for a in (1, 3, 5, 7)),
    ]
    counts = {"stirling": 7, "eulerian": 3, "beta": 5, "gould": 1, "finite-diff": 2,
              "technical2b": 4}
    assert {name: len(run_suite(name)) for name in counts} == counts


def test_exact_check_reports_its_failing_cases(monkeypatch):
    stirling_cycle = identities.stirling_cycle

    def off_by_one(n, k):
        return stirling_cycle(n, k) + ((n, k) == (5, 2))  # one cell off by one

    monkeypatch.setattr(identities, "stirling_cycle", off_by_one)
    result = identities.check_rising_to_power()
    failing = int(result.detail.split()[0])
    assert (result.name, result.passed, result.residual) == (
        "rising-factorial-power-expansion", False, 1.0)
    assert failing > 0 and result.detail == f"{failing} failing cases"


def test_beta_rows_catch_a_binomial_tail_off_by_one(monkeypatch):
    beta_tail = identities._beta_tail

    def off_by_one(p, q, c, d):
        return beta_tail(p, q, c, d) + ((p, q, c, d) == (1, 7, 5, 3))  # z = 1/7, c = 5, d = 3

    monkeypatch.setattr(identities, "_beta_tail", off_by_one)
    # the step-down row reads T(z; 5, 3) at (c, d) = (5, 3) and, one step down, at (6, 3); the
    # complement row only at (5, 3), since 6/7 is not on the grid
    for check, row, failing in ((identities.check_step_down_recurrence,
                                 "incomplete-beta-step-down", 2),
                                (identities.check_complement_symmetry,
                                 "incomplete-beta-complement", 1)):
        assert check() == (row, False, 1.0, f"{failing} failing cases")


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_alternating_reciprocal_hand_value_third_order():
    # cubic case by hand: 1 - 1/3 = 2/3 on the left; the right side is
    # sqrt(pi) 1! / (2 Gamma(5/2)) = 1/(2 * 3/4) = 2/3 as well
    lhs = Fraction(1) - Fraction(1, 3)
    rhs = HalfIntValue(Fraction(1), 0, 1) / (2 * gamma_half_int(5))
    assert lhs == Fraction(2, 3)
    assert rhs == HalfIntValue(Fraction(2, 3))


def test_results_are_deterministic():
    first = run_suite("beta")
    second = run_suite("beta")
    assert first == second
