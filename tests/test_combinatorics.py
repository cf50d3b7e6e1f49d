import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchor_moments.combinatorics import (
    binomial,
    eulerian_second_order,
    falling_factorial,
    finite_difference,
    rising_factorial,
    stirling_cycle,
    stirling_subset,
)

# --- independent oracles -----------------------------------------------------


def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        tri.append(row)
    return tri


def cycle_table(rows):
    tab = [[1]]
    for n in range(1, rows + 1):
        prev = tab[-1]
        row = []
        for k in range(n + 1):
            v = (prev[k - 1] if 1 <= k <= n else 0) + (n - 1) * (prev[k] if k < n else 0)
            row.append(v)
        tab.append(row)
    return tab


def subset_table(rows):
    tab = [[1]]
    for n in range(1, rows + 1):
        prev = tab[-1]
        row = []
        for k in range(n + 1):
            v = (prev[k - 1] if 1 <= k <= n else 0) + k * (prev[k] if k < n else 0)
            row.append(v)
        tab.append(row)
    return tab


# --- binomial ----------------------------------------------------------------


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(5, 7) == 0
    assert binomial(30, 15) == 155117520  # frozen from the Pascal oracle below


def test_binomial_against_pascal_oracle():
    tri = pascal_triangle(30)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]
    assert binomial(30, 15) == tri[30][15]


def test_binomial_out_of_range_is_zero():
    assert binomial(3, -1) == 0
    assert binomial(0, 1) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(0, 60), st.integers(-5, 65))
def test_binomial_pascal_recurrence(n, k):
    assert binomial(n + 1, k) == binomial(n, k) + binomial(n, k - 1)


# --- rising / falling factorials ----------------------------------------------


def test_rising_factorial_examples():
    assert rising_factorial(3, 0) == 1
    assert rising_factorial(3, 3) == 60
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)


def test_falling_factorial_examples():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(2, 4) == 0
    assert falling_factorial(Fraction(7, 2), 3) == Fraction(105, 8)


@given(st.fractions(min_value=-8, max_value=8, max_denominator=16), st.integers(0, 8))
def test_rising_is_reflected_falling(x, k):
    assert rising_factorial(x, k) == falling_factorial(x + k - 1, k)


@given(st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=40),
                st.integers(-9, 9)), st.integers(0, 12))
def test_factorials_equal_the_plain_loop(x, k):
    # a Fraction p/q takes one integer product over q^k; the values and types are the loop's
    rising = falling = 1
    for u in range(k):
        rising *= x + u
        falling *= x - u
    for got, want in ((rising_factorial(x, k), rising), (falling_factorial(x, k), falling)):
        assert got == want
        assert type(got) is type(want)


@given(st.integers(1, 40), st.integers(0, 10))
def test_rising_factorial_integer_matches_factorial_ratio(n, k):
    assert rising_factorial(n, k) == math.factorial(n + k - 1) // math.factorial(n - 1)


# --- triangles -----------------------------------------------------------------


def test_stirling_cycle_examples():
    assert stirling_cycle(3, 2) == 3
    assert stirling_cycle(4, 3) == 6  # frozen from the recurrence oracle
    assert stirling_cycle(0, 0) == 1


def test_stirling_subset_examples():
    assert stirling_subset(3, 2) == 3
    assert stirling_subset(4, 2) == 7  # frozen from the recurrence oracle
    assert stirling_subset(5, 0) == 0


def test_triangles_match_recurrence_oracles():
    cyc, sub = cycle_table(20), subset_table(20)
    for n in range(21):
        for k in range(n + 1):
            assert stirling_cycle(n, k) == cyc[n][k]
            assert stirling_subset(n, k) == sub[n][k]


def test_eulerian_examples():
    assert eulerian_second_order(1, 0) == 1
    assert eulerian_second_order(2, 1) == 2  # (k+1)*0row + (2n-1-k)*1 by hand
    row3 = [eulerian_second_order(3, k) for k in range(4)]
    assert row3 == [1, 8, 6, 0]
    assert sum(row3) == 15  # row sums are (2m)!/(m! 2^m)


def test_eulerian_row_sums():
    for m in range(16):
        total = sum(eulerian_second_order(m, k) for k in range(m + 1))
        assert total == math.factorial(2 * m) // (math.factorial(m) * 2**m)


def test_triangle_zero_outside():
    for fn in (stirling_cycle, stirling_subset, eulerian_second_order):
        assert fn(5, -1) == 0
        assert fn(5, 6) == 0
        with pytest.raises(ValueError):
            fn(-2, 0)


# --- finite difference ----------------------------------------------------------


def test_finite_difference_examples():
    assert finite_difference(3, lambda j: Fraction(j**2)) == 0
    assert finite_difference(3, lambda j: Fraction(j**3)) == -6  # 0 - 3 + 24 - 27
    assert finite_difference(1, lambda j: Fraction(1)) == 0


@given(st.integers(1, 12))
def test_finite_difference_annihilates_lower_powers(a):
    for m in range(a):
        assert finite_difference(a, lambda j, m=m: Fraction(j**m)) == 0


@given(st.integers(1, 10))
def test_finite_difference_top_power(a):
    assert finite_difference(a, lambda j: Fraction(j**a)) == (-1) ** a * math.factorial(a)


@settings(max_examples=40)
@given(
    st.integers(2, 8),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8), min_size=1, max_size=7),
)
def test_finite_difference_annihilates_random_low_degree_polynomials(a, coeffs):
    coeffs = coeffs[: a]  # degree <= a-1

    def poly(j):
        return sum(c * j**p for p, c in enumerate(coeffs))

    assert finite_difference(a, poly) == 0


# --- rising-power expansion ------------------------------------------------------


def _rising_coefficients(m):
    """c_l with x(x+1)...(x+m-1) = sum c_l x^l, l = 0..m."""
    return [stirling_cycle(m, l) for l in range(m + 1)]


def test_expand_rising_examples():
    assert _rising_coefficients(0) == [1]
    assert _rising_coefficients(2) == [0, 1, 1]  # x(x+1) = x + x^2
    assert _rising_coefficients(3) == [0, 2, 3, 1]  # x(x+1)(x+2)


@given(st.fractions(min_value=-6, max_value=6, max_denominator=12), st.integers(0, 9))
def test_expand_rising_consistent_with_direct_product(x, m):
    coeffs = _rising_coefficients(m)
    assert sum(c * x**p for p, c in enumerate(coeffs)) == rising_factorial(x, m)
