import functools
import math
import random
import sys
import tracemalloc
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from anchor_moments import _expansion, _float_route, moments
from anchor_moments._expansion import ENVELOPE, _horner, expansion_value, leading_constant
from anchor_moments._float_route import (
    anchor_sum,
    beta_density_at_anchor,
    exact_sum,
    odd_total,
)
from anchor_moments.moments import (
    _EXPANSION_N0,
    _FLOAT_N_GUARD,
    EXACT_N_GUARD,
    MomentQuery,
    SensorMoment,
    SizeGuardError,
    _Denominators,
    _exact_total,
    _moment_denominator,
    _scaled_left_moment,
    _tail_terms,
    anchor,
    per_sensor_moment_exact,
    signed_moment_total,
    total_moment_exact,
    total_moment_float,
)
from anchor_moments.special_functions import HalfIntValue, beta_exact, gamma_half_int

# --- independent oracles -------------------------------------------------------


def quadrature_total(n: int, a: int) -> float:
    """Adaptive quadrature of sum_i i C(n,i) int |t_i - x|^a x^(i-1)(1-x)^(n-i)."""
    total = 0.0
    for i in range(1, n + 1):
        t = (2 * i - 1) / (2 * n)
        pre = i * math.comb(n, i)

        def integrand(x, i=i, t=t):
            return abs(t - x) ** a * x ** (i - 1) * (1 - x) ** (n - i)

        val, err = integrate.quad(integrand, 0.0, 1.0, points=[t],
                                  epsabs=1e-14, epsrel=1e-13, limit=300)
        assert err < 1e-11
        total += pre * val
    return total


def ibeta_literal(z: Fraction, c: int, d: int) -> Fraction:
    """I(z; c, d) = 1/B(c,d) int_0^z x^(c-1)(1-x)^(d-1) dx, by literal termwise
    integration of the binomially expanded (1-x)^(d-1); z = p/q, each term over q^(c+d-1)."""
    p, q = z.numerator, z.denominator
    acc = Fraction(0)
    for m in range(d):
        acc += Fraction(math.comb(d - 1, m) * (-1) ** m * p ** (c + m) * q ** (d - 1 - m), c + m)
    return math.comb(c + d - 1, c) * c * acc / q ** (c + d - 1)


@functools.lru_cache(maxsize=None)
def direct_sensor_moment(q: MomentQuery, i: int) -> SensorMoment:
    """Per-sensor moment with one exact I(t_i; i+j, n-i+1) per j, no
    recurrence and no reflection; kept for the session, so that the tests that share a
    (q, i) compute it once."""
    n, a = q.n, q.a
    t = Fraction(2 * i - 1, 2 * n)
    prefactor = i * math.comb(n, i)
    signed = Fraction(0)
    folded = Fraction(0)
    for j in range(a + 1):
        bv = beta_exact(i + j, n - i + 1).rational
        signed += math.comb(a, j) * (-t) ** (a - j) * bv
        if q.odd:
            reg = ibeta_literal(t, i + j, n - i + 1)
            folded += 2 * math.comb(a, j) * (-1) ** j * t ** (a - j) * bv * reg
    signed *= prefactor
    folded *= prefactor
    return SensorMoment(i=i, t=t, e_total=signed + folded, e_signed_part=signed,
                        e_folded_part=folded)


def _times_linear(b: list[int], s: int, r: int) -> list[int]:
    """(s x + r) sum_m b[m] x^falling(m) in the same basis, by x x^falling(m) = x^falling(m+1)
    + m x^falling(m)."""
    return [s * hi + (s * m + r) * lo for m, (hi, lo) in enumerate(zip([0] + b, b + [0]))]


def signed_total_two_lists(n: int, a: int) -> Fraction:
    """sum_i E(t_i - X_i)^a as one polynomial in i, summed over i = 0..n and less its i = 0
    term: Horner's rule in the falling-factorial basis, R_(j+1) = -(a-j) 2n (x+j) R_j and
    V_(j+1) = (j+1)(n+j+1)(2x-1) V_j + R_(j+1) from V_0 = R_0 = 1, each step by
    _times_linear, keeping the n+1 coefficients that sum(i=0..n) i^falling(m) =
    (n+1)^falling(m+1) / (m+1) does not zero, over a! (2n)^a (n+1)^rising(a)."""
    poly, rising = [1], [1]
    for j in range(a):
        step, scale = -(a - j) * 2 * n, (j + 1) * (n + j + 1)
        rising = _times_linear(rising, step, step * j)[: n + 1]  # zip cuts poly to match
        poly = [u + v for u, v in zip(_times_linear(poly, 2 * scale, -scale), rising)]
    total, power = 0, n + 1
    for m, c in enumerate(poly):
        total += c * (power // (m + 1))
        power *= n - m
    return Fraction(total - poly[0], math.factorial(a) * _moment_denominator(n, a))


def variance_bias_total_quadratic(n: int) -> Fraction:
    """a=2 oracle: E(X_i - t_i)^2 = Var X_i + (E X_i - t_i)^2 with the known
    Beta(i, n-i+1) mean i/(n+1) and variance i(n-i+1)/((n+1)^2(n+2))."""
    total = Fraction(0)
    for i in range(1, n + 1):
        var = Fraction(i * (n - i + 1), (n + 1) ** 2 * (n + 2))
        bias = Fraction(i, n + 1) - Fraction(2 * i - 1, 2 * n)
        total += var + bias * bias
    return total


# --- anchors ---------------------------------------------------------------------


def test_anchor_examples():
    assert anchor(1, 2) == Fraction(1, 4)
    assert anchor(2, 2) == Fraction(3, 4)
    assert anchor(1, 1) == Fraction(1, 2)


def test_anchor_range_errors():
    with pytest.raises(ValueError):
        anchor(0, 3)
    with pytest.raises(ValueError):
        anchor(4, 3)


def test_anchors_are_interior():
    for n in (1, 2, 7, 30):
        for i in range(1, n + 1):
            assert 0 < anchor(i, n) < 1


# --- exact per-sensor moments ------------------------------------------------------


def test_single_sensor_first_moment():
    e = per_sensor_moment_exact(MomentQuery(1, 1), 1)
    assert e.e_total == Fraction(1, 4)  # E|U - 1/2|


def test_single_sensor_cubic_moment():
    e = per_sensor_moment_exact(MomentQuery(1, 3), 1)
    assert e.e_total == Fraction(1, 32)  # 2 int_0^(1/2) u^3 du


def test_two_sensor_first_moment():
    # symbolic integration on density 2(1-x) gives 19/96
    e = per_sensor_moment_exact(MomentQuery(2, 1), 1)
    assert e.e_total == Fraction(19, 96)


def test_split_components_example():
    # n=2, a=1, i=1: signed part int_0^1 (x - 1/4) 2(1-x) dx = 1/12
    e = per_sensor_moment_exact(MomentQuery(2, 1), 1)
    assert e.e_signed_part == Fraction(1, 12)
    assert e.e_folded_part == Fraction(11, 96)
    assert e.e_total == e.e_signed_part + e.e_folded_part


def test_even_order_has_no_folded_part():
    for i in (1, 3, 5):
        e = per_sensor_moment_exact(MomentQuery(5, 2), i)
        assert e.e_folded_part == 0
        assert e.e_total == e.e_signed_part


# --- exact totals --------------------------------------------------------------------


def test_total_examples():
    assert total_moment_exact(MomentQuery(2, 1)).total == Fraction(19, 48)
    assert total_moment_exact(MomentQuery(2, 2)).total == Fraction(1, 8)
    assert total_moment_exact(MomentQuery(1, 1)).total == Fraction(1, 4)


def test_total_matches_variance_bias_oracle():
    for n in (1, 2, 3, 7, 12, 25):
        assert total_moment_exact(MomentQuery(n, 2)).total == variance_bias_total_quadratic(n)


def test_total_matches_quadrature_oracle():
    for n in range(1, 7):
        for a in (1, 2, 3):
            exact = float(total_moment_exact(MomentQuery(n, a)).total)
            assert exact == pytest.approx(quadrature_total(n, a), abs=1e-12)


def test_breakdown_invariants():
    for n, a in ((6, 1), (6, 2), (9, 3), (7, 4)):
        bd = total_moment_exact(MomentQuery(n, a))
        assert bd.total == sum(e.e_total for e in bd.per_sensor)
        for e in bd.per_sensor:
            assert e.e_total == e.e_signed_part + e.e_folded_part
            assert e.e_folded_part >= 0
            assert 0 < e.e_total < 1


def test_symmetry_across_the_midpoint():
    # mirrors share one e_total Fraction, and for even a e_signed_part is e_total:
    # the CLI formats each shared value once
    for n, a in ((8, 1), (8, 2), (11, 3), (13, 5), (13, 4)):
        bd = total_moment_exact(MomentQuery(n, a))
        for i in range(1, n + 1):
            e = bd.per_sensor[i - 1]
            assert e.e_total is bd.per_sensor[n - i].e_total
            assert (e.e_signed_part is e.e_total) == (a % 2 == 0)


def test_exact_size_guard():
    with pytest.raises(SizeGuardError):
        total_moment_exact(MomentQuery(EXACT_N_GUARD + 1, 1))
    with pytest.raises(SizeGuardError):
        _exact_total(MomentQuery(EXACT_N_GUARD + 1, 1))
    # one sensor costs about n^2; it is the float route's oracle up to _FLOAT_N_GUARD
    for i in (1, 10_001, 20_001):
        with pytest.raises(SizeGuardError, match=r"^per-sensor path guarded at n <= 20000 "
                                                 r"\(got n=20001\)$"):
            per_sensor_moment_exact(MomentQuery(_FLOAT_N_GUARD + 1, 1), i)


def test_exact_total_equals_the_breakdown_total():
    for n in [*range(1, 42), 399, 400, 1000]:
        for a in (1, 3, 9):
            q = MomentQuery(n, a)
            assert _exact_total(q) == total_moment_exact(q).total, (n, a)


def test_odd_exact_total_builds_no_sensor_records(monkeypatch):
    want = {(n, a): total_moment_exact(MomentQuery(n, a)).total
            for n in (1, 2, 7, 40) for a in (1, 3)}

    def refuse(*args):
        raise AssertionError("the odd total built a SensorMoment")

    for name in ("SensorMoment", "per_sensor_moment_exact", "_mirror", "_sensor"):
        monkeypatch.setattr(moments, name, refuse)
    for (n, a), total in want.items():
        assert _exact_total(MomentQuery(n, a)) == total


# --- reduction by the denominators' known primes -------------------------------------


def test_fraction_keeps_its_two_slots():
    # moments._fraction builds a reduced Fraction by setting these two slots; a Python
    # whose Fraction stores more, or other names, fails here rather than printing a wrong p/q
    assert Fraction.__slots__ == ("_numerator", "_denominator")


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(1, 60), st.sampled_from([399, 400, 625, 1875, 2000])),
       a=st.integers(1, 13), data=st.data())
def test_reduction_by_known_primes_is_fractions_reduction(n, a, data):
    # numerators over the real denominators (2n)^k (n+1)^rising(a), k = a or n + a, with
    # a divisor of the denominator drawn in; a field of sensor i carries d^k, d = gcd(2i-1, n)
    q = MomentQuery(n, a)
    dens = _Denominators(q)
    k = data.draw(st.sampled_from([a, dens.power]))
    i = data.draw(st.integers(n // 2 + 1, n))
    den = _moment_denominator(n, a) * (2 * n) ** (k - a)
    m = n >> ((n & -n).bit_length() - 1)
    common = math.gcd(den, 2 ** data.draw(st.integers(0, 3 * k)) * m ** data.draw(
        st.integers(0, 2 * k)) * data.draw(st.integers(1, 2**70)))
    num = data.draw(st.integers(-(2**80), 2**80)) * common * math.gcd(2 * i - 1, n) ** k
    got, want = dens.reduce(num, i, k), Fraction(num, den)
    assert type(got) is Fraction
    assert got == want
    assert hash(got) == hash(want)
    # what repr prints; repr itself can pass Python's 4300-digit limit on str(int)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("a", range(2, 21, 2))
def test_signed_moment_total_matches_the_per_sensor_route(a):
    # for even a each sensor's signed part is its e_total, so the total is their sum
    for n in range(1, 401):
        q = MomentQuery(n, a)
        assert signed_moment_total(q) == total_moment_exact(q).total, n


_TWO_LIST_NS = (1, 2, 3, 5, 8, 13, 40, 2000, 10**6, 10**12)


def test_signed_moment_total_is_the_two_list_recurrence():
    # a > n takes the sum over sensors, a <= n the power sums; odd a gives 0
    for n in _TWO_LIST_NS:
        for a in range(1, 41):
            assert signed_moment_total(MomentQuery(n, a)) == signed_total_two_lists(n, a), (n, a)


def test_each_signed_total_form_holds_on_both_sides_of_n_equal_a():
    # signed_moment_total takes _sensor_sum_terms for n < a and _power_sum_terms otherwise;
    # each is called here on both sides, odd a (total 0) included
    for n in range(1, 31):
        for a in range(1, 41):
            want = signed_total_two_lists(n, a)
            for form in (moments._power_sum_terms, moments._sensor_sum_terms):
                num, den = form(n, a)
                assert den == _moment_denominator(n, a), (form.__name__, n, a)
                assert Fraction(num, den) == want, (form.__name__, n, a)


def _assert_float_is_the_rounded_two_list_total(n: int, a: int) -> None:
    want = float(signed_total_two_lists(n, a))
    if not sys.float_info.min <= want < math.inf:
        with pytest.raises(ValueError, match="outside the range of normal floats"):
            total_moment_float(MomentQuery(n, a))
    else:
        assert total_moment_float(MomentQuery(n, a)).total == want, (n, a)


def test_even_float_total_is_the_rounded_two_list_total():
    for n in _TWO_LIST_NS:
        for a in range(2, 41, 2):
            _assert_float_is_the_rounded_two_list_total(n, a)
    rng = random.Random(33)
    for _ in range(200):
        _assert_float_is_the_rounded_two_list_total(rng.randint(1, 10**12),
                                                    2 * rng.randint(1, 20))
    # no pair above is refused; these two round to a subnormal float and to 0.0
    for a in (58, 80):
        _assert_float_is_the_rounded_two_list_total(10**12, a)


def test_signed_moment_total_matches_the_integer_recurrence_at_large_n():
    # E(t_i - X_i)^a for every sensor from the Pearson recurrence, summed as integers
    for n in (10**4, 10**5):
        for a in (2, 4, 8):
            numerators = sum(_scaled_left_moment(n, a, i, 0, 1) for i in range(1, n + 1))
            want = Fraction(numerators, _moment_denominator(n, a))
            assert signed_moment_total(MomentQuery(n, a)) == want, (n, a)


def test_query_validation():
    with pytest.raises(ValueError):
        MomentQuery(0, 1)
    with pytest.raises(ValueError):
        MomentQuery(1, 0)


# --- recurrence and reflection against the direct per-j oracle ---------------------------


def test_total_breakdown_equals_direct_oracle():
    # every field of every sensor, even and odd n; for odd n and odd a the
    # middle sensor mirrors onto itself and has no signed part
    for n in range(1, 41):
        for a in range(1, 10):
            q = MomentQuery(n, a)
            bd = total_moment_exact(q)
            assert bd.per_sensor == tuple(direct_sensor_moment(q, i) for i in range(1, n + 1))
            if n % 2 and q.odd:
                assert bd.per_sensor[n // 2].e_signed_part == 0


def test_folded_route_equals_direct_folded_part():
    # per_sensor_moment_exact on every sensor, including those below the middle,
    # which it mirrors from sensor n+1-i as the total does
    for n in range(1, 41):
        for a in (1, 2, 3, 5, 9):
            q = MomentQuery(n, a)
            for i in range(1, n + 1):
                assert per_sensor_moment_exact(q, i) == direct_sensor_moment(q, i)


def test_total_is_the_sum_of_its_sensors_past_the_oracle_sizes():
    # the total is summed over one common denominator and reduced once; check it
    # against plain Fraction addition where the direct oracle is too slow
    for n in (399, 400, 1000):
        for a in (1, 2, 9):
            bd = total_moment_exact(MomentQuery(n, a))
            total = Fraction(0)
            for e in bd.per_sensor:
                total += e.e_total
            assert bd.total == total
            for i in range(1, n + 1):
                assert bd.per_sensor[i - 1].e_total == bd.per_sensor[n - i].e_total


# --- float path -------------------------------------------------------------------------


def test_float_examples():
    assert total_moment_float(MomentQuery(2, 1)).total == pytest.approx(19 / 48, rel=1e-12)
    exact = float(total_moment_exact(MomentQuery(100, 2)).total)
    assert total_moment_float(MomentQuery(100, 2)).total == pytest.approx(exact, rel=1e-9)


def test_float_matches_exact_sampled_grid():
    # the full n <= 200, a <= 9 sweep runs in the acceptance suite
    for n in (1, 2, 7, 23, 61, 137, 200):
        for a in (1, 2, 3, 5, 8, 9):
            exact = float(total_moment_exact(MomentQuery(n, a)).total)
            fl = total_moment_float(MomentQuery(n, a)).total
            assert fl == pytest.approx(exact, rel=1e-9)


def _float_fields(n: int, a: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The float route's computed sensors, n//2+1..n: the first sensor, then e_total,
    e_signed_part and e_folded_part, formed from E(t-X)^a and L_a as odd_total forms e_total."""
    full, left = _float_route._computed_half(n, a)
    return n // 2 + 1, 2.0 * left - full, -full, 2.0 * left


def test_float_breakdown_consistency():
    _, e_total, signed, folded = _float_fields(50, 3)
    assert e_total == pytest.approx(signed + folded, rel=1e-12)
    total = total_moment_float(MomentQuery(50, 3)).total
    assert total == pytest.approx(2 * float(sum(e_total)), rel=1e-12)  # even n: no middle sensor
    assert all(folded >= 0)


def test_float_large_n_matches_leading_constant():
    s = total_moment_float(MomentQuery(10_000, 1)).total
    assert s / math.sqrt(10_000) == pytest.approx(0.3133285, abs=2e-5)


def test_float_path_rejects_oversize():
    # odd a >= 15 keep the float route's limit; odd a <= 13 take the expansion past N0(a)
    with pytest.raises(SizeGuardError, match=r"n <= 20000 for odd a >= 15"):
        total_moment_float(MomentQuery(_FLOAT_N_GUARD + 1, 15))
    s = total_moment_float(MomentQuery(10**12, 1)).total
    assert s / 10**6 == pytest.approx(leading_constant(1).to_float(), rel=1e-12)


def _quadratic_total(n: int) -> Fraction:
    """S(n,2) = 1/6 - 1/(12n), exactly."""
    return Fraction(1, 6) - Fraction(1, 12 * n)


def test_float_even_order_closed_form():
    # 10^9: the size guard bounds the odd-order route's cost; the even closed form needs none
    for n in (3000, 100_000, 10**9):
        assert total_moment_float(MomentQuery(n, 2)).total == float(_quadratic_total(n))


def _assert_fields_match(fl, i: int, e: SensorMoment, rel: float = 1e-12) -> None:
    lo, *fields = fl
    for got, want in zip((f[i - lo] for f in fields),
                         (e.e_total, e.e_signed_part, e.e_folded_part)):
        if want == 0:
            assert got == 0
        else:
            assert abs(got - float(want)) <= rel * abs(float(want)), (i, got, want)


def test_float_every_field_matches_exact():
    # every computed sensor, the middle and the top ones included; an even total is the
    # correctly rounded exact one
    for n in (1, 2, 3, 7, 40, 200):
        for a in range(1, 10):
            q = MomentQuery(n, a)
            if a % 2 == 0:
                assert total_moment_float(q).total == float(total_moment_exact(q).total)
                continue
            fl = _float_fields(n, a)
            for e in total_moment_exact(q).per_sensor[n // 2:]:
                _assert_fields_match(fl, e.i, e)


def test_float_top_sensors_match_exact_large_n():
    # 1 - t_i is small here: forming it as 1.0 - t_i costs about 1e-12
    n = 20_000
    assert total_moment_float(MomentQuery(n, 2)).total == float(_quadratic_total(n))
    for a in (1, 9):
        q = MomentQuery(n, a)
        fl = _float_fields(n, a)
        for i in range(n - 29, n + 1):
            _assert_fields_match(fl, i, per_sensor_moment_exact(q, i), rel=1e-13)


def test_float_total_is_the_rounded_sum_of_its_sensors():
    # the total is summed over the computed half only, each mirrored pair twice
    for n in (1, 2, 3, 7, 2000, 2001, 19_999):
        assert total_moment_float(MomentQuery(n, 2)).total == float(_quadratic_total(n))
        for a in (1, 9):
            _, e_total, _, _ = _float_fields(n, a)
            want = math.fsum(np.concatenate([e_total, e_total[n % 2:]]))  # the middle once
            assert odd_total(n, a) == want


def _float_bytes(n: int, a: int) -> tuple[bytes, ...]:
    _, *fields = _float_fields(n, a)
    return (*(f.tobytes() for f in fields), odd_total(n, a).hex().encode())


@pytest.mark.parametrize("n,a", [(3 * 128 + 5, 1), (3 * 128 + 5, 2), (3 * 128 + 5, 9),
                                 (3 * 128 + 6, 9), (2 * 2**14 + 2 * 128 + 1, 1),
                                 (2 * 2**14 + 2 * 128 + 1, 2), (2 * 2**14 + 2 * 128 + 1, 9),
                                 (2 * 2**14 + 2 * 128 + 2, 1), (33350, 9)])
def test_float_bits_do_not_depend_on_the_chunk_size(monkeypatch, n, a):
    # exact_sum sums in passes of _CHUNK values, and lemma 4's sum (here with c = a) in passes
    # of _CHUNK sensors; both round once.  An odd total is one pass, up to the float route's
    # limit; an even total is the rounded closed form and runs no pass
    if a % 2 == 0:
        monkeypatch.setattr(_float_route, "odd_total", None)
        assert total_moment_float(MomentQuery(n, a)).total == float(_quadratic_total(n))
        return
    want = anchor_sum(n, a).hex(), (_float_bytes(n, a) if n <= _FLOAT_N_GUARD else None)
    if n % 2 and n <= _FLOAT_N_GUARD:  # the middle sensor, first, has signed part -0.0
        assert np.signbit(_float_fields(n, a)[2][0])
    for chunk in (128, n):
        monkeypatch.setattr(_float_route, "_CHUNK", chunk)
        odd = _float_bytes(n, a) if n <= _FLOAT_N_GUARD else None
        sums = []  # one exact sum per pass of lemma 4's sensors
        monkeypatch.setattr(_float_route, "exact_sum",
                            lambda x: sums.append(len(x)) or exact_sum(x))
        assert (anchor_sum(n, a).hex(), odd) == want, chunk
        assert len(sums) == -(-n // chunk), chunk  # the patch took effect


def test_float_route_temporaries_stay_small():
    odd_total(1000, 1)  # warm imports
    tracemalloc.start()
    try:
        odd_total(_FLOAT_N_GUARD, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_float_total_keeps_no_per_sensor_array():
    odd_total(1000, 1)  # warm imports
    tracemalloc.start()
    try:
        odd_total(_FLOAT_N_GUARD, 1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 2**16


# --- order-independent caches ------------------------------------------------------


def test_exact_sweep_over_orders_equals_cold_totals():
    orders = (1, 3, 5)
    for n in (301, 400):
        _tail_terms.cache_clear()
        warm = [total_moment_exact(MomentQuery(n, a)) for a in orders]
        # every computed sensor's terms are formed by the first order and reused by the rest
        assert _tail_terms.cache_info().hits == (len(orders) - 1) * (n - n // 2), n
        for a, want in zip(orders, warm):
            _tail_terms.cache_clear()
            assert total_moment_exact(MomentQuery(n, a)) == want, (n, a)


def test_order_independent_caches_are_found_by_a_module_scan():
    # a benchmark that empties every cache_clear it finds in the package's modules
    # starts each round cold only if every cache is a module attribute
    found = {id(value) for name, module in list(sys.modules.items())
             if name == "anchor_moments" or name.startswith("anchor_moments.")
             for value in vars(module).values() if callable(getattr(value, "cache_clear", None))}
    assert id(_tail_terms) in found


# --- expansion route ---------------------------------------------------------------


def test_expansion_n0_is_where_the_envelope_falls_below_2_to_the_minus_54():
    # N0(a) is the smallest n with K n^-p <= 2^-54, in exact arithmetic, for every odd a <= 13;
    # the float route reaches past every N0, so no n is left without a route
    assert sorted(_EXPANSION_N0) == sorted(ENVELOPE) == list(range(1, 14, 2))
    for a, (k, p) in ENVELOPE.items():
        n0, power = _EXPANSION_N0[a], int(2 * p)
        assert Fraction(n0) ** power >= (k * 2**54) ** 2 > Fraction(n0 - 1) ** power, a
        assert n0 <= _FLOAT_N_GUARD, a


@pytest.mark.parametrize("a", range(1, 14, 2))
def test_expansion_matches_exact_totals_within_its_envelope(a):
    # the relative residual against the exact total is at most K n^-p, the envelope of the
    # first omitted term
    k, p = ENVELOPE[a]
    for n in (400, 1000):
        exact = total_moment_exact(MomentQuery(n, a)).total
        with localcontext(Context(prec=40)):
            expansion = _decimal_expansion(n, *_exact_terms(n, a))
            r = abs(Decimal(exact.numerator) / exact.denominator / expansion - 1)
        assert r <= k * Fraction(n) ** -p, (n, r)


@pytest.mark.parametrize("a", range(1, 14, 2))
def test_expansion_matches_the_float_route_on_the_overlap(a):
    # just below N0(a) the float route serves; from N0(a) on the expansion is within one ulp
    # of it, up to the float route's limit
    n0 = _EXPANSION_N0[a]
    assert total_moment_float(MomentQuery(n0 - 1, a)).total == odd_total(n0 - 1, a)
    for n in (n0, 2 * n0, _FLOAT_N_GUARD):
        got, want = total_moment_float(MomentQuery(n, a)).total, odd_total(n, a)
        assert abs(got - want) <= 2**-52 * want, (n, got, want)


def _polynomial_coefficients(xs: list, ys: list) -> list[Fraction]:
    """Coefficients, lowest power first, of the polynomial through the points (xs, ys):
    Newton's divided differences, then the Newton form multiplied out by Horner's rule."""
    table = [Fraction(y) for y in ys]
    for d in range(1, len(xs)):
        for j in range(len(xs) - 1, d - 1, -1):
            table[j] = (table[j] - table[j - 1]) / (xs[j] - xs[j - d])
    out = [table[-1]]
    for xj, cj in zip(xs[-2::-1], table[-2::-1]):  # out (x - xj) + cj
        out = [up - xj * c for up, c in zip([0] + out, out + [0])]
        out[0] += cj
    return out


_BRACKET_ROWS = 10  # rows the boundary fit subtracts; _expansion._BRACKET holds the first four


@functools.lru_cache(maxsize=None)
def _bracket_rows() -> tuple[list[list[Fraction]], dict[int, list[Fraction]]]:
    """b_1..b_10 as polynomials in a (coefficients, lowest power first), and for each even a
    up to 60 the bracket 1, b_1(a), ..., b_(a/2)(a) read off the even closed form.

    For even a, n^(a-1) S(n, a) is a polynomial in n of degree a/2 whose n^(a/2-k)
    coefficient is C(a) b_k(a): exact through a/2 + 2 points, one more than the degree needs.
    Row k is the polynomial through the even orders a = 2k, 2k+2, ..., 6k.  Orders below 2k
    cannot give b_k: there the closed form ends at n^-(a/2), before its n^-k term.
    """
    even = {}
    for a in range(2, 6 * _BRACKET_ROWS + 1, 2):
        xs = list(range(1, a // 2 + 3))
        ys = [Fraction(n) ** (a - 1) * signed_moment_total(MomentQuery(n, a)) for n in xs]
        coefficients = _polynomial_coefficients(xs, ys)
        assert coefficients[-1] == 0, a
        even[a] = [c / leading_constant(a).rational for c in coefficients[a // 2::-1]]
        assert even[a][0] == 1, a  # the leading term is C(a) n^(1-a/2)
    rows = []
    for k in range(1, _BRACKET_ROWS + 1):
        orders = list(range(2 * k, 6 * k + 1, 2))
        rows.append(_polynomial_coefficients(orders, [even[a][k] for a in orders]))
    return rows, even


def test_bracket_table_is_the_even_closed_form():
    # _BRACKET, (common denominator, integer coefficients) per row, is regenerated exactly
    rows, even = _bracket_rows()
    table = []
    for row in rows[:len(_expansion._BRACKET)]:
        den = math.lcm(*(c.denominator for c in row))
        table.append((den, tuple(int(c * den) for c in row)))
    literal = "".join(f"    {row},\n" for row in table)
    assert tuple(table) == _expansion._BRACKET, f"_BRACKET = (\n{literal})"
    # each row, a polynomial of degree 2k through 2k + 1 orders, holds at every further one
    for k, row in enumerate(rows, 1):
        for a in range(6 * k + 2, max(even) + 1, 2):
            assert _horner(row, a) == even[a][k], (k, a)
    # the first row left out, |b_5(a)| n^-5, is within each envelope K n^-p from n = 400 on
    for a, (bound, p) in ENVELOPE.items():
        assert _horner(rows[4], a) ** 2 <= bound**2 * Fraction(400) ** int(10 - 2 * p), a


# pi to 100 digits, for the boundary fit's 60-digit decimals
_PI = Decimal("3.14159265358979323846264338327950288419716939937510"
              "58209749445923078164062862089986280348253421170679")


# what each _BOUNDARY entry's fit supports, relative: about 100 times the measured distance
# (11/540 2.6e-19, 1/315 5.5e-15, 2/8505 9.9e-11, -193/90720 2.3e-18, -167/340200 3.3e-14,
# 773/1632960 4.3e-18); each later term of one order is fitted less well
_FIT_TOLERANCE = {(1, 0): 1e-17, (1, 1): 1e-13, (1, 2): 1e-9, (3, 0): 1e-16, (3, 1): 1e-12,
                  (5, 0): 1e-16}


def _boundary_terms(a: int) -> list[Fraction]:
    """B_(a,0), B_(a,1), ... from _expansion._BOUNDARY's (lcm, numerators)."""
    lcm, numerators = _expansion._BOUNDARY.get(a, (1, ()))
    return [Fraction(u, lcm) for u in numerators]


def test_boundary_constants_fit_exact_totals():
    # n^a (S - C(a) n^(1-a/2) [1 + sum_(k<=10) b_k n^-k]) is the boundary part times n^a,
    # sum_j B_(a,j) n^-j; its polynomial in 1/n through six exact totals gives each B_(a,j)
    rows, _ = _bracket_rows()
    grid = range(300, 801, 100)
    boundary = {a: _boundary_terms(a) for a in _expansion._BOUNDARY}
    assert sorted(_FIT_TOLERANCE) == [(a, j) for a in boundary for j in range(len(boundary[a]))]
    # n outside, so that the orders at one n share its binomial tails
    totals = {(n, a): _exact_total(MomentQuery(n, a)) for n in grid for a in ENVELOPE}
    for a, (k, p) in ENVELOPE.items():
        r = leading_constant(a).rational
        bracket = [1] + [_horner(row, a) for row in rows]
        ys = []
        for n in grid:
            scaled = r * _horner(bracket, Fraction(1, n)) / Fraction(n) ** ((a - 1) // 2)
            with localcontext(Context(prec=60)):
                lead = (2 * _PI * n).sqrt() * Decimal(scaled.numerator) / scaled.denominator
            ys.append((totals[n, a] - Fraction(lead)) * n**a)
        fit = _polynomial_coefficients([Fraction(1, n) for n in grid], ys)
        constants = boundary.get(a, ())
        for j, b in enumerate(constants):
            assert abs(b / fit[j] - 1) <= Fraction(_FIT_TOLERANCE[a, j]), (a, j, float(fit[j]))
        # the first term left out, (B_(a,j)/C(a)) n^-(a/2+1+j) relative, is inside K n^-p from
        # N0(a) on: its power is at least p, so N0(a) is the worst n.  C(a)^2 = r^2 2 pi, and
        # _PI is below pi
        j, n0 = len(constants), _EXPANSION_N0[a]
        power = a + 2 + 2 * j
        assert power >= 2 * p, a
        assert fit[j] ** 2 <= r**2 * 2 * Fraction(_PI) * k**2 * Fraction(n0) ** (power - 2 * p), (
            a, float(fit[j]))


def _gamma_route_constant(a: int) -> HalfIntValue:
    """C(a) = Gamma(a/2+1) / (2^(a/2) (1+a)) from the exact Gamma function."""
    return gamma_half_int(a + 2) / HalfIntValue(Fraction(1), a, 0) / (1 + a)


def test_leading_constant_closed_form_is_the_gamma_route():
    for a in range(1, 402):
        assert leading_constant(a) == _gamma_route_constant(a), a


def _expansion_oracle(n: int, a: int) -> tuple[Fraction, Fraction]:
    """The expansion in Fractions, as (scaled bracket, boundary part): C(a) by the Gamma
    route over sqrt(2 pi), the bracket rows b_1..b_4 as Fractions in 1/n, and the boundary
    terms."""
    r = _gamma_route_constant(a).rational
    bracket = (Fraction(1),) + tuple(Fraction(_horner(row, a), den)
                                     for den, row in _expansion._BRACKET)
    x = Fraction(1, n)
    return r * _horner(bracket, x) * x ** ((a - 1) // 2), x**a * _horner(_boundary_terms(a), x)


def _exact_terms(n: int, a: int) -> tuple[Fraction, Fraction]:
    """_expansion._terms as (scaled bracket, boundary part), the oracle's form."""
    num, den, b_num, b_den = _expansion._terms(n, a)
    return Fraction(num, den), Fraction(b_num, b_den)


def _decimal_expansion(n: int, scaled: Fraction, boundary: Fraction) -> Decimal:
    """sqrt(2 pi n) scaled + boundary, in 40-digit decimal."""
    with localcontext(Context(prec=40)):
        return ((2 * _PI * n).sqrt() * scaled.numerator / scaled.denominator
                + Decimal(boundary.numerator) / boundary.denominator)


def test_two_pi_constant_is_the_floor_of_2_pi_4_to_the_k():
    assert _expansion._TWO_PI_4K == math.floor(2 * Fraction(_PI) * 4**_expansion._K)


@pytest.mark.parametrize("a", range(1, 14, 2))
def test_expansion_value_is_its_fraction_oracle(a):
    # the integer terms are the oracle's exact rationals, and the float is the oracle's
    # 40-digit value rounded (every n here is below the overflow past 10^617 at a = 1)
    n0, rng = _EXPANSION_N0[a], random.Random(a)
    grid = [n0, n0 + 1, 2000, 10**5, 10**6, 10**7, 10**12, 10**300, 10**616]
    for n in grid + [rng.randint(1, 10**9) for _ in range(200)]:
        oracle = _expansion_oracle(n, a)
        assert _exact_terms(n, a) == oracle, n
        assert expansion_value(n, a) == float(_decimal_expansion(n, *oracle)), n


def test_remainder_after_the_leading_term_is_c_b1_n_to_the_minus_a_half():
    # n^(a/2) (S - C n^(1-a/2)) / C tends to b_1(a) = -(a^2+6a+2)/36: the remainder is
    # C b_1 n^(-a/2) (1 + O(1/n)), sharper by sqrt(n) than the paper's O(n^-((a-1)/2)).  For
    # a = 1 the boundary term B_(1,0) n^-1 makes the correction O(n^-1/2) instead
    distance = {}
    for n in (400, 800):  # n outside, so that the orders at one n share its binomial tails
        for a in ENVELOPE:
            total, r = _exact_total(MomentQuery(n, a)), leading_constant(a).rational
            b1 = Fraction(-(a * a + 6 * a + 2), 36)
            with localcontext(Context(prec=60)):
                c = (2 * _PI).sqrt() * r.numerator / r.denominator
                half = Decimal(n).sqrt() * n ** ((a - 1) // 2)  # n^(a/2)
                scaled = (Decimal(total.numerator) / total.denominator - c * n / half) * half / c
                gap = abs(scaled - Decimal(b1.numerator) / b1.denominator)
            distance.setdefault(a, []).append(gap)
    for a, (d400, d800) in distance.items():
        assert d800 < d400, a
        # doubling n halves the distance, or divides it by sqrt(2) for a = 1
        assert abs(float(d800 / d400) - (2**-0.5 if a == 1 else 0.5)) < 0.02, a


def test_every_route_refuses_totals_outside_the_normal_floats():
    assert total_moment_float(MomentQuery(10**80, 9)).total >= sys.float_info.min
    assert total_moment_float(MomentQuery(10**616, 1)).total == 3.133285343288751e+307
    for n, a in (
        (10**620, 1), (10**90, 9),  # the expansion: inf, and 2.3e-316
        (2000, 401), (2000, 351),  # the float route: 0.0, and 1.0e-313
        (10**6, 400), (1000, 2000),  # the even closed form: 0.0
    ):
        with pytest.raises(ValueError, match="outside the range of normal floats"):
            total_moment_float(MomentQuery(n, a))


_TINY = 5e-324


@pytest.mark.parametrize("x", [
    [1e100, 1.0, -1e100],
    [_TINY, -_TINY, 3 * _TINY, 2.2250738585072014e-308, -1e-310, 1e-300],
    [0.0, -0.0, 0.0],
    [-0.0],
    [],
    [0.1],
    [1.7976931348623157e308, -1.7976931348623157e308, 1e308, 2.0**-1074],
    [1.0, 2.0**-53],  # ties, rounded to even: down, then up
    [1.0 + 2.0**-52, 2.0**-53],
    [1.0, 2.0**-53, -2.0**-106],  # just below and just above a tie
    [1.0, 2.0**-53, 2.0**-106],
    list(np.random.default_rng(1).standard_normal(999) * 2.0 ** np.random.default_rng(2)
         .integers(-60, 61, 999)),
    list(np.random.default_rng(3).uniform(-1, 1, 3 * 2**14 + 17) * 1e20),
    [1.0] * (2 * 2**14 + 1) + [-1e16, 1e16],
    [-(2.0 - 2.0**-52)] * (2**14 + 5) + [1e-30],  # the largest mantissas, one full pass
])
def test_exact_sum_is_fsum(x):
    total = exact_sum(np.array(x, dtype=np.float64))
    assert total == sum(map(Fraction, x))
    assert float(total).hex() == math.fsum(x).hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_sum_refuses_non_finite_values(bad):
    x = np.ones(2**14 + 3)
    x[2**14 + 1] = bad
    with pytest.raises(ValueError, match="finite"):
        exact_sum(x)


def _binomial_tail_mpmath(n: int, i: int):
    """P(Bin(n, t_i) >= i) by 40-digit summation of the pmf terms from k = i."""
    with mpmath.workdps(40):
        t = mpmath.mpf(2 * i - 1) / (2 * n)
        ratio = t / (1 - t)
        term = mpmath.binomial(n, i) * t**i * (1 - t) ** (n - i)
        total, k = term, i
        while k < n and term > total * mpmath.mpf(10) ** -45:
            term *= (n - k) * ratio / (k + 1)
            total += term
            k += 1
        return total


def test_left_tail_start_matches_binomial_tail_oracle():
    # L_0, summed directly, at the float route's limit: the middle sensor, a quarter and half
    # of the way up, and i = n.  Its rounding grows with the about 700 terms a sensor sums
    # here: measured 5.0e-15 at the middle sensor of n = 20000, 2.9e-15 for n = 19999
    for n in (19_999, _FLOAT_N_GUARD):
        sensors, _, one_minus_t = _float_route._anchor_terms(n, n // 2 + 1, n + 1)
        start = _float_route._top_tail(n, sensors, one_minus_t,
                                       beta_density_at_anchor(n, sensors))
        for j in (0, len(start) // 4, len(start) // 2, len(start) - 1):
            i = n // 2 + 1 + j
            want = _binomial_tail_mpmath(n, i)
            assert abs(start[j] - want) <= 1e-14, (i, start[j], want)


def test_beta_density_at_anchor_matches_exact():
    for n in (1, 2, 3, 16, 17, 33, 200, 1000):
        dens = beta_density_at_anchor(n, np.arange(1, n + 1, dtype=np.float64))
        for i in range(1, n + 1):
            t = Fraction(2 * i - 1, 2 * n)
            exact = float(i * math.comb(n, i) * t ** (i - 1) * (1 - t) ** (n - i))
            assert dens[i - 1] == pytest.approx(exact, rel=2e-15, abs=0)


def _mpmath_sensor(n: int, a: int, i: int) -> tuple[float, float, float]:
    """(e_total, e_signed_part, e_folded_part) by 40-digit quadrature, split at
    the anchor into panels a few standard deviations wide."""
    with mpmath.workdps(40):
        t = mpmath.mpf(2 * i - 1) / (2 * n)
        log_beta = mpmath.loggamma(i) + mpmath.loggamma(n - i + 1) - mpmath.loggamma(n + 1)
        sd = mpmath.sqrt(t * (1 - t) / n)

        def density(x):
            return mpmath.exp((i - 1) * mpmath.log(x) + (n - i) * mpmath.log1p(-x) - log_beta)

        steps = [0, 2, 5, 10, 20, 40]
        left = mpmath.quad(lambda x: (t - x) ** a * density(x), [t - k * sd for k in steps[::-1]])
        right = mpmath.quad(lambda x: (x - t) ** a * density(x), [t + k * sd for k in steps])
        return float(left + right), float(right - left), float(2 * left)


def test_float_matches_mpmath_oracle_interior_sensors():
    n = _FLOAT_N_GUARD
    for a in (1, 9):
        lo, *fields = _float_fields(n, a)
        for i in (10_001, 10_002, 16_000, 16_001):
            got = [f[i - lo] for f in fields]
            for g, w in zip(got, _mpmath_sensor(n, a, i)):
                assert g == pytest.approx(w, rel=1e-14, abs=0)
