"""Expected a-th power displacement of uniform order statistics to anchors.

The i-th smallest of n uniform points is Beta(i, n-i+1) distributed; moving it
to the anchor t_i = (2i-1)/(2n) costs |X_i - t_i|^a.  The per-sensor
expectation splits at t_i into a signed integral over [0,1] plus a doubled
left-tail integral (for odd a).  By reflection X_(n+1-i) has the law of
1 - X_i and t_(n+1-i) = 1 - t_i, so E_i = E_(n+1-i) and, for odd a, the signed
part changes sign.  Both routes compute only the sensors i > n/2: the exact
route mirrors the rest (_mirror), and the float route sums the computed half
twice, less the middle sensor of odd n, and keeps no per-sensor values.

Both routes step the left tail E[(t-X)^k; X<t] and the full moment E(t-X)^k
up to k = a by one Pearson recurrence, whose terms share one sign for
t >= 1/2.  The exact route runs it in plain integers.  Write P = 2i-1,
Q = 2n-2i+1 and H = 2i-1-n, so that t_i = P/(2n), 1 - t_i = Q/(2n) and
t_i - 1/2 = H/(2n).  The left tail starts from the binomial tail
I(t_i; i, n-i+1) = P(Bin(n, t_i) >= i) = S_i / (2n)^n with
S_i = sum_(k>=i) C(n,k) P^k Q^(n-k), the exact incomplete Beta in integers
(special_functions._beta_tail), summed for 2i > n only.  Scaled as
l_k = L_k (2n)^k (n+1)^rising(k), every step of the recurrence is an integer,
so all sensors' fields share one denominator: each output value is one reduced
Fraction, and the total is reduced once.  The denominator's primes are known: 2, the
primes of n and those of (n+1)^rising(a).  So a value is reduced by them (_Denominators,
_lowest_terms): the power of 2 by bit operations, the odd primes by gcds against the odd
part of 2n (n+1)^rising(a), about a log2(n+a) bits; no gcd of two numbers of the
denominator's size runs, and the Fraction is built without one (_fraction).  The odd
total sums the computed sensors' integer numerators and reduces once, building no
per-sensor record (_total).  The float route, in _float_route
(where numpy loads, on first call), runs it on arrays, from the density and
I(t_i; i, n-i+1), summed directly from the binomial terms: O(n^(3/2)) work in
one pass, run-to-run identical, up to n = _FLOAT_N_GUARD.
Measured relative error: at most 2.2e-15 per field of a computed sensor
against the exact route for n <= 200, a <= 9, and 4e-15 on totals against
quadrature at n = 2000.

Only the recurrence depends on a.  A computed sensor's S_i and density term
g = i C(n,i) P^i Q^(n-i+1) are kept in _tail_terms, an lru_cache of 1024 sensors keyed on
(n, i), so every odd order at one n <= 2000 shares them.  After one odd total the cache
holds 0.25 MiB at n = 400 (200 sensors) and about 6.3 MiB at n = 2000 (1000 sensors).

For even a the total is sum_i E(t_i - X_i)^a, a finite sum of Beta moments, and
signed_moment_total gives it exactly at any n, over (2n)^a (n+1)^rising(a): for a <= n
from the binomial expansion's power sums sum_i i^rising(k) (2i-1)^(a-k), all of them from
one list of a+1 integers updated in place in O(a^2) steps, and for n < a from the
recurrence above, summed over the sensors i > n/2 in O(n a) steps.  The exact totals and
the float totals of even orders use it, the float ones by one correctly rounded division
of its unreduced numerator and denominator; the float route serves odd orders only.

For odd a <= 13 and n >= _EXPANSION_N0[a] (750 to 2881), the float total is the
four-term expansion of _expansion instead,
C(a) n^(1-a/2) [1 + b_1/n + ... + b_4/n^4] with each b_k a polynomial in a (_BRACKET), plus
a boundary part from n^-a on.  Its integers that depend on a alone are built once, at
import (_expansion._ORDERS), so a total does only the work that depends on n: O(a) and no
numpy.  What it leaves out is below 2^-54 relative there by an envelope measured against
exact totals, and it agrees with the float route to one ulp at N0(a), 2 N0(a) and
_FLOAT_N_GUARD.  The float route serves the rest:
n below N0(a), and odd a >= 15 up to _FLOAT_N_GUARD.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from fractions import Fraction

from ._expansion import expansion_value
from .combinatorics import rising_factorial
from .special_functions import _beta_tail

__all__ = [
    "EXACT_N_GUARD",
    "SizeGuardError",
    "MomentQuery",
    "SensorMoment",
    "MomentBreakdown",
    "FloatMomentBreakdown",
    "anchor",
    "per_sensor_moment_exact",
    "signed_moment_total",
    "total_moment_exact",
    "total_moment_float",
]

# Every size limit and route choice lives here.  Rational bit length of the per-sensor route
# grows roughly like n log n; beyond EXACT_N_GUARD, odd totals take the float route, whose
# direct sums stop at _FLOAT_N_GUARD (about 0.1 s).  One exact sensor (per_sensor_moment_exact),
# the float route's oracle in tests, stops there too: its cost grows about like n^2, 0.3 s at
# 2 10^4 and 4.8 s at 8 10^4.  Lemma 4's sum needs only the densities and stops at
# _ANCHOR_SUM_N_GUARD.  Even totals (signed_moment_total) have no limit.
EXACT_N_GUARD = 2000
_FLOAT_N_GUARD = 2 * 10**4
_ANCHOR_SUM_N_GUARD = 10**7
# Odd a <= 13 take the expansion from n = _EXPANSION_N0[a] on: the smallest n at which
# _expansion.ENVELOPE, K n^-p, bounds what the expansion leaves out below 2^-54 relative.
_EXPANSION_N0 = {1: 902, 3: 980, 5: 902, 7: 750, 9: 832, 11: 1818, 13: 2881}


class SizeGuardError(ValueError):
    """A route refused n past its size limit (EXACT_N_GUARD, _FLOAT_N_GUARD or
    _ANCHOR_SUM_N_GUARD)."""


def _size_guard(n: int, limit: int, message: str) -> None:
    """Raise SizeGuardError(message, with {n} and {limit} filled in) if n > limit."""
    if n > limit:
        raise SizeGuardError(message.format(n=n, limit=limit))


class MomentQuery(namedtuple("MomentQuery", "n a")):
    """Problem size: n sensors, moment order a (parity drives the split)."""

    __slots__ = ()

    def __new__(cls, n: int, a: int) -> MomentQuery:
        if n < 1:
            raise ValueError("n must be >= 1")
        if a < 1:
            raise ValueError("a must be >= 1")
        return super().__new__(cls, n, a)

    @property
    def odd(self) -> bool:
        return self.a % 2 == 1


class SensorMoment(namedtuple("SensorMoment", "i t e_total e_signed_part e_folded_part")):
    __slots__ = ()
    i: int
    t: Fraction
    e_total: Fraction
    e_signed_part: Fraction
    e_folded_part: Fraction


class MomentBreakdown(namedtuple("MomentBreakdown", "per_sensor total")):
    __slots__ = ()
    per_sensor: tuple[SensorMoment, ...]
    total: Fraction


class FloatMomentBreakdown(namedtuple("FloatMomentBreakdown", "n a total")):
    """Float total of MomentBreakdown; the float route keeps no per-sensor values."""

    __slots__ = ()
    n: int
    a: int
    total: float


def anchor(i: int, n: int) -> Fraction:
    """Anchor t_i = (2i-1)/(2n), the target of the i-th sensor."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= i <= n:
        raise ValueError(f"sensor index {i} outside 1..{n}")
    return Fraction(2 * i - 1, 2 * n)


def _scaled_left_moment(n: int, a: int, i: int, g: int, start: int) -> int:
    """_float_route._left_moment in integers: l_a = c L_a (2n)^a (n+1)^rising(a).

    start = c L_0 and g = c 2n tq f(t_i) for one integer scale c.  With
    tq = PQ/(2n)^2 and h = H/(2n), l_k = c L_k (2n)^k (n+1)^rising(k) obeys
    l_1 = g + H l_0 and l_(k+1) = k PQ (n+k) l_(k-1) + (2k+1) H l_k.
    """
    pq, h = (2 * i - 1) * (2 * (n - i) + 1), 2 * i - 1 - n
    prev, cur = start, g + h * start
    for k in range(1, a):
        prev, cur = cur, k * pq * (n + k) * prev + (2 * k + 1) * h * cur
    return cur


def _moment_denominator(n: int, a: int) -> int:
    """(2n)^a (n+1)^rising(a), the denominator of E(t_i - X_i)^a for every i;
    the odd-order fields, which carry the binomial tail, have (2n)^n times it."""
    return (2 * n) ** a * rising_factorial(n + 1, a)


def _fraction(num: int, den: int) -> Fraction:
    """num/den for coprime num and den > 0, without the gcd that Fraction(num, den) runs
    even on a coprime pair: it sets Fraction's two slots, ('_numerator', '_denominator')
    from Python 3.10 to 3.13, which test_moments pins."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


class _Denominators:
    """The denominators of one (n, a)'s sensor fields, and what reduces a value over them.

    E(t_i - X_i)^a is an integer over (2n)^a R, R = (n+1)^rising(a).  For odd a the folded
    part and the total are integers over (2n)^power R, power = n + a, that is over
    scale (2n)^a R with scale = (2n)^n; for even a, power = a and scale = 1.  Sensor i's
    fields have smaller denominators when d = gcd(2i-1, n) > 1: P, Q and H are multiples of
    d, so the recurrence run on P/d, Q/d, H/d and 2n/d yields them as integers over
    (2n/d)^k R, k = a or power, and d^k divides their numerators over (2n)^k R.
    split(d, k) forms (d^k, D, twos, odd) once per (d, k): D = (2n/d)^k R, 2^twos the power
    of 2 in D, and odd the odd part of 2n/d times that of R, at most about a log2(n+a) bits,
    which every odd prime of D divides; _lowest_terms reduces by it.
    """

    def __init__(self, q: MomentQuery) -> None:
        n, a = q.n, q.a
        self.n = n
        rising = rising_factorial(n + 1, a)
        self.power = n + a if q.odd else a
        twos, low = (n & -n).bit_length(), (rising & -rising).bit_length() - 1
        m = n >> twos - 1  # 2n = 2^twos m and R = 2^low r, m and r odd
        self._twos, self._low, self._odd = twos, low, m * (rising >> low)
        self.scale = m**n << twos * n if q.odd else 1  # (2n)^n, a power of 2n as a shifted m^n
        small = _moment_denominator(n, a)
        self._den = {a: small, self.power: self.scale * small}
        self._splits: dict[tuple[int, int], tuple] = {}

    def split(self, d: int, k: int) -> tuple:
        """(d^k, (2n/d)^k R, twos, odd), formed on first use."""
        if (d, k) not in self._splits:
            divisor = d**k
            self._splits[d, k] = (divisor, self._den[k] // divisor, self._twos * k + self._low,
                                  self._odd // d)
        return self._splits[d, k]

    def reduce(self, num: int, i: int, k: int) -> Fraction:
        """num / ((2n)^k R) in lowest terms, for a field of sensor i (k = a or power)."""
        return _lowest_terms(num, self.split(math.gcd(2 * i - 1, self.n), k))


def _lowest_terms(num: int, split: tuple) -> Fraction:
    """num / (divisor D) in lowest terms, for split = (divisor, D, twos, odd) of
    _Denominators.split, where divisor divides num: the power of 2 by bit operations, the
    odd primes by gcds against odd, which every odd prime of D divides.  Each pass divides
    by a common divisor g and takes the next from num and g^2, so a prime's power can double
    from one pass to the next.  Fraction(num, divisor D) would run a gcd of two numbers of
    D's size, then another on the reduced pair; here every gcd has a small side."""
    divisor, den, twos, odd = split
    if not num:
        return Fraction(0)
    if divisor > 1:
        num //= divisor
    k = min(twos, (num & -num).bit_length() - 1)
    num, den = num >> k, den >> k
    g = math.gcd(num, odd)
    while g > 1 and (g := math.gcd(g, den)) > 1:  # every common prime divides g
        num, den = num // g, den // g
        g = math.gcd(num, g * g)  # each pass may take twice the last one's powers
    return _fraction(num, den)


def _numerators(q: MomentQuery, i: int) -> tuple[int, int]:
    """(full, folded) for 2i > n: E(t_i - X_i)^a = full / ((2n)^a (n+1)^rising(a)) and,
    for odd a, the folded part 2 L_a = folded / ((2n)^(n+a) (n+1)^rising(a)); folded is 0
    for even a."""
    n, a = q.n, q.a
    full = _scaled_left_moment(n, a, i, 0, 1)
    return full, (2 * _scaled_left_moment(n, a, i, *_tail_terms(n, i)) if q.odd else 0)


def _computed_rows(q: MomentQuery):
    """(i, *_numerators(q, i)) for the computed sensors i > n/2, one at a time; guarded at
    EXACT_N_GUARD."""
    _size_guard(q.n, EXACT_N_GUARD, "exact path guarded at n <= {limit} (got n={n}); "
                "use total_moment_float for larger n")
    return ((i, *_numerators(q, i)) for i in range(q.n // 2 + 1, q.n + 1))


def _total(q: MomentQuery, rows, dens: _Denominators) -> Fraction:
    """sum_i E|X_i - t_i|^a from the computed sensors' (i, full, folded), each mirrored pair
    twice and the middle sensor of odd n once: the numerators are summed over the common
    denominator (2n)^power R and reduced once."""
    full_sum = folded_sum = 0
    for i, full, folded in rows:
        w = 1 if 2 * i - 1 == q.n else 2
        full_sum += w * full
        folded_sum += w * folded
    signed = -full_sum if q.odd else full_sum  # E(X_i - t_i)^a = (-1)^a E(t_i - X_i)^a
    return _lowest_terms(folded_sum + dens.scale * signed, dens.split(1, dens.power))


def _sensor(q: MomentQuery, i: int, full: int, folded: int, dens: _Denominators) -> SensorMoment:
    """Sensor i > n/2 from its _numerators."""
    t = anchor(i, q.n)
    if not q.odd:
        m = dens.reduce(full, i, q.a)
        return SensorMoment(i=i, t=t, e_total=m, e_signed_part=m, e_folded_part=Fraction(0))
    return SensorMoment(i=i, t=t, e_total=dens.reduce(folded - dens.scale * full, i, dens.power),
                        e_signed_part=dens.reduce(-full, i, q.a),
                        e_folded_part=dens.reduce(folded, i, dens.power))


def _mirror(q: MomentQuery, e: SensorMoment) -> SensorMoment:
    """Sensor n+1-i from sensor i: X_(n+1-i) has the law of 1 - X_i and t_(n+1-i) = 1 - t_i,
    so the total is the same object, and for odd a the signed part changes sign."""
    n, i = q.n, e.i
    signed = -e.e_signed_part if q.odd else e.e_signed_part
    return SensorMoment(i=n + 1 - i, t=Fraction(2 * (n - i) + 1, 2 * n), e_total=e.e_total,
                        e_signed_part=signed, e_folded_part=e.e_total - signed)


@functools.lru_cache(maxsize=1024)
def _tail_terms(n: int, i: int) -> tuple[int, int]:
    """The integers of per_sensor_moment_exact that no order changes, for 2i > n:
    g = i C(n,i) P^i Q^(n-i+1) = (2n)^(n+1) t_i(1-t_i) f_i(t_i) and the binomial tail
    S_i = (2n)^n I(t_i; i, n-i+1), P = 2i-1 and Q = 2n-2i+1."""
    p, r = 2 * i - 1, 2 * (n - i) + 1
    power = p**i  # both carry it: a third of a cold top sensor's time at n = 20000
    return (i * math.comb(n, i) * power * r ** (n - i + 1),
            _beta_tail(p, 2 * n, i, n - i + 1, power))


def per_sensor_moment_exact(q: MomentQuery, i: int) -> SensorMoment:
    """Exact E|X_i - t_i|^a with its signed/folded decomposition.

    The signed part is E(X_i - t_i)^a = (-1)^a M_a with M_a = E(t_i - X_i)^a.
    For even a it already is the absolute moment and the folded part is zero.
    For odd a the folded part 2 L_a, L_a = E[(t_i - X_i)^a; X_i < t_i],
    restores the absolute value: E|X_i - t_i|^a = 2 L_a - M_a.  Both come
    from the Pearson recurrence in integers, scaled as
    l_k = L_k (2n)^k (n+1)^rising(k) (_scaled_left_moment): M_a from l_0 = 1,
    and L_a, times (2n)^n, from the binomial tail
    I(t_i; i, n-i+1) = P(Bin(n, t_i) >= i) = S_i / (2n)^n and the density,
    (2n)^(n+1) t_i(1-t_i) f_i(t_i) = i C(n,i) P^i Q^(n-i+1), where P = 2i-1
    and Q = 2n-2i+1.  A sensor i <= n/2 is the mirror image of n+1-i (_mirror),
    so the binomial tail is summed only for 2i > n, over at most ceil(n/2) terms.
    Guarded at _FLOAT_N_GUARD.
    """
    n = q.n
    anchor(i, n)
    _size_guard(n, _FLOAT_N_GUARD, "per-sensor path guarded at n <= {limit} (got n={n})")
    if 2 * i <= n:
        return _mirror(q, per_sensor_moment_exact(q, n + 1 - i))
    return _sensor(q, i, *_numerators(q, i), _Denominators(q))


def total_moment_exact(q: MomentQuery) -> MomentBreakdown:
    """Exact breakdown of the total expected cost; guarded at EXACT_N_GUARD.

    Sensors i > n/2 are computed; each sensor i <= n/2 is the mirror image of
    n+1-i (_mirror): same total, and for odd a the signed part changes sign.  The total
    sums the sensors' numerators over their common denominator, each mirrored
    pair twice, and reduces once (_total).
    """
    rows, dens = list(_computed_rows(q)), _Denominators(q)
    upper = [_sensor(q, *row, dens) for row in rows]
    lower = [_mirror(q, e) for e in upper[::-1][: q.n // 2]]  # sensor i from n+1-i
    return MomentBreakdown(per_sensor=tuple(lower + upper), total=_total(q, rows, dens))


def _power_sum_terms(n: int, a: int) -> tuple[int, int]:
    """sum_i E(t_i - X_i)^a as (numerator, _moment_denominator(n, a)), by the binomial
    expansion.

    With E X_i^k = i^rising(k) / (n+1)^rising(k) and t_i = (2i-1)/(2n), the numerator is
    sum_k C(a,k) (-2n)^k (n+k+1)^rising(a-k) T_k, T_k = sum_(i=1..n) i^rising(k) (2i-1)^(a-k).
    Every T_k comes from one list: w_j = sum_i i^rising(j) = n^rising(j+1) / (j+1), then a
    levels of w_j <- 2 w_(j+1) - (2j+1) w_j, since (2i-1) i^rising(j) = 2 i^rising(j+1) -
    (2j+1) i^rising(j); level a-k updates w_0..w_k in place, after which w_k is T_k.
    The sum over k runs along, by Horner's rule in -2n from k = a down: O(a^2) products by
    small integers, and 2a of two large ones.
    """
    rising, sums = n, [n]  # rising = n^rising(k+1)
    for k in range(1, a + 1):
        rising *= n + k
        sums.append(rising // (k + 1))
    step = -2 * n
    total, tail, binom = sums[a], 1, 1  # tail = (n+k+1)^rising(a-k), binom = C(a,k)
    for k in range(a - 1, -1, -1):
        for j in range(k + 1):  # w_(j+1) is still the last level's when w_j reads it
            sums[j] = (sums[j + 1] << 1) - (2 * j + 1) * sums[j]
        tail *= n + k + 1
        binom = binom * (k + 1) // (a - k)
        total = total * step + binom * tail * sums[k]
    return total, (2 * n) ** a * tail


def _sensor_sum_terms(n: int, a: int) -> tuple[int, int]:
    """_power_sum_terms(n, a) from the sensors i > n/2: each one's E(t_i - X_i)^a over
    _moment_denominator(n, a) (_scaled_left_moment), plus its mirror image n+1-i, which is
    (-1)^a times it; the middle sensor of odd n counts once.  O(n a) products."""
    pair = 1 + (-1) ** a  # sensor i and its mirror image
    return (sum(_scaled_left_moment(n, a, i, 0, 1) * (1 if 2 * i - 1 == n else pair)
                for i in range(n // 2 + 1, n + 1)), _moment_denominator(n, a))


def _signed_total_terms(q: MomentQuery) -> tuple[int, int]:
    """signed_moment_total(q) as an unreduced (numerator, denominator) pair, the denominator
    _moment_denominator(n, a): the sum over sensors for n < a, else the power sums."""
    return (_sensor_sum_terms if q.n < q.a else _power_sum_terms)(q.n, q.a)


def signed_moment_total(q: MomentQuery) -> Fraction:
    """sum_i E(t_i - X_i)^a, exact at any n, in O(a min(a, n)) integer steps.

    For even a it is the total cost; for odd a it is 0, the reflection pairing the sensors.
    Its numerator over (2n)^a (n+1)^rising(a) comes from the binomial expansion's power sums
    for a <= n (_power_sum_terms) and from the n/2 sensors' recurrences for n < a
    (_sensor_sum_terms), whichever takes fewer steps.
    """
    return Fraction(*_signed_total_terms(q))


def _exact_total(q: MomentQuery) -> Fraction:
    """The exact total: the closed form for even a, at any n; for odd a the per-sensor
    route's numerators, summed and reduced once with no SensorMoment (_total), refusing
    n > EXACT_N_GUARD as total_moment_exact does."""
    return _total(q, _computed_rows(q), _Denominators(q)) if q.odd else signed_moment_total(q)


def total_moment_float(q: MomentQuery) -> FloatMomentBreakdown:
    """Float total of the expected cost.

    Even a: the correctly rounded signed_moment_total, at any n.  Odd a <= 13 from
    n = _EXPANSION_N0[a] on: the expansion, in O(a) work, within 2^-54 of the total by its
    envelope.  Other odd totals: the float route, n up to _FLOAT_N_GUARD.  On every route a
    total that would overflow, be subnormal or be 0 is refused with ValueError.
    """
    if not q.odd:
        num, den = _signed_total_terms(q)
        total = num / den  # correctly rounded, as float(Fraction(num, den)) is
    elif q.n >= _EXPANSION_N0.get(q.a, math.inf):
        total = expansion_value(q.n, q.a)
    else:
        _size_guard(q.n, _FLOAT_N_GUARD, "float path supports n <= {limit} for odd a >= 15")
        from ._float_route import odd_total  # numpy, on first use
        total = odd_total(q.n, q.a)
    if not sys.float_info.min <= total < math.inf:
        raise ValueError(f"the total at n = {q.n}, a = {q.a} is {total:g}, "
                         "outside the range of normal floats")
    return FloatMomentBreakdown(q.n, q.a, total)  # positional: keywords cost 0.2 us a call
