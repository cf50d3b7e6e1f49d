"""Float route of moments.py for odd orders, on numpy arrays.  moments.total_moment_float
at odd a, lemma 4's sum and the float-Beta check load it on first call, so the exact route
and the CLI start without numpy.  moments owns the route's size limit.  This module alone
knows how floats are summed exactly (exact_sum) and how the sensors are walked in passes.

The densities f_i(t_i) and tails L_0 = I(t_i; i, n-i+1) of a pass do not depend on the
order, so a sweep over orders at one n forms them once: _pass_terms, an lru_cache of four
passes keyed on (n, lo, hi, carry), holds them read-only, at most 4 x 2 x 2^14 doubles
(1 MiB).  Past four passes (n > 131072) a sweep misses on every pass.  After
odd_total(10**7, 1) the cache keeps 0.8 MiB, and the call peaks at 4.1 MiB under tracemalloc
(2.9 MiB without the cache).  At n = 2000 the first odd order takes about 1.4 ms and each
next one 0.1-0.2 ms on a 2-core machine."""

from __future__ import annotations

import functools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterator

import numpy as np

_CHUNK = 2**14  # a multiple of _ANCHOR_EVERY, so a pass starts on a chain anchor with its carry


def exact_sum(x: np.ndarray) -> Fraction:
    """Exact sum of a float array, in passes of _CHUNK; float() of it rounds once, to
    math.fsum(x).

    np.frexp gives x = M 2^(e-53), M an integer below 2^53 in size, split as hi 2^26 + lo
    with |hi| <= 2^27 and 0 <= lo < 2^26.  np.bincount over e sums each part exactly in
    floats, for up to 2^26 values a pass; a Python int collects the passes in units of
    2^-1126, the smallest 2^(e-53) of a double.
    """
    total = 0
    for lo in range(0, len(x), _CHUNK):
        m, e = np.frexp(x[lo:lo + _CHUNK])
        if not np.isfinite(m).all():
            raise ValueError("exact sum needs finite values")
        m = np.ldexp(m, 27)
        hi = np.floor(m)
        e += 1073
        hi_sums, lo_sums = np.bincount(e, hi), np.bincount(e, (m - hi) * 2.0**26)
        bins = np.flatnonzero((hi_sums != 0) | (lo_sums != 0))
        for b, hs, ls in zip(bins.tolist(), hi_sums[bins].tolist(), lo_sums[bins].tolist()):
            total += ((int(hs) << 26) + int(ls)) << b
    return Fraction(total, 1 << 1126)


def _anchor_terms(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sensors i = lo..hi-1 as a float array, with t_i and 1 - t_i (formed exactly)."""
    i = np.arange(lo, hi, dtype=np.float64)
    return i, (2.0 * i - 1.0) / (2 * n), (2.0 * (n - i) + 1.0) / (2 * n)


with localcontext(Context(prec=40)):  # log(k!) - log(sqrt(2 pi k) (k/e)^k), k = 1..15
    _STIRLERR_SMALL = np.array([0.0] + [
        float(Decimal(math.factorial(k)).ln() + k - (k + Decimal("0.5")) * Decimal(k).ln()
              - Decimal("0.9189385332046727417803297364056176398614")) for k in range(1, 16)])


def _stirlerr(k: np.ndarray | int) -> np.ndarray:
    """Stirling remainder of integer-valued k; past 15 the sixth series term is below 1e-16."""
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    kk = np.maximum(k, 16.0) ** 2
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk)
    out /= np.sqrt(kk)
    small = k <= 15
    out[small] = _STIRLERR_SMALL[k[small].astype(np.int64)]
    return out


def beta_density_at_anchor(n: int, i: np.ndarray) -> np.ndarray:
    """Density of X_i ~ Beta(i, n-i+1) at t_i, for an array of indices i.

    f(t_i) = n P(Bin(n-1, t_i) = i-1) in Loader's saddle-point form (C. Loader,
    Fast and Accurate Computation of Binomial Probabilities, 2000).  The count
    i-1 misses its mean by d = (2i-n-1)/(2n), formed exactly; |d| < 1/2 keeps
    the log1p form of both deviances accurate.  At i = 1 and i = n it is one power.
    """
    x, y = i - 1.0, n - i
    d = (2.0 * i - n - 1.0) / (2 * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_core = (_stirlerr(n - 1) - _stirlerr(x) - _stirlerr(y)
                    + x * np.log1p(-d / x) + y * np.log1p(d / y))
        dens = n * np.exp(log_core) * np.sqrt((n - 1) / (2 * math.pi * x * y))
    ends = (x == 0) | (y == 0)
    gap = np.minimum(2.0 * i - 1.0, 2.0 * (n - i) + 1.0)[ends] / (2 * n)  # min(t, 1-t)
    dens[ends] = n * np.exp((n - 1) * np.log1p(-gap))
    return dens


def anchor_sum(n: int, c: float) -> float:
    """sum_i 2 f_i(t_i) t_i^(c+1) (1-t_i) over i = 1..n, f_i the Beta(i, n-i+1) density:
    summed exactly in passes of _CHUNK sensors and rounded once."""
    total = Fraction(0)
    for lo in range(1, n + 1, _CHUNK):
        i, t, one_minus_t = _anchor_terms(n, lo, min(lo + _CHUNK, n + 1))
        total += exact_sum(2.0 * beta_density_at_anchor(n, i) * t ** (c + 1) * one_minus_t)
    return float(total)


def _left_moment(n: int, a: int, tq, h, g, start):
    """L_a = E[(t-X)^a; X < t], X ~ Beta(i, n-i+1), by the Pearson recurrence.

    With tq = t(1-t), h = t - 1/2 and g = tq f(t), integrating (t-x)^k d[x(1-x) f(x)]
    by parts, where (x(1-x) f)' = (i - (n+1)x) f and i - (n+1)t = -h, gives
    (n+1) L_1 = g + h L_0 and (n+1+k) L_(k+1) = k tq L_(k-1) + (2k+1) h L_k.
    g = 0 with L_0 = 1 gives E(t-X)^a.  For t >= 1/2 no term is negative.  It
    runs on float arrays; moments._scaled_left_moment is its integer form.
    """
    prev, cur = start, (g + h * start) / (n + 1)
    for k in range(1, a):
        prev, cur = cur, (k * tq * prev + (2 * k + 1) * h * cur) / (n + 1 + k)
    return cur


# the chain rounds its exact sum at every _ANCHOR_EVERY-th sensor; the top sums take over
# where n t(1-t) < _CHAIN_MIN_VAR: see _left_tail_start; _TOP_WIDTH_STEP: see _top_tail
_ANCHOR_EVERY, _CHAIN_MIN_VAR, _TOP_WIDTH_STEP = 128, 400.0, 16
_STEP_RULE = [(0.5 + s * math.sqrt(3 / 7 + c * 2 / 7 * math.sqrt(6 / 5)) / 2,  # Gauss-Legendre
               (18 - c * math.sqrt(30)) / 72) for c in (-1, 1) for s in (-1, 1)]  # on [0, 1]


def _tail_step(n: int, i: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """T_(i+1) - T_i, T_i = I(t_i; i, n-i+1) = P(Bin(n, t_i) >= i), dens = f_i(t_i): the integral
    of f_i from t_i to t_(i+1) = t_i + 1/n, less pmf_i(t_(i+1)) = (2i+1)/(2i) f_i(t_(i+1)) / n,
    with f_i(t_i + x/n) = f_i(t_i) e^phi(x), phi(x) = (i-1) log1p(2x/P) + (n-i) log1p(-2x/Q)."""
    below, above = i - 1, n - i
    half_p, half_q = i - 0.5, n - i + 0.5  # P/2, Q/2

    def phi(x: float) -> np.ndarray:
        return below * np.log1p(x / half_p) + above * np.log1p(-x / half_q)
    quad = sum(w * np.expm1(phi(x)) for x, w in _STEP_RULE)
    return dens / n * (quad - (2 * i + 1) / (2 * i) * np.expm1(phi(1.0)) - 1 / (2 * i))


def _units(x: np.ndarray) -> list[int]:
    """Each value of a float array as an exact integer multiple of 2^-1126 (see exact_sum)."""
    m, e = np.frexp(x)
    return [mant << shift for mant, shift in
            zip(np.ldexp(m, 53).astype(np.int64).tolist(), (e + 1073).tolist())]


def _top_tail(n: int, i: np.ndarray, q: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """P(Bin(n, t_i) >= i), q = 1 - t, where n t(1-t) = s^2 < _CHAIN_MIN_VAR, as the positive sum
    of the pmf from k = i: pmf(i) = dens t / i, then pmf(k+1) = pmf(k) (n-k) t / ((k+1) q).  The
    terms stop at k = n; i exceeds the mean n t by 1/2, so by Bernstein's inequality the terms past
    ceil(10 s) + 3 of them add less than 1e-17.  Each sensor takes that many ratios, or n - i
    if fewer, rounded up to a multiple of _TOP_WIDTH_STEP so that few array widths occur, and
    no more than the count for s^2 = min(_CHAIN_MIN_VAR, n/4).  The count depends on n and i
    alone, so the bits do not depend on how the sensors are split into passes."""
    t = (2.0 * i - 1.0) / (2 * n)
    count = np.minimum(np.ceil(10 * np.sqrt(n * t * q)) + 2, n - i)
    width = np.minimum(np.ceil(count / _TOP_WIDTH_STEP) * _TOP_WIDTH_STEP,
                       math.ceil(10 * math.sqrt(min(_CHAIN_MIN_VAR, n / 4))) + 2).astype(np.int64)
    sums = np.empty_like(i)
    starts = np.flatnonzero(np.diff(width, prepend=-1)).tolist()  # runs of one width
    for lo, hi in zip(starts, starts[1:] + [len(i)]):
        k = np.arange(width[lo])
        ratio = (n - i[lo:hi, None] - k) / (i[lo:hi, None] + k + 1) * (t / q)[lo:hi, None]
        sums[lo:hi] = np.cumprod(ratio, axis=1).sum(axis=1)
    return dens * t / i * (1.0 + sums)


def _left_tail_start(n: int, i: np.ndarray, q: np.ndarray, dens: np.ndarray,
                     carry: int | None = None) -> tuple[np.ndarray, int | None]:
    """L_0 = T_i = I(t_i; i, n-i+1) for a run of computed sensors, q = 1 - t, and the carry.

    Where n t(1-t) = (i-1/2)(n-i+1/2)/n, which falls in i on this half, is at least
    _CHAIN_MIN_VAR, T is chained up from the middle sensor, where the reflection
    T_(n+1-i) = 1 - T_i gives it exactly: 1/2 for odd n, and (1 + step_(n/2)) / 2 at n/2+1
    for even n, whose density is the one at n/2.  Each _ANCHOR_EVERY-th sensor, an anchor, is
    the exactly rounded sum of that value and the _tail_step values below it; the sensors
    between add their own steps to their anchor.  `carry` holds the exact sum, in units of
    2^-1126, from one pass to the next: a pass above the middle starts on an anchor, with the
    carry of the pass below (None: i[0] is the middle sensor).  The top sensors take _top_tail.
    """
    m, k = int(np.count_nonzero((i - 0.5) * (n - i + 0.5) >= n * _CHAIN_MIN_VAR)), _ANCHOR_EVERY
    start = np.empty_like(i)
    start[m:] = _top_tail(n, i[m:], q[m:], dens[m:])
    if m:
        if carry is None:  # i[0] is the middle sensor; a step's units are even, so halving is exact
            mid = 0 if n % 2 else _units(_tail_step(n, i[:1] - 1, dens[:1]))[0]
            carry = (1 << 1126) + mid >> 1
        step = np.zeros((-(-m // k), k))  # step[r, j] = T_(s+1) - T_s at sensor s = i[r k + j]
        step.ravel()[:m] = _tail_step(n, i[:m], dens[:m])
        anchors = []
        for block in _units(step.sum(axis=1)):
            anchors.append(carry / (1 << 1126))  # int / int rounds correctly
            carry += block
        below = np.zeros_like(step)  # T less T at the block's anchor
        np.cumsum(step[:, :-1], axis=1, out=below[:, 1:])
        start[:m] = (np.array(anchors)[:, None] + below).ravel()[:m]
    return start, carry


@functools.lru_cache(maxsize=4)
def _pass_terms(n: int, lo: int, hi: int,
                carry: int | None) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The part of the pass over sensors lo..hi-1 that no order changes: the densities
    f_i(t_i), L_0 = T_i and the carry out (_left_tail_start), both arrays read-only.  A
    function of its arguments alone, so the next order at the same n reuses it."""
    i, _, one_minus_t = _anchor_terms(n, lo, hi)
    dens = beta_density_at_anchor(n, i)
    start, carry = _left_tail_start(n, i, one_minus_t, dens, carry)
    dens.setflags(write=False)
    start.setflags(write=False)
    return dens, start, carry


def _passes(n: int, a: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """For odd a, the computed sensors i > n/2 in passes of at most _CHUNK: for each pass,
    its first sensor, E(t-X)^a and L_a = E[(t-X)^a; X < t].

    A sensor's total is 2 L_a - E(t-X)^a.  L_0 comes from _left_tail_start, whose carry
    joins the passes; _pass_terms keeps it with the densities for the next order.  Each
    value is formed elementwise and each pass starts on a chain anchor, so the bits do not
    depend on _CHUNK.  The middle sensor of odd n leads the first pass.  Even orders take
    the closed form, moments.signed_moment_total.
    """
    carry = None
    for lo in range(n // 2 + 1, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        i, t, one_minus_t = _anchor_terms(n, lo, hi)
        h = (2.0 * i - 1.0 - n) / (2 * n)  # t - 1/2
        tq = t * one_minus_t
        full = _left_moment(n, a, tq, h, 0.0, 1.0)
        dens, start, carry = _pass_terms(n, lo, hi, carry)
        yield lo, full, _left_moment(n, a, tq, h, tq * dens, start)


def odd_total(n: int, a: int) -> float:
    """Float total of the expected cost for odd a.

    By reflection E_i = E_(n+1-i), so the total is twice the exact sum of the computed
    half (_passes) less the middle sensor of odd n, rounded once; no per-sensor array
    outlives its pass.
    """
    total = Fraction(0)
    for lo, full, left in _passes(n, a):
        e_total = 2.0 * left - full
        total += 2 * exact_sum(e_total)
        if lo == n // 2 + 1:  # the middle sensor, counted once
            total -= exact_sum(e_total[: n % 2])
    return float(total)
