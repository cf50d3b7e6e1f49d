#!/usr/bin/env python3
"""Measure what the odd-order expansion leaves out, and the N0(a) it implies.

For each odd order a and each n of the grid, the table gives the relative residual
r = S/E - 1 of the exact total S against the four-term expansion E
(anchor_moments._expansion: the bracket rows b_1..b_4 of _BRACKET and the exact boundary
constants of _BOUNDARY, as the exact integer terms of _terms, with sqrt(2 pi n) and the sum
to 40 digits), and r n^p, where n^-p is the relative power of the
first omitted term, taken from _expansion.ENVELOPE.  Below the table: the coefficient r n^p
at the largest n and the N0 it implies (the smallest n with |r n^p| n^-p <= 2^-54); the
committed envelope K and N0 (_expansion.ENVELOPE, moments._EXPANSION_N0); and whether
|r| <= K n^-p held on every row from n = 400 on.

    python3 scripts/expansion_envelope.py [--orders 1,3,5,7,9,11,13]
                                          [--grid 100,200,400,800,1600,2000]

The default grid takes about 2 s on a 2-core machine: the orders at one n share its
binomial tails, and each odd total is summed and reduced once.
"""

import argparse
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from anchor_moments._expansion import _K, _TWO_PI_4K, ENVELOPE, _terms
from anchor_moments.moments import _EXPANSION_N0, MomentQuery, _exact_total


def smallest_n(bound: Fraction, power: int) -> int:
    """The smallest n with n^power >= bound, exactly."""
    n = max(1, int(float(bound) ** (1 / power)) - 2)
    while Fraction(n) ** power < bound:
        n += 1
    return n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--orders", default="1,3,5,7,9,11,13",
                        help="comma-separated odd orders <= 13")
    parser.add_argument("--grid", default="100,200,400,800,1600,2000",
                        help="comma-separated n, at most 2000 (exact totals)")
    args = parser.parse_args()
    grid = [int(x) for x in args.grid.split(",")]
    orders = [int(x) for x in args.orders.split(",")]
    # n outside, so that the orders at one n share its binomial tails (moments._tail_terms)
    totals = {(n, a): _exact_total(MomentQuery(n, a)) for n in grid for a in orders}

    for a in orders:
        k, p = ENVELOPE[a]
        print(f"a = {a}:  omitted term relative n^-{p}")
        print(f"  {'n':>6}  {'r = S/E - 1':>14}  {'r n^p':>11}")
        holds = True
        for n in grid:
            exact, (num, den, b_num, b_den) = totals[n, a], _terms(n, a)
            with localcontext(Context(prec=40)):
                root = (Decimal(_TWO_PI_4K) * n).sqrt() / 2**_K  # _TWO_PI_4K: 77 digits
                expansion = root * num / den + Decimal(b_num) / b_den
                r = Decimal(exact.numerator) / exact.denominator / expansion - 1
                scaled = r * Decimal(n) ** Decimal(float(p))
            holds &= n < 400 or abs(scaled) <= k
            print(f"  {n:>6}  {float(r):>14.6e}  {float(scaled):>11.7f}")
        n0 = smallest_n((Fraction(scaled) * 2**54) ** 2, int(2 * p))  # |r| <= 2^-54
        print(f"  fitted coefficient at n = {grid[-1]}: {float(scaled):.6f}, implies N0 = {n0}")
        print(f"  committed envelope K = {float(k)}, N0 = {_EXPANSION_N0[a]}; "
              f"|r| <= K n^-p from n = 400 on: {'yes' if holds else 'no'}")
        print()


if __name__ == "__main__":
    main()
