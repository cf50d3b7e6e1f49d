"""Monte Carlo oracle: drop n uniform sensors, move them to the anchors,
measure the summed a-th power displacement.

Trial block b (4096 trials) draws from its own SFC64 stream,
SeedSequence(seed, spawn_key=(b,)), one cache-sized tile at a time, and each
trial owns a fixed row of its block's draws.  Trial costs therefore depend
only on (seed, trial index).  Each block folds its costs into two exact sums as
soon as it has them, the sums of the costs and of their squares, and those
exact sums do not depend on their order, so results are bit-identical
for any worker count and memory does not grow with the number of trials.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from functools import partial
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # fractions and numpy load on first use: the CLI starts without them
    from fractions import Fraction

    import numpy as np

__all__ = ["SimulationConfig", "SimulationResult", "estimate"]

_BLOCK = 4096  # trials per substream block; fixed so layout never depends on workers
_TILE_BYTES = 1 << 19  # draws reduced per pass; best or tied among 128 KiB-2 MiB
_FOLD = 4  # blocks whose costs are summed together: 2^14 costs, one exact-sum pass


class SimulationConfig(namedtuple("SimulationConfig", "n a trials seed workers")):
    __slots__ = ()

    def __new__(cls, n: int, a: int, trials: int, seed: int = 0,
                workers: int = 1) -> SimulationConfig:
        if n < 1 or a < 1:
            raise ValueError("n and a must be >= 1")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return super().__new__(cls, n, a, trials, seed, workers)


class SimulationResult(namedtuple("SimulationResult", "mean std_error ci95 trials seed")):
    __slots__ = ()
    mean: float
    std_error: float
    ci95: tuple[float, float]
    trials: int
    seed: int


def _costs_from_uniforms(u: np.ndarray, a: int) -> np.ndarray:
    """Per-trial cost rows: sort each row, sum |X_(i) - (2i-1)/(2n)|^a.

    Works in place: u is overwritten, so a tile needs no second copy, except of the base
    for an a that is not a power of two.  The a-th power is formed by left-to-right binary
    powering: square once per bit of a below the top one, then multiply by the base where
    that bit is set.  Plain IEEE multiplies give the same bits on every CPU, where numpy's
    pow is dispatched per CPU, and they cost a quarter of it.
    """
    import numpy as np  # numpy loads on first use, here and below: the CLI starts without it
    n = u.shape[1]
    anchors = (2.0 * np.arange(1, n + 1) - 1.0) / (2 * n)
    u.sort(axis=1)
    u -= anchors
    if a % 2:  # an even power takes no sign
        np.abs(u, out=u)
    base = u.copy() if a & (a - 1) else None
    for bit in bin(a)[3:]:
        u *= u
        if bit == "1":
            u *= base
    return u.sum(axis=1)


def _block_costs(seed: int, block: int, rows: int, n: int, a: int) -> np.ndarray:
    """Costs of one block's trials, drawn and reduced one reusable tile at a time."""
    import numpy as np
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,))))
    step = max(1, _TILE_BYTES // (8 * n * (2 if a & (a - 1) else 1)))  # tile and base copy
    tile = np.empty((min(step, rows), n))
    costs = np.empty(rows)
    for start in range(0, rows, step):
        u = tile[:rows - start]
        rng.random(out=u)
        costs[start:start + len(u)] = _costs_from_uniforms(u, a)
    return costs


def _span_sums(seed: int, blocks: range, trials: int, n: int, a: int) -> tuple[Fraction, Fraction]:
    """Exact sums of the costs and of their squares over a run of blocks.

    The costs of _FOLD blocks at a time share one exact-sum pass, which costs less than one
    pass per block.  Each square is c^2 = sq + err with sq = fl(c^2) and err exact, by Dekker's
    product over the split c = hi + lo into 26-bit halves (T. J. Dekker, A floating-point
    technique for extending the available precision, 1971).  That holds for costs from
    2^-485 up; below, the products round in the subnormals, so the sum of squares is good to
    3 trials 2^-1074 absolute and the variance to 6 2^-1074.
    """
    import numpy as np
    from ._float_route import exact_sum
    total = total_sq = 0
    for first in blocks[::_FOLD]:
        c = np.concatenate([_block_costs(seed, b, min(_BLOCK, trials - b * _BLOCK), n, a)
                            for b in range(first, min(first + _FOLD, blocks.stop))])
        big = c * (2.0**27 + 1)  # Veltkamp's split
        hi = big - (big - c)
        lo = c - hi
        sq = c * c
        err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo  # c^2 - sq, exactly
        total += exact_sum(c)
        total_sq += exact_sum(sq) + exact_sum(err)
    return total, total_sq


def estimate(config: SimulationConfig) -> SimulationResult:
    """Mean cost over trials with standard error and a 1.96-sigma interval.

    Each worker runs one contiguous span of blocks and returns its two exact sums
    (_span_sums), so neither the workers nor this process keeps a per-trial array.  The
    mean is the correctly rounded sum over trials divided by trials; the variance is the
    sample variance (N sum c^2 - (sum c)^2) / (N (N-1)) of the N trial costs, formed
    exactly and rounded once.
    """
    trials, n, a, seed = config.trials, config.n, config.a, config.seed
    blocks = (trials + _BLOCK - 1) // _BLOCK
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.workers, blocks, cpus or 1)
    spans = [range(k * blocks // workers, (k + 1) * blocks // workers) for k in range(workers)]
    job = partial(_span_sums, seed, trials=trials, n=n, a=a)
    if workers == 1:
        sums = [job(spans[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor  # single-worker runs skip its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(job, spans))
    total, total_sq = map(sum, zip(*sums))
    mean = float(total) / trials  # the rounded sum, divided: float(total / trials) can differ
    if trials > 1:
        var = float((trials * total_sq - total * total) / (trials * (trials - 1)))
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    ci = (mean - 1.96 * std_error, mean + 1.96 * std_error)
    return SimulationResult(mean=mean, std_error=std_error, ci95=ci,
                            trials=trials, seed=seed)
