"""Monte Carlo oracle: drop n uniform sensors, move them to the anchors,
measure the summed a-th power displacement.

Trial block b (4096 trials) draws from its own SFC64 stream,
SeedSequence(seed, spawn_key=(b,)), one cache-sized tile at a time, and each
trial owns a fixed row of its block's draws.  Trial costs therefore depend
only on (seed, trial index), and the final reduction is an exactly-rounded sum
over trial order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SimulationConfig", "SimulationResult", "estimate"]

_BLOCK = 4096  # trials per substream block; fixed so layout never depends on workers
_TILE_BYTES = 1 << 19  # draws reduced per pass; best or tied among 128 KiB-2 MiB


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    a: int
    trials: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n < 1 or self.a < 1:
            raise ValueError("n and a must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    std_error: float
    ci95: tuple[float, float]
    trials: int
    seed: int


def _costs_from_uniforms(u: np.ndarray, a: int) -> np.ndarray:
    """Per-trial cost rows: sort each row, sum |X_(i) - (2i-1)/(2n)|^a.

    Works in place: u is overwritten, so a tile needs no second copy.
    """
    import numpy as np  # numpy loads on first use, here and below: the CLI starts without it
    n = u.shape[1]
    anchors = (2.0 * np.arange(1, n + 1) - 1.0) / (2 * n)
    u.sort(axis=1)
    u -= anchors
    np.abs(u, out=u)
    if a != 1:
        u **= a
    return u.sum(axis=1)


def _block_costs(seed: int, block: int, rows: int, n: int, a: int) -> np.ndarray:
    """Costs of one block's trials, drawn and reduced one reusable tile at a time."""
    import numpy as np
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,))))
    step = max(1, _TILE_BYTES // (8 * n))
    tile = np.empty((min(step, rows), n))
    costs = np.empty(rows)
    for start in range(0, rows, step):
        u = tile[:rows - start]
        rng.random(out=u)
        costs[start:start + len(u)] = _costs_from_uniforms(u, a)
    return costs


def _span_costs(seed: int, span: list[tuple[int, int]], n: int, a: int) -> np.ndarray:
    import numpy as np
    return np.concatenate([_block_costs(seed, b, rows, n, a) for b, rows in span])


def estimate(config: SimulationConfig) -> SimulationResult:
    """Mean cost over trials with standard error and a 1.96-sigma interval."""
    import numpy as np
    from ._float_route import _exact_sum
    trials, n, a, seed = config.trials, config.n, config.a, config.seed
    blocks = [(b, min(_BLOCK, trials - b * _BLOCK))
              for b in range((trials + _BLOCK - 1) // _BLOCK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.workers, len(blocks), cpus or 1)
    if workers == 1:
        costs = _span_costs(seed, blocks, n, a)
    else:
        from concurrent.futures import ProcessPoolExecutor  # single-worker runs skip its import
        spans = [blocks[k * len(blocks) // workers:(k + 1) * len(blocks) // workers]
                 for k in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            costs = np.concatenate(list(pool.map(partial(_span_costs, seed, n=n, a=a), spans)))
    mean = float(_exact_sum(costs)) / trials
    if trials > 1:
        costs -= mean  # squared deviations in place: no trial-sized temporaries
        costs *= costs
        var = float(_exact_sum(costs)) / (trials - 1)
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    ci = (mean - 1.96 * std_error, mean + 1.96 * std_error)
    return SimulationResult(mean=mean, std_error=std_error, ci95=ci,
                            trials=trials, seed=seed)
