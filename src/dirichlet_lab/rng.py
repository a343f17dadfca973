"""Counter-based random substreams and the oracles' goodness-of-fit test.

Every consumer keys a Philox generator by (seed, stream); results are then
reproducible independently of how the streams are scheduled across threads,
and accumulators can be merged deterministically in stream order.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.special import chdtrc

__all__ = ["chisquare", "substream", "worker_count"]

_MASK64 = (1 << 64) - 1


def substream(seed: int, stream: int) -> np.random.Generator:
    """Generator for the given (seed, stream) pair."""
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: at most DIRICHLET_LAB_THREADS
    (4 when it is unset or 0), at most ``tasks``, at least one."""
    cap = int(os.environ.get("DIRICHLET_LAB_THREADS", "0")) or 4
    return max(1, min(cap, tasks))


def chisquare(observed, expected) -> tuple[float, float]:
    """Pearson chi-square statistic and upper-tail p-value of observed counts
    against expected counts with the same total (to sqrt(eps) relative)."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    obs_sum, exp_sum = observed.sum(), expected.sum()
    rtol = np.finfo(float).eps ** 0.5
    if abs(obs_sum - exp_sum) > rtol * min(obs_sum, exp_sum):
        raise ValueError(f"observed total {obs_sum} and expected total {exp_sum} differ "
                         f"by more than {rtol:.3g} relative")
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return stat, float(chdtrc(observed.size - 1, stat))
