"""Counter-based random substreams, the oracles' goodness-of-fit test, and
the argument check, reductions and band width shared by the Monte Carlo front
ends.

Every consumer keys a Philox generator by (seed, stream); a path's draws then
depend only on its stream, not on how many paths are stepped together.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["check_estimate_args", "chisquare", "control_variate", "live_segments",
           "mean_and_stderr", "substream"]

# paths per substream chunk of both walks: chunk c's paths draw from stream c
CHUNK = 4096
# half-width of a Monte Carlo band, in standard errors of its estimate
BAND_Z = 3.0
_MASK64 = (1 << 64) - 1


def substream(seed: int, stream: int) -> np.random.Generator:
    """Generator for the given (seed, stream) pair."""
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def live_segments(active: np.ndarray, starts: np.ndarray):
    """``(c, s)`` for each chunk c with live paths: chunk c owns the paths from
    ``starts[c]`` on, and ``active`` is sorted, so slice s of it holds them all;
    a stepper fills segment s of its draws from chunk c's own substreams."""
    seg = np.append(np.searchsorted(active, starts), active.size)
    for c in np.flatnonzero(seg[1:] > seg[:-1]):
        yield c, slice(seg[c], seg[c + 1])


def check_estimate_args(kinds, n_paths: int, needs: dict, given: dict) -> None:
    """Checks made before any path is walked: ``kinds`` is a tuple of kinds
    named in ``needs``, ``n_paths`` is at least 100, and no argument that a
    kind reads (``needs[kind]``, looked up in ``given``) is None."""
    if isinstance(kinds, str):
        raise ValueError(f"kinds must be a tuple of estimator kinds, got the string {kinds!r}")
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    for kind in kinds:
        if kind not in needs:
            raise ValueError(f"unknown estimator kind: {kind!r}")
        missing = [name for name in needs[kind] if given[name] is None]
        if missing:
            raise ValueError(f"estimator {kind} needs {', '.join(missing)}")


def mean_and_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean of the per-path values and its standard error."""
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(vals.size))


def control_variate(vals: np.ndarray, cv: np.ndarray, cv_mean: float) -> tuple[float, float]:
    """``mean_and_stderr`` of vals less its regression on a control variate cv
    of known mean: vals - beta (cv - cv_mean) with beta = cov(vals, cv) /
    var(cv).  The mean is kept, and the part of the spread that cv explains
    goes.

    The variate holds only for a walk of the law that makes cv_mean its mean:
    a walk of the wrong law can move the sample and cv together, and the
    regression would cancel the fault.  So cv's own mean must lie within
    ``BAND_Z`` standard errors of cv_mean; a walk where it does not, a sample
    that is not finite, or cv without spread gives the plain estimate."""
    c_mean, c_se = mean_and_stderr(cv)
    if not (np.isfinite(vals).all() and 0.0 < c_se and abs(c_mean - cv_mean) <= BAND_Z * c_se):
        return mean_and_stderr(vals)
    dev = cv - c_mean
    beta = float(np.dot(vals - vals.mean(), dev)) / float(np.dot(dev, dev))
    return mean_and_stderr(vals - beta * (cv - cv_mean))


def _chi2_tail(k: int, x: float) -> float:
    """P(chi^2_k > x) for an integer number k >= 1 of degrees of freedom, in
    closed form (Abramowitz and Stegun 26.4.4-26.4.5): a sum of Poisson terms
    h^j exp(-h) / j! with h = x/2 for even k; erfc(sqrt(h)) plus the terms at
    half-integer j for odd k.  Each term is taken from its logarithm, so none
    underflows where the tail is not negligible (large k with x near k)."""
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = 0.5 * x
    log_h = math.log(h)
    total, j = (math.erfc(math.sqrt(h)), 0.5) if k % 2 else (0.0, 0.0)
    for _ in range(k // 2):
        total += math.exp(j * log_h - h - math.lgamma(j + 1.0))
        j += 1.0
    return total


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
    return stat, _chi2_tail(observed.size - 1, stat)
