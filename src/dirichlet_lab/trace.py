"""Killing part of the restricted form and the boundary-trace functional.

The killing part of D collects the jump intensity into the complement plus
the native killing; its potential over D equals the probability of leaving D
by an interior jump or interior death, which is identically one on purely
jumping chains.  The trace functional evaluates exit averages of |u| times
that potential along an interior exhaustion: it vanishes for solutions
without boundary-measure data and tends to M|nu| for solutions with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import DiscreteForm, as_subset, exterior_flux
from .frac1d import apply_PV_interval
from .potential import green_apply
from .projection import harmonic_extension

__all__ = [
    "TraceSequence",
    "aitken",
    "aitken_iterated",
    "killing_part",
    "killing_part_frac",
    "trace_sequence_frac",
    "trace_sequence_graph",
]


def killing_part(form: DiscreteForm, D) -> np.ndarray:
    """Atom weights of the killing measure of the form restricted to D.

    kappa_D[x] = 2 * sum_{y outside D} J[x, y] + kappa[x] for x in D; the
    factor matches the pair-counting of the energy so that the potential of
    kappa_D is exactly one on D for any transient D.
    """
    idx = as_subset(form.n, D)
    out = np.zeros(form.n)
    out[idx] = exterior_flux(form, idx, np.ones(form.n)) + form.kappa[idx]
    return out


def killing_part_frac(kernels, x) -> np.ndarray:
    """Continuum killing density: integral of the jump density over |y| > 1."""
    x = np.asarray(x, dtype=float)
    a = kernels.jump_coef
    return (a / kernels.alpha) * ((1.0 - x) ** -kernels.alpha + (1.0 + x) ** -kernels.alpha)


def aitken(seq) -> float:
    """Aitken delta-squared extrapolation of the last three terms."""
    seq = np.asarray(seq, dtype=float)
    if seq.size < 3:
        return float(seq[-1])
    s0, s1, s2 = seq[-3:]
    denom = s2 - 2.0 * s1 + s0
    if abs(denom) < 1e-300:
        return float(s2)
    return float(s2 - (s2 - s1) ** 2 / denom)


def aitken_iterated(seq) -> float:
    """Sliding-window delta-squared, applied twice when the tail allows.

    Trace tails typically mix two geometric modes (the level ratio drifts
    before settling), which a single pass cannot remove; the second pass is
    only used when enough transformed terms exist.
    """
    seq = np.asarray(seq, dtype=float)
    for _ in range(2):
        if seq.size < 3:
            break
        seq = np.array([aitken(seq[k:k + 3]) for k in range(seq.size - 2)])
    return float(seq[-1])


@dataclass
class TraceSequence:
    """Exit-average values per nest level and probe, with their limits.

    ``values[k, j]`` is the level-k value at probe j; the limit is reported
    alongside the raw sequence as ``extrapolated``.
    """

    probes: np.ndarray
    values: np.ndarray
    extrapolated: np.ndarray


def trace_sequence_graph(u, form: DiscreteForm, D, nest) -> TraceSequence:
    """Discrete trace values P_V(|u| * potential-of-killing) along the nest.

    Each level is ``harmonic_extension`` of the integrand, so the exit
    kernel is never formed.  A finite exhaustion has no tail to
    extrapolate: its last level is its limit, and is reported as
    ``extrapolated``.
    """
    if not nest:
        raise ValueError("nest must be nonempty")
    idx = as_subset(form.n, D)
    u = np.asarray(u, dtype=float)
    integrand = np.abs(u) * green_apply(form, idx, killing_part(form, idx))
    values = np.asarray([harmonic_extension(form, V, integrand)[idx] for V in nest])
    return TraceSequence(probes=idx, values=values, extrapolated=values[-1].copy())


def trace_sequence_frac(kernels, u_fn, radii, probes=(0.0, 0.5, -0.5, 0.9, -0.9),
                        edge_exponent: float = 0.0) -> TraceSequence:
    """Continuum trace values along the interval exhaustion (-a, a) -> (-1, 1).

    The alpha-stable chain leaves any interval by a jump from the interior,
    so the potential of the killing part is one on D and the level value is
    the exit average of |u| restricted to D.  ``edge_exponent`` declares a
    known blow-up power of u at the boundary (e.g. for Martin inputs) so the
    quadrature can bake it into the edge panels.  Each probe's limit is the
    iterated Aitken value of its levels, which needs a tail of three: a nest
    in which a probe enters fewer than three levels is a ValueError naming
    the largest radius and each such probe's level count, raised before
    ``u_fn`` is called.
    """
    probes = np.asarray(probes, dtype=float)
    # inside[k, j]: probe j has entered level k; with fewer than three
    # levels a probe's last value is no limit
    inside = np.abs(probes)[None, :] < np.asarray(radii)[:, None]
    short = {float(p): int(n) for p, n in zip(probes, inside.sum(axis=0)) if n < 3}
    if short:
        raise ValueError(f"trace probes enter fewer than three levels of the nest, whose "
                         f"largest radius is {max(radii):g} (probe: levels {short}), so "
                         f"their limits cannot be extrapolated")
    rows = []
    for a, level in zip(radii, inside):
        vals = np.empty(probes.size)
        if level.any():
            vals[level] = apply_PV_interval(kernels, a, lambda y: np.abs(u_fn(y)),
                                            probes[level], edge_exponent=edge_exponent)
        # a probe that has not entered the level yet sees the identity exit
        # kernel, so its value is just |u| at the probe
        if not level.all():
            vals[~level] = np.abs(u_fn(probes[~level]))
        rows.append(vals)
    values = np.asarray(rows)
    extrap = np.array([aitken_iterated(values[inside[:, j], j])
                       for j in range(probes.size)])
    return TraceSequence(probes=probes, values=values, extrapolated=extrap)
