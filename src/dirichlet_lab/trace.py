"""Killing part of the restricted form and the boundary-trace functional.

The killing part of D collects the jump intensity into the complement plus
the native killing; its potential over D equals the probability of leaving D
by an interior jump or interior death, which is identically one on purely
jumping chains.  The trace functional evaluates exit averages of |u| times
that potential along an interior exhaustion: it vanishes for solutions and
recovers the boundary-measure mass for pure Martin-kernel inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .forms import DiscreteForm, as_subset, complement
from .potential import green_apply
from .projection import _restricted_cho

__all__ = [
    "TraceSequence",
    "aitken",
    "aitken_iterated",
    "eta_measure",
    "killing_part",
    "killing_part_frac",
    "trace_csv_rows",
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
    comp = complement(form.n, idx)
    out = np.zeros(form.n)
    if idx.size:
        out[idx] = 2.0 * form.J[np.ix_(idx, comp)].sum(axis=1) + form.kappa[idx]
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

    P_V h is applied without forming the exit kernel: it is h outside V and
    -A_VV^{-1} A[V, Vc] h[Vc] on V, so only the values of h outside V enter.
    A finite exhaustion has no tail to extrapolate: its last level is its
    limit, and is reported as ``extrapolated``.
    """
    if not nest:
        raise ValueError("nest must be nonempty")
    idx = as_subset(form.n, D)
    u = np.asarray(u, dtype=float)
    integrand = np.abs(u) * green_apply(form, idx, killing_part(form, idx))
    A = form.energy_matrix()
    rows = []
    for V in nest:
        V = as_subset(form.n, V)
        vals = integrand.copy()
        if V.size:
            comp = complement(form.n, V)
            flux = A[np.ix_(V, comp)] @ integrand[comp]
            # 0.0 - x, not -x: a zero flux gives +0.0, as the kernel product did
            vals[V] = 0.0 - cho_solve(_restricted_cho(form, V), flux)
        rows.append(vals[idx])
    values = np.asarray(rows)
    return TraceSequence(probes=idx, values=values, extrapolated=values[-1].copy())


def trace_sequence_frac(kernels, u_fn, radii, probes=(0.0, 0.5, -0.5, 0.9, -0.9),
                        edge_exponent: float = 0.0) -> TraceSequence:
    """Continuum trace values along the interval exhaustion (-a, a) -> (-1, 1).

    The alpha-stable chain leaves any interval by a jump from the interior,
    so the potential of the killing part is one on D and the level value is
    the exit average of |u| restricted to D.  ``edge_exponent`` declares a
    known blow-up power of u at the boundary (e.g. for Martin inputs) so the
    quadrature can bake it into the edge panels.  Each probe's limit is the
    iterated Aitken value of its levels.
    """
    from .frac1d import apply_PV_interval

    probes = np.asarray(probes, dtype=float)
    rows = []
    inside = []
    for a in radii:
        entered = np.abs(probes) < a
        vals = np.empty(probes.size)
        if entered.any():
            vals[entered] = apply_PV_interval(kernels, a, lambda y: np.abs(u_fn(y)),
                                              probes[entered], edge_exponent=edge_exponent)
        # a probe that has not entered the level yet sees the identity exit
        # kernel, so its value is just |u| at the probe
        for j in np.flatnonzero(~entered):
            vals[j] = abs(u_fn(probes[j:j + 1])[0])
        rows.append(vals)
        inside.append(entered)
    values = np.asarray(rows)
    inside = np.asarray(inside)
    extrap = np.array([aitken_iterated(values[inside[:, j], j])
                       for j in range(probes.size)])
    return TraceSequence(probes=probes, values=values, extrapolated=extrap)


def eta_measure(kernels, u_fn, a: float) -> float:
    """Total mass of the exit-flux measure of u across (-a, a) inside (-1, 1).

    Double integral of G_V(0, z) j(|z - y|) u(y) over z in V and y in the
    annulus a < |y| < 1; equals the exit average of u restricted to D started
    at 0, which callers can cross-check through the interval kernel route.
    """
    from .frac1d import _graded_panels, _split_rule

    alpha = kernels.alpha
    # outer rule in z: graded toward +-a, where the Green factor vanishes
    # like dist^(alpha/2) but the inner y-integral blows up like
    # dist^(-alpha), and toward the base point, where the Green factor has
    # its diagonal singularity
    diag_gamma = alpha - 1.0 if alpha < 1.0 else 0.0
    (z0, w0), (z1, w1) = _split_rule(-a, 0.0, a, 12, 22, -alpha / 2.0, diag_gamma)
    zx = np.concatenate([z0, z1])
    zw = np.concatenate([w0, w1])
    # inner rule in y: graded toward +-a, where j(|z - y|) peaks as z nears +-a
    annulus = (_graded_panels(a, 1.0, 12, 36, left=0.0),
               _graded_panels(-1.0, -a, 12, 36, right=0.0))
    total = 0.0
    for z, wz in zip(zx, zw):
        gv = kernels.green_interval(a, 0.0, z)
        inner = 0.0
        for yx, yw in annulus:
            inner += float(np.sum(yw * kernels.j(np.abs(z - yx)) * u_fn(yx)))
        total += wz * gv * inner
    return float(total)


def trace_csv_rows(seq: TraceSequence):
    """Rows (probe, level, value, extrapolated) for CSV export."""
    rows = []
    for j, p in enumerate(np.asarray(seq.probes, dtype=float)):
        for k in range(seq.values.shape[0]):
            rows.append((float(p), k + 1, float(seq.values[k, j]), float(seq.extrapolated[j])))
    return rows
