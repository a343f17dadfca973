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
        out = []
        for k in range(seq.size - 2):
            s0, s1, s2 = seq[k:k + 3]
            denom = s2 - 2.0 * s1 + s0
            out.append(s2 if abs(denom) < 1e-300 else s2 - (s2 - s1) ** 2 / denom)
        seq = np.asarray(out)
    return float(seq[-1])


@dataclass
class TraceSequence:
    """Exit-average values per nest level and probe, with extrapolated tails.

    ``values[k, j]`` is the level-k value at probe j; the extrapolated limit
    is reported alongside the raw sequence, plus a flag telling whether the
    tail was monotone (so the limit claim is backed by the raw data).
    """

    probes: np.ndarray
    levels: list
    values: np.ndarray
    extrapolated: np.ndarray
    monotone_tail: np.ndarray


def trace_sequence_graph(u, form: DiscreteForm, D, nest, probes=None) -> TraceSequence:
    """Discrete trace values P_V(|u| * potential-of-killing) along the nest.

    P_V h is applied without forming the exit kernel: it is h outside V and
    -A_VV^{-1} A[V, Vc] h[Vc] on V, so only the values of h outside V enter.
    """
    if not nest:
        raise ValueError("nest must be nonempty")
    idx = as_subset(form.n, D)
    probes = idx if probes is None else as_subset(form.n, probes)
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
        rows.append(vals[probes])
    values = np.asarray(rows)
    extrap = np.array([aitken_iterated(values[:, j]) for j in range(probes.size)])
    tail = values[-3:] if values.shape[0] >= 3 else values
    monotone = np.all(np.diff(np.abs(tail), axis=0) <= 1e-12, axis=0)
    return TraceSequence(probes=probes, levels=[list(map(int, V)) for V in nest],
                         values=values, extrapolated=extrap, monotone_tail=monotone)


def trace_sequence_frac(kernels, u_fn, radii, probes=(0.0, 0.5, -0.5, 0.9, -0.9),
                        edge_exponent: float = 0.0, order: int = 12,
                        levels: int = 24) -> TraceSequence:
    """Continuum trace values along the interval exhaustion (-a, a) -> (-1, 1).

    The alpha-stable chain leaves any interval by a jump from the interior,
    so the potential of the killing part is one on D and the level value is
    the exit average of |u| restricted to D.  ``edge_exponent`` declares a
    known blow-up power of u at the boundary (e.g. for Martin inputs) so the
    quadrature can bake it into the edge panels.
    """
    from .frac1d import apply_PV_interval

    probes = np.asarray(probes, dtype=float)
    rows = []
    inside = []
    for a in radii:
        vals = np.empty(probes.size)
        for j, x in enumerate(probes):
            xs = x * 1.0
            if abs(xs) >= a:
                # the probe has not entered the level yet: the exit kernel is
                # the identity there, so the value is just |u| at the probe
                vals[j] = abs(u_fn(np.array([xs]))[0])
                continue
            vals[j] = apply_PV_interval(
                kernels, a, lambda y: np.abs(u_fn(y)), xs,
                y_hi=1.0, edge_exponent=edge_exponent, order=order, levels=levels)
        rows.append(vals)
        inside.append(np.abs(probes) < a)
    values = np.asarray(rows)
    inside = np.asarray(inside)
    extrap = np.array([aitken_iterated(values[inside[:, j], j])
                       for j in range(probes.size)])
    tail = values[-3:] if values.shape[0] >= 3 else values
    monotone = np.all(np.diff(tail, axis=0) <= 1e-12, axis=0)
    return TraceSequence(probes=probes, levels=[float(a) for a in radii],
                         values=values, extrapolated=extrap, monotone_tail=monotone)


def eta_measure(kernels, u_fn, a: float, x0: float = 0.0, order: int = 12,
                outer_levels: int = 22, inner_levels: int = 36,
                edge_exponent: float = 0.0) -> float:
    """Total mass of the exit-flux measure of u across (-a, a) inside (-1, 1).

    Double integral of G_V(x0, z) j(|z - y|) u(y) over z in V and y in the
    annulus a < |y| < 1; equals the exit average of u restricted to D started
    at x0, which callers can cross-check through the interval kernel route.
    """
    from .frac1d import _graded_panels

    alpha = kernels.alpha
    # outer rule in z: graded toward +-a, where the Green factor vanishes
    # like dist^(alpha/2) but the inner y-integral blows up like
    # dist^(-alpha), and toward the base point, where the Green factor has
    # its diagonal singularity
    diag_gamma = alpha - 1.0 if alpha < 1.0 else 0.0
    zx_parts, zw_parts = [], []
    for (lo, hi, jl, jr) in ((-a, x0, -alpha / 2.0, diag_gamma),
                             (x0, a, diag_gamma, -alpha / 2.0)):
        zxp, zwp = _graded_panels(lo, hi, order=order, levels=outer_levels,
                                  grade_left=True, grade_right=True,
                                  jacobi_left=jl, jacobi_right=jr)
        zx_parts.append(zxp)
        zw_parts.append(zwp)
    zx = np.concatenate(zx_parts)
    zw = np.concatenate(zw_parts)
    total = 0.0
    for z, wz in zip(zx, zw):
        gv = kernels.green_interval(a, x0, z)
        inner = 0.0
        for (lo, hi, toward_lo) in ((a, 1.0, True), (-1.0, -a, False)):
            yx, yw = _graded_panels(lo, hi, order=order, levels=inner_levels,
                                    grade_left=toward_lo, grade_right=not toward_lo,
                                    jacobi_left=edge_exponent if not toward_lo else 0.0,
                                    jacobi_right=edge_exponent if toward_lo else 0.0)
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
