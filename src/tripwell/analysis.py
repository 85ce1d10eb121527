"""Microstructure diagnostics: volume fractions, transition layers, interval
classification, empirical gradient histograms, and the minimizing-measure
family of the unregularized problem.

The gradient u_x of a profile is treated as piecewise constant per cell when
measuring sets (consistent with the midpoint energy quadrature) and as
piecewise linear between cell midpoints when locating threshold crossings.
The layers of each band come from one vectorized scan of that polyline, and
the d-intervals pair each A+ layer with the A-band layer that follows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .grids import GridFunction
from .potential import PotentialSpec, eta0_bound

_EDGE = 1e-12


@dataclass(frozen=True)
class VolumeFractions:
    """Lebesgue measures of the eta-neighbourhoods of the three wells."""

    eta: float
    lam: tuple[float, float, float]
    sigma_measure: float
    overlap: bool                      # eta at/above the disjointness bound


@dataclass(frozen=True)
class TransitionLayer:
    """Maximal band crossing between two neighbouring well collars."""

    kind: str                          # "A+", "A-", "B+", "B-"
    span: tuple[float, float]


@dataclass(frozen=True)
class DInterval:
    """Inner core of one gradient excursion above the z1 collar."""

    span: tuple[float, float]
    alpha: float
    beta: float
    n_layers: int
    dtype: str                         # "0","I","II","III","IV" or "open"
    e_span: Optional[tuple[float, float]] = None

    def as_dict(self) -> dict:
        return {"span": list(self.span), "alpha": self.alpha, "beta": self.beta,
                "n_i": self.n_layers, "type": self.dtype,
                "e_span": list(self.e_span) if self.e_span else None}


@dataclass(frozen=True)
class GradientHistogram:
    edges: np.ndarray
    masses: np.ndarray
    mean: float                        # exact measure-weighted mean of u_x

    def as_dict(self) -> dict:
        return {"bin_edges": self.edges.tolist(), "masses": self.masses.tolist(),
                "mean": self.mean}


@dataclass(frozen=True)
class MeasureReport:
    eta: float
    lam: tuple[float, float, float]
    sigma_measure: float
    layer_counts: dict
    d_intervals: tuple[DInterval, ...]
    histogram: GradientHistogram

    def as_dict(self) -> dict:
        return {
            "eta": self.eta, "lambda": list(self.lam),
            "sigma_measure": self.sigma_measure,
            "layers": dict(self.layer_counts),
            "d_intervals": [d.as_dict() for d in self.d_intervals],
            "histogram": self.histogram.as_dict(),
        }


def volume_fractions(u: GridFunction, spec: PotentialSpec, eta: float) -> VolumeFractions:
    """Cell-measure sums of {|u_x - z_k| <= eta} and of the far set Sigma.

    For eta below the disjointness bound the four measures partition the
    domain.  Larger eta (the sweep diagnostics evaluate at eta = eps^(1/3),
    which can exceed that bound at moderate eps) is accepted but flagged:
    neighbourhoods may overlap, so the partition identity is off the table.
    """
    z1, z2, z3 = spec.wells
    if not 0.0 < eta < 0.5 * (z3 - z1):
        raise ParameterError("eta must lie in (0, (z3-z1)/2)")
    s = u.slopes()
    h = u.cell_widths()
    dist = [np.abs(s - z) for z in spec.wells]
    lam = tuple(float(np.dot(h, (d <= eta).astype(float))) for d in dist)
    far = (dist[0] > eta) & (dist[1] > eta) & (dist[2] > eta)
    sigma = float(np.dot(h, far.astype(float)))
    return VolumeFractions(eta=eta, lam=lam, sigma_measure=sigma,
                           overlap=bool(eta >= eta0_bound(spec)))


def _band_layers(x: np.ndarray, v: np.ndarray, lo: float, hi: float,
                 plus: str, minus: str) -> list[TransitionLayer]:
    """Maximal intervals with v strictly inside (lo, hi) joining the thresholds.

    The runs come from the edges of the inside mask.  Runs clipped by the
    domain boundary are discarded (their endpoint never attains the defining
    value), and runs that enter and leave through the same threshold are not
    layers.  Crossings are located by linear interpolation on the polyline.
    """
    inside = (v > lo) & (v < hi)
    edges = np.flatnonzero(np.diff(inside, prepend=False, append=False))
    i, j = edges[0::2], edges[1::2] - 1          # first and last point of each run
    keep = (i > 0) & (j < len(v) - 1)
    i, j = i[keep], j[keep]
    up = v[i - 1] <= lo                          # entered through lo
    turn = up != (v[j + 1] <= lo)                # left through the other level
    i, j, up = i[turn], j[turn], up[turn]
    x_in = _cross(x[i - 1], x[i], v[i - 1], v[i], np.where(up, lo, hi))
    x_out = _cross(x[j], x[j + 1], v[j], v[j + 1], np.where(up, hi, lo))
    return [TransitionLayer(kind=plus if p else minus, span=(a, b))
            for p, a, b in zip(up.tolist(), x_in.tolist(), x_out.tolist())]


def _cross(x0: np.ndarray, x1: np.ndarray, v0: np.ndarray, v1: np.ndarray,
           level: np.ndarray) -> np.ndarray:
    """Where each segment (x0, v0)-(x1, v1) meets ``level``; x0 if it is flat."""
    flat = v1 == v0
    t = (level - v0) / np.where(flat, 1.0, v1 - v0)
    return np.where(flat, x0, x0 + t * (x1 - x0))


def transition_layers(u: GridFunction, spec: PotentialSpec, eta: float) -> list[TransitionLayer]:
    """All A+/A-/B+/B- layers of u at collar radius eta, in position order.

    The crossings are located on u_x as a piecewise-linear function through
    the cell midpoints.  A band is empty when 2*eta reaches the gap between
    its wells: no value then lies strictly inside it.
    """
    z1, z2, z3 = spec.wells
    if not eta > 0.0:
        raise ParameterError("eta must be positive")
    x, v = u.midpoints(), u.slopes()
    layers = (_band_layers(x, v, z1 + eta, z2 - eta, "A+", "A-")
              + _band_layers(x, v, z2 + eta, z3 - eta, "B+", "B-"))
    return sorted(layers, key=lambda L: L.span[0])


def _check_thresholds(thresholds: tuple[float, float]) -> tuple[float, float]:
    r_lo, r_hi = thresholds
    if not 0.0 <= r_lo < r_hi:
        raise ParameterError("thresholds must satisfy 0 <= R_lo < R_hi")
    return r_lo, r_hi


def d_intervals(u: GridFunction, spec: PotentialSpec, eta: float,
                thresholds: tuple[float, float] = (0.1, 10.0),
                layers: Optional[list[TransitionLayer]] = None) -> list[DInterval]:
    """Pair A+/A- layers into excursion cores and classify them.

    An A+ layer pairs with the next A-band layer when that one is an A-;
    otherwise (another A+ follows, or nothing) its interval is "open".
    Types follow the size/sign taxonomy: "0" when max(alpha, beta) leaves
    (eps*R_lo, eps*R_hi); "I" when u keeps one sign at the core endpoints;
    "II" when it changes sign with 0 or >= 4 inner B-layers; "III"/"IV" when
    exactly 2 B-layers, split by whether u vanishes inside the enclosed
    upper-well plateau.  The R thresholds are configuration, not constants
    of the analysis, and are echoed by the CLI.  ``layers`` are those of
    ``transition_layers(u, spec, eta)`` when the caller already has them.
    """
    if not u.eps > 0.0:
        raise ParameterError("interval classification needs the profile's eps")
    if not eta > 0.0:
        raise ParameterError("eta must be positive")
    _, z2, z3 = spec.wells
    r_lo, r_hi = _check_thresholds(thresholds)
    if layers is None:
        layers = transition_layers(u, spec, eta)
    a_band = [L for L in layers if L.kind[0] == "A"]
    b_band = [L for L in layers if L.kind[0] == "B"]
    x = u.nodes
    s = u.slopes()
    out: list[DInterval] = []
    for ap, partner in zip(a_band, a_band[1:] + [None]):
        if ap.kind != "A+":
            continue
        if partner is None or partner.kind != "A-":
            out.append(DInterval(span=(ap.span[1], u.nodes[-1]), alpha=0.0,
                                 beta=0.0, n_layers=0, dtype="open"))
            continue
        lo, hi = ap.span[1], partner.span[0]
        # cell measure of the collars in (lo, hi), cells pro-rated; only the
        # cells from the one holding lo to the one holding hi can overlap
        j0, j1 = max(int(np.searchsorted(x, lo)) - 1, 0), int(np.searchsorted(x, hi))
        overlap = np.maximum(np.minimum(x[j0 + 1:j1 + 1], hi) - np.maximum(x[j0:j1], lo), 0.0)
        alpha = float(np.dot(overlap, (np.abs(s[j0:j1] - z2) <= eta).astype(float)))
        beta = float(np.dot(overlap, (np.abs(s[j0:j1] - z3) <= eta).astype(float)))
        inner_b = [L for L in b_band if L.span[0] >= lo and L.span[1] <= hi]
        n_i = len(inner_b)
        u_lo, u_hi = _value_at(u, lo), _value_at(u, hi)
        e_span = None
        if n_i == 2 and inner_b[0].kind == "B+" and inner_b[1].kind == "B-":
            e_span = (inner_b[0].span[1], inner_b[1].span[0])
        if max(alpha, beta) <= u.eps * r_lo or max(alpha, beta) >= u.eps * r_hi:
            dtype = "0"
        elif u_lo * u_hi >= 0.0:
            dtype = "I"
        elif n_i == 0 or n_i >= 4:
            dtype = "II"
        elif e_span is not None and _has_zero(u, *e_span):
            dtype = "IV"
        else:
            dtype = "III"
        out.append(DInterval(span=(lo, hi), alpha=alpha, beta=beta,
                             n_layers=n_i, dtype=dtype, e_span=e_span))
    return out


def _value_at(u: GridFunction, x: float) -> float:
    """u(x) as ``np.interp`` gives it, from the nodes around x alone: on the
    whole read-only arrays np.interp would first copy them."""
    j = int(np.searchsorted(u.nodes, x))
    lo = max(j - 2, 0)
    return float(np.interp(x, u.nodes[lo:j + 2], u.values[lo:j + 2]))


def _has_zero(u: GridFunction, lo: float, hi: float) -> bool:
    inner = u.values[np.searchsorted(u.nodes, lo, side="right"):np.searchsorted(u.nodes, hi)]
    vals = np.concatenate([[_value_at(u, lo)], inner, [_value_at(u, hi)]])
    return bool(vals.min() <= 0.0 <= vals.max())


def empirical_young_measure(u: GridFunction, spec: PotentialSpec,
                            bins: int = 400) -> GradientHistogram:
    """Cell-measure-weighted histogram of u_x over [z1-1, z3+1].

    The ``mean`` field is the exact weighted mean of the slopes (free of
    binning error); for admissible profiles it vanishes with the boundary
    conditions.
    """
    if bins < 10:
        raise ParameterError("need at least 10 bins")
    z1, _, z3 = spec.wells
    s = u.slopes()
    h = u.cell_widths()
    masses, edges = np.histogram(
        np.clip(s, z1 - 1.0 + _EDGE, z3 + 1.0 - _EDGE),
        bins=bins, range=(z1 - 1.0, z3 + 1.0), weights=h,
    )
    total = float(np.sum(h))
    return GradientHistogram(edges=edges, masses=masses / total,
                             mean=float(np.dot(h, s) / total))


@dataclass(frozen=True)
class E0FamilyWeights:
    """One member of the minimizing-measure family of the relaxed problem."""

    lambda_param: float
    weights: tuple[float, float, float]


def e0_family(spec: PotentialSpec, lambda_param: float) -> E0FamilyWeights:
    """Well weights (w1, w2, w3) of the measure family member at lambda.

    Every member is a zero-mean probability vector on the wells; lambda is
    the weight of the middle well and ranges over [0, 1/z21].
    """
    z1, z2, z3 = spec.wells
    z21 = 1.0 - z2 / z1
    lam = float(lambda_param)
    if lam < -_EDGE or lam > 1.0 / z21 + _EDGE:
        raise ParameterError(f"lambda must lie in [0, {1.0 / z21:.6g}]")
    w1 = -(z3 + lam * (z2 - z3)) / (z1 - z3)
    w3 = (z1 + lam * (z2 - z1)) / (z1 - z3)
    return E0FamilyWeights(lambda_param=lam, weights=(float(w1), lam, float(w3)))


def rearrangement_envelope(nodes, values) -> tuple[np.ndarray, np.ndarray]:
    """Convex minorant with the same slope distribution of a monotone function.

    The cell slopes of the input are laid out in ascending order together
    with their cell widths, anchored at the left value.  The result has
    identical slope level-set measures and lies pointwise at or below the
    input.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(nodes) < 2:
        raise ParameterError("input must contain at least one cell")
    h = np.diff(nodes)
    s = np.diff(values) / h
    if np.any(np.diff(values) < -1e-12 * max(1.0, float(np.max(np.abs(values))))):
        raise ParameterError("input must be nondecreasing")
    order = np.argsort(s, kind="stable")
    new_nodes = nodes[0] + np.concatenate([[0.0], np.cumsum(h[order])])
    new_vals = values[0] + np.concatenate([[0.0], np.cumsum(s[order] * h[order])])
    return new_nodes, new_vals


def measure_report(u: GridFunction, spec: PotentialSpec, eta: float,
                   bins: int = 400,
                   thresholds: tuple[float, float] = (0.1, 10.0)) -> MeasureReport:
    """Assemble the full diagnostic report for a profile.

    The layers are scanned once and shared with the d-interval pairing; the
    slopes and cell widths are the profile's own cached arrays.  The
    thresholds are checked even when the profile has no eps to classify with.
    """
    _check_thresholds(thresholds)
    vf = volume_fractions(u, spec, eta)
    layers = transition_layers(u, spec, eta)
    counts = {k: sum(1 for L in layers if L.kind == k)
              for k in ("A+", "A-", "B+", "B-")}
    divs = tuple(d_intervals(u, spec, eta, thresholds, layers)) if u.eps > 0.0 else ()
    hist = empirical_young_measure(u, spec, bins)
    return MeasureReport(eta=eta, lam=vf.lam, sigma_measure=vf.sigma_measure,
                         layer_counts=counts, d_intervals=divs, histogram=hist)
