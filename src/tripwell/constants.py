"""Interface energies, limit constants, and the structural well-geometry checks.

The two interface energies are Modica-Mortola costs of a gradient transition
between neighbouring wells,

    E0 = 2 * integral of sqrt(W) over (z1, z2),
    E1 = 2 * integral of sqrt(W) over (z2, z3),

and the per-unit-length energies of the two competing oscillation patterns are

    A0 = (3/2)^(2/3) * E0^(2/3) * (z2^2 * z21)^(1/3),
    B0 = (3/2)^(2/3) * (E0+E1)^(2/3) * (z3^2 * z31)^(1/3),

with the well ratios z21 = 1 - z2/z1 and z31 = 1 - z3/z1.  The structural
hypotheses H6-H8 ask that three explicit functions f6, f7, f8 of the pattern
ratio y = lambda3/lambda2 dominate (A0 + B0*y)^3 on all of y >= 0; they decide
whether the two-well pattern wins against mixed three-well competitors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import NumericError, ParameterError
from .potential import TRIPLE_WELL, PotentialSpec


@dataclass(frozen=True)
class LimitConstants:
    """Limit constants of a given density."""

    E0: float
    E1: float
    A0: float
    B0: float
    d_star: float
    h_star: float
    z21: float
    z31: float

    def as_dict(self) -> dict:
        return {
            "E0": self.E0, "E1": self.E1, "A0": self.A0, "B0": self.B0,
            "d_star": self.d_star, "h_star": self.h_star,
            "z21": self.z21, "z31": self.z31,
        }


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def gauss_legendre_panels(f, edges: np.ndarray) -> np.ndarray:
    """12-point Gauss-Legendre integrals of a vectorized ``f`` on each panel
    [edges[k], edges[k+1]]."""
    a = edges[:-1]
    h = np.diff(edges)
    nodes = a[:, None] + 0.5 * h[:, None] * (1.0 + _GL_NODES[None, :])
    return 0.5 * h * (f(nodes) @ _GL_WEIGHTS)


def _quad_sqrtW(spec: PotentialSpec, a: float, b: float, tol: float) -> float:
    """Composite Gauss-Legendre integral of sqrt(W) on uniform panels of [a, b].

    The panel count doubles until two successive sums agree within ``tol``.
    """
    prev = float(np.sum(gauss_legendre_panels(spec.sqrtW, np.array([a, b]))))
    for k in range(1, 13):
        val = float(np.sum(gauss_legendre_panels(spec.sqrtW, np.linspace(a, b, 2**k + 1))))
        if abs(val - prev) <= tol:
            return val
        prev = val
    raise NumericError(
        f"quadrature of sqrt(W) on [{a}, {b}] did not settle within tol", estimate=val)


def _exact_band_integral(spec: PotentialSpec, a: float, b: float) -> float:
    """Exact integral of |s-z1||s-z2||s-z3| between consecutive wells."""
    prim = npp.polyint(npp.polyfromroots(list(spec.wells)))
    signed = npp.polyval(b, prim) - npp.polyval(a, prim)
    z1, z2, z3 = spec.wells
    # the monic cubic is positive on (z1, z2) and negative on (z2, z3)
    return signed if b <= z2 else -signed


def interface_energies(spec: PotentialSpec, tol: float = 1e-10) -> tuple[float, float]:
    """(E0, E1): exact for the canonical family, whose integrand is a signed
    cubic between consecutive wells; Gauss-Legendre quadrature to ``tol`` for
    custom densities."""
    if not (0.0 < tol <= 1e-3):
        raise ParameterError("tol must lie in (0, 1e-3]")
    z1, z2, z3 = spec.wells
    if spec.kind == TRIPLE_WELL:
        return 2.0 * _exact_band_integral(spec, z1, z2), 2.0 * _exact_band_integral(spec, z2, z3)
    return 2.0 * _quad_sqrtW(spec, z1, z2, tol), 2.0 * _quad_sqrtW(spec, z2, z3, tol)


def H_antiderivative(spec: PotentialSpec, s: float, tol: float = 1e-10) -> float:
    """Signed antiderivative H(s) = integral of sqrt(W) from 0 to s.

    The integration is split at interior wells so the |integrand| kinks never
    sit inside a panel.  For the canonical family each panel integrates the
    signed monic cubic exactly; custom densities use Gauss-Legendre quadrature.
    """
    if not (0.0 < tol <= 1e-3):
        raise ParameterError("tol must lie in (0, 1e-3]")
    s = float(s)
    lo, hi = (0.0, s) if s >= 0.0 else (s, 0.0)
    pts = sorted({lo, hi} | {z for z in spec.wells if lo < z < hi})
    if spec.kind == TRIPLE_WELL:
        cubic = npp.polyfromroots(list(spec.wells))
        prim = npp.polyint(cubic)
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            sign = 1.0 if npp.polyval(0.5 * (a + b), cubic) >= 0.0 else -1.0
            total += sign * (npp.polyval(b, prim) - npp.polyval(a, prim))
    else:
        total = sum(_quad_sqrtW(spec, a, b, tol) for a, b in zip(pts[:-1], pts[1:]))
    return total if s >= 0.0 else -total


def limit_constants(spec: PotentialSpec, tol: float = 1e-10) -> LimitConstants:
    """Closed-form limit constants from the interface energies.

    The optimal rescaled periods d_star / h_star are normalized to a pattern
    filling its whole interval (lambda2/l0 = 1/z21, lambda3/(1-l0) = 1/z31).
    """
    z1, z2, z3 = spec.wells
    E0, E1 = interface_energies(spec, tol)
    z21 = 1.0 - z2 / z1
    z31 = 1.0 - z3 / z1
    A0 = 1.5 ** (2.0 / 3.0) * E0 ** (2.0 / 3.0) * (z2**2 * z21) ** (1.0 / 3.0)
    B0 = 1.5 ** (2.0 / 3.0) * (E0 + E1) ** (2.0 / 3.0) * (z3**2 * z31) ** (1.0 / 3.0)
    d_star = (3.0 * E0) ** (1.0 / 3.0) * (2.0 * z2**2 / z21**2) ** (-1.0 / 3.0)
    h_star = (3.0 * (E0 + E1)) ** (1.0 / 3.0) * (2.0 * z3**2 / z31**2) ** (-1.0 / 3.0)
    return LimitConstants(E0=E0, E1=E1, A0=A0, B0=B0,
                          d_star=d_star, h_star=h_star, z21=z21, z31=z31)


def eval_f(spec: PotentialSpec, which: str, y,
           constants: LimitConstants | None = None):
    """Evaluate f6, f7, f8, or the defect term f0 at ratio(s) y >= 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ParameterError("ratio y must be nonnegative")
    c = constants if constants is not None else limit_constants(spec)
    z1, z2, z3 = spec.wells
    z21, z31 = c.z21, c.z31
    if which == "f6":
        return 9.0 * (c.E0 + c.E1) ** 2 * (z2**2 + y**3 * z3**2 + 3.0 * y * z2 * (y * z3 + z2))
    if which == "f7":
        return 2.25 * (c.E0 + 2.0 * c.E1) ** 2 * (
            z2**2 * z21 + y**3 * z3**2 * z31 + 3.0 * y * z2 * z31 * (y * z3 + z2)
        )
    if which == "f0":
        return (y**2 * z31 * z3 - z2 * z21) ** 2 / (4.0 * (z21 + y * z31))
    if which == "f8":
        f0 = (y**2 * z31 * z3 - z2 * z21) ** 2 / (4.0 * (z21 + y * z31))
        return 9.0 * (c.E0 + c.E1) ** 2 * (z2**2 * z21 + y**3 * z3**2 * z31 - 3.0 * f0)
    raise ParameterError(f"unknown function {which!r}")


@dataclass(frozen=True)
class HypothesisVerdict:
    """Outcome of one nonnegativity check on the half line."""

    name: str
    status: str                                # "holds" | "fails"
    violation_intervals: tuple[tuple[float, float], ...]
    worst_y: float
    worst_margin: float
    reduced_confidence: bool = False

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "violation_intervals": [list(iv) for iv in self.violation_intervals],
            "worst_y": self.worst_y,
            "worst_margin": self.worst_margin,
            "reduced_confidence": self.reduced_confidence,
        }


@dataclass(frozen=True)
class HypothesisReport:
    h6: HypothesisVerdict
    h7: HypothesisVerdict
    h8: HypothesisVerdict

    def as_dict(self) -> dict:
        return {"H6": self.h6.as_dict(), "H7": self.h7.as_dict(), "H8": self.h8.as_dict()}


def _trim(coeffs: np.ndarray, rel: float = 1e-9) -> np.ndarray:
    """Drop trailing coefficients that are zero up to analytic cancellation."""
    scale = np.max(np.abs(coeffs))
    c = np.array(coeffs, dtype=float)
    while len(c) > 1 and abs(c[-1]) <= rel * scale:
        c = c[:-1]
    return c

def _real_positive_roots(coeffs: np.ndarray) -> np.ndarray:
    c = _trim(coeffs)
    if len(c) <= 1:
        return np.array([])
    roots = np.roots(c[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots.real))].real
    return np.sort(real[real > 0.0])


def _bisect_root(f, lo: float, hi: float, xtol: float) -> float:
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def _decide(name: str, decision: np.ndarray, margin, y_max: float) -> HypothesisVerdict:
    """Sign analysis of a low-degree decision polynomial on [0, inf).

    ``decision`` has the same positive-y sign pattern as ``margin``; violation
    intervals are reported clipped to [0, y_max] with endpoints refined by
    bisection, and the worst point of ``margin`` is located from the exact
    stationary points.
    """
    dec = _trim(decision)
    if len(dec) <= 1:
        # constant decision polynomial: fall back to a dense margin scan
        ys = np.linspace(0.0, y_max, 100_000)
        m = margin(ys)
        worst = int(np.argmin(m))
        fails = bool(m[worst] < 0.0)
        ivs = ()
        if fails:
            lo = ys[m < 0.0][0]
            hi = ys[m < 0.0][-1]
            ivs = ((float(lo), float(hi)),)
        return HypothesisVerdict(name, "fails" if fails else "holds", ivs,
                                 float(ys[worst]), float(m[worst]),
                                 reduced_confidence=True)

    roots = _real_positive_roots(dec)
    edges = np.concatenate([[0.0], roots, [max(y_max, (roots[-1] if roots.size else 0.0) + 1.0) * 2.0]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    neg = npp.polyval(mids, dec) < 0.0
    # include the sign at y=0 and the tail sign from the leading coefficient
    tail_neg = dec[-1] < 0.0
    fails = bool(np.any(neg) or tail_neg)

    intervals = []
    for k in range(len(mids)):
        if not neg[k]:
            continue
        lo, hi = edges[k], edges[k + 1]
        if lo >= y_max:
            continue
        # polish endpoints against the true margin to 1e-4
        if lo > 0.0:
            lo = _bisect_root(margin, max(0.0, lo - 1e-3), lo + 1e-3, 1e-4)
        hi = min(hi, y_max)
        if hi < y_max:
            hi = _bisect_root(margin, hi - 1e-3, hi + 1e-3, 1e-4)
        intervals.append((float(lo), float(hi)))
    if tail_neg and (not intervals or intervals[-1][1] < y_max):
        start = roots[-1] if roots.size else 0.0
        intervals.append((float(min(start, y_max)), float(y_max)))

    # worst point of the margin over [0, y_max]: stationary points of the
    # decision polynomial are a superset only for the cubic cases, so use the
    # margin's own derivative sampled through the decision structure.
    cand = [0.0, y_max]
    dd = npp.polyder(dec)
    stat = _real_positive_roots(dd)
    cand.extend(float(t) for t in stat if t < y_max)
    cand.extend(float(t) for iv in intervals for t in iv)
    # refine near the most negative candidate with a short golden search
    cand = np.array(sorted(set(cand)))
    mc = margin(cand)
    j = int(np.argmin(mc))
    lo = cand[max(0, j - 1)]
    hi = cand[min(len(cand) - 1, j + 1)]
    worst_y = _golden_min(margin, lo, hi)
    worst_margin = float(margin(worst_y))
    if worst_margin > float(mc[j]):
        worst_y, worst_margin = float(cand[j]), float(mc[j])
    return HypothesisVerdict(name, "fails" if fails else "holds",
                             tuple(intervals), float(worst_y), worst_margin)


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    g = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return float(0.5 * (a + b))


def check_hypotheses(spec: PotentialSpec, y_max: float = 50.0,
                     constants: LimitConstants | None = None) -> HypothesisReport:
    """Decide H6-H8 by exact root isolation of low-degree polynomials.

    H6 and H7 margins are exact cubics in y.  The H8 margin is rational;
    multiplying through by the positive denominator 4*(z21 + y*z31) yields a
    polynomial whose quartic coefficient cancels analytically, leaving a cubic
    decision polynomial.
    """
    if y_max < 10.0:
        raise ParameterError("y_max must be at least 10")
    c = constants if constants is not None else limit_constants(spec)
    z1, z2, z3 = spec.wells
    z21, z31 = c.z21, c.z31
    EE = c.E0 + c.E1
    cube = npp.polypow([c.A0, c.B0], 3)

    p6 = npp.polysub(9.0 * EE**2 * np.array([z2**2, 3.0 * z2**2, 3.0 * z2 * z3, z3**2]), cube)
    p7 = npp.polysub(
        2.25 * (c.E0 + 2.0 * c.E1) ** 2
        * np.array([z2**2 * z21, 3.0 * z2**2 * z31, 3.0 * z2 * z3 * z31, z3**2 * z31]),
        cube,
    )
    denom = np.array([4.0 * z21, 4.0 * z31])
    t1 = npp.polymul(np.array([z2**2 * z21, 0.0, 0.0, z3**2 * z31]), denom)
    sq = npp.polymul(np.array([-z2 * z21, 0.0, z31 * z3]),
                     np.array([-z2 * z21, 0.0, z31 * z3]))
    q8 = npp.polysub(9.0 * EE**2 * npp.polysub(t1, 3.0 * sq), npp.polymul(denom, cube))

    def margin(which):
        return lambda y: np.asarray(eval_f(spec, which, y, c) - (c.A0 + c.B0 * np.asarray(y)) ** 3)

    h6 = _decide("H6", p6, margin("f6"), y_max)
    h7 = _decide("H7", p7, margin("f7"), y_max)
    h8 = _decide("H8", q8, margin("f8"), y_max)
    return HypothesisReport(h6=h6, h7=h7, h8=h8)
