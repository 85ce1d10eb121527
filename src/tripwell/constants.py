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

import functools
from dataclasses import asdict, dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import NumericError, ParameterError
from .potential import PotentialSpec


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
        return asdict(self)


@functools.cache
def _gauss_legendre_12() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 12-point Gauss-Legendre rule on [-1, 1],
    computed (an eigenvalue solve) on first use."""
    return np.polynomial.legendre.leggauss(12)


def gauss_legendre_panels(f, edges: np.ndarray) -> np.ndarray:
    """12-point Gauss-Legendre integrals of a vectorized ``f`` on each panel
    [edges[k], edges[k+1]]."""
    gl_nodes, gl_weights = _gauss_legendre_12()
    a = edges[:-1]
    h = np.diff(edges)
    nodes = a[:, None] + 0.5 * h[:, None] * (1.0 + gl_nodes[None, :])
    return 0.5 * h * (f(nodes) @ gl_weights)


def _sqrtW_integral(spec: PotentialSpec, a: float, b: float, tol: float) -> float:
    """Integral of sqrt(W) over a panel [a, b] with no well inside it.

    When R is a constant (the canonical family has R = 1), sqrt(W) is
    sqrt(R) times prod_i (s - z_i)^m_i, up to a sign that is constant on the
    panel, so the integral is the absolute difference of its antiderivative.
    Otherwise composite Gauss-Legendre quadrature runs on uniform panels,
    doubling the panel count until two successive sums agree within ``tol``.
    """
    m, R = spec.factors
    if len(R) == 1:
        prim = npp.polyint(npp.polyfromroots(np.repeat(spec.wells, m)))
        return R[0] ** 0.5 * abs(npp.polyval(b, prim) - npp.polyval(a, prim))
    prev = float(np.sum(gauss_legendre_panels(spec.sqrtW, np.array([a, b]))))
    for k in range(1, 13):
        val = float(np.sum(gauss_legendre_panels(spec.sqrtW, np.linspace(a, b, 2**k + 1))))
        if abs(val - prev) <= tol:
            return val
        prev = val
    raise NumericError(
        f"quadrature of sqrt(W) on [{a}, {b}] did not settle within tol", estimate=val)


def interface_energies(spec: PotentialSpec, tol: float = 1e-10) -> tuple[float, float]:
    """(E0, E1): exact when R is a constant, Gauss-Legendre quadrature to
    ``tol`` otherwise (see ``_sqrtW_integral``)."""
    if not (0.0 < tol <= 1e-3):
        raise ParameterError("tol must lie in (0, 1e-3]")
    z1, z2, z3 = spec.wells
    return 2.0 * _sqrtW_integral(spec, z1, z2, tol), 2.0 * _sqrtW_integral(spec, z2, z3, tol)


def H_antiderivative(spec: PotentialSpec, s: float, tol: float = 1e-10) -> float:
    """Signed antiderivative H(s) = integral of sqrt(W) from 0 to s.

    The integration is split at interior wells so the |integrand| kinks never
    sit inside a panel; each panel goes through ``_sqrtW_integral``.
    """
    if not (0.0 < tol <= 1e-3):
        raise ParameterError("tol must lie in (0, 1e-3]")
    s = float(s)
    lo, hi = (0.0, s) if s >= 0.0 else (s, 0.0)
    pts = sorted({lo, hi} | {z for z in spec.wells if lo < z < hi})
    total = sum((_sqrtW_integral(spec, a, b, tol) for a, b in zip(pts[:-1], pts[1:])), 0.0)
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
    if not np.all(y >= 0.0):                   # NaN fails this too
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

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "violation_intervals": [list(iv) for iv in self.violation_intervals],
            "worst_y": self.worst_y,
            "worst_margin": self.worst_margin,
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


def _decide(name: str, num: np.ndarray, den: np.ndarray, y_max: float) -> HypothesisVerdict:
    """Sign analysis of the margin ``num/den`` on y >= 0, with ``den`` > 0 there.

    The window is [0, Y] with Y = max(y_max, 2 * the largest positive root of
    ``num``), so every sign change lies inside it.  The violation intervals
    run between the exact positive roots of ``num``; the worst point is the
    least margin among 0, Y and the exact stationary points, the roots of
    num' * den - num * den' in (0, Y).
    """
    num = _trim(num)
    roots = _real_positive_roots(num)
    y_end = max(y_max, 2.0 * roots[-1]) if roots.size else y_max
    edges = np.concatenate([[0.0], roots, [y_end]])
    intervals = tuple((float(lo), float(hi)) for lo, hi in zip(edges[:-1], edges[1:])
                      if lo < hi and npp.polyval(0.5 * (lo + hi), num) < 0.0)

    stat = npp.polysub(npp.polymul(npp.polyder(num), den), npp.polymul(num, npp.polyder(den)))
    cand = np.concatenate([[0.0, y_end], [t for t in _real_positive_roots(stat) if t < y_end]])
    margins = npp.polyval(cand, num) / npp.polyval(cand, den)
    j = int(np.argmin(margins))
    return HypothesisVerdict(name, "fails" if intervals else "holds", intervals,
                             float(cand[j]), float(margins[j]))


def check_hypotheses(spec: PotentialSpec, y_max: float = 50.0,
                     constants: LimitConstants | None = None) -> HypothesisReport:
    """Decide H6-H8 from the exact roots of low-degree polynomials.

    H6 and H7 margins are exact cubics in y.  The H8 margin is rational: its
    numerator, the margin times the positive denominator 4*(z21 + y*z31), is a
    polynomial whose quartic coefficient cancels analytically, leaving a
    cubic.  ``_decide`` reads the violation intervals and the worst point off
    the exact roots, on a window that reaches past ``y_max`` to twice the
    largest positive root of the numerator.
    """
    if not 10.0 <= y_max < np.inf:
        raise ParameterError("y_max must be finite and at least 10")
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

    one = np.array([1.0])
    return HypothesisReport(h6=_decide("H6", p6, one, y_max),
                            h7=_decide("H7", p7, one, y_max),
                            h8=_decide("H8", q8, denom, y_max))
