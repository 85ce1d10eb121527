"""Triple-well energy densities and their analytic sanity checks.

A density W is a nonnegative polynomial vanishing exactly at three wells
z1 < 0 < z2 < z3, held and evaluated in the factored form
W(s) = ((s - z1)^m1 (s - z2)^m2 (s - z3)^m3)^2 R(s) with R > 0 on the line.
The canonical family is m = (1, 1, 1) and R = 1; arbitrary polynomial
densities with the same well set are accepted as ``custom-polynomial``.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import CoercivityFailure, ParameterError, SpecificationError

TRIPLE_WELL = "polynomial-triple-well"
CUSTOM_POLY = "custom-polynomial"


@dataclass(frozen=True)
class Coercivity:
    """Sampled lower-bound parameters: W(s) >= c0 * min(min_i|s-z_i|^q, eta0^q)."""

    q: float
    eta0: float
    c0: float


@dataclass(frozen=True)
class PotentialSpec:
    """A polynomial triple-well density with validated well geometry.

    Attributes:
        kind: ``polynomial-triple-well`` or ``custom-polynomial``.
        wells: finite ordered wells (z1, z2, z3) with z1 < 0 < z2 < z3.
        coeffs: monomial coefficients, ascending degree.  Derived from the
            wells for the canonical family; required and finite for custom densities.
    """

    kind: str = TRIPLE_WELL
    wells: tuple[float, float, float] = (-1.0, 1.0 / 3.0, 1.0)
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        z1, z2, z3 = (float(z) for z in self.wells)
        if not (-np.inf < z1 < 0.0 < z2 < z3 < np.inf):
            raise SpecificationError(f"wells must be finite with z1 < 0 < z2 < z3, got {self.wells}")
        object.__setattr__(self, "wells", (z1, z2, z3))
        if self.kind == TRIPLE_WELL:
            coeffs = npp.polyfromroots([z1, z1, z2, z2, z3, z3])
            object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))
        elif self.kind == CUSTOM_POLY:
            if len(self.coeffs) < 3:
                raise SpecificationError("custom-polynomial requires coeffs")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
            if not np.all(np.isfinite(self.coeffs)):
                raise SpecificationError("custom-polynomial coeffs must be finite")
            self.factors                     # an invalid density fails here
        else:
            raise SpecificationError(f"unknown potential kind {self.kind!r}")

    @functools.cached_property
    def factors(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """(m, R) with W(s) = (prod_i (s - z_i)^m_i)^2 * R(s), computed once per spec.

        A custom density is accepted only when it factors so: each well is a
        root of even order 2*m_i (the order of its first derivative that does
        not vanish there), one division by the squared well product leaves no
        remainder, and R has no root within 1e-3 of the real line and R(0) > 0.
        """
        if self.kind == TRIPLE_WELL:
            return (1, 1, 1), (1.0,)
        c = self.coeffs[: self.degree + 1]
        tol = 1e-9 * max(abs(v) for v in c)
        derivs = [npp.polyder(c, k) for k in range(len(c))]
        orders = [next((k for k, d in enumerate(derivs) if abs(npp.polyval(z, d)) > tol), 0)
                  for z in self.wells]
        for z, k in zip(self.wells, orders):
            if not k:
                raise SpecificationError(f"W does not vanish at well {z}")
            if k % 2:
                raise SpecificationError("W must be positive away from the wells; it changes "
                                         f"sign at the well {z:.6g} of odd order {k}")
        m = tuple(k // 2 for k in orders)
        R, rem = npp.polydiv(c, npp.polyfromroots(np.repeat(self.wells, 2 * np.array(m))))
        if np.max(np.abs(rem)) > tol:
            raise SpecificationError("W does not factor over its wells")
        roots = npp.polyroots(R)
        bad = [*roots.real[np.abs(roots.imag) <= 1e-3], *([] if R[0] > 0.0 else [0.0])]
        if bad:
            raise SpecificationError(
                f"W must be positive away from the wells; fails near s={bad[0]:.6g}")
        return m, tuple(float(c) for c in R)

    @property
    def degree(self) -> int:
        c = np.asarray(self.coeffs)
        nz = np.nonzero(np.abs(c) > 1e-14 * np.max(np.abs(c)))[0]
        return int(nz[-1]) if nz.size else 0

    @functools.cached_property
    def dcoeffs(self) -> tuple[float, ...]:
        """Monomial coefficients of dW/ds, computed once per spec."""
        return tuple(float(c) for c in npp.polyder(self.coeffs))

    def W(self, s, out=None):
        return eval_W(self, s, out)

    def dW(self, s, out=None):
        return eval_dW(self, s, out)

    def sqrtW(self, s):
        return sqrt_W(self, s)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "wells": list(self.wells)}
        if self.kind == CUSTOM_POLY:
            out["coeffs"] = list(self.coeffs)
        return out

    @staticmethod
    def from_dict(data: dict) -> "PotentialSpec":
        if not isinstance(data, dict):
            raise SpecificationError("a potential must be a JSON object")
        if "wells" not in data:
            raise SpecificationError("potential lacks wells")
        wells = data["wells"]
        coeffs = data.get("coeffs", ())
        if not (_numbers(wells) and len(wells) == 3):
            raise SpecificationError("potential wells must be a list of three numbers")
        if not _numbers(coeffs):
            raise SpecificationError("potential coeffs must be a list of numbers")
        return PotentialSpec(
            kind=data.get("kind", TRIPLE_WELL),
            wells=tuple(wells),
            coeffs=tuple(coeffs),
        )


def _numbers(seq) -> bool:
    """Whether ``seq`` is a list of real numbers (a boolean is not one)."""
    return isinstance(seq, (list, tuple)) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in seq)


def load_potential(path) -> PotentialSpec:
    """Read a potential-spec JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return PotentialSpec.from_dict(json.load(fh))


def _well_product(spec: PotentialSpec, s: np.ndarray, out=None):
    """prod_i (s - z_i)^m_i, in place on one array (``out`` if given)."""
    zs = [z for z, k in zip(spec.wells, spec.factors[0]) for _ in range(k)]
    prod = np.subtract(s, zs[0], out=out)
    for z in zs[1:]:
        prod *= s - z
    return prod


def eval_W(spec: PotentialSpec, s, out=None):
    """Evaluate the density at ``s`` (scalar or array), into ``out`` if given.

    W is evaluated in its factored form (exact for the same polynomial and
    free of the cancellation the expanded monomial basis suffers near the
    wells); R is skipped when it is 1, as for the canonical family.
    """
    s = np.asarray(s, dtype=float)
    R = spec.factors[1]
    prod = _well_product(spec, s, out)
    prod *= prod
    if R != (1.0,):
        prod *= npp.polyval(s, R)
    return prod


def eval_dW(spec: PotentialSpec, s, out=None):
    """Evaluate dW/ds at ``s``, into ``out`` if given.

    Horner's rule with the operations of ``npp.polyval`` (``c[-1] + s*0``,
    then ``c[k] + out*s``), in its order and in place on one array, so the
    result is the same to the bit.
    """
    if len(spec.coeffs) < 3:
        raise SpecificationError("malformed coefficient list")
    s = np.asarray(s, dtype=float)
    c = spec.dcoeffs
    out = np.multiply(s, 0, out=out)
    out += c[-1]
    for ck in c[-2::-1]:
        out *= s
        out += ck
    return out


def sqrt_W(spec: PotentialSpec, s):
    """Evaluate sqrt(W) as |prod_i (s - z_i)^m_i| * sqrt(R(s)).

    The factored form keeps the exact zeros at the wells, which the rounding
    noise of sqrt(polyval) near them would lose; R > 0 needs no clamp.
    """
    s = np.asarray(s, dtype=float)
    R = spec.factors[1]
    root = np.abs(_well_product(spec, s))
    return root if R == (1.0,) else root * np.sqrt(npp.polyval(s, R))


def eta0_bound(spec: PotentialSpec) -> float:
    """Strict upper bound for admissible well-neighbourhood radii."""
    z1, z2, z3 = spec.wells
    return min(1.0, -z1, z2, 0.5 * (z3 - z2))


def coercivity_exponent(spec: PotentialSpec) -> float:
    """Exponent q of the coercivity bound: the largest well order 2*m_i,
    which is exact and needs no sampling."""
    return float(2 * max(spec.factors[0]))


def estimate_coercivity(spec: PotentialSpec, grid_n: int = 100_000) -> Coercivity:
    """Estimate (q, eta0, c0) such that W(s) >= c0 * min(min_i|s-z_i|^q, eta0^q).

    q is ``coercivity_exponent(spec)``, eta0 takes 90% of its strict upper
    bound, and c0 is the largest constant that survives a dense sample grid
    over [z1-2, z3+2].  The estimate is sampled, not certified.
    """
    if grid_n < 1000:
        raise ParameterError("grid_n must be at least 1000")
    z1, z2, z3 = spec.wells
    q = coercivity_exponent(spec)
    eta0 = 0.9 * eta0_bound(spec)
    s = np.linspace(z1 - 2.0, z3 + 2.0, grid_n)
    dist = np.min(np.abs(s[:, None] - np.asarray(spec.wells)[None, :]), axis=1)
    keep = dist > 1e-9
    lower = np.minimum(dist[keep] ** q, eta0**q)
    ratio = eval_W(spec, s[keep]) / lower
    c0 = float(np.min(ratio))
    if c0 <= 0.0:
        worst = s[keep][int(np.argmin(ratio))]
        raise CoercivityFailure(
            f"coercivity bound unsatisfiable near s={worst:.6g}", estimate=c0
        )
    return Coercivity(q=q, eta0=eta0, c0=c0)


def coercivity_of(spec: PotentialSpec) -> Coercivity:
    """The spec's coercivity record, sampled by ``estimate_coercivity``."""
    return estimate_coercivity(spec)


@dataclass(frozen=True)
class GrowthReport:
    """Witness constants for c1|s|^p - c2 <= W(s) <= c3(|s|^p + 1)."""

    p: float
    c1: float
    c2: float
    c3: float
    ok_lower: bool
    ok_upper: bool
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", self.ok_lower and self.ok_upper)


def verify_growth(
    spec: PotentialSpec,
    p: float,
    bounds: tuple[float, float] | None = None,
    grid_n: int = 20_000,
) -> GrowthReport:
    """Sampled two-sided growth check with reported witness constants.

    The tail behaviour is decided by degree comparison (the sampled range
    cannot see it): the upper bound needs deg W <= p and the lower bound
    deg W >= p, so a polynomial density verifies only at p = deg W.
    """
    if p <= 1.0:
        raise ParameterError("growth exponent must exceed 1")
    z1, _, z3 = spec.wells
    deg = spec.degree
    lead = spec.coeffs[deg]
    abs_sum = float(np.sum(np.abs(spec.coeffs)))
    lower_sum = abs_sum - abs(lead)
    # beyond s_tail the leading term dominates both defect directions
    s_tail = max(1.0, 2.0 * lower_sum / abs(lead)) if lead else 1.0
    if bounds is None:
        bounds = (min(z1 - 3.0, -s_tail), max(z3 + 3.0, s_tail))
    lo, hi = bounds
    s = np.linspace(lo, hi, grid_n) if hi > lo else np.array([lo])
    w = eval_W(spec, s)
    sp = np.abs(s) ** p
    ok_upper = deg <= p and lead > 0.0
    ok_lower = deg >= p and lead > 0.0
    # Sum(|c_k|) is an upper witness on the whole line, so no sample exceeds it:
    # W(s) <= Sum|c_k| for |s|<=1 and W(s) <= Sum|c_k| * |s|^deg beyond.
    c3 = abs_sum if ok_upper else float("inf")
    c1 = 0.5 * lead if ok_lower else 0.0
    c2 = float(max(np.max(c1 * sp - w), np.max(w), 0.0))
    return GrowthReport(p=float(p), c1=float(c1), c2=c2, c3=c3,
                        ok_lower=bool(ok_lower), ok_upper=bool(ok_upper))
