"""Triple-well energy densities and their analytic sanity checks.

A density W is a nonnegative polynomial vanishing exactly at three wells
z1 < 0 < z2 < z3.  The canonical family is
W(s) = (s - z1)^2 (s - z2)^2 (s - z3)^2; arbitrary polynomial densities
with the same well set are accepted as ``custom-polynomial``.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Optional

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
        wells: ordered wells (z1, z2, z3) with z1 < 0 < z2 < z3.
        coeffs: monomial coefficients, ascending degree.  Derived from the
            wells for the canonical family; required for custom densities.
        growth_p: exponent of the two-sided polynomial growth bound.
        coercivity: optional sampled coercivity record.
    """

    kind: str = TRIPLE_WELL
    wells: tuple[float, float, float] = (-1.0, 1.0 / 3.0, 1.0)
    coeffs: tuple[float, ...] = ()
    growth_p: float = 0.0
    coercivity: Optional[Coercivity] = None

    def __post_init__(self):
        z1, z2, z3 = (float(z) for z in self.wells)
        if not (z1 < 0.0 < z2 < z3):
            raise SpecificationError(
                f"wells must satisfy z1 < 0 < z2 < z3, got {self.wells}"
            )
        object.__setattr__(self, "wells", (z1, z2, z3))
        if self.kind == TRIPLE_WELL:
            coeffs = npp.polyfromroots([z1, z1, z2, z2, z3, z3])
            object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))
        elif self.kind == CUSTOM_POLY:
            if len(self.coeffs) < 3:
                raise SpecificationError("custom-polynomial requires coeffs")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
            self._validate_custom()
        else:
            raise SpecificationError(f"unknown potential kind {self.kind!r}")
        if self.growth_p == 0.0:
            object.__setattr__(self, "growth_p", float(self.degree))
        if self.growth_p <= 1.0:
            raise SpecificationError("growth exponent must exceed 1")

    def _validate_custom(self):
        scale = max(abs(c) for c in self.coeffs)
        for z in self.wells:
            if abs(npp.polyval(z, self.coeffs)) > 1e-9 * scale:
                raise SpecificationError(f"W does not vanish at well {z}")
        z1, _, z3 = self.wells
        samples = np.linspace(z1 - 2.0, z3 + 2.0, 2001)
        w = npp.polyval(samples, self.coeffs)
        near_well = np.min(
            np.abs(samples[:, None] - np.asarray(self.wells)[None, :]), axis=1
        )
        bad = (w < -1e-12 * scale) | ((w <= 0.0) & (near_well > 1e-3))
        if np.any(bad):
            raise SpecificationError(
                f"W must be positive away from the wells; fails near s={samples[bad][0]:.6g}"
            )

    @property
    def degree(self) -> int:
        c = np.asarray(self.coeffs)
        nz = np.nonzero(np.abs(c) > 1e-14 * np.max(np.abs(c)))[0]
        return int(nz[-1]) if nz.size else 0

    @property
    def dcoeffs(self) -> tuple[float, ...]:
        return tuple(float(c) for c in npp.polyder(self.coeffs))

    def W(self, s):
        return eval_W(self, s)

    def dW(self, s):
        return eval_dW(self, s)

    def sqrtW(self, s):
        return sqrt_W(self, s)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "wells": list(self.wells)}
        if self.kind == CUSTOM_POLY:
            out["coeffs"] = list(self.coeffs)
        out["growth_p"] = self.growth_p
        if self.coercivity is not None:
            out["coercivity"] = {
                "q": self.coercivity.q,
                "eta0": self.coercivity.eta0,
                "c0": self.coercivity.c0,
            }
        return out

    @staticmethod
    def from_dict(data: dict) -> "PotentialSpec":
        if not isinstance(data, dict):
            raise SpecificationError("a potential must be a JSON object")
        if "wells" not in data:
            raise SpecificationError("potential lacks wells")
        wells = data["wells"]
        coeffs = data.get("coeffs", ())
        growth_p = data.get("growth_p", 0.0)
        coer = data.get("coercivity")
        if not (_numbers(wells) and len(wells) == 3):
            raise SpecificationError("potential wells must be a list of three numbers")
        if not _numbers(coeffs):
            raise SpecificationError("potential coeffs must be a list of numbers")
        if not _is_number(growth_p):
            raise SpecificationError("potential growth_p must be a number")
        if coer and not (isinstance(coer, dict) and set(coer) == {"q", "eta0", "c0"}
                         and all(_is_number(v) for v in coer.values())):
            raise SpecificationError("potential coercivity must hold the numbers q, eta0 and c0")
        return PotentialSpec(
            kind=data.get("kind", TRIPLE_WELL),
            wells=tuple(wells),
            coeffs=tuple(coeffs),
            growth_p=float(growth_p),
            coercivity=Coercivity(**coer) if coer else None,
        )


def _is_number(v) -> bool:
    """Whether ``v`` is a real number (a boolean is not)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _numbers(seq) -> bool:
    return isinstance(seq, (list, tuple)) and all(_is_number(v) for v in seq)


def load_potential(path) -> PotentialSpec:
    """Read a potential-spec JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return PotentialSpec.from_dict(json.load(fh))


def eval_W(spec: PotentialSpec, s):
    """Evaluate the density at ``s`` (scalar or array).

    The canonical family is evaluated in factored form (exact for the same
    polynomial and free of the cancellation the expanded monomial basis
    suffers near the wells); custom densities use Horner on their coefficients.
    """
    if len(spec.coeffs) < 3:
        raise SpecificationError("malformed coefficient list")
    s = np.asarray(s, dtype=float)
    if spec.kind == TRIPLE_WELL:
        z1, z2, z3 = spec.wells
        prod = (s - z1) * (s - z2) * (s - z3)
        return prod * prod
    return npp.polyval(s, spec.coeffs)


def eval_dW(spec: PotentialSpec, s):
    """Evaluate dW/ds at ``s``."""
    if len(spec.coeffs) < 3:
        raise SpecificationError("malformed coefficient list")
    return npp.polyval(np.asarray(s, dtype=float), spec.dcoeffs)


def sqrt_W(spec: PotentialSpec, s):
    """Evaluate sqrt(max(W, 0)).

    For the canonical family this is computed as |s-z1||s-z2||s-z3|, which is
    exact and avoids the rounding noise of sqrt(polyval) near the wells.
    """
    s = np.asarray(s, dtype=float)
    if spec.kind == TRIPLE_WELL:
        z1, z2, z3 = spec.wells
        return np.abs(s - z1) * np.abs(s - z2) * np.abs(s - z3)
    return np.sqrt(np.maximum(eval_W(spec, s), 0.0))


def well_order(spec: PotentialSpec, z: float) -> int:
    """Multiplicity of a well as a polynomial root (2 for the canonical family)."""
    coeffs = np.asarray(spec.coeffs)
    scale = np.max(np.abs(coeffs))
    c = coeffs
    for m in range(1, len(coeffs)):
        c = npp.polyder(c)
        if abs(npp.polyval(z, c)) > 1e-8 * scale:
            return m
    return len(coeffs) - 1


def eta0_bound(spec: PotentialSpec) -> float:
    """Strict upper bound for admissible well-neighbourhood radii."""
    z1, z2, z3 = spec.wells
    return min(1.0, -z1, z2, 0.5 * (z3 - z2))


def coercivity_exponent(spec: PotentialSpec) -> float:
    """Exponent q of the coercivity bound: the attached record's, else the
    largest well order, which is exact and needs no sampling."""
    if spec.coercivity is not None:
        return spec.coercivity.q
    return float(max(well_order(spec, z) for z in spec.wells))


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
    """The spec's coercivity record, estimating one if absent."""
    if spec.coercivity is not None:
        return spec.coercivity
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
    # Sum(|c_k|) certifies the upper witness outside any sampled window:
    # W(s) <= Sum|c_k| for |s|<=1 and W(s) <= Sum|c_k| * |s|^deg beyond.
    c3 = float(max(np.max(w / (sp + 1.0)), abs_sum)) if ok_upper else float("inf")
    c1 = 0.5 * lead if ok_lower else 0.0
    c2 = float(max(np.max(c1 * sp - w), np.max(w), 0.0))
    return GrowthReport(p=float(p), c1=float(c1), c2=c2, c3=c3,
                        ok_lower=bool(ok_lower), ok_upper=bool(ok_upper))
