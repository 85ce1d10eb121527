"""Explicit low-energy profiles for the rescaled triple-well energy.

All constructions share one ingredient: the heteroclinic gradient transition
solving the separable ODE  eps^3 w_x = sqrt(W(w))  between two neighbouring
wells.  The inverse map x(w) = eps^3 * integral dw/sqrt(W) is tabulated once
per well pair (it is eps-free in x/eps^3 units) and inverted monotonically;
beyond the table the solution saturates exponentially fast and is clamped to
the exact well values.  Forward time-stepping is deliberately avoided: the
wells are degenerate equilibria and explicit steppers stall or overshoot
there.  The z1 -> z3 transition is one more table, per eps: the two branches
spliced by a short linear bridge across the degenerate middle well.

Built on top of that (``build_profile`` is the one map from kind to builder):

* a two-well sawtooth whose gradient oscillates z1 <-> z2 with zero-mean
  teeth (period chosen against the optimal rescaled period d*),
* a three-well profile built from the same alternating zero-mean teeth,
  whose gradient oscillates z1 <-> z3 through the bridged table,
* periodic competitor profiles realizing prescribed volume-fraction triples
  (lambda1, lambda2, lambda3) with gradient patterns z2|z3|z1 or z1|z2|z3|z1,
  used to probe the structural hypotheses H7/H8.

Every tooth and every competitor period gets an exactly zero discrete mean,
so u vanishes at its ends, from one mean-removal step (``_zero_mean``): a
shift s of one gradient jump trades one plateau value for the other, and
s -= m / slope removes the trapezoid mean m until it is at rounding level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .constants import HypothesisReport, LimitConstants, gauss_legendre_panels, limit_constants
from .errors import ConstructionError, GridError, ParameterError, check_eps
from .grids import Grid, GridFunction, integrate_slopes
from .potential import PotentialSpec, coercivity_exponent, sqrt_W


# ---------------------------------------------------------------------------
# heteroclinic transition tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionTable:
    """Monotone samples of one gradient transition in x/eps^3 units."""

    z_lo: float
    z_hi: float
    w_tab: np.ndarray
    x_tab: np.ndarray          # scaled positions, 0 where w passes the anchor value

    def w_at_scaled(self, xs) -> np.ndarray:
        """Invert x(w) at scaled positions, clamping to the exact wells."""
        return np.interp(xs, self.x_tab, self.w_tab, left=self.z_lo, right=self.z_hi)

    def x_at(self, w: float) -> float:
        """Scaled position where the branch passes through w (table range)."""
        return float(np.interp(w, self.w_tab, self.x_tab))

    @property
    def extent(self) -> tuple[float, float]:
        return float(self.x_tab[0]), float(self.x_tab[-1])


TABLE_SIDE_PTS = 400      # geometric samples toward each well of a branch
TABLE_MID_PTS = 2400      # uniform samples across the middle of a branch


@functools.lru_cache(maxsize=64)
def _transition_table(spec: PotentialSpec, z_lo: float, z_hi: float,
                      anchor_w: float) -> TransitionTable:
    """Tabulate x(w) = integral dw/sqrt(W) between two wells.

    The grid mixes geometric clustering toward both wells (the integrand has
    a nonintegrable singularity there; the table stops at 1e-12 of the span)
    with a dense uniform mid-section so the inverse map is accurate away from
    the wells too.  Per-segment 12-point Gauss-Legendre panels are exact to
    rounding for this smooth integrand at the chosen densities.
    """
    span = z_hi - z_lo
    delta = 1e-12 * span
    offs = np.geomspace(delta, 0.25 * span, TABLE_SIDE_PTS)
    w_pts = np.sort(np.concatenate([
        [anchor_w], z_lo + offs, z_hi - offs,
        np.linspace(z_lo + 0.2 * span, z_hi - 0.2 * span, TABLE_MID_PTS),
    ]))
    w_pts = w_pts[np.concatenate([[True], w_pts[1:] != w_pts[:-1]])]     # exact repeats out
    steps = gauss_legendre_panels(lambda w: 1.0 / sqrt_W(spec, w), w_pts)
    x = np.concatenate([[0.0], np.cumsum(steps)])
    x -= np.interp(anchor_w, w_pts, x)
    return TransitionTable(z_lo=z_lo, z_hi=z_hi, w_tab=w_pts, x_tab=x)


def _lower_branch(spec: PotentialSpec) -> TransitionTable:
    z1, z2, _ = spec.wells
    return _transition_table(spec, z1, z2, 0.0)


def _upper_branch(spec: PotentialSpec) -> TransitionTable:
    _, z2, z3 = spec.wells
    return _transition_table(spec, z2, z3, 0.5 * (z2 + z3))


def _bridge_mu(spec: PotentialSpec, eps: float) -> float:
    """Half-width mu = eps^(2/(max(3,q)-2)) of the bridge across z2."""
    return eps ** (2.0 / (max(3.0, coercivity_exponent(spec)) - 2.0))


@functools.lru_cache(maxsize=64)
def _rise_table(spec: PotentialSpec, eps: float) -> TransitionTable:
    """The monotone z1 -> z3 transition in x/eps^3 units.

    The two heteroclinic branches cannot be joined directly (the middle well
    is a degenerate equilibrium), so they are spliced by a linear bridge of
    slope eps^-3 in x across [z2 - mu, z2 + mu]: the lower branch up to
    z2 - mu at x0, the bridge to x0 + 2 mu, and the upper branch from z2 + mu
    shifted to start there.  Interpolation is linear between the bridge ends.
    """
    z1, z2, z3 = spec.wells
    mu = _bridge_mu(spec, eps)
    if not (mu < 0.25 * min(z2 - z1, z3 - z2)):
        raise ConstructionError("eps too large: bridge width exceeds the well gaps")
    b1, b2 = _lower_branch(spec), _upper_branch(spec)
    x0 = b1.x_at(z2 - mu)
    x1 = x0 + 2.0 * mu
    low, high = b1.w_tab < z2 - mu, b2.w_tab > z2 + mu
    return TransitionTable(
        z_lo=z1, z_hi=z3,
        w_tab=np.concatenate([b1.w_tab[low], [z2 - mu, z2 + mu], b2.w_tab[high]]),
        x_tab=np.concatenate([b1.x_tab[low], [x0, x1],
                              b2.x_tab[high] - b2.x_at(z2 + mu) + x1]))


def solve_transition_ode(spec: PotentialSpec, eps: float, branch: str,
                         x_grid: np.ndarray) -> np.ndarray:
    """Sample the monotone heteroclinic w(x) on x_grid.

    ``branch`` selects the well pair: "z1z2" is anchored at w(0) = 0, "z2z3"
    at the mid-value between the upper wells.  The grid must resolve the
    transition scale: steps inside the layer may not exceed eps^3 / 10.
    """
    check_eps(eps)
    x_grid = np.asarray(x_grid, dtype=float)
    if branch == "z1z2":
        tab = _lower_branch(spec)
    elif branch == "z2z3":
        tab = _upper_branch(spec)
    else:
        raise ParameterError(f"unknown branch {branch!r}")
    w = tab.w_at_scaled(x_grid / eps**3)
    span = tab.z_hi - tab.z_lo
    inside = (w > tab.z_lo + 1e-3 * span) & (w < tab.z_hi - 1e-3 * span)
    if np.any(inside[:-1] | inside[1:]):
        steps = np.diff(x_grid)[(inside[:-1] | inside[1:])]
        if np.max(steps) > eps**3 / 10.0 * (1.0 + 1e-9):
            raise GridError("x_grid does not resolve the transition layer (step > eps^3/10)")
    return w


# ---------------------------------------------------------------------------
# piece grids and the zero-mean step
# ---------------------------------------------------------------------------

LAYER_RES = 96            # grid steps per eps^3 across a transition layer
TOOTH_PLATEAU_PTS = 49    # coarse nodes across one tooth
PERIOD_PLATEAU_PTS = 129  # coarse nodes across one competitor period
TOOTH_MARGIN = 4.0        # eps^3 units of window beyond a tooth's transition
ZERO_MEAN_STEPS = 12      # mean-removal steps before a piece is given up
MAX_NODES = 10**7         # largest profile a builder makes: 80 MB per array
NODE_ROUNDING = 32        # least layer step, in units of the spacing of floats at the interval


def _too_many_nodes(what: str) -> ParameterError:
    return ParameterError(f"{what} needs more than MAX_NODES={MAX_NODES} nodes: "
                          "raise eps or shorten the interval")


def _piece_nodes(l: float, coarse: np.ndarray, windows, eps: float) -> np.ndarray:
    """Nodes on [0, l] for one tooth or competitor period.

    The coarse nodes, plus steps of eps^3/LAYER_RES over each transition
    window (lo, hi), widened by two steps and clipped to [0, l].  A node
    within 1e-9 of a step of its left neighbour is dropped, and so is every
    exact repeat.  A window of more than MAX_NODES steps is refused.
    """
    step = eps**3 / LAYER_RES
    parts = [coarse]
    for lo, hi in windows:
        a = max(0.0, lo - 2.0 * step)
        b = min(l, hi + 2.0 * step)
        if not b - a < MAX_NODES * step:      # also when eps^3 underflows to 0
            raise _too_many_nodes("a transition window")
        parts += [np.arange(a, b, step), [b]]
    pts = np.sort(np.concatenate(parts))
    pts = pts[np.concatenate([[True], np.diff(pts) > 1e-9 * step])]
    pts[0], pts[-1] = 0.0, l
    return pts


def _zero_mean(piece, slope: float, scale: float):
    """Shift s at which the trapezoid mean of piece(s) = (nodes, values) vanishes.

    Each step removes the mean m through the plateau trade, s -= m / slope,
    where slope is the difference of the two plateau values the shift
    exchanges, until |m| <= 1e-15 * scale.  Returns (s, nodes, values).
    """
    s = 0.0
    for _ in range(ZERO_MEAN_STEPS):
        nodes, vals = piece(s)
        m = float(np.dot(np.diff(nodes), 0.5 * (vals[:-1] + vals[1:])))
        if abs(m) <= 1e-15 * scale:
            return s, nodes, vals
        s -= m / slope
    raise ConstructionError(f"zero-mean step left a mean of {m:.3g} after "
                            f"{ZERO_MEAN_STEPS} steps")


def _assemble_pieces(a: float, b: float, l: float,
                     pieces: list[tuple[np.ndarray, np.ndarray]], eps: float,
                     meta: dict) -> GridFunction:
    """Concatenate pieces of width l from a to b; each piece is (nodes
    relative to its left end, gradient values), and shared boundary nodes
    are dropped.  Nodes and gradient are written into one array each, which
    the profile's grid then owns."""
    n = 1 + sum(len(p_nodes) - 1 for p_nodes, _ in pieces)
    nodes, w = np.empty(n), np.empty(n)
    nodes[0], w[0] = a, pieces[0][1][0]
    end = 1
    for i, (p_nodes, p_vals) in enumerate(pieces):
        start, end = end, end + len(p_nodes) - 1
        np.add(a + i * l, p_nodes[1:], out=nodes[start:end])
        w[start:end] = p_vals[1:]
    nodes[-1] = b              # a + n*l can drift by one ulp
    return integrate_slopes(Grid._adopt(nodes), w, eps=eps, meta=meta)


def _sawtooth(transition, plateaus: tuple[float, float], interval: tuple[float, float],
              n: int, om0: float, bound: float, eps: float, meta: dict) -> GridFunction:
    """n teeth on the interval, rising and falling in turn, each of zero mean.

    The rising tooth carries transition = (fn, lo, hi) from plateaus[0] to
    plateaus[1] at om0 + s, where the zero-mean shift s trades one plateau
    for the other.  The fine window spans [lo, hi] with TOOTH_MARGIN*eps^3 to
    spare on each side, centred on om0 while |s| stays within that margin
    and on om0 + s beyond it.  A shift beyond ``bound`` is inadmissible.  A
    falling tooth takes the rising tooth's nodes and values mirrored.  The
    transition position om0 + s is stored as meta["omega_star"].
    """
    a, b = interval
    l = (b - a) / n
    fn, lo, hi = transition
    za, zb = plateaus
    margin = TOOTH_MARGIN * eps**3
    coarse = np.linspace(0.0, l, TOOTH_PLATEAU_PTS)

    def piece(s):
        at = om0 + s if abs(s) > margin else om0
        rel = _piece_nodes(l, coarse, [(at + lo - margin, at + hi + margin)], eps)
        return rel, fn(rel - (om0 + s))

    s, rel, w = _zero_mean(piece, za - zb, l * max(abs(za), abs(zb)))
    if not abs(s) <= bound:
        raise ConstructionError("eps too large: no admissible zero-mean shift")
    if 1 + n * (len(rel) - 1) > MAX_NODES:
        raise _too_many_nodes(f"a {meta['kind']} profile of {n} teeth")
    meta["omega_star"] = om0 + s
    up, down = (rel, w), (l - rel[::-1], w[::-1])
    teeth = [up if i % 2 == 0 else down for i in range(n)]
    return _assemble_pieces(a, b, l, teeth, eps, meta)


def _teeth(spec: PotentialSpec, eps: float, interval: tuple[float, float],
           constants: LimitConstants | None, kind: str, count: int | None = None
           ) -> tuple[LimitConstants, int, float]:
    """(constants, tooth count, tooth width) of a two-well or three-well profile.

    The count is ``_tooth_count`` with period d* for the two-well and h* for
    the three-well profile, unless ``count`` overrides it; fewer than 2 teeth
    is an error.  So is an interval so far from 0 that a layer step is
    shorter than NODE_ROUNDING spacings of the floats there.
    """
    check_eps(eps)
    a, b = interval
    if not b > a:
        raise ParameterError("empty interval")
    length = b - a
    _check_length(length)
    c = constants if constants is not None else limit_constants(spec)
    period, name = (c.d_star, "N") if kind == "two-well" else (c.h_star, "M")
    n = count if count is not None else _tooth_count(length, eps, period)
    if n < 2:
        raise ConstructionError(
            f"eps={eps} too large for a {kind} profile on length {length}: "
            f"tooth rule gives {name}={n}, minimal admissible {name} is 2"
        )
    # far from 0 the node positions round to steps coarser than a layer's;
    # an eps^3 that underflows is left to the window check of _piece_nodes
    step, ulp = eps**3 / LAYER_RES, float(np.spacing(max(abs(a), abs(b))))
    if 0.0 < step < NODE_ROUNDING * ulp:
        raise ParameterError(
            f"interval ({a}, {b}) too far from 0 for eps={eps}: node positions there "
            f"round to {ulp:.3g}, more than 1/{NODE_ROUNDING} of the layer step "
            f"eps^3/LAYER_RES = {step:.3g}")
    return c, n, length / n


# ---------------------------------------------------------------------------
# two-well sawtooth
# ---------------------------------------------------------------------------

def _check_length(length: float) -> None:
    if not 0.0 < length < np.inf:
        raise ParameterError("length must be finite and positive")


def _tooth_count(length: float, eps: float, period: float) -> int:
    """The tooth rule: the smallest integer above length/(eps*period).

    A rule whose teeth alone would hold more than MAX_NODES coarse nodes is
    refused before the count is formed or any tooth is built.
    """
    if not length * TOOTH_PLATEAU_PTS <= MAX_NODES * eps * period:
        raise _too_many_nodes("the tooth rule at this eps and length")
    return int(np.floor(length / (eps * period))) + 1


def two_well_count(spec: PotentialSpec, eps: float, length: float,
                   constants: LimitConstants | None = None) -> int:
    """Default two-well tooth count: ``_tooth_count`` with period d*."""
    check_eps(eps)
    _check_length(length)
    c = constants if constants is not None else limit_constants(spec)
    return _tooth_count(length, eps, c.d_star)


def build_two_well_sawtooth(spec: PotentialSpec, eps: float,
                            interval: tuple[float, float] = (0.0, 1.0),
                            constants: LimitConstants | None = None,
                            counts_override: int | None = None) -> GridFunction:
    """Sawtooth whose gradient alternates between the z1 and z2 plateaus.

    Each tooth of width l_N carries one monotone heteroclinic traverse; the
    shift omega* enforces an exactly zero discrete tooth mean, so u vanishes
    at every tooth boundary.
    """
    c, N, l = _teeth(spec, eps, interval, constants, "two-well", counts_override)
    z1, z2, _ = spec.wells
    om0 = l * z2 / (z2 - z1)
    return _sawtooth(
        _transition_fn(spec, eps, z1, z2), (z1, z2), interval, N, om0,
        min(0.2 * l, om0, l - om0), eps,
        meta={"kind": "two-well", "N": N, "omega_star": None,
              "l_N": l, "d_eps": l / eps, "d_star": c.d_star})


# ---------------------------------------------------------------------------
# three-well profile (z1 <-> z3 through the bridged middle well)
# ---------------------------------------------------------------------------

def build_three_well_profile(spec: PotentialSpec, eps: float,
                             interval: tuple[float, float] = (0.0, 1.0),
                             constants: LimitConstants | None = None) -> GridFunction:
    """Profile whose gradient oscillates z1 <-> z3 across the bridged middle well.

    Like the two-well sawtooth: M teeth of width l_M, rising and falling in
    turn, each carrying one bridged z1 -> z3 transition (``_rise_table``)
    whose shift omega* makes the discrete tooth mean zero, so u vanishes at
    every tooth boundary.
    """
    c, M, l = _teeth(spec, eps, interval, constants, "three-well")
    z1, _, z3 = spec.wells
    rise, s_min, s_max = _transition_fn(spec, eps, z1, z3)
    if s_max - s_min > 0.6 * l:
        raise ConstructionError("eps too large: transition does not fit inside a tooth")

    om0 = l * z3 / (z3 - z1)
    return _sawtooth(
        (rise, s_min, s_max), (z1, z3), interval, M, om0,
        min(0.2 * l, om0 - max(0.0, -s_min), l - om0 - max(0.0, s_max)), eps,
        meta={"kind": "three-well", "M": M, "omega_star": None, "l_M": l,
              "h_eps": l / eps, "h_star": c.h_star, "mu": _bridge_mu(spec, eps)})


# ---------------------------------------------------------------------------
# periodic competitor profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompetitorPlan:
    """Idealized description of one periodic competitor pattern.

    ``segments`` lists (gradient value, width fraction) over a unit period,
    ``c_int`` the summed transition costs 2|dH| per period, ``J`` the exact
    integral of the pattern's squared primitive over the unit period, and
    ``ideal`` the eps-independent limit energy 3*(c_int/2)^(2/3)*J^(1/3).
    """

    kind: str
    yhat: float
    lam: tuple[float, float, float]
    segments: tuple[tuple[float, float], ...]
    c_int: float
    J: float
    ideal: float
    variant: str = ""
    offset: float = 0.0


def _pattern_J(segments) -> float:
    """Exact unit-period integral of u^2 for a zero-mean piecewise pattern."""
    u = 0.0
    J = 0.0
    for z, w in segments:
        J += u * u * w + u * z * w * w + z * z * w**3 / 3.0
        u += z * w
    if abs(u) > 1e-10:
        raise ConstructionError(f"pattern gradient mean {u:.3g} is not zero")
    return J


def _merge_segments(segments) -> tuple[tuple[float, float], ...]:
    out: list[list[float]] = []
    for z, w in segments:
        if w <= 1e-12:
            continue
        if out and out[-1][0] == z:
            out[-1][1] += w
        else:
            out.append([z, w])
    if len(out) < 2:
        raise ConstructionError("pattern degenerates to a single plateau")
    return tuple((z, w) for z, w in out)


def _pair_cost(spec: PotentialSpec, constants: LimitConstants,
               za: float, zb: float) -> float:
    z1, z2, z3 = spec.wells
    pair = {min(za, zb), max(za, zb)}
    if pair == {z1, z2}:
        return constants.E0
    if pair == {z2, z3}:
        return constants.E1
    if pair == {z1, z3}:
        return constants.E0 + constants.E1
    raise ConstructionError(f"no transition between {za} and {zb}")


def _competitor_lambdas(constants: LimitConstants, yhat: float) -> tuple[float, float, float]:
    if not 0.0 <= yhat < np.inf:
        raise ParameterError("yhat must be finite and nonnegative")
    lam2 = 1.0 / (yhat * constants.z31 + constants.z21)
    lam3 = yhat * lam2
    lam1 = 1.0 - lam2 - lam3
    if lam1 <= 0.0:
        raise ParameterError("invalid ratio: lambda1 would be nonpositive")
    return lam1, lam2, lam3


def competitor_plan(spec: PotentialSpec, kind: str, yhat: float,
                    constants: LimitConstants | None = None) -> CompetitorPlan:
    """Idealized pattern (segments, costs, limit energy) for h7/h8 competitors."""
    c = constants if constants is not None else limit_constants(spec)
    z1, z2, z3 = spec.wells
    lam1, lam2, lam3 = _competitor_lambdas(c, yhat)
    variant = ""
    offset = 0.0
    if kind == "h7":
        segs = [(z1, 0.5 * lam1), (z3, 0.5 * lam3), (z2, lam2),
                (z3, 0.5 * lam3), (z1, 0.5 * lam1)]
    elif kind == "h8":
        thresh = np.sqrt(z2 * c.z21 / (z3 * c.z31))
        if yhat <= thresh:
            variant = "a"
            offset = (z2 * c.z21 - z3 * c.z31 * yhat**2) / (2.0 * z2 * (c.z21 + yhat * c.z31))
            s1 = (z2 / abs(z1)) * (1.0 - offset) * lam2
            segs = [(z1, s1), (z2, lam2), (z3, lam3), (z1, lam1 - s1)]
        else:
            variant = "b"
            offset = (z3 * c.z31 * yhat**2 - z2 * c.z21) / (2.0 * z3 * yhat * (c.z21 + yhat * c.z31))
            s1 = (z3 / abs(z1)) * (1.0 - offset) * lam3
            segs = [(z1, s1), (z3, lam3), (z2, lam2), (z1, lam1 - s1)]
        if s1 < -1e-12 or s1 > lam1 + 1e-12:
            raise ConstructionError(
                f"pattern offset {s1:.4g} exceeds the z1 budget {lam1:.4g}")
    else:
        raise ParameterError(f"unknown competitor kind {kind!r}")
    segs = _merge_segments(segs)
    c_int = sum(_pair_cost(spec, c, segs[j][0], segs[j + 1][0])
                for j in range(len(segs) - 1))
    J = _pattern_J(segs)
    ideal = 3.0 * (c_int / 2.0) ** (2.0 / 3.0) * J ** (1.0 / 3.0)
    return CompetitorPlan(kind=kind, yhat=yhat, lam=(lam1, lam2, lam3),
                          segments=segs, c_int=c_int, J=J, ideal=ideal,
                          variant=variant, offset=offset)


def _transition_fn(spec: PotentialSpec, eps: float, za: float, zb: float):
    """Gradient transition from za to zb centred at 0: (callable, lo, hi)."""
    z1, z2, z3 = spec.wells
    eps3 = eps**3
    pair = {min(za, zb), max(za, zb)}
    if pair == {z1, z2}:
        tab = _lower_branch(spec)
    elif pair == {z2, z3}:
        tab = _upper_branch(spec)
    else:
        tab = _rise_table(spec, eps)
    lo, hi = tab.extent
    if zb > za:
        return (lambda r: tab.w_at_scaled(np.asarray(r) / eps3)), eps3 * lo, eps3 * hi
    return (lambda r: tab.w_at_scaled(-np.asarray(r) / eps3)), -eps3 * hi, -eps3 * lo


def _build_period(spec: PotentialSpec, eps: float, zvals: list[float],
                  widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One period of the mollified pattern on [0, T]."""
    T = float(np.sum(widths))
    bounds = np.concatenate([[0.0], np.cumsum(widths)])
    # every table first: a too-wide z1 -> z3 bridge is reported before any fit
    trans = [(bounds[j + 1], *_transition_fn(spec, eps, zvals[j], zvals[j + 1]))
             for j in range(len(zvals) - 1)]
    for j, (_, _, lo, hi) in enumerate(trans):
        if -lo > 0.45 * widths[j] or hi > 0.45 * widths[j + 1]:
            raise ConstructionError(
                "eps too large: a transition does not fit inside its plateau")

    coarse = [np.array([0.0, T])]
    for j in range(len(zvals)):
        npts = max(4, int(PERIOD_PLATEAU_PTS * widths[j] / T) + 2)
        coarse.append(np.linspace(bounds[j], bounds[j + 1], npts))
    nodes = _piece_nodes(T, np.concatenate(coarse),
                         [(b + lo, b + hi) for b, _, lo, hi in trans], eps)

    seg_idx = np.clip(np.searchsorted(bounds, nodes, side="right") - 1, 0, len(zvals) - 1)
    vals = np.asarray(zvals, dtype=float)[seg_idx]
    for b, fn, lo, hi in trans:
        mask = (nodes > b + lo) & (nodes < b + hi)
        if np.any(mask):
            vals[mask] = fn(nodes[mask] - b)
    return nodes, vals


def _build_periodic_pattern(spec: PotentialSpec, eps: float, plan: CompetitorPlan,
                            periods: int) -> GridFunction:
    """``periods`` copies of the plan's pattern on [0, 1], each of zero mean."""
    T = 1.0 / periods
    zvals = [z for z, _ in plan.segments]
    widths = np.array([w for _, w in plan.segments]) * T
    if zvals[0] != zvals[-1]:
        raise ConstructionError("pattern must start and end on the same plateau")
    z1, _, z3 = spec.wells

    # the zero-mean step moves the interior boundary with the largest
    # gradient jump (by O(eps^3))
    jumps = [abs(zvals[j + 1] - zvals[j]) for j in range(len(zvals) - 1)]
    jstar = int(np.argmax(jumps))

    def piece(s):
        w = widths.copy()
        w[jstar] += s
        w[jstar + 1] -= s
        if w[jstar] <= 0.0 or w[jstar + 1] <= 0.0:
            raise ConstructionError("zero-mean correction exhausted a plateau")
        return _build_period(spec, eps, zvals, w)

    _, nodes, vals = _zero_mean(piece, zvals[jstar] - zvals[jstar + 1],
                                T * max(abs(z1), z3))
    if 1 + periods * (len(nodes) - 1) > MAX_NODES:
        raise _too_many_nodes(f"a profile of {periods} pattern periods")
    return _assemble_pieces(0.0, 1.0, T, [(nodes, vals)] * periods, eps, meta={})


def competitor_period_count(spec: PotentialSpec, eps: float, plan: CompetitorPlan) -> int:
    """Number of pattern periods: nearest integer to 1/T* with T* = eps*(c/(2J))^(1/3).

    Like the tooth rule, a count whose periods alone would hold more than
    MAX_NODES coarse nodes is refused before it is formed.
    """
    check_eps(eps)
    t_star = eps * (plan.c_int / (2.0 * plan.J)) ** (1.0 / 3.0)
    if not PERIOD_PLATEAU_PTS <= MAX_NODES * t_star:
        raise _too_many_nodes("the period rule at this eps")
    return int(round(1.0 / t_star))


def build_h7_competitor(spec: PotentialSpec, eps: float, yhat: float,
                        constants: LimitConstants | None = None) -> GridFunction:
    """Periodic profile with gradient pattern z2|z3|z1 mirrored about mid-period.

    Realizes the volume fractions lambda2 = 1/(yhat*z31 + z21),
    lambda3 = yhat*lambda2; its energy approaches the plan's limit energy
    ``competitor_plan(spec, "h7", yhat).ideal`` as eps drops.
    """
    return _build_competitor(spec, eps, "h7", yhat, constants)


def build_h8_competitor(spec: PotentialSpec, eps: float, yhat: float,
                        constants: LimitConstants | None = None) -> GridFunction:
    """Periodic profile with pattern z1|z2|z3|z1 (or z1|z3|z2|z1 above the
    branch threshold sqrt(z2*z21/(z3*z31))), offset so the primitive's sign
    change sits at the energy-optimal phase."""
    return _build_competitor(spec, eps, "h8", yhat, constants)


def competitor_seeds(report: HypothesisReport) -> list[tuple[str, float]]:
    """(kind, yhat) of the competitor each failing H7 or H8 calls for, h7
    first: the pattern at the verdict's worst ratio ``worst_y``."""
    return [(kind, verdict.worst_y) for kind, verdict in (("h7", report.h7), ("h8", report.h8))
            if verdict.status == "fails"]


_BUILDERS = {"two-well": "build_two_well_sawtooth", "three-well": "build_three_well_profile",
             "h7": "build_h7_competitor", "h8": "build_h8_competitor"}


def build_profile(spec: PotentialSpec, eps: float, kind: str, *args,
                  constants: LimitConstants | None = None) -> GridFunction:
    """The one map from a profile kind to its builder: ``args`` is an optional
    interval for two-well and three-well, yhat for h7 and h8.  The builder is
    looked up by name here at each call, so a replaced builder is the one run."""
    if kind not in _BUILDERS:
        raise ParameterError(f"unknown profile kind {kind!r}")
    return globals()[_BUILDERS[kind]](spec, eps, *args, constants=constants)


def _build_competitor(spec: PotentialSpec, eps: float, kind: str, yhat: float,
                      constants: LimitConstants | None) -> GridFunction:
    check_eps(eps)
    c = constants if constants is not None else limit_constants(spec)
    plan = competitor_plan(spec, kind, yhat, c)
    periods = competitor_period_count(spec, eps, plan)
    if periods < 2:
        raise ConstructionError("eps too large: fewer than 2 pattern periods fit")
    gf = _build_periodic_pattern(spec, eps, plan, periods)
    gf.meta.update({
        "kind": f"{kind}-competitor", "yhat": yhat, "periods": periods,
        "lambda1": plan.lam[0], "lambda2": plan.lam[1], "lambda3": plan.lam[2],
        "ideal_energy": plan.ideal, "variant": plan.variant, "offset": plan.offset,
    })
    return gf
