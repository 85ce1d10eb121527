"""Discrete evaluation of the regularized energies and their exact gradient.

The rescaled functional on a profile u over its domain is

    I_eps(u) = eps^-2 * integral( eps^6 u_xx^2 + W(u_x) + u^2 ),

and E_eps is the same integral without the eps^-2 prefactor.  Quadrature is
fixed by contract: trapezoid on nodes for u^2, trapezoid on interior nodes for
u_xx^2 (the boundary carries no second-derivative contribution; only u is
pinned), and midpoint on cells for W(u_x), whose argument is the piecewise
constant cell slope.  The gradient is the exact derivative of this discrete
functional with respect to interior nodal values.

A pass over the values forms u_x and u_xx once, and two stages share them:
the value stage returns the three raw energy parts, the gradient stage the
exact gradient.  The descent objective runs the gradient stage only when its
line search reads the slope.  What depends on the nodes alone (cell widths,
h_{j-1} + h_j, the interior trapezoid weights) comes from the ``Grid``,
computed once and shared by every pass on it; a profile also keeps its
slopes u_x.  The stages write into caller-owned buffers (``_buffers``): the
descent objective makes one set per descent, so its passes allocate no
grid-sized array, and each front-end makes one for its own call.  The
front-ends only validate, scale and package the stages' output.

Any density object exposing W(s, out=None) and dW(s, out=None) is accepted,
so decoupled convexity checks can swap in a plain quadratic; ``out`` is an
array the shape of ``s`` that the result may be written into, and the
returned array is the one read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import GridError, check_eps
from .grids import Grid, GridFunction

I_EPS = "I_eps"
E_EPS = "E_eps"


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split into its three nonnegative parts (total = their sum)."""

    total: float
    interface: float
    bulk_W: float
    bulk_u2: float
    scaling: str
    under_resolved: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def discrete_derivatives(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """(u_x at cell midpoints, u_xx at interior nodes).

    u_xx uses the 3-point second difference on a nonuniform grid, which is
    exact for quadratics.
    """
    ux = u.slopes()
    return ux, _second_difference(u.grid, ux)


def _second_difference(grid: Grid, ux: np.ndarray, out=None) -> np.ndarray:
    """u_xx at the interior nodes from the cell slopes ux: 2*(jump of ux)/(h_{j-1}+h_j)."""
    uxx = np.subtract(ux[1:], ux[:-1], out=out)
    uxx *= 2.0
    uxx /= grid.width_pairs
    return uxx


def _stencil(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (a, b, c) with u_xx_j = a*u_{j-1} + b*u_j + c*u_{j+1}."""
    h, hsum = grid.widths, grid.width_pairs
    a = h[:-1] * hsum
    c = h[1:] * hsum
    np.divide(2.0, a, out=a)                   # 2 / (h[:-1] * hsum)
    np.divide(2.0, c, out=c)                   # 2 / (h[1:] * hsum)
    b = a + c
    return a, np.negative(b, out=b), c


def _buffers(n: int) -> tuple[np.ndarray, ...]:
    """The scratch arrays of the gradient stage on an n-node grid: one per
    node, one per cell and two per interior node; the value stage uses the
    first two."""
    return np.empty(n), np.empty(n - 1), np.empty(n - 2), np.empty(n - 2)


def _value_parts(grid: Grid, v: np.ndarray, ux: np.ndarray, uxx: np.ndarray, density,
                 buf: tuple) -> tuple[float, float, float]:
    """The value stage of a pass: the raw integrals of u_xx^2, W(u_x) and u^2."""
    # the steps here and in ``_gradient_stage`` do the arithmetic of the
    # plain expressions in their comments, in the same order, in ``buf``;
    # u_xx^2 passes through the node buffer before u^2 does
    nodes, cells = buf[:2]
    interface = float(np.dot(grid.interior_weights, np.multiply(uxx, uxx, out=nodes[:-2])))
    bulk_W = float(np.dot(grid.widths, density.W(ux, out=cells)))
    u2 = np.multiply(v, v, out=nodes)
    u2_cells = np.add(u2[:-1], u2[1:], out=cells)
    u2_cells *= 0.5                            # 0.5 * (u2[:-1] + u2[1:])
    return interface, bulk_W, float(np.dot(grid.widths, u2_cells))


def _gradient_stage(grid: Grid, v: np.ndarray, ux: np.ndarray, uxx: np.ndarray, eps: float,
                    density, stencil, buf: tuple, out=None) -> np.ndarray:
    """The gradient stage of a pass: the E_eps gradient at the interior nodes,
    into ``out``, or else into the node buffer of ``buf``, with ``stencil`` =
    ``_stencil(grid)``; eps enters only here."""
    # interface term: chain rule through the stencil; the slice adds keep
    # the per-node order (a, then b, then c) of a scatter-add
    a, b, c = stencil
    g_if, cells, t, tmp = buf
    np.multiply(grid.interior_weights, 2.0, out=t)
    t *= uxx                                   # 2 * w_int * uxx
    g_if.fill(0.0)
    np.multiply(t, a, out=tmp)
    g_if[:-2] += tmp
    g_if[1:-1] += np.multiply(t, b, out=tmp)
    g_if[2:] += np.multiply(t, c, out=tmp)
    # W term: cells j-1 and j both see u_j through their slopes
    dW = np.asarray(density.dW(ux, out=cells))
    # u^2 term under the nodal trapezoid rule; together
    # g = eps^6 * g_if[1:-1] + (dW[:-1] - dW[1:]) + v[1:-1] * (h[:-1] + h[1:])
    g = np.multiply(g_if[1:-1], eps**6, out=g_if[1:-1] if out is None else out)
    g += np.subtract(dW[:-1], dW[1:], out=tmp)
    g += np.multiply(v[1:-1], grid.width_pairs, out=tmp)
    return g


def _scale_parts(raw: tuple[float, float, float], eps: float, scaling: str
                 ) -> tuple[float, float, float]:
    """(interface, bulk_W, bulk_u2) of a value stage in ``scaling``."""
    raw_if, raw_W, raw_u2 = raw
    if scaling == I_EPS:
        return eps**4 * raw_if, raw_W / eps**2, raw_u2 / eps**2
    if scaling == E_EPS:
        return eps**6 * raw_if, raw_W, raw_u2
    raise GridError(f"unknown scaling {scaling!r}")


def _scale_gradient(g: np.ndarray, eps: float, scaling: str) -> np.ndarray:
    """The E_eps gradient of a gradient stage, rescaled in place to ``scaling``."""
    if scaling == I_EPS:
        # in place: a scaled copy would free the stage's buffer, the last
        # grid-sized block on the heap, and the allocator hands such a
        # freed top back to the system, so every later call faults it in
        g /= eps**2
    elif scaling != E_EPS:
        raise GridError(f"unknown scaling {scaling!r}")
    return g


def _ieps_objective(grid: Grid, eps: float, density):
    """The descent objective on ``grid``: nodal values v -> (I_eps, gradient),
    the gradient a callable of the array to write it into.

    A call runs one pass and its value stage; the callable runs the gradient
    stage on the same pass, and must be called before v changes and before
    the next call.  Both are bit-identical to ``energy_Ieps(...).total`` and
    ``energy_gradient``; the grid's geometry and stencil, and the pass's
    u_x, u_xx and stage buffers, are made once, here.
    """
    stencil = _stencil(grid)
    h = grid.widths
    ux, uxx, buf = np.empty(len(h)), np.empty(len(h) - 1), _buffers(len(h) + 1)

    def fg(v: np.ndarray):
        np.divide(np.subtract(v[1:], v[:-1], out=ux), h, out=ux)    # np.diff(v) / h
        _second_difference(grid, ux, out=uxx)
        parts = _scale_parts(_value_parts(grid, v, ux, uxx, density, buf), eps, I_EPS)
        return float(parts[0] + parts[1] + parts[2]), lambda out: _scale_gradient(
            _gradient_stage(grid, v, ux, uxx, eps, density, stencil, buf, out), eps, I_EPS)

    return fg


def _under_resolved(h: np.ndarray, ux: np.ndarray, eps: float, density) -> bool:
    """Coarse-grid flag: a large slope jump across cells wider than eps^3.

    The slope jump is the discrete u_xx integrated over the cell pair, so this
    is the honest proxy for "|u_xx| is large where the grid cannot see the
    eps^3 transition scale" (a coarse grid caps the pointwise u_xx estimate).
    """
    if len(ux) < 2:
        return False
    wells = getattr(density, "wells", None)
    scale = (wells[2] - wells[0]) if wells is not None else float(np.max(np.abs(ux)))
    if scale <= 0.0:
        return False
    jump = np.diff(ux)
    np.abs(jump, out=jump)
    wide = np.maximum(h[:-1], h[1:]) > eps**3
    return bool(np.any((jump > 0.05 * scale) & wide))


def energy_breakdown(u: GridFunction, eps: float, density, scaling: str = I_EPS) -> EnergyBreakdown:
    check_eps(eps)
    ux, uxx = discrete_derivatives(u)
    buf = np.empty(len(u)), np.empty(len(u) - 1)
    parts = _scale_parts(_value_parts(u.grid, u.values, ux, uxx, density, buf), eps, scaling)
    return EnergyBreakdown(
        total=parts[0] + parts[1] + parts[2],
        interface=parts[0], bulk_W=parts[1], bulk_u2=parts[2],
        scaling=scaling,
        under_resolved=_under_resolved(u.grid.widths, ux, eps, density),
    )


def energy_Ieps(u: GridFunction, eps: float, density) -> EnergyBreakdown:
    """Rescaled energy I_eps with breakdown."""
    return energy_breakdown(u, eps, density, I_EPS)


def energy_Eeps(u: GridFunction, eps: float, density) -> EnergyBreakdown:
    """Unrescaled energy E_eps with breakdown."""
    return energy_breakdown(u, eps, density, E_EPS)


def energy_gradient(u: GridFunction, eps: float, density, scaling: str = I_EPS) -> np.ndarray:
    """d(energy)/d(u_j) at interior nodes (boundary nodes are pinned)."""
    check_eps(eps)
    ux, uxx = discrete_derivatives(u)
    g = _gradient_stage(u.grid, u.values, ux, uxx, eps, density, _stencil(u.grid),
                        _buffers(len(u)))
    return _scale_gradient(g, eps, scaling)


def interface_plus_W(u: GridFunction, eps: float, density,
                     lo: float | None = None, hi: float | None = None) -> float:
    """I_eps-scaled interface + W energy restricted to a node subrange [lo, hi].

    Used for transition-cost bookkeeping: the result is comparable to the
    Modica-Mortola bound 2*eps*|H(u_x(hi)) - H(u_x(lo))|.
    """
    check_eps(eps)
    nodes = u.nodes
    a = nodes[0] if lo is None else lo
    b = nodes[-1] if hi is None else hi
    i0 = int(np.searchsorted(nodes, a, side="left"))
    i1 = int(np.searchsorted(nodes, b, side="right")) - 1
    if i1 - i0 < 2:
        raise GridError("subrange must contain at least 3 nodes")
    # operate on raw slices: boundary-zero validation does not apply here
    grid = Grid(nodes[i0:i1 + 1])
    v = u.values[i0:i1 + 1]
    ux = np.diff(v) / grid.widths
    buf = np.empty(len(v)), np.empty(len(v) - 1)
    raw = _value_parts(grid, v, ux, _second_difference(grid, ux), density, buf)
    interface, bulk_W, _ = _scale_parts(raw, eps, I_EPS)
    return interface + bulk_W
