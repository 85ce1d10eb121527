"""Discrete evaluation of the regularized energies and their exact gradient.

The rescaled functional on a profile u over its domain is

    I_eps(u) = eps^-2 * integral( eps^6 u_xx^2 + W(u_x) + u^2 ),

and E_eps is the same integral without the eps^-2 prefactor.  Quadrature is
fixed by contract: trapezoid on nodes for u^2, trapezoid on interior nodes for
u_xx^2 (the boundary carries no second-derivative contribution; only u is
pinned), and midpoint on cells for W(u_x), whose argument is the piecewise
constant cell slope.  The gradient is the exact derivative of this discrete
functional with respect to interior nodal values.

One kernel, ``_kernel``, does the work that depends on the values: one pass
forms u_xx and returns the three raw energy parts and the exact gradient,
each only when asked: ``energy_gradient`` skips the value integrals, the
energies skip the gradient, and the descent objective takes both from one
pass.  What depends on the nodes alone (cell widths, h_{j-1} + h_j, the
interior trapezoid weights) comes from the ``Grid``, computed once and
shared by every pass on it; a profile also keeps its slopes u_x.  The
front-ends only validate, scale and package the kernel's output.

Any density object exposing W(s)/dW(s) is accepted, so decoupled convexity
checks can swap in a plain quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return {
            "total": self.total, "interface": self.interface,
            "bulk_W": self.bulk_W, "bulk_u2": self.bulk_u2,
            "scaling": self.scaling, "under_resolved": self.under_resolved,
        }


def discrete_derivatives(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """(u_x at cell midpoints, u_xx at interior nodes).

    u_xx uses the 3-point second difference on a nonuniform grid, which is
    exact for quadratics.
    """
    ux = u.slopes()
    return ux, _second_difference(u.grid, ux)


def _second_difference(grid: Grid, ux: np.ndarray) -> np.ndarray:
    """u_xx at the interior nodes from the cell slopes ux: 2*(jump of ux)/(h_{j-1}+h_j)."""
    uxx = ux[1:] - ux[:-1]
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


def _kernel(grid: Grid, v: np.ndarray, ux: np.ndarray, eps: float, density,
            value: bool = True, grad: bool = False, stencil=None):
    """One pass over values v with cell slopes ux: (raw parts, E_eps gradient).

    The raw parts (None unless ``value``) are the unscaled integrals of
    u_xx^2, W(u_x) and u^2; the gradient (interior nodes, None unless
    ``grad``) is the E_eps one, so eps enters only there.  ``stencil`` is
    ``_stencil(grid)`` when the caller keeps it across passes.  No boundary
    or eps validation happens here.
    """
    h, w_int = grid.widths, grid.interior_weights
    uxx = _second_difference(grid, ux)
    raw = g = None
    # the in-place steps below do the arithmetic of the plain expressions in
    # their comments, in the same order, without a fresh grid-sized
    # temporary per operation
    if value:
        u2 = v * v
        u2_cells = u2[:-1] + u2[1:]
        u2_cells *= 0.5                        # 0.5 * (u2[:-1] + u2[1:])
        raw = (float(np.dot(w_int, uxx * uxx)), float(np.dot(h, density.W(ux))),
               float(np.dot(h, u2_cells)))
    if grad:
        # interface term: chain rule through the stencil; the slice adds keep
        # the per-node order (a, then b, then c) of a scatter-add
        a, b, c = stencil if stencil is not None else _stencil(grid)
        t = 2.0 * w_int
        t *= uxx                               # 2 * w_int * uxx
        g_if = np.zeros(len(v))
        tmp = t * a
        g_if[:-2] += tmp
        g_if[1:-1] += np.multiply(t, b, out=tmp)
        g_if[2:] += np.multiply(t, c, out=tmp)
        # W term: cells j-1 and j both see u_j through their slopes
        dW = np.asarray(density.dW(ux))
        # u^2 term under the nodal trapezoid rule; together
        # g = eps^6 * g_if[1:-1] + (dW[:-1] - dW[1:]) + v[1:-1] * (h[:-1] + h[1:])
        g = g_if[1:-1]
        g *= eps**6
        g += np.subtract(dW[:-1], dW[1:], out=tmp)
        g += np.multiply(v[1:-1], grid.width_pairs, out=tmp)
    return raw, g


def _scale_parts(raw: tuple[float, float, float], eps: float, scaling: str
                 ) -> tuple[float, float, float]:
    """(interface, bulk_W, bulk_u2) of a kernel pass in ``scaling``."""
    raw_if, raw_W, raw_u2 = raw
    if scaling == I_EPS:
        return eps**4 * raw_if, raw_W / eps**2, raw_u2 / eps**2
    if scaling == E_EPS:
        return eps**6 * raw_if, raw_W, raw_u2
    raise GridError(f"unknown scaling {scaling!r}")


def _scale_gradient(g: np.ndarray, eps: float, scaling: str) -> np.ndarray:
    """The E_eps gradient of a kernel pass, rescaled in place to ``scaling``."""
    if scaling == I_EPS:
        # in place: a scaled copy would free the kernel's buffer, the last
        # grid-sized block on the heap, and the allocator hands such a
        # freed top back to the system, so every later call faults it in
        g /= eps**2
    elif scaling != E_EPS:
        raise GridError(f"unknown scaling {scaling!r}")
    return g


def _ieps_objective(grid: Grid, eps: float, density):
    """The descent objective on ``grid``: nodal values -> (I_eps, gradient).

    One kernel pass per call, bit-identical to ``energy_Ieps(...).total`` and
    ``energy_gradient``; the grid's geometry and stencil are formed once,
    here, so a call does only the work that depends on the values.
    """
    stencil = _stencil(grid)
    h = grid.widths

    def fg(v: np.ndarray) -> tuple[float, np.ndarray]:
        raw, g = _kernel(grid, v, np.diff(v) / h, eps, density, grad=True,
                         stencil=stencil)
        parts = _scale_parts(raw, eps, I_EPS)
        return float(parts[0] + parts[1] + parts[2]), _scale_gradient(g, eps, I_EPS)

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
    ux = u.slopes()
    raw, _ = _kernel(u.grid, u.values, ux, eps, density)
    parts = _scale_parts(raw, eps, scaling)
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
    _, g = _kernel(u.grid, u.values, u.slopes(), eps, density, value=False, grad=True)
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
    raw, _ = _kernel(grid, v, np.diff(v) / grid.widths, eps, density)
    interface, bulk_W, _ = _scale_parts(raw, eps, I_EPS)
    return interface + bulk_W
