"""Discrete evaluation of the regularized energies and their exact gradient.

The rescaled functional on a profile u over its domain is

    I_eps(u) = eps^-2 * integral( eps^6 u_xx^2 + W(u_x) + u^2 ),

and E_eps is the same integral without the eps^-2 prefactor.  Quadrature is
fixed by contract: trapezoid on nodes for u^2, trapezoid on interior nodes for
u_xx^2 (the boundary carries no second-derivative contribution; only u is
pinned), and midpoint on cells for W(u_x), whose argument is the piecewise
constant cell slope.  The gradient is the exact derivative of this discrete
functional with respect to interior nodal values.

Any density object exposing W(s)/dW(s) is accepted, so decoupled convexity
checks can swap in a plain quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .grids import GridFunction

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
    if len(u) < 3:
        raise GridError("need at least 3 nodes for second differences")
    _, ux, uxx = _nodal_derivatives(u.nodes, u.values)
    return ux, uxx


def _nodal_derivatives(x: np.ndarray, v: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cell widths, u_x on cells, u_xx at interior nodes) of values v at x."""
    h = np.diff(x)
    if np.any(h <= 0.0):
        raise GridError("duplicate nodes")
    ux = np.diff(v) / h
    return h, ux, 2.0 * (ux[1:] - ux[:-1]) / (h[:-1] + h[1:])


def _interior_trapz_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid weights of the interior nodes against their own abscissae."""
    x = nodes[1:-1]
    if len(x) < 2:
        return np.zeros(len(x))
    w = np.empty(len(x))
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    if len(x) > 2:
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return w


def _stencil(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (a, b, c) with u_xx_j = a*u_{j-1} + b*u_j + c*u_{j+1}."""
    hl, hr = h[:-1], h[1:]
    a = 2.0 / (hl * (hl + hr))
    c = 2.0 / (hr * (hl + hr))
    return a, -(a + c), c


def _under_resolved(u: GridFunction, eps: float, ux: np.ndarray, density) -> bool:
    """Coarse-grid flag: a large slope jump across cells wider than eps^3.

    The slope jump is the discrete u_xx integrated over the cell pair, so this
    is the honest proxy for "|u_xx| is large where the grid cannot see the
    eps^3 transition scale" (a coarse grid caps the pointwise u_xx estimate).
    """
    if eps <= 0.0 or len(ux) < 2:
        return False
    wells = getattr(density, "wells", None)
    scale = (wells[2] - wells[0]) if wells is not None else float(np.max(np.abs(ux)))
    if scale <= 0.0:
        return False
    jump = np.abs(np.diff(ux))
    h = u.cell_widths()
    wide = np.maximum(h[:-1], h[1:]) > eps**3
    return bool(np.any((jump > 0.05 * scale) & wide))


def energy_breakdown(u: GridFunction, eps: float, density, scaling: str = I_EPS) -> EnergyBreakdown:
    if eps <= 0.0:
        raise GridError("eps must be positive")
    ux, uxx = discrete_derivatives(u)
    h = u.cell_widths()
    w_int = _interior_trapz_weights(u.nodes)
    raw_interface = float(np.dot(w_int, uxx * uxx))
    raw_W = float(np.dot(h, density.W(ux)))
    u2 = u.values * u.values
    raw_u2 = float(np.dot(h, 0.5 * (u2[:-1] + u2[1:])))
    if scaling == I_EPS:
        parts = (eps**4 * raw_interface, raw_W / eps**2, raw_u2 / eps**2)
    elif scaling == E_EPS:
        parts = (eps**6 * raw_interface, raw_W, raw_u2)
    else:
        raise GridError(f"unknown scaling {scaling!r}")
    return EnergyBreakdown(
        total=parts[0] + parts[1] + parts[2],
        interface=parts[0], bulk_W=parts[1], bulk_u2=parts[2],
        scaling=scaling,
        under_resolved=_under_resolved(u, eps, ux, density),
    )


def energy_Ieps(u: GridFunction, eps: float, density) -> EnergyBreakdown:
    """Rescaled energy I_eps with breakdown."""
    return energy_breakdown(u, eps, density, I_EPS)


def energy_Eeps(u: GridFunction, eps: float, density) -> EnergyBreakdown:
    """Unrescaled energy E_eps with breakdown."""
    return energy_breakdown(u, eps, density, E_EPS)


def energy_gradient(u: GridFunction, eps: float, density, scaling: str = I_EPS) -> np.ndarray:
    """d(energy)/d(u_j) at interior nodes (boundary nodes are pinned)."""
    if eps <= 0.0:
        raise GridError("eps must be positive")
    ux, uxx = discrete_derivatives(u)
    h = u.cell_widths()
    n = len(u)

    # W term: cells j-1 and j both see u_j through their slopes
    dW = np.asarray(density.dW(ux))
    g_W = dW[:-1] - dW[1:]

    # u^2 term under the nodal trapezoid rule
    g_u2 = u.values[1:-1] * (h[:-1] + h[1:])

    # interface term: chain rule through the 3-point stencil
    w_int = _interior_trapz_weights(u.nodes)
    a, b, c = _stencil(h)
    t = 2.0 * w_int * uxx
    g_if = np.zeros(n)
    np.add.at(g_if, np.arange(0, n - 2), t * a)
    np.add.at(g_if, np.arange(1, n - 1), t * b)
    np.add.at(g_if, np.arange(2, n), t * c)
    g_if = g_if[1:-1]

    g_E = eps**6 * g_if + g_W + g_u2
    if scaling == I_EPS:
        return g_E / eps**2
    if scaling == E_EPS:
        return g_E
    raise GridError(f"unknown scaling {scaling!r}")


def interface_plus_W(u: GridFunction, eps: float, density,
                     lo: float | None = None, hi: float | None = None) -> float:
    """I_eps-scaled interface + W energy restricted to a node subrange [lo, hi].

    Used for transition-cost bookkeeping: the result is comparable to the
    Modica-Mortola bound 2*eps*|H(u_x(hi)) - H(u_x(lo))|.
    """
    nodes = u.nodes
    a = nodes[0] if lo is None else lo
    b = nodes[-1] if hi is None else hi
    i0 = int(np.searchsorted(nodes, a, side="left"))
    i1 = int(np.searchsorted(nodes, b, side="right")) - 1
    if i1 - i0 < 2:
        raise GridError("subrange must contain at least 3 nodes")
    # operate on raw slices: boundary-zero validation does not apply here
    x = nodes[i0:i1 + 1]
    h, ux, uxx = _nodal_derivatives(x, u.values[i0:i1 + 1])
    raw_if = float(np.dot(_interior_trapz_weights(x), uxx * uxx))
    raw_W = float(np.dot(h, density.W(ux)))
    return eps**4 * raw_if + raw_W / eps**2
