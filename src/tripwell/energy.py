"""Discrete evaluation of the regularized energies and their exact gradient.

The rescaled functional on a profile u over its domain is

    I_eps(u) = eps^-2 * integral( eps^6 u_xx^2 + W(u_x) + u^2 ),

and E_eps is the same integral without the eps^-2 prefactor.  Quadrature is
fixed by contract: trapezoid on nodes for u^2, trapezoid on interior nodes for
u_xx^2 (the boundary carries no second-derivative contribution; only u is
pinned), and midpoint on cells for W(u_x), whose argument is the piecewise
constant cell slope.  The gradient is the exact derivative of this discrete
functional with respect to interior nodal values.

Every number the package reports about these energies comes from one
``_Pass`` over a grid: each descent step, a profile's energy and gradient,
and the interface + W cost of a subrange.  A pass owns u_x, u_xx and its
stages' buffers.  ``load(v)`` forms u_x and u_xx once (a front-end passes
the slopes its profile keeps), then ``parts`` gives the three energy parts
and ``gradient`` the exact gradient of that load; the u_xx stencil comes
with the first gradient, so a pass that only evaluates an energy has none.
The node-only arrays (cell widths, h_{j-1} + h_j, trapezoid weights) come
from the ``Grid`` and are shared, but the pass is not cached there: the
descent reloads one pass at every step, so its steps allocate no grid-sized
array, while a front-end's pass lives for one call, so a profile that is
only evaluated keeps no stencil and no buffers.

Any density object exposing W(s, out=None) and dW(s, out=None) is accepted,
so decoupled convexity checks can swap in a plain quadratic; ``out`` is an
array the shape of ``s`` that the result may be written into, and the
returned array is the one read.
"""

from __future__ import annotations

import functools
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
    """(u_x at cell midpoints, u_xx at interior nodes), as an energy pass reads them.

    u_xx uses the 3-point second difference on a nonuniform grid, which is
    exact for quadratics.
    """
    p = _Pass(u.grid, 1.0, None).load(u.values, u.slopes())    # a load reads no eps
    return p.ux, p.uxx


class _Pass:
    """One energy pass on ``grid``: u_x, u_xx and the stage buffers, sized by
    the grid, each made on first use and reused by every ``load``."""

    def __init__(self, grid: Grid, eps: float, density):
        check_eps(eps)
        self.grid, self.eps, self.density = grid, eps, density
        self.uxx, self._ux = np.empty(len(grid.nodes) - 2), None

    @functools.cached_property
    def _stage(self) -> tuple[np.ndarray, ...]:
        """A buffer per node and one per cell, which both stages use, and two
        per interior node for the gradient."""
        n = len(self.grid.nodes)
        return np.empty(n), np.empty(n - 1), np.empty(n - 2), np.empty(n - 2)

    @functools.cached_property
    def _stencil(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) with u_xx_j = a*u_{j-1} + b*u_j + c*u_{j+1}."""
        h, hsum = self.grid.widths, self.grid.width_pairs
        a = h[:-1] * hsum
        c = h[1:] * hsum
        np.divide(2.0, a, out=a)                   # 2 / (h[:-1] * hsum)
        np.divide(2.0, c, out=c)                   # 2 / (h[1:] * hsum)
        b = a + c
        return a, np.negative(b, out=b), c

    def load(self, v: np.ndarray, ux: np.ndarray | None = None) -> "_Pass":
        """Form u_x and u_xx of the nodal values ``v``, or take u_x from
        ``ux``, the slopes a profile keeps; the stages read them, and ``v``,
        until the next load."""
        if ux is None:
            ux = np.subtract(v[1:], v[:-1], out=self._ux)
            self._ux = np.divide(ux, self.grid.widths, out=ux)     # np.diff(v) / h
        self.v, self.ux = v, ux
        uxx = np.subtract(ux[1:], ux[:-1], out=self.uxx)
        uxx *= 2.0
        uxx /= self.grid.width_pairs               # 2 * (jump of ux) / (h_{j-1} + h_j)
        return self

    def parts(self, scaling: str = I_EPS) -> tuple[float, float, float]:
        """(interface, bulk_W, bulk_u2) of the loaded values in ``scaling``."""
        # the steps here and in ``gradient`` do the arithmetic of the plain
        # expressions in their comments, in the same order, in the pass's
        # buffers; u_xx^2 passes through the node buffer before u^2 does
        grid, eps, (nodes, cells, _, _) = self.grid, self.eps, self._stage
        raw_if = float(np.dot(grid.interior_weights,
                              np.multiply(self.uxx, self.uxx, out=nodes[:-2])))
        raw_W = float(np.dot(grid.widths, self.density.W(self.ux, out=cells)))
        u2 = np.multiply(self.v, self.v, out=nodes)
        u2_cells = np.add(u2[:-1], u2[1:], out=cells)
        u2_cells *= 0.5                            # 0.5 * (u2[:-1] + u2[1:])
        raw_u2 = float(np.dot(grid.widths, u2_cells))
        if scaling == I_EPS:
            return eps**4 * raw_if, raw_W / eps**2, raw_u2 / eps**2
        if scaling == E_EPS:
            return eps**6 * raw_if, raw_W, raw_u2
        raise GridError(f"unknown scaling {scaling!r}")

    def gradient(self, out=None) -> np.ndarray:
        """The I_eps gradient of the loaded values at the interior nodes, into
        ``out``, or else into the pass's node buffer."""
        grid, eps = self.grid, self.eps
        # the stencil before the stage buffers: a front-end hands back a view
        # of the node buffer, and the freed blocks below it stay with the
        # allocator for the next profile's call, which then faults in fewer pages
        a, b, c = self._stencil
        g_if, cells, t, tmp = self._stage
        # interface term: chain rule through the stencil; the slice adds keep
        # the per-node order (a, then b, then c) of a scatter-add
        np.multiply(grid.interior_weights, 2.0, out=t)
        t *= self.uxx                              # 2 * w_int * uxx
        g_if.fill(0.0)
        np.multiply(t, a, out=tmp)
        g_if[:-2] += tmp
        g_if[1:-1] += np.multiply(t, b, out=tmp)
        g_if[2:] += np.multiply(t, c, out=tmp)
        # W term: cells j-1 and j both see u_j through their slopes
        dW = np.asarray(self.density.dW(self.ux, out=cells))
        # u^2 term under the nodal trapezoid rule; together the E_eps gradient
        # g = eps^6 * g_if[1:-1] + (dW[:-1] - dW[1:]) + v[1:-1] * (h[:-1] + h[1:])
        g = np.multiply(g_if[1:-1], eps**6, out=g_if[1:-1] if out is None else out)
        g += np.subtract(dW[:-1], dW[1:], out=tmp)
        g += np.multiply(self.v[1:-1], grid.width_pairs, out=tmp)
        # I_eps, in place: a scaled copy would free the node buffer, the last
        # grid-sized block on the heap, and the allocator hands such a freed
        # top back to the system, so every later call faults it in
        g /= eps**2
        return g


def _ieps_objective(grid: Grid, eps: float, density):
    """The descent objective on ``grid``: nodal values v -> (I_eps, gradient),
    the gradient a callable of the array to write it into.

    One ``_Pass`` serves every call; the callable is the gradient of the
    call's load, to be called before v changes and before the next call.
    Both match ``energy_Ieps(...).total`` and ``energy_gradient`` bit for bit.
    """
    p = _Pass(grid, eps, density)

    def fg(v: np.ndarray):
        return sum(p.load(v).parts()), p.gradient

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
    ux = u.slopes()
    parts = _Pass(u.grid, eps, density).load(u.values, ux).parts(scaling)
    return EnergyBreakdown(sum(parts), *parts, scaling,
                           _under_resolved(u.grid.widths, ux, eps, density))


def energy_Ieps(u: GridFunction, eps: float, density) -> EnergyBreakdown:
    """Rescaled energy I_eps with breakdown."""
    return energy_breakdown(u, eps, density, I_EPS)


def energy_Eeps(u: GridFunction, eps: float, density) -> EnergyBreakdown:
    """Unrescaled energy E_eps with breakdown."""
    return energy_breakdown(u, eps, density, E_EPS)


def energy_gradient(u: GridFunction, eps: float, density) -> np.ndarray:
    """d(I_eps)/d(u_j) at interior nodes (boundary nodes are pinned)."""
    return _Pass(u.grid, eps, density).load(u.values, u.slopes()).gradient()


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
    p = _Pass(Grid(nodes[i0:i1 + 1]), eps, density).load(u.values[i0:i1 + 1])
    interface, bulk_W, _ = p.parts()
    return interface + bulk_W
