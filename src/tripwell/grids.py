"""Discretized profiles: nodal representation, validation, and JSON round trip."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridError


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


class Grid:
    """Validated nodes and the quantities that depend on them alone.

    The nodes are a read-only copy the grid owns.  The cell widths come with
    the validation; the other arrays are computed on first use.  Every array
    is read-only and the same object on every access, so the profiles, energy
    passes and diagnostics on one grid share them.
    """

    def __init__(self, nodes):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 1:
            raise GridError("nodes and values must be 1-d arrays of equal length")
        if len(nodes) < 3:
            raise GridError("a grid function needs at least 3 nodes")
        widths = np.diff(nodes)
        if not (np.all(np.isfinite(nodes)) and np.all(widths > 0.0)):
            raise GridError("nodes must be finite and strictly increasing")
        self.nodes = _frozen(nodes)
        self.widths = _frozen(widths)

    def __reduce__(self):
        # rebuilt through the constructor: read-only again, caches recomputed
        return Grid, (self.nodes,)

    @functools.cached_property
    def midpoints(self) -> np.ndarray:
        return _frozen(0.5 * (self.nodes[:-1] + self.nodes[1:]))

    @functools.cached_property
    def width_pairs(self) -> np.ndarray:
        """h_{j-1} + h_j at each interior node j."""
        return _frozen(self.widths[:-1] + self.widths[1:])

    @functools.cached_property
    def interior_weights(self) -> np.ndarray:
        """Trapezoid weights of the interior nodes."""
        return _frozen(_interior_trapz_weights(self.nodes))


@dataclass
class GridFunction:
    """A piecewise-linear profile u on an interval, pinned to zero at both ends.

    Attributes:
        nodes: finite, strictly increasing abscissae (default domain [0, 1]);
            a ``Grid`` may be passed instead, and is then shared.
        values: nodal values of u; first and last must be exactly zero.
        eps: the regularization scale the profile was built for (0 = generic);
            finite and non-negative.
        meta: free-form construction metadata carried through JSON artifacts.

    ``nodes`` and ``values`` are read-only copies the profile owns; the cell
    widths, midpoints and slopes are computed once and shared by every caller.
    """

    nodes: np.ndarray
    values: np.ndarray
    eps: float = 0.0
    meta: dict = field(default_factory=dict)
    grid: Grid = field(init=False, repr=False, compare=False)
    _slopes: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if not 0.0 <= self.eps < np.inf:
            raise GridError("eps must be finite and non-negative")
        self.grid = self.nodes if isinstance(self.nodes, Grid) else Grid(self.nodes)
        self.nodes = self.grid.nodes
        values = np.array(self.values, dtype=float)
        if values.shape != self.nodes.shape:
            raise GridError("nodes and values must be 1-d arrays of equal length")
        scale = float(np.max(np.abs(values))) or 1.0
        for k in (0, -1):
            if values[k] != 0.0:
                if abs(values[k]) > 1e-12 * scale:
                    raise GridError("boundary values must vanish")
                values[k] = 0.0
        self.values = _frozen(values)

    def __reduce__(self):
        # a pickle carries nodes, values, eps and meta; the constructor makes
        # the arrays read-only again and recomputes the grid and slopes
        return GridFunction, (self.nodes, self.values, self.eps, self.meta)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    def cell_widths(self) -> np.ndarray:
        return self.grid.widths

    def midpoints(self) -> np.ndarray:
        return self.grid.midpoints

    def slopes(self) -> np.ndarray:
        """First differences: u_x as a piecewise constant over cells."""
        if self._slopes is None:
            self._slopes = _frozen(np.diff(self.values) / self.grid.widths)
        return self._slopes

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values, eps=self.eps, meta=dict(self.meta))

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "nodes": self.nodes.tolist(),
            "values": self.values.tolist(),
            "meta": self.meta,
        }

    @staticmethod
    def from_dict(data: dict) -> "GridFunction":
        if not isinstance(data, dict):
            raise GridError("a profile must be a JSON object")
        missing = [k for k in ("nodes", "values") if k not in data]
        if missing:
            raise GridError(f"profile lacks {' and '.join(missing)}")
        meta = data.get("meta", {})
        if not isinstance(meta, dict):
            raise GridError("profile meta must be a JSON object")
        try:
            nodes = np.asarray(data["nodes"], dtype=float)
            values = np.asarray(data["values"], dtype=float)
            eps = float(data.get("eps", 0.0))
        except (TypeError, ValueError) as exc:
            raise GridError(f"malformed profile: {exc}") from None
        return GridFunction(nodes=nodes, values=values, eps=eps, meta=dict(meta))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            # json.dumps runs the C encoder; json.dump streams through the
            # pure-Python one, and both write the same bytes
            fh.write(json.dumps(self.to_dict()) + "\n")

    @staticmethod
    def load(path) -> "GridFunction":
        with open(path, "r", encoding="utf-8") as fh:
            return GridFunction.from_dict(json.load(fh))


def integrate_slopes(nodes: np.ndarray, w: np.ndarray, eps: float = 0.0,
                     meta: Optional[dict] = None) -> GridFunction:
    """Cumulative trapezoid of a sampled gradient, detrended to exact zero ends.

    The linear detrend removes the accumulated rounding drift (the builders
    enforce per-tooth zero means, so the drift is at machine level).
    """
    grid = Grid(nodes)
    nodes = grid.nodes
    w = np.asarray(w, dtype=float)
    steps = w[1:] + w[:-1]
    steps *= 0.5
    steps *= grid.widths                       # 0.5 * (w[1:] + w[:-1]) * h
    u = np.empty(len(nodes))
    u[0] = 0.0
    np.cumsum(steps, out=u[1:])
    span = nodes[-1] - nodes[0]
    trend = nodes - nodes[0]
    trend *= u[-1] / span
    u -= trend
    u[0] = 0.0
    u[-1] = 0.0
    return GridFunction(grid, u, eps=eps, meta=meta or {})
