"""Discretized profiles: nodal representation, validation, and JSON round trip."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridError

SAVE_CHUNK = 4096          # values encoded per piece of a saved profile


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
        self._own(np.array(nodes, dtype=float))

    @classmethod
    def _adopt(cls, nodes: np.ndarray) -> "Grid":
        """A grid that takes ``nodes``, a fresh float array no caller keeps,
        instead of copying it."""
        grid = cls.__new__(cls)
        grid._own(nodes)
        return grid

    def _own(self, nodes: np.ndarray) -> None:
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


@dataclass(eq=False)
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
    Profiles, like grids, compare by identity.
    """

    nodes: np.ndarray
    values: np.ndarray
    eps: float = 0.0
    meta: dict = field(default_factory=dict)
    grid: Grid = field(init=False, repr=False)
    _slopes: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _check_profile_eps(self.eps)
        grid = self.nodes if isinstance(self.nodes, Grid) else Grid(self.nodes)
        self._own(grid, np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray, eps: float,
               meta: dict) -> "GridFunction":
        """A profile on ``grid`` that takes ``values``, a fresh float array no
        caller keeps, instead of copying it."""
        _check_profile_eps(eps)
        u = cls.__new__(cls)
        u.eps, u.meta, u._slopes = eps, meta, None
        u._own(grid, values)
        return u

    def _own(self, grid: Grid, values: np.ndarray) -> None:
        self.grid = grid
        self.nodes = grid.nodes
        if values.shape != self.nodes.shape:
            raise GridError("nodes and values must be 1-d arrays of equal length")
        for k in (0, -1):
            if values[k] != 0.0:
                if abs(values[k]) > 1e-12 * float(np.max(np.abs(values))):
                    raise GridError("boundary values must vanish")
                values[k] = 0.0
        self.values = _frozen(values)

    def __reduce__(self):
        # a pickle carries nodes, values, eps and meta; the constructor makes
        # the arrays read-only again and recomputes the grid and slopes
        return GridFunction, (self.nodes, self.values, self.eps, self.meta)

    def __len__(self) -> int:
        return len(self.nodes)

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
        """Write ``json.dumps(self.to_dict()) + "\\n"``, one piece at a time.

        Each array goes out in runs of SAVE_CHUNK values, so the whole text
        and the two full float lists never exist at once.  Each run is encoded
        by the C encoder (``json.dump`` would stream through the pure-Python
        one); the list brackets are cut off and the runs joined by ", ".
        """
        head = '{"eps": ' + json.dumps(self.eps)
        tail = ', "meta": ' + json.dumps(self.meta) + "}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head)
            for key, arr in (("nodes", self.nodes), ("values", self.values)):
                fh.write(f', "{key}": [')
                for i in range(0, len(arr), SAVE_CHUNK):
                    if i:
                        fh.write(", ")
                    fh.write(json.dumps(arr[i:i + SAVE_CHUNK].tolist())[1:-1])
                fh.write("]")
            fh.write(tail)

    @staticmethod
    def load(path) -> "GridFunction":
        with open(path, "r", encoding="utf-8") as fh:
            return GridFunction.from_dict(json.load(fh))


def _check_profile_eps(eps: float) -> None:
    if not 0.0 <= eps < np.inf:
        raise GridError("eps must be finite and non-negative")


def integrate_slopes(nodes, w: np.ndarray, eps: float = 0.0,
                     meta: Optional[dict] = None) -> GridFunction:
    """Cumulative trapezoid of a sampled gradient, detrended to exact zero ends.

    The linear detrend removes the accumulated rounding drift (the builders
    enforce per-tooth zero means, so the drift is at machine level).  As in
    ``GridFunction``, ``nodes`` may be a ``Grid``, which is then shared; the
    integrated values are the profile's own, without a further copy.
    """
    grid = nodes if isinstance(nodes, Grid) else Grid(nodes)
    nodes = grid.nodes
    w = np.asarray(w, dtype=float)
    steps = w[1:] + w[:-1]
    steps *= 0.5
    steps *= grid.widths                       # 0.5 * (w[1:] + w[:-1]) * h
    u = np.empty(len(nodes))
    u[0] = 0.0
    np.cumsum(steps, out=u[1:])
    del steps                                  # freed before the detrend allocates
    span = nodes[-1] - nodes[0]
    trend = nodes - nodes[0]
    trend *= u[-1] / span
    u -= trend
    u[0] = 0.0
    u[-1] = 0.0
    return GridFunction._adopt(grid, u, eps, meta or {})
