"""Discretized profiles: nodal representation, validation, and JSON round trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridError


@dataclass
class GridFunction:
    """A piecewise-linear profile u on an interval, pinned to zero at both ends.

    Attributes:
        nodes: finite, strictly increasing abscissae (default domain [0, 1]).
        values: nodal values of u; first and last must be exactly zero.
        eps: the regularization scale the profile was built for (0 = generic).
        meta: free-form construction metadata carried through JSON artifacts.
    """

    nodes: np.ndarray
    values: np.ndarray
    eps: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise GridError("nodes and values must be 1-d arrays of equal length")
        if len(self.nodes) < 3:
            raise GridError("a grid function needs at least 3 nodes")
        if not (np.all(np.isfinite(self.nodes)) and np.all(np.diff(self.nodes) > 0.0)):
            raise GridError("nodes must be finite and strictly increasing")
        scale = float(np.max(np.abs(self.values))) or 1.0
        for k in (0, -1):
            if self.values[k] != 0.0:
                if abs(self.values[k]) > 1e-12 * scale:
                    raise GridError("boundary values must vanish")
                self.values[k] = 0.0

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    def cell_widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def slopes(self) -> np.ndarray:
        """First differences: u_x as a piecewise constant over cells."""
        return np.diff(self.values) / np.diff(self.nodes)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.nodes.copy(), np.asarray(values, dtype=float),
                            eps=self.eps, meta=dict(self.meta))

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
    nodes = np.asarray(nodes, dtype=float)
    w = np.asarray(w, dtype=float)
    u = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(nodes))])
    span = nodes[-1] - nodes[0]
    u -= (u[-1] / span) * (nodes - nodes[0])
    u[0] = 0.0
    u[-1] = 0.0
    return GridFunction(nodes, u, eps=eps, meta=meta or {})
