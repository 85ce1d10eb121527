"""In-memory spans around the public functions of each ``tripwell`` layer.

A ``Tracer`` wraps layer functions from outside the package: the wrapper is
set on the defining module and on every other ``tripwell`` module that
imported the same function by name, so calls made inside the package (for
example the energy calls a descent makes) are recorded too.  Each span keeps
its name, start, end, parent span and a few call facts (node counts, start
kind, the result of a descent).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import os
import sys
import time

# layer -> public names wrapped in that layer's module; ``GridFunction.save``
# and ``GridFunction.load`` are methods and ``optimizer`` is scipy's
# ``optimize.minimize`` as the minimizer module calls it.
LAYER_FUNCTIONS = {
    "potential": ("coercivity_of", "estimate_coercivity"),
    "constants": ("limit_constants", "check_hypotheses"),
    "microstructure": ("build_two_well_sawtooth", "build_three_well_profile",
                       "build_h7_competitor", "build_h8_competitor"),
    "energy": ("energy_Ieps", "energy_gradient"),
    "minimizer": ("epsilon_sweep", "multi_start", "minimize_Ieps"),
    "analysis": ("measure_report", "volume_fractions", "transition_layers",
                 "d_intervals"),
}


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "info")

    def __init__(self, sid, name, parent):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        info = {k: v for k, v in (self.info or {}).items() if k != "result"}
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "info": info}


def _nodes_of_first_arg(args, kwargs, out):
    return {"nodes": len(args[0])}


def _nodes_of_result(args, kwargs, out):
    return {"nodes": len(out)}


def _descent_info(args, kwargs, out):
    init = args[2] if len(args) > 2 else kwargs["init"]
    return {"kind": init.meta.get("kind", ""), "nodes": len(init), "result": out}


def _saved_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


INFO = {
    "energy.energy_Ieps": _nodes_of_first_arg,
    "energy.energy_gradient": _nodes_of_first_arg,
    "microstructure.build_two_well_sawtooth": _nodes_of_result,
    "microstructure.build_three_well_profile": _nodes_of_result,
    "microstructure.build_h7_competitor": _nodes_of_result,
    "microstructure.build_h8_competitor": _nodes_of_result,
    "minimizer.minimize_Ieps": _descent_info,
    "grids.save": _saved_bytes,
    "grids.load": _nodes_of_result,
}


class Tracer:
    """Records nested spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, info: dict | None = None) -> Span:
        """Open a span by hand (for work timed from outside the package)."""
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else -1)
        span.info = info
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = time.perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        info_of = INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(span.sid)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info_of is not None:
                span.info = info_of(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every function in ``LAYER_FUNCTIONS`` wherever it is bound."""
        import scipy.optimize
        import tripwell.analysis  # noqa: F401 - load every layer module
        import tripwell.minimizer  # noqa: F401
        from tripwell.grids import GridFunction

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tripwell" or n.startswith("tripwell."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"tripwell.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                traced = self.wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, traced)
        self._patch(scipy.optimize, "minimize",
                    self.wrap("minimizer.optimizer", scipy.optimize.minimize))
        self._patch(GridFunction, "save", self.wrap("grids.save", GridFunction.save))
        self._patch(GridFunction, "load",
                    staticmethod(self.wrap("grids.load", GridFunction.load)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def adopt(self, child_spans: list[dict], parent: Span) -> None:
        """Append spans recorded by a child process below ``parent``."""
        base = len(self.spans)
        for rec in child_spans:
            span = Span(base + rec["id"], rec["name"],
                        parent.sid if rec["parent"] < 0 else base + rec["parent"])
            span.start, span.end, span.info = rec["start"], rec["end"], rec["info"]
            self.spans.append(span)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
