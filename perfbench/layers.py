"""Per-layer metrics derived from the spans of a traced run.

Every metric is reported on every workload; a layer a workload does not reach
reads 0.  Times are medians per call, and counts are per timed step of the
workload (a sweep rung, a pass of profiles, a CLI command), so neither
depends on how many steps fit in a run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

BUILDERS = {
    "two-well": "microstructure.build_two_well_sawtooth",
    "three-well": "microstructure.build_three_well_profile",
    "h7": "microstructure.build_h7_competitor",
    "h8": "microstructure.build_h8_competitor",
}
START_CLASSES = ("two-well", "three-well", "random")
CLI_COMMANDS = ("constants", "check-hypotheses", "paper-examples", "construct",
                "energy", "analyze")


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {
        "import.tripwell_s": "s", "import.scipy_s": "s",
        "potential.coercivity_of_ms": "ms", "potential.coercivity_of_calls": "count",
        "constants.limit_constants_ms": "ms", "constants.check_hypotheses_ms": "ms",
        "constants.check_hypotheses_calls": "count",
    }
    for kind in BUILDERS:
        units[f"microstructure.{kind}.build_ms"] = "ms"
        units[f"microstructure.{kind}.nodes"] = "count"
    units.update({
        "energy.value_ms": "ms", "energy.gradient_ms": "ms",
        "energy.mnodes_per_s": "Mnodes/s", "energy.descent_calls": "count",
        "energy.descent_share": "ratio",
        "minimizer.seed_build_s": "s", "minimizer.diag_s": "s",
    })
    for kind in START_CLASSES:
        units[f"minimizer.{kind}.descent_s"] = "s"
        units[f"minimizer.{kind}.iterations"] = "count"
        units[f"minimizer.{kind}.n_fev"] = "count"
    units.update({
        "minimizer.fev_per_iter": "ratio", "minimizer.optimizer_self_s": "s",
        "minimizer.converged_share": "ratio",
        "analysis.measure_report_ms": "ms", "analysis.volume_fractions_ms": "ms",
        "analysis.transition_layers_ms": "ms", "analysis.d_intervals_ms": "ms",
        "grids.save_ms": "ms", "grids.load_ms": "ms", "grids.json_bytes": "bytes",
    })
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.latency_s"] = "s"
    units["cli.import_share"] = "ratio"
    return units


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def start_class(kind: str) -> str:
    return "random" if kind.startswith("random") else kind


class SpanIndex:
    """Spans grouped by name and by parent."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            self.children[s.parent].append(s)

    def descendants(self, span, name: str) -> list:
        out, todo = [], list(self.children[span.sid])
        while todo:
            s = todo.pop()
            if s.name == name:
                out.append(s)
            todo.extend(self.children[s.sid])
        return out

    def self_time(self, span) -> float:
        return span.duration - sum(c.duration for c in self.children[span.sid])

    def median_ms(self, name: str) -> float:
        return 1e3 * _median(s.duration for s in self.by_name[name])


def descent_records(index: SpanIndex) -> list[dict]:
    """One record per descent: kind, size, iterations, evaluations, time."""
    out = []
    for s in index.by_name["minimizer.minimize_Ieps"]:
        if s.info is None:      # the descent raised
            continue
        res = s.info["result"]
        n_fev = sum(len(index.descendants(opt, "energy.energy_Ieps"))
                    for opt in index.children[s.sid] if opt.name == "minimizer.optimizer")
        out.append({"span": s, "start_kind": s.info["kind"], "n_nodes": s.info["nodes"],
                    "iterations": res.iterations, "n_fev": n_fev,
                    "final_energy": res.value, "converged": res.converged,
                    "descent_s": s.duration, "result": res})
    return out


def derive(spans, n_steps: int, import_layers: dict, cli_imports: list[float]) -> dict:
    """Per-layer metric values (name -> number) from the traced phase.

    ``n_steps`` is the number of timed workload steps the spans cover,
    ``import_layers`` the median ``-X importtime`` figures of the traced
    set-up probes, and ``cli_imports`` the import share of each traced CLI
    command.
    """
    ix = SpanIndex(spans)
    per_step = 1.0 / max(n_steps, 1)
    m = {"import.tripwell_s": import_layers.get("tripwell", 0.0),
         "import.scipy_s": import_layers.get("scipy", 0.0)}

    m["potential.coercivity_of_ms"] = ix.median_ms("potential.coercivity_of")
    m["potential.coercivity_of_calls"] = per_step * len(ix.by_name["potential.coercivity_of"])
    m["constants.limit_constants_ms"] = ix.median_ms("constants.limit_constants")
    m["constants.check_hypotheses_ms"] = ix.median_ms("constants.check_hypotheses")
    m["constants.check_hypotheses_calls"] = (
        per_step * len(ix.by_name["constants.check_hypotheses"]))

    for kind, name in BUILDERS.items():
        m[f"microstructure.{kind}.build_ms"] = ix.median_ms(name)
        m[f"microstructure.{kind}.nodes"] = _median(
            s.info["nodes"] for s in ix.by_name[name] if s.info)

    energy = [s for s in ix.by_name["energy.energy_Ieps"] + ix.by_name["energy.energy_gradient"]
              if s.info]
    busy = sum(s.duration for s in energy)
    m["energy.value_ms"] = ix.median_ms("energy.energy_Ieps")
    m["energy.gradient_ms"] = ix.median_ms("energy.energy_gradient")
    m["energy.mnodes_per_s"] = (sum(s.info["nodes"] for s in energy) / busy / 1e6
                                if busy > 0.0 else 0.0)
    in_descent = [e for d in ix.by_name["minimizer.minimize_Ieps"]
                  for name in ("energy.energy_Ieps", "energy.energy_gradient")
                  for e in ix.descendants(d, name)]
    rungs = ix.by_name["minimizer.epsilon_sweep"]
    rung_time = sum(s.duration for s in rungs)
    m["energy.descent_calls"] = per_step * len(in_descent)
    m["energy.descent_share"] = (sum(s.duration for s in in_descent) / rung_time
                                 if rung_time > 0.0 else 0.0)

    starts = ix.by_name["minimizer.multi_start"]
    descents = descent_records(ix)
    by_sid = {d["span"].sid: d for d in descents}
    per_rung = [[by_sid[x.sid] for x in ix.descendants(s, "minimizer.minimize_Ieps")
                 if x.sid in by_sid] for s in starts]
    m["minimizer.seed_build_s"] = _median(
        s.duration - sum(d["descent_s"] for d in group) for s, group in zip(starts, per_rung))
    m["minimizer.diag_s"] = _median(
        r.duration - sum(s.duration for s in ix.descendants(r, "minimizer.multi_start"))
        for r in rungs)
    for kind in START_CLASSES:
        for key in ("descent_s", "iterations", "n_fev"):
            m[f"minimizer.{kind}.{key}"] = _median(
                sum(d[key] for d in group if start_class(d["start_kind"]) == kind)
                for group in per_rung)
    iters = sum(d["iterations"] for d in descents)
    m["minimizer.fev_per_iter"] = (sum(d["n_fev"] for d in descents) / iters
                                   if iters else 0.0)
    m["minimizer.optimizer_self_s"] = _median(
        sum(ix.self_time(o) for o in ix.descendants(r, "minimizer.optimizer"))
        for r in rungs)
    m["minimizer.converged_share"] = (
        sum(d["converged"] for d in descents) / len(descents) if descents else 0.0)

    for name in ("measure_report", "volume_fractions", "transition_layers", "d_intervals"):
        m[f"analysis.{name}_ms"] = ix.median_ms(f"analysis.{name}")
    m["grids.save_ms"] = ix.median_ms("grids.save")
    m["grids.load_ms"] = ix.median_ms("grids.load")
    m["grids.json_bytes"] = _median(s.info["bytes"] for s in ix.by_name["grids.save"]
                                    if s.info)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.latency_s"] = _median(s.duration for s in ix.by_name[f"cli.{cmd}"])
    m["cli.import_share"] = _median(cli_imports)
    return m


def span_summary(spans) -> dict:
    """Calls, total time and self time for each span name."""
    ix = SpanIndex(spans)
    return {name: {"calls": len(group),
                   "total_s": sum(s.duration for s in group),
                   "self_s": sum(ix.self_time(s) for s in group)}
            for name, group in sorted(ix.by_name.items())}


def importtime_layers(stderr: str) -> dict:
    """Cumulative import seconds of the outermost ``tripwell`` and ``scipy``
    modules in ``python -X importtime`` output (nested ones are inside)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    totals = {"tripwell": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):   # parents precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(n.split(".")[0] != top for _, n in stack):
            totals[top] += cumulative / 1e6
        stack.append((depth, name))
    return totals
