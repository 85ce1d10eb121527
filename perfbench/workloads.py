"""The three workloads: ``sweep``, ``profiles`` and ``cli``.

Each is a closed loop with one client: ``run.py`` runs the operations of one
cycle after another, times each ``run`` and then calls its ``check``, which
returns the problems found (an empty list when the output is correct).  The
checks use ``tripwell`` functions bound at set-up, before any tracer is
installed, so they never add spans; the operations call through the module
attributes, so a traced run sees every layer call they make.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EX1 = (-1.0, 1.0 / 3.0, 1.0)
EX2 = (-1.0, 0.5, 1.0)
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    """One timed step; ``results`` is how many results it delivers."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    results: int = 1


class Workload:
    """Shared state: the seed, the smoke flag, quality samples and node counts."""

    name = ""

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.tracer = None
        self.nodes: dict[str, int] = {}
        self.quality: list[tuple[float, float]] = []   # (I_eps, gradient sup-norm)

    def warm_up(self) -> None:
        """One untimed cycle, so that lazy set-up and caches settle before timing."""
        for op in self.cycle(0):
            op.run()

    def start_phase(self) -> None:
        self.quality = []

    def best(self) -> tuple[float, float]:
        """I_eps and gradient sup-norm of the lowest-energy example-1 result."""
        return min(self.quality) if self.quality else (0.0, 0.0)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class Sweep(Workload):
    """One ``epsilon_sweep`` rung on example 1 at eps = 0.07 per step.

    The seed of the k-th rung in a run is ``1000 * seed + k``.
    """

    name = "sweep"
    EPS = 0.07
    LAMBDA3_MAX = 0.05

    def setup(self) -> None:
        import tripwell.minimizer as minimizer
        from tripwell import PotentialSpec, energy_gradient, energy_Ieps

        self.minimizer = minimizer
        self.spec = PotentialSpec(wells=EX1)
        self.energy_Ieps, self.energy_gradient = energy_Ieps, energy_gradient
        # epsilon_sweep keeps only scalars of the winning start; this
        # pass-through keeps the profile for the checks (no timing, no span)
        self.winners = []
        multi_start = minimizer.multi_start

        def keep_winner(*args, **kwargs):
            out = multi_start(*args, **kwargs)
            self.winners.append(out)
            return out

        minimizer.multi_start = keep_winner
        # the smoke run takes a few steps on a coarse random grid
        self.knobs = {"max_iters": 3, "grid_n": 2001} if self.smoke else {}

    def cycle(self, k: int) -> list[Op]:
        opts = self.minimizer.MinimizeOptions(seed=1000 * self.seed + k, **self.knobs)
        return [Op("rung", lambda: self._rung(opts), self._check)]

    def warm_up(self) -> None:
        """A rung of a few steps on a coarse random grid, not a full one."""
        opts = self.minimizer.MinimizeOptions(seed=self.seed, max_iters=3, grid_n=2001)
        self.minimizer.epsilon_sweep(self.spec, [self.EPS], opts)
        self.winners.clear()

    def _rung(self, opts):
        self.winners.clear()
        records = self.minimizer.epsilon_sweep(self.spec, [self.EPS], opts)
        return records[0], self.winners[-1], opts

    def _check(self, out) -> list:
        rec, best, opts = out
        problems = [f"start {k} energy {v!r}" for k, v in rec.start_values.items()
                    if not _finite(v)]
        two, three = rec.start_values.get("two-well"), rec.start_values.get("three-well")
        if not (two is not None and three is not None and two < three):
            problems.append(f"two-well start {two} does not beat three-well {three}")
        if not rec.lambda3 <= self.LAMBDA3_MAX:
            problems.append(f"lambda3 {rec.lambda3} above {self.LAMBDA3_MAX}")
        if self.energy_Ieps(best.u, self.EPS, self.spec).under_resolved:
            problems.append("winning profile is under_resolved")
        grad = self.energy_gradient(best.u, self.EPS, self.spec)
        self.quality.append((rec.best_value, float(abs(grad).max())))
        self.nodes = {"winner": len(best.u), "random_start": opts.grid_n}
        return problems

    def describe_starts(self, descents: list[dict]) -> list[dict]:
        """Quality next to time for every traced descent."""
        out = []
        for d in descents:
            u = d["result"].u
            out.append({
                "start_kind": d["start_kind"], "n_nodes": d["n_nodes"],
                "iterations": d["iterations"], "n_fev": d["n_fev"],
                "final_energy": d["final_energy"],
                "grad_sup": float(abs(self.energy_gradient(u, self.EPS, self.spec)).max()),
                "converged": d["converged"],
                "under_resolved": self.energy_Ieps(u, self.EPS, self.spec).under_resolved,
                "descent_s": d["descent_s"],
            })
        return out


class Profiles(Workload):
    """Fresh profiles: build, value, gradient and measure report, one each.

    A step is one pass of twelve profiles; the seed draws the competitors'
    yhat.  Timing the pass rather than each profile keeps the median off the
    boundary between two profile sizes.
    """

    name = "profiles"
    EPS = (0.07, 0.05, 0.04)
    KINDS = ("two-well", "three-well", "h7", "h8")
    ETA = 0.2
    # yhat windows around the worst points of H7 and H8 on example 2
    WINDOWS = {"h7": (0.55, 0.62), "h8": (0.18, 0.23)}
    TWO_WELL_BAND = (0.9, 1.25)      # times the limit A0/z21

    def setup(self) -> None:
        import numpy as np
        import tripwell.analysis as analysis
        import tripwell.energy as energy
        import tripwell.microstructure as ms
        from tripwell import PotentialSpec, limit_constants
        from tripwell.potential import eta0_bound

        self.ms, self.energy, self.analysis, self.np = ms, energy, analysis, np
        self.ex1, self.ex2 = PotentialSpec(wells=EX1), PotentialSpec(wells=EX2)
        self.c1, self.c2 = limit_constants(self.ex1), limit_constants(self.ex2)
        self.limit = self.c1.A0 / self.c1.z21
        self.eta0 = {id(self.ex1): eta0_bound(self.ex1), id(self.ex2): eta0_bound(self.ex2)}
        self.rng = np.random.default_rng(self.seed)
        self.eps_list = self.EPS[:1] if self.smoke else self.EPS
        self.sizes: dict[str, list[int]] = {}

    def cycle(self, k: int) -> list[Op]:
        plan = [(kind, eps, float(self.rng.uniform(*self.WINDOWS[kind]))
                 if kind in self.WINDOWS else None)
                for eps in self.eps_list for kind in self.KINDS]
        return [Op("pass", lambda: [self._profile(*p) for p in plan], self._check,
                   results=len(plan))]

    def _profile(self, kind: str, eps: float, yhat):
        ms = self.ms
        if kind == "two-well":
            spec, u = self.ex1, ms.build_two_well_sawtooth(self.ex1, eps, constants=self.c1)
        elif kind == "three-well":
            spec, u = self.ex1, ms.build_three_well_profile(self.ex1, eps, constants=self.c1)
        elif kind == "h7":
            spec, u = self.ex2, ms.build_h7_competitor(self.ex2, eps, yhat, constants=self.c2)
        else:
            spec, u = self.ex2, ms.build_h8_competitor(self.ex2, eps, yhat, constants=self.c2)
        value = self.energy.energy_Ieps(u, eps, spec)
        grad = self.energy.energy_gradient(u, eps, spec)
        report = self.analysis.measure_report(u, spec, self.ETA)
        return kind, eps, spec, len(u), value, grad, report

    def _check(self, profiles) -> list:
        np = self.np
        problems = []
        for kind, eps, spec, n, value, grad, report in profiles:
            self.sizes.setdefault(f"{kind}@{eps}", []).append(n)
            if not (math.isfinite(value.total) and np.all(np.isfinite(grad))):
                problems.append(f"{kind}@{eps}: non-finite energy or gradient")
            if kind == "two-well":
                lo, hi = (f * self.limit for f in self.TWO_WELL_BAND)
                if not lo <= value.total <= hi:
                    problems.append(f"two-well@{eps}: I_eps {value.total} outside [{lo}, {hi}]")
            if self.ETA < self.eta0[id(spec)]:
                total = sum(report.lam) + report.sigma_measure
                if not abs(total - 1.0) <= 1e-9:
                    problems.append(f"{kind}@{eps}: lambda1+lambda2+lambda3+sigma = {total!r}")
            if spec is self.ex1:
                self.quality.append((value.total, float(np.max(np.abs(grad)))))
        self.nodes = {k: int(np.median(v)) for k, v in sorted(self.sizes.items())}
        return problems


# the optional plateau interval of a d-interval may print as null, and so may
# the unset options the manifest echoes; any other null is a non-finite number
NULLABLE = {"e_span"}


def null_fields(obj, path: str = "") -> list[str]:
    if obj is None:
        return [path or "/"]
    if isinstance(obj, dict):
        if path == "/manifest/options":
            return []
        return [p for k, v in obj.items() if k not in NULLABLE
                for p in null_fields(v, f"{path}/{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in null_fields(v, f"{path}/{i}")]
    return []


class Cli(Workload):
    """Cold ``python -m tripwell.cli`` processes, one after another.

    A cycle is ``constants``, ``check-hypotheses``, ``paper-examples`` and the
    chain ``construct`` -> ``energy`` -> ``analyze`` in an order the seed
    shuffles; the chain stays in order.
    """

    name = "cli"
    ARGS = {
        "constants": ["constants", "--potential", "ex1.json"],
        "check-hypotheses": ["check-hypotheses", "--potential", "ex1.json"],
        "paper-examples": ["paper-examples"],
        "construct": ["construct", "--potential", "ex1.json", "--eps", "0.05",
                      "--kind", "three-well", "--out", "profile.json"],
        "energy": ["energy", "--profile", "profile.json", "--potential", "ex1.json"],
        "analyze": ["analyze", "--profile", "profile.json", "--potential", "ex1.json",
                    "--eta", "0.2"],
    }
    UNITS = (("constants",), ("check-hypotheses",), ("paper-examples",),
             ("construct", "energy", "analyze"))

    def setup(self) -> None:
        import tripwell
        from tripwell import PotentialSpec, energy_gradient
        from tripwell.grids import GridFunction

        self.spec = PotentialSpec(wells=EX1)
        self.energy_gradient, self.load = energy_gradient, GridFunction.load
        with open(self.work / "ex1.json", "w", encoding="utf-8") as fh:
            json.dump({"kind": "polynomial-triple-well", "wells": list(EX1)}, fh)
        src = str(Path(tripwell.__file__).resolve().parent.parent)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.rng = random.Random(self.seed)
        self.grad_sup = None
        self.child_rss_kb = 0
        self.import_shares: list[float] = []

    def start_phase(self) -> None:
        super().start_phase()
        self.child_rss_kb = 0
        self.import_shares = []

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0

    def warm_up(self) -> None:
        """One command, not a cycle of six, and without the seed's shuffle."""
        self._command("constants")

    def cycle(self, k: int) -> list[Op]:
        units = list(self.UNITS)
        self.rng.shuffle(units)
        return [Op(cmd, lambda cmd=cmd: self._command(cmd),
                   lambda out, cmd=cmd: self._check(cmd, out))
                for unit in units for cmd in unit]

    def _command(self, cmd: str):
        out_path, err_path = self.work / f"{cmd}.out", self.work / f"{cmd}.err"
        spans_path = self.work / f"{cmd}.spans"
        if cmd == "construct":      # energy and analyze must not read a stale profile
            (self.work / "profile.json").unlink(missing_ok=True)
        if self.tracer is None:
            argv = [sys.executable, "-m", "tripwell.cli", *self.ARGS[cmd]]
        else:
            argv = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"),
                    str(spans_path), *self.ARGS[cmd]]
            span = self.tracer.begin(f"cli.{cmd}")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if self.tracer is not None:
            from layers import importtime_layers
            from spans import read_spans

            self.tracer.finish(span)
            if spans_path.exists():
                self.tracer.adopt(read_spans(spans_path), span)
                spans_path.unlink()
            imported = importtime_layers(err_path.read_text(errors="replace"))
            self.import_shares.append(imported["tripwell"] / latency)
        return proc.returncode, out_path, err_path

    def _check(self, cmd: str, out) -> list:
        rc, out_path, err_path = out
        if rc != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            return [f"{cmd}: exit code {rc} {tail}"]
        try:
            payload = json.loads(out_path.read_text())
        except ValueError as exc:
            return [f"{cmd}: payload does not parse: {exc}"]
        problems = [f"{cmd}: null at {p}" for p in null_fields(payload)]
        if cmd == "construct":
            self.nodes = {"construct three-well@0.05": payload["profile"]["nodes"]}
        if cmd == "energy":
            total = payload["energy"]["total"]
            if not _finite(total):
                return problems + [f"energy: total {total!r}"]
            if self.grad_sup is None:
                u = self.load(self.work / "profile.json")
                self.grad_sup = float(abs(self.energy_gradient(u, u.eps, self.spec)).max())
            self.quality.append((total, self.grad_sup))
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Profiles, Cli)}
