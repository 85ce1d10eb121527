"""Local minimization of the discrete rescaled energy and the eps-sweep harness.

The discrete problem is nonconvex, so global behaviour is approximated by
multi-start local descent: the construction-informed seeds (two-well and
three-well profiles, plus competitor patterns when a structural hypothesis
fails) realize the candidate limit microstructures, and random sawtooth
perturbations guard against seed bias.  Descent runs on the interior nodal
values with the exact discrete gradient; boundary values stay pinned at zero.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .analysis import transition_layers, volume_fractions
from .constants import LimitConstants, check_hypotheses, limit_constants
from .energy import _ieps_objective, energy_gradient, energy_Ieps
from .errors import ConstructionError, ParameterError, TripwellError
from .grids import GridFunction
from .microstructure import (
    build_h7_competitor,
    build_h8_competitor,
    build_three_well_profile,
    build_two_well_sawtooth,
    two_well_count,
)
from .potential import coercivity_exponent

@dataclass(frozen=True)
class MinimizeOptions:
    """Knobs for one local descent and for the multi-start orchestration."""

    grid_n: int = 20001            # uniform grid size for random starts
    max_iters: int = 200
    grad_tol: float = 1e-4         # sup-norm stopping threshold
    starts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.grid_n < 3:
            raise ParameterError("grid_n must be at least 3")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be at least 1")
        if not 0.0 < self.grad_tol < np.inf:
            raise ParameterError("grad_tol must be finite and positive")
        if self.starts < 1:
            raise ParameterError("need at least one start")


@dataclass
class MinimizeResult:
    u: GridFunction
    value: float
    converged: bool
    iterations: int
    n_fev: int = 0                 # objective evaluations of the descent
    start_kind: str = ""
    history: list = field(default_factory=list)
    per_start: list = field(default_factory=list)


@dataclass
class SweepRecord:
    """Observables of one eps entry: best energy and measure diagnostics."""

    eps: float
    best_value: float
    lambda1: float
    lambda2: float
    lambda3: float
    n_layers_A: int
    n_layers_B: int
    start_kind: str
    eta: float = 0.0
    start_values: dict = field(default_factory=dict)


def minimize_Ieps(spec, eps: float, init: GridFunction,
                  opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Descend the discrete rescaled energy from ``init`` over interior values.

    L-BFGS-B with the exact gradient; each objective evaluation is one pass
    of the energy kernel over the geometry of ``init``'s grid.  ``history``
    holds the energy of ``init`` and then the energy at each accepted iterate
    (``iterations + 1`` entries, nonincreasing); ``n_fev`` counts the
    objective evaluations.  The best
    evaluated point is returned even when the line search stalls
    (``converged`` is False then).
    """
    # loaded here, not at module level, so that commands without a descent
    # do not pay for scipy; minimize is looked up on the module at call time,
    # where perfbench's tracer patches it
    from scipy import optimize

    full = init.values.copy()
    history = [float(energy_Ieps(init, eps, spec).total)]
    objective = _ieps_objective(init.grid, eps, spec)

    best = {"f": history[0], "x": full[1:-1].copy()}
    n_fev = 0

    def fg(x):
        nonlocal n_fev
        n_fev += 1
        full[1:-1] = x
        f, g = objective(full)
        if f < best["f"]:
            best["f"] = f
            best["x"] = x.copy()
        return f, g

    res = optimize.minimize(
        fg, full[1:-1].copy(), jac=True, method="L-BFGS-B",
        # the accepted iterate is the last evaluated point, so its value is at hand
        callback=lambda intermediate_result: history.append(float(intermediate_result.fun)),
        options={"maxiter": opts.max_iters, "gtol": opts.grad_tol,
                 "ftol": 1e-16, "maxcor": 12},
    )

    full[1:-1] = best["x"]
    full[0] = 0.0
    full[-1] = 0.0
    u_best = GridFunction(init.grid, full, eps=eps, meta=dict(init.meta))
    g_final = energy_gradient(u_best, eps, spec)
    converged = bool(res.status != 2 and np.max(np.abs(g_final)) <= opts.grad_tol)
    return MinimizeResult(u=u_best, value=best["f"], converged=converged,
                          iterations=int(res.nit), n_fev=n_fev, history=history)


def _random_sawtooth(spec, eps: float, n: int, base_count: int,
                     rng: np.random.Generator) -> GridFunction:
    """Uniform-grid sawtooth with jittered tooth count and smooth noise."""
    z1, z2, _ = spec.wells
    count = max(2, int(round(base_count * rng.uniform(0.6, 1.6))))
    nodes = np.linspace(0.0, 1.0, n)
    frac = z2 / (z2 - z1)               # zero-mean share of the falling flank
    phase = (nodes * count) % 1.0
    # integral of the ideal tooth gradient: rises at z2 then falls at z1
    l = 1.0 / count
    local = phase * l
    peak = (1.0 - frac) * l * z2
    up = np.minimum(local, (1.0 - frac) * l) * z2
    down = np.maximum(local - (1.0 - frac) * l, 0.0) * z1
    u = up + down
    u = u - nodes * u[-1]
    k = np.arange(1, 6)
    coeffs = rng.normal(0.0, 1.0, 5) * peak * 0.2
    u = u + np.sin(np.pi * np.outer(nodes, k)) @ coeffs
    u[0] = 0.0
    u[-1] = 0.0
    return GridFunction(nodes, u, eps=eps, meta={"kind": "random-sawtooth",
                                                 "count": count})


def _seed_builders(spec, eps: float, opts: MinimizeOptions,
                   constants: LimitConstants) -> list[tuple[str, functools.partial]]:
    """(start kind, seed builder) for every start, in start order.

    The random seeds share one generator, so they must be built in this order.
    """
    seeds = [("two-well", functools.partial(
        build_two_well_sawtooth, spec, eps, constants=constants))]
    if opts.starts >= 2:
        seeds.append(("three-well", functools.partial(
            build_three_well_profile, spec, eps, constants=constants)))
    if opts.starts > 2:
        report = check_hypotheses(spec, constants=constants)
        for verdict, builder, kind in (
            (report.h7, build_h7_competitor, "h7-competitor"),
            (report.h8, build_h8_competitor, "h8-competitor"),
        ):
            if verdict.status == "fails" and len(seeds) < opts.starts:
                seeds.append((kind, functools.partial(
                    builder, spec, eps, verdict.worst_y, constants=constants)))
    rng = np.random.default_rng(opts.seed)
    base = two_well_count(spec, eps, 1.0, constants)
    idx = 0
    while len(seeds) < opts.starts:
        seeds.append((f"random-{idx}", functools.partial(
            _random_sawtooth, spec, eps, opts.grid_n, base, rng)))
        idx += 1
    return seeds[: opts.starts]


def multi_start(spec, eps: float, opts: MinimizeOptions = MinimizeOptions(),
                constants: LimitConstants | None = None) -> MinimizeResult:
    """Run descent from every seed and return the argmin.

    Fully deterministic given ``opts.seed``; ties break on start order.  Seeds
    that fail to construct or to take a single step are recorded and skipped;
    if every start fails, the per-start reasons are aggregated.
    """
    c = constants if constants is not None else limit_constants(spec)
    results: list[MinimizeResult] = []
    failures: list[str] = []
    for kind, build in _seed_builders(spec, eps, opts, c):
        try:
            r = minimize_Ieps(spec, eps, build(), opts)
        except TripwellError as exc:
            failures.append(f"{kind}: {exc}")
            continue
        r.start_kind = kind
        results.append(r)
    if not results:
        raise ConstructionError("all starts failed: " + "; ".join(failures))
    best = min(range(len(results)), key=lambda i: (results[i].value, i))
    out = results[best]
    out.per_start = [(r.start_kind, r.value, r.converged) for r in results]
    return out


def eps_ladder(eps_list) -> list[float]:
    """The eps values as floats, checked to be strictly decreasing."""
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise ParameterError("eps ladder must be strictly decreasing")
    return eps_list


def epsilon_sweep(spec, eps_list, opts: MinimizeOptions = MinimizeOptions(),
                  constants: LimitConstants | None = None) -> list[SweepRecord]:
    """Multi-start minimization along a decreasing eps ladder.

    Volume fractions are evaluated at eta = eps^(1/(q+1)); layer counts use
    the same eta capped below the band-degeneracy bound (at moderate eps the
    natural window is too wide for the layer definitions to make sense).
    """
    eps_list = eps_ladder(eps_list)
    c = constants if constants is not None else limit_constants(spec)
    q = coercivity_exponent(spec)
    z1, z2, z3 = spec.wells
    eta_layer_cap = 0.45 * min(z2 - z1, z3 - z2)
    records: list[SweepRecord] = []
    for eps in eps_list:
        best = multi_start(spec, eps, opts, c)
        eta = eps ** (1.0 / (q + 1.0))
        vf = volume_fractions(best.u, spec, min(eta, 0.5 * (z3 - z1) - 1e-9))
        layers = transition_layers(best.u, spec, min(eta, eta_layer_cap))
        n_a = sum(1 for L in layers if L.kind == "A+")
        n_b = sum(1 for L in layers if L.kind == "B+")
        records.append(SweepRecord(
            eps=eps, best_value=best.value,
            lambda1=vf.lam[0], lambda2=vf.lam[1], lambda3=vf.lam[2],
            n_layers_A=n_a, n_layers_B=n_b,
            start_kind=best.start_kind, eta=eta,
            start_values={k: v for k, v, _ in best.per_start},
        ))
    return records


SWEEP_COLUMNS = ("eps", "best_value", "lambda1", "lambda2", "lambda3",
                 "layersA", "layersB", "start_kind")


def sweep_to_csv(records: list[SweepRecord]) -> str:
    """Render sweep records as CSV (12 significant digits, LF newlines)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for r in records:
        writer.writerow([
            _fmt(r.eps), _fmt(r.best_value), _fmt(r.lambda1), _fmt(r.lambda2),
            _fmt(r.lambda3), r.n_layers_A, r.n_layers_B, r.start_kind,
        ])
    return buf.getvalue()


def _fmt(x: float) -> str:
    return f"{x:.12g}"
