"""Local minimization of the discrete rescaled energy and the eps-sweep harness.

The discrete problem is nonconvex, so global behaviour is approximated by
multi-start local descent: the construction-informed seeds (two-well and
three-well profiles, plus competitor patterns when a structural hypothesis
fails) realize the candidate limit microstructures, and random sawtooth
perturbations guard against seed bias.  Descent runs on the interior nodal
values with the exact discrete gradient; boundary values stay pinned at zero.

A start travels as plain data (eps, its kind and the numbers that kind
needs); the process that descends it builds its seed, so a worker process
receives no profile, and sends back raw arrays, of which the caller keeps
the best so far and makes a profile of the winner alone.  The random
starts' draws come from the standard library's ``random.Random(seed)``,
and numpy.random is never loaded.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

from . import BLAS_THREAD_VARS
from .analysis import transition_layers, volume_fractions
from .constants import LimitConstants, check_hypotheses, limit_constants
from .energy import _ieps_objective
from .errors import ConstructionError, NumericError, ParameterError, TripwellError, check_eps
from .grids import Grid, GridFunction
from .microstructure import (
    build_h7_competitor,
    build_h8_competitor,
    build_three_well_profile,
    build_two_well_sawtooth,
    competitor_seeds,
    two_well_count,
)
from .potential import coercivity_exponent

MEMORY = 12                    # correction pairs kept by the L-BFGS descent
ARMIJO = 1e-4                  # sufficient-decrease constant of the line search
CURVATURE = 0.9                # weak-Wolfe curvature constant
MAX_TRIALS = 20                # energy evaluations per line search
RANDOM_MODES = 5               # sine modes of smooth noise on a random start


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
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")


def _blas_name() -> str:
    """The BLAS that numpy was built against, "" where unknown."""
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["name"].lower()
    except (AttributeError, KeyError, TypeError):
        return ""


def _blas_threads() -> int | None:
    """Threads per process of numpy's BLAS, or None unless the environment
    pins them."""
    family = next((v for k, v in BLAS_THREAD_VARS.items() if k in _blas_name()), ())
    pins = [int(t) for t in map(os.environ.get, family) if t and t.isdigit() and int(t) > 0]
    return pins[0] if pins else None


def _workers(tasks: int) -> int:
    """Worker processes for ``tasks`` descents: one per available CPU that
    each worker's BLAS threads leave free, and one process when the BLAS
    threads are not pinned or ``fork`` is missing.

    OpenBLAS runs a thread per CPU unless told otherwise, and splits every
    dot product of more than 10,000 entries over them.  Workers that each do
    so fight for the CPUs: on 2 CPUs a rung at eps 0.07 took 21 s in one
    process and 40 s in two.
    """
    if tasks < 2:
        return 1
    threads = _blas_threads()
    if threads is None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # macOS and Windows have no sched_getaffinity
        cpus = os.cpu_count() or 1
    workers = min(tasks, cpus // threads)
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return max(1, workers)


@dataclass(frozen=True)
class StartRecord:
    """What one start's descent did; ``descent_s`` is left out of ``==``."""

    start_kind: str
    value: float
    converged: bool
    n_nodes: int
    iterations: int
    n_fev: int
    reason: str                    # why the descent stopped (MinimizeResult.reason)
    descent_s: float = field(default=0.0, compare=False)


@dataclass
class MinimizeResult:
    u: GridFunction
    value: float
    converged: bool
    iterations: int
    n_fev: int = 0                 # objective evaluations of the descent
    reason: str = ""               # "grad_tol", "max_iters" or "line_search"
    start_kind: str = ""
    history: list = field(default_factory=list)
    per_start: list = field(default_factory=list)   # a StartRecord per start
    failed: list = field(default_factory=list)      # (start kind, error text) per failed start


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
    per_start: list = field(default_factory=list)   # a StartRecord per start
    failed: list = field(default_factory=list)      # (start kind, error text) per failed start

    @property
    def start_values(self) -> dict:
        """Final energy of each start, by start kind."""
        return {s.start_kind: s.value for s in self.per_start}


def minimize_Ieps(spec, eps: float, init: GridFunction,
                  opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Descend the discrete rescaled energy from ``init`` over interior values.

    Unconstrained L-BFGS with the exact gradient (Nocedal & Wright, ch. 7):
    the two-loop recursion over the newest ``MEMORY`` correction pairs and a
    weak-Wolfe line search (``_wolfe_step``).  Each objective evaluation is
    one energy pass over the geometry of ``init``'s grid, whose gradient is
    formed only where the line search reads the slope, and every accepted
    step lowers ``I_eps``, so the last iterate is returned.
    ``history`` holds the energy of ``init`` and then the energy at each
    accepted iterate (``iterations + 1`` entries, decreasing); ``n_fev``
    counts the energy evaluations.  ``reason`` says why the descent
    stopped: ``grad_tol`` (the gradient's sup-norm is at most
    ``opts.grad_tol``; only then is ``converged`` True), ``max_iters``, or
    ``line_search`` (no step lowers the energy enough).  It works in arrays
    made once, ``(2 * MEMORY + 17) * 8`` bytes per node in all.
    """
    check_eps(eps)
    full = init.values.copy()
    objective = _ieps_objective(init.grid, eps, spec)
    n_fev = 0

    def fg(x):
        nonlocal n_fev
        n_fev += 1
        full[1:-1] = x
        return objective(full)

    m = len(full) - 2
    S, Y, X, G = (np.empty((rows, m)) for rows in (MEMORY + 1, MEMORY + 1, 3, 3))
    d, tmp = np.empty(m), np.empty(m)
    rho = [0.0] * (MEMORY + 1)             # 1 / s.y of each row's pair
    kept = deque(maxlen=MEMORY)            # rows of the kept pairs, oldest first
    points = list(zip(X, G))               # (x, g) rows: the iterate and two trial points
    x, g = points[0]
    x[:] = full[1:-1]
    f, grad = fg(x)
    if not np.isfinite(f):
        raise NumericError(f"the start's energy is {f}")
    g = grad(g)
    history = [f]
    gamma = 1.0                            # initial scaling s.y / y.y of the newest pair
    while True:
        if np.max(np.abs(g, out=tmp)) <= opts.grad_tol:
            reason = "grad_tol"
            break
        if len(history) > opts.max_iters:
            reason = "max_iters"
            break
        _two_loop(S, Y, rho, kept, gamma, g, d, tmp)
        gd = float(g @ d)
        if not gd < 0.0:
            # rounding cost the direction its descent: restart from -g
            kept.clear()
            np.negative(g, out=d)
            gd = float(g @ d)
        found = None
        if gd < 0.0:
            # with no pair kept, d = -g and the first trial moves x by 1
            found = _wolfe_step(fg, x, f, gd, d, 1.0 if kept else 1.0 / math.sqrt(-gd),
                                [p for p in points if p[0] is not x])
        if found is None:
            reason = "line_search"
            break
        x_new, f, g_new = found
        # a new pair takes a row no kept pair holds, so a rejected one overwrites none
        row = next(i for i in range(MEMORY + 1) if i not in kept)
        s, y = np.subtract(x_new, x, out=S[row]), np.subtract(g_new, g, out=Y[row])
        sy, yy = float(s @ y), float(y @ y)
        # s.y > 0 keeps the estimate positive definite; a pair so small that
        # 1 / s.y or s.y / y.y overflows is rounding noise
        if sy > 0.0 and yy > 0.0 and math.isfinite(1.0 / sy) and math.isfinite(sy / yy):
            rho[row] = 1.0 / sy
            kept.append(row)
            gamma = sy / yy
        x, g = x_new, g_new
        history.append(f)

    full[1:-1] = x
    u = GridFunction(init.grid, full, eps=eps, meta=dict(init.meta))
    return MinimizeResult(u=u, value=f, converged=reason == "grad_tol",
                          iterations=len(history) - 1, n_fev=n_fev, reason=reason,
                          history=history)


def _two_loop(S: np.ndarray, Y: np.ndarray, rho: list, kept: deque, gamma: float,
              g: np.ndarray, d: np.ndarray, tmp: np.ndarray) -> None:
    """-H g into ``d`` by the two-loop recursion, H the inverse-Hessian
    estimate of the correction pairs (S[i], Y[i], rho[i]) for the rows i in
    ``kept``, oldest first, with initial scaling gamma; ``tmp`` is scratch."""
    np.negative(g, out=d)
    if not kept:
        return
    alphas = []
    for i in reversed(kept):
        alphas.append(rho[i] * float(S[i] @ d))
        d -= np.multiply(Y[i], alphas[-1], out=tmp)       # d -= alpha * y
    d *= gamma
    for i, alpha in zip(kept, reversed(alphas)):
        beta = rho[i] * float(Y[i] @ d)
        d += np.multiply(S[i], alpha - beta, out=tmp)     # d += (alpha - beta) * s


def _wolfe_step(fg, x: np.ndarray, f: float, gd: float, d: np.ndarray, step: float, trials):
    """A step along the descent direction ``d`` that meets the weak Wolfe
    conditions: (x, f, g) at the new point, or None.

    ``fg`` maps a point to its energy and a callable of the array to write
    its gradient into.  ``gd`` is the slope g.d at ``x``.  A trial that does
    not lower the energy by ``ARMIJO * step * gd``, or whose energy or slope
    is not finite, is too long, and the step shrinks by safeguarded
    quadratic interpolation; only a trial that lowers the energy enough has
    its gradient formed and its slope read.  One whose slope is still below
    ``CURVATURE * gd`` is too short, and the step grows 4x until a too-long
    trial brackets it.  After ``MAX_TRIALS`` trials the longest point that
    lowered the energy enough is taken, if any.  A trial writes the (x, g)
    pair of ``trials`` that the last short point does not hold.
    """
    lo, f_lo, gd_lo = 0.0, f, gd
    hi = f_hi = np.inf
    short = None
    which = 0
    for _ in range(MAX_TRIALS):
        x_buf, g_buf = trials[which]
        # a trial that overflows is too long, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = np.multiply(d, step, out=x_buf)
            x_new += x                                     # x + step * d
            f_new, grad = fg(x_new)
            g_new = grad(g_buf) if f_new < f and f_new <= f + ARMIJO * step * gd else None
            gd_new = np.nan if g_new is None else float(g_new @ d)
        if np.isfinite(gd_new):
            if gd_new >= CURVATURE * gd:
                return x_new, f_new, g_new
            lo, f_lo, gd_lo = step, f_new, gd_new
            short = x_new, f_new, g_new
            which = 1 - which
        else:
            hi, f_hi = step, f_new
        if hi == np.inf:
            step *= 4.0
        else:
            # minimizer of the quadratic with value f_lo and slope gd_lo at lo
            # and value f_hi at hi, kept inside the middle 80% of the bracket;
            # an energy that is not finite gives the shortest step
            w = hi - lo
            curv = f_hi - f_lo - gd_lo * w
            t = -0.5 * gd_lo * w / curv if curv > 0.0 else 0.1
            step = lo + w * min(max(t, 0.1), 0.9)
    return short


def _random_sawtooth(spec, eps: float, n: int, base_count: int, factor: float,
                     noise: tuple[float, ...]) -> GridFunction:
    """Uniform-grid sawtooth of about ``factor * base_count`` teeth with
    smooth noise: ``noise`` holds a standard normal draw per sine mode."""
    z1, z2, _ = spec.wells
    count = max(2, int(round(base_count * factor)))
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
    k = np.arange(1, len(noise) + 1)
    coeffs = np.array(noise) * peak * 0.2
    u = u + np.sin(np.pi * np.outer(nodes, k)) @ coeffs
    u[0] = 0.0
    u[-1] = 0.0
    return GridFunction(nodes, u, eps=eps, meta={"kind": "random-sawtooth",
                                                 "count": count})


def _seeds(spec, eps: float, opts: MinimizeOptions,
           constants: LimitConstants) -> list[tuple[str, tuple]]:
    """(start kind, builder arguments) for every start, in start order.

    A structured start needs nothing beyond eps, except a competitor's
    yhat.  A random start carries (grid size, two-well count, tooth-count
    factor, noise): ``random.Random(opts.seed)`` draws the factor from
    uniform(0.6, 1.6) and then RANDOM_MODES gauss(0, 1) values, start by
    start.  The two-well count is formed here for every rung, so an eps past
    the node limit is refused before any seed is built.
    """
    plans = [("two-well", ())]
    if opts.starts >= 2:
        plans.append(("three-well", ()))
    if opts.starts > 2:
        report = check_hypotheses(spec, constants=constants)
        plans += [(f"{kind}-competitor", (yhat,))
                  for kind, yhat, _ in competitor_seeds(report)[: opts.starts - 2]]
    rng = random.Random(opts.seed)
    base = two_well_count(spec, eps, 1.0, constants)
    for idx in range(opts.starts - len(plans)):
        factor = rng.uniform(0.6, 1.6)
        noise = tuple(rng.gauss(0.0, 1.0) for _ in range(RANDOM_MODES))
        plans.append((f"random-{idx}", (opts.grid_n, base, factor, noise)))
    return plans


def _build_seed(spec, eps: float, kind: str, args: tuple,
                constants: LimitConstants) -> GridFunction:
    """The seed of one start from its ``_seeds`` entry.

    The builder is looked up by its name in this module when the seed is
    built, so a task never holds a function object (a wrapped builder need
    not pickle) and a builder replaced here is the one a forked worker runs.
    """
    if kind.startswith("random-"):
        return _random_sawtooth(spec, eps, *args)
    build = {"two-well": build_two_well_sawtooth, "three-well": build_three_well_profile,
             "h7-competitor": build_h7_competitor, "h8-competitor": build_h8_competitor}[kind]
    return build(spec, eps, *args, constants=constants)


def _descend(spec, eps: float, kind: str, args: tuple, opts: MinimizeOptions,
             constants: LimitConstants) -> tuple | TripwellError:
    """Build one start's seed and descend from it: the start's record, with
    the time of its descent, the descent's ``history``, and the raw nodes,
    values and meta of its last iterate (no profile, and the result is left
    as returned).  A TripwellError that either step raised is returned.

    Module-level so that a worker process can run it.
    """
    try:
        init = _build_seed(spec, eps, kind, args, constants)
        t0 = time.perf_counter()
        r = minimize_Ieps(spec, eps, init, opts)
    except TripwellError as exc:
        return exc
    record = StartRecord(kind, r.value, r.converged, len(r.u), r.iterations, r.n_fev, r.reason,
                         time.perf_counter() - t0)
    return record, r.history, r.u.nodes, r.u.values, r.u.meta


def _run_starts(spec, eps_list: list[float], opts: MinimizeOptions, constants: LimitConstants,
                max_workers: int = 0):
    """Every start of each rung, one rung at a time: an iterator per rung of
    (start kind, ``_descend``'s outcome).

    A generator, which its caller closes after reading each rung to its
    end.  Every eps is checked, and every start planned (``_seeds``), before
    any seed is built.  With more than one worker (``_workers`` for the
    ladder's starts, at most ``max_workers`` unless that is 0) the starts
    run in a pool of forked worker processes, which is joined when the
    generator finishes or is closed; each worker is sent the start's plain
    data, builds the seed and descends it, so this process never holds a
    seed.  An outcome is yielded as it arrives, and nothing here keeps it.
    Each start depends only on its plan, ``opts`` and ``constants``, so the
    results are the same for every worker count.
    """
    for eps in eps_list:
        check_eps(eps)
    tasks = [(eps, kind, args) for eps in eps_list
             for kind, args in _seeds(spec, eps, opts, constants)]
    workers = min(_workers(len(tasks)), max_workers or len(tasks))
    pool = None
    if workers > 1:
        # loaded here, so that importing the package or the CLI does not
        # pay for multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork starts neither a forkserver nor a resource tracker
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        outcomes = (pool.map if pool else map)(_descend, repeat(spec), *zip(*tasks),
                                               repeat(opts), repeat(constants))
        starts = zip((kind for _, kind, _ in tasks), outcomes)
        for _ in eps_list:
            # every rung has exactly opts.starts starts
            yield islice(starts, opts.starts)
    finally:
        if pool is not None:
            # joins every worker; the starts no worker has taken yet are
            # dropped when the caller stops early
            pool.shutdown(cancel_futures=True)


def multi_start(spec, eps: float, opts: MinimizeOptions = MinimizeOptions(),
                constants: LimitConstants | None = None, starts=None) -> MinimizeResult:
    """Run descent from every seed and return the argmin.

    Fully deterministic given ``opts.seed``, which seeds the random starts'
    ``random.Random``.  Outcomes are read as they arrive: every start's
    StartRecord is kept, but only the lowest outcome so far (ties to the
    earlier start), and the winner alone becomes a profile.  A start whose
    seed fails to construct or to take a single step is listed in
    ``failed`` as (start kind, error text), not in ``per_start``.  If every
    start fails, the error aggregates the per-start reasons.  Without
    ``starts`` this rung's starts run here (``_run_starts``, which may build
    and descend them in worker processes); ``starts`` are this rung's
    (start kind, ``_descend``'s outcome), when ``epsilon_sweep`` runs them
    with the rest of its ladder.
    """
    if starts is None:
        c = constants if constants is not None else limit_constants(spec)
        # the pool lives while the rung's outcomes are read
        with closing(_run_starts(spec, [eps], opts, c)) as rungs:
            return _pick(eps, next(rungs))
    return _pick(eps, starts)


def _pick(eps: float, starts) -> MinimizeResult:
    """``multi_start``'s reading of one rung's (start kind, outcome) pairs."""
    records, failed, best = [], [], None
    for kind, outcome in starts:
        if isinstance(outcome, TripwellError):
            failed.append((kind, str(outcome)))
            continue
        records.append(outcome[0])
        if best is None or outcome[0].value < best[0].value:
            best = outcome
    if best is None:
        raise ConstructionError("all starts failed: " + "; ".join(
            f"{kind}: {text}" for kind, text in failed))
    record, history, nodes, values, meta = best
    u = GridFunction._adopt(Grid._adopt(nodes), values, eps, dict(meta))
    return MinimizeResult(u=u, value=record.value, converged=record.converged,
                          iterations=record.iterations, n_fev=record.n_fev,
                          reason=record.reason, start_kind=record.start_kind,
                          history=history, per_start=records, failed=failed)


def epsilon_sweep(spec, eps_list, opts: MinimizeOptions = MinimizeOptions(),
                  constants: LimitConstants | None = None,
                  max_workers: int = 0) -> list[SweepRecord]:
    """Multi-start minimization along a decreasing eps ladder.

    The starts of every rung, seed builds and descents, run together
    (``_run_starts``, at most ``max_workers`` worker processes unless that
    is 0); ``multi_start`` picks each rung's winner from its outcomes as
    they arrive, keeping only the best so far.  A rung whose two-well start
    failed stops the ladder with a ConstructionError.  Volume fractions are
    evaluated at eta = eps^(1/(q+1)); layer counts use the same eta capped
    below the band-degeneracy bound (at moderate eps the natural window is
    too wide for the layer definitions to make sense).
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ParameterError("eps ladder is empty")
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise ParameterError("eps ladder must be strictly decreasing")
    if max_workers < 0:
        raise ParameterError("max_workers must be at least 0")
    c = constants if constants is not None else limit_constants(spec)
    q = coercivity_exponent(spec)
    z1, z2, z3 = spec.wells
    eta_layer_cap = 0.45 * min(z2 - z1, z3 - z2)
    records: list[SweepRecord] = []
    with closing(_run_starts(spec, eps_list, opts, c, max_workers)) as rungs:
        for eps in eps_list:
            best = multi_start(spec, eps, opts, c, next(rungs))
            two_well = dict(best.failed).get("two-well")
            if two_well is not None:
                # a rung without its two-well start would name some other
                # start the winner, and the ladder's pattern would mean nothing
                raise ConstructionError(f"eps={eps:g}: the two-well start failed: {two_well}")
            eta = eps ** (1.0 / (q + 1.0))
            vf = volume_fractions(best.u, spec, min(eta, 0.5 * (z3 - z1) - 1e-9))
            layers = transition_layers(best.u, spec, min(eta, eta_layer_cap))
            n_a = sum(1 for L in layers if L.kind == "A+")
            n_b = sum(1 for L in layers if L.kind == "B+")
            records.append(SweepRecord(
                eps=eps, best_value=best.value,
                lambda1=vf.lam[0], lambda2=vf.lam[1], lambda3=vf.lam[2],
                n_layers_A=n_a, n_layers_B=n_b,
                start_kind=best.start_kind, eta=eta, per_start=best.per_start,
                failed=best.failed,
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
