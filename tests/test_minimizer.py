import math
import os
import random
import subprocess
import sys
import textwrap
import weakref
from collections import deque

import numpy as np
import pytest

import tripwell
import tripwell.minimizer as minimizer
from tripwell import GridFunction, energy_gradient, energy_Ieps
from tripwell.errors import ConstructionError, NumericError, ParameterError
from tripwell.microstructure import (
    build_two_well_sawtooth,
    two_well_count,
)
from tripwell.minimizer import (
    SWEEP_COLUMNS,
    MinimizeOptions,
    epsilon_sweep,
    minimize_Ieps,
    multi_start,
    sweep_to_csv,
)

FAST = MinimizeOptions(starts=3, seed=3, max_iters=40, grid_n=4001)


def test_descent_from_two_well_seed(ex1, c1):
    eps = 0.1
    seed = build_two_well_sawtooth(ex1, eps, constants=c1)
    res = minimize_Ieps(ex1, eps, seed, FAST)
    assert res.value >= 0.0
    assert res.value <= res.history[0]
    hist = np.asarray(res.history)
    assert np.all(np.diff(hist) <= 1e-12 * (1.0 + np.abs(hist[:-1])))


@pytest.fixture(scope="module")
def two_well_descent(ex1, c1):
    """A 40-iteration descent from the two-well seed at eps 0.1."""
    eps = 0.1
    seed = build_two_well_sawtooth(ex1, eps, constants=c1)
    return eps, seed, minimize_Ieps(ex1, eps, seed, FAST)


def test_descent_evaluates_fewer_than_twice_per_iteration(two_well_descent):
    _, _, res = two_well_descent
    assert res.iterations == FAST.max_iters
    assert res.reason == "max_iters" and not res.converged
    assert 0 < res.n_fev < 2 * res.iterations


def test_descent_result_matches_public_energy(ex1, two_well_descent):
    # the objective's fused kernel pass and the public energy must agree exactly
    eps, seed, res = two_well_descent
    assert res.value == energy_Ieps(res.u, eps, ex1).total
    assert res.history[0] == energy_Ieps(seed, eps, ex1).total
    assert len(res.history) == res.iterations + 1


def staged_objective(monkeypatch, eager: bool) -> list:
    """Wrap the descent objective and list every gradient stage it runs; with
    ``eager`` each runs at once, as when every trial formed its gradient."""
    stages = []
    objective = minimizer._ieps_objective

    def wrapped(grid, eps, density):
        fg = objective(grid, eps, density)

        def staged(v):
            f, grad = fg(v)

            def stage(out):
                stages.append(f)
                return grad(out)

            if eager:
                g = stage(np.empty(len(v) - 2))
                return f, lambda out: g
            return f, stage

        return staged

    monkeypatch.setattr(minimizer, "_ieps_objective", wrapped)
    return stages


@pytest.fixture(scope="module")
def seeds_007(ex1, c1):
    """The two-well, three-well and first random seed of a rung at eps 0.07,
    built from the rung's start plans as a worker builds them."""
    eps = 0.07
    opts = MinimizeOptions(starts=3, seed=1000, grid_n=4001)
    plans = minimizer._seeds(ex1, eps, opts, c1)
    assert [kind for kind, _ in plans] == ["two-well", "three-well", "random-0"]
    return {kind.removesuffix("-0"): minimizer._build_seed(ex1, eps, kind, args, c1)
            for kind, args in plans}


@pytest.mark.parametrize("kind", ["two-well", "three-well", "random"])
def test_deferred_gradients_leave_the_descent_bit_identical(ex1, seeds_007, kind, monkeypatch):
    opts = MinimizeOptions(max_iters=40)
    deferred = minimize_Ieps(ex1, 0.07, seeds_007[kind], opts)
    staged_objective(monkeypatch, eager=True)
    eager = minimize_Ieps(ex1, 0.07, seeds_007[kind], opts)
    assert deferred.value == eager.value
    assert deferred.history == eager.history
    assert deferred.iterations == eager.iterations
    assert deferred.n_fev == eager.n_fev
    assert deferred.reason == eager.reason
    assert np.array_equal(deferred.u.values, eager.u.values)


def test_descent_forms_gradients_only_where_the_line_search_keeps_a_trial(
        ex1, seeds_007, monkeypatch):
    # one gradient for the start and one per accepted step at least; none
    # for a trial rejected on its energy
    stages = staged_objective(monkeypatch, eager=False)
    res = minimize_Ieps(ex1, 0.07, seeds_007["two-well"])
    assert res.iterations + 1 <= len(stages) < res.n_fev


def plain_lbfgs(spec, eps, init, opts, events):
    """The descent as a deque of (s, y, 1 / s.y) pairs and a fresh array per
    operation, on the public energy: (history, n_fev, reason); ``events``
    counts the short Wolfe points, the short points taken after the last
    trial, and the rejected pairs."""
    n_fev = 0

    def fg(x):
        nonlocal n_fev
        n_fev += 1
        u = init.with_values(np.concatenate(([0.0], x, [0.0])))
        return energy_Ieps(u, eps, spec).total, lambda: energy_gradient(u, eps, spec)

    def two_loop(pairs, gamma, g):
        d = -g
        if not pairs:
            return d
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ d))
            d = d - alphas[-1] * y
        d = d * gamma
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - rho * float(y @ d)) * s
        return d

    def wolfe(x, f, gd, d, step):
        lo, f_lo, gd_lo, hi, f_hi, short = 0.0, f, gd, np.inf, np.inf, None
        for _ in range(minimizer.MAX_TRIALS):
            with np.errstate(over="ignore", invalid="ignore"):
                x_new = x + step * d
                f_new, grad = fg(x_new)
                ok = f_new < f and f_new <= f + minimizer.ARMIJO * step * gd
                g_new = grad() if ok else None
                gd_new = float(g_new @ d) if ok else np.nan
            if np.isfinite(gd_new):
                if gd_new >= minimizer.CURVATURE * gd:
                    return x_new, f_new, g_new
                lo, f_lo, gd_lo, short = step, f_new, gd_new, (x_new, f_new, g_new)
                events["short"] += 1
            else:
                hi, f_hi = step, f_new
            if hi == np.inf:
                step *= 4.0
            else:
                w = hi - lo
                curv = f_hi - f_lo - gd_lo * w
                t = -0.5 * gd_lo * w / curv if curv > 0.0 else 0.1
                step = lo + w * min(max(t, 0.1), 0.9)
        events["short_taken"] += short is not None
        return short

    x = init.values[1:-1].copy()
    f, grad = fg(x)
    g, history, pairs, gamma = grad(), [f], deque(maxlen=minimizer.MEMORY), 1.0
    while True:
        if np.max(np.abs(g)) <= opts.grad_tol:
            return history, n_fev, "grad_tol"
        if len(history) > opts.max_iters:
            return history, n_fev, "max_iters"
        d = two_loop(pairs, gamma, g)
        gd = float(g @ d)
        if not gd < 0.0:
            pairs.clear()
            d = -g
            gd = float(g @ d)
        found = wolfe(x, f, gd, d, 1.0 if pairs else 1.0 / math.sqrt(-gd)) if gd < 0.0 else None
        if found is None:
            return history, n_fev, "line_search"
        x_new, f, g_new = found
        s, y = x_new - x, g_new - g
        sy, yy = float(s @ y), float(y @ y)
        if sy > 0.0 and yy > 0.0 and math.isfinite(1.0 / sy) and math.isfinite(sy / yy):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / yy
        else:
            events["rejected"] += 1
        x, g = x_new, g_new
        history.append(f)


def jittered_profile(n, seed):
    """A smooth random profile on a grid whose interior nodes move by up to
    0.3 of a cell."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    x[1:-1] += rng.uniform(-0.3, 0.3, n - 2) / (n - 1)
    k = np.arange(1, 9)
    u = np.sin(np.pi * np.outer(x, k)) @ (rng.normal(0.0, 0.3, 8) / k**2)
    u[0] = u[-1] = 0.0
    return GridFunction(x, u)


@pytest.mark.parametrize("density, n, seed", [("ex1", 101, 1), ("quadratic", 61, 1)])
def test_descent_matches_a_plain_lbfgs_bit_for_bit(request, quadratic_density, density, n, seed):
    # run until no step lowers the energy: both runs take short Wolfe points,
    # one of them after the last trial, and the quadratic run rejects pairs,
    # whose rows must not overwrite a kept pair
    spec = quadratic_density if density == "quadratic" else request.getfixturevalue(density)
    init = jittered_profile(n, seed)
    opts = MinimizeOptions(max_iters=100000, grad_tol=1e-300)
    events = {"short": 0, "short_taken": 0, "rejected": 0}
    history, n_fev, reason = plain_lbfgs(spec, 0.1, init, opts, events)
    res = minimize_Ieps(spec, 0.1, init, opts)
    assert res.history == history
    assert res.value == history[-1] and res.n_fev == n_fev and res.reason == reason
    assert reason == "line_search" and events["short_taken"] > 0
    if density == "quadratic":
        assert events["rejected"] > 0


def test_descent_faults_in_its_workspace_once(tmp_path):
    # with a fresh array per operation this descent took about 43,000 minor
    # faults, one new mapping per grid-sized temporary; the workspace is
    # faulted in once
    pytest.importorskip("resource")
    script = textwrap.dedent("""
        import resource
        import tripwell.minimizer as minimizer
        from tripwell import PotentialSpec, limit_constants

        spec = PotentialSpec(wells=(-1.0, 1.0 / 3.0, 1.0))
        c = limit_constants(spec)
        opts = minimizer.MinimizeOptions(max_iters=100)
        init = minimizer._build_seed(spec, 0.07, "three-well", (), c)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        res = minimizer.minimize_Ieps(spec, 0.07, init, opts)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert res.iterations == 100
        print(len(init), after - before)
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    nodes, faults = map(int, proc.stdout.split())
    # S and Y, three x and three g rows, d and its scratch row, and the
    # objective's stencil, u_x, u_xx and four stage buffers
    pages = (2 * minimizer.MEMORY + 17) * 8 * nodes / 4096
    assert faults <= 1.5 * pages


def test_quadratic_mode_converges_to_zero(quadratic_density):
    # decoupled convex check: unique minimizer u = 0 with zero energy
    assert quadratic_density.dW(3.0) == 6.0
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 1.0, 81)
    u = np.sin(np.pi * x) * 0.3 + np.sin(3 * np.pi * x) * rng.uniform(0.05, 0.1)
    u[0] = u[-1] = 0.0
    init = GridFunction(x, u)
    opts = MinimizeOptions(starts=1, max_iters=3000, grad_tol=1e-6)
    res = minimize_Ieps(quadratic_density, 0.15, init, opts)
    assert res.converged
    assert res.value <= opts.grad_tol**2


def test_quadratic_mode_gradient_within_tolerance(quadratic_density):
    # declared convergence implies the sup-norm gradient bound holds
    from tripwell.energy import energy_gradient
    x = np.linspace(0.0, 1.0, 81)
    vals = 0.1 * np.sin(np.pi * x) * (1 - x)
    vals[0] = vals[-1] = 0.0
    init = GridFunction(x, vals)
    opts = MinimizeOptions(starts=1, max_iters=3000, grad_tol=1e-6)
    res = minimize_Ieps(quadratic_density, 0.15, init, opts)
    assert res.converged
    g = energy_gradient(res.u, 0.15, quadratic_density)
    assert np.max(np.abs(g)) <= opts.grad_tol
    assert res.reason == "grad_tol"


def test_quadratic_mode_below_rounding_stops_in_the_line_search(quadratic_density):
    # no step can lower the energy once it is down at rounding level
    x = np.linspace(0.0, 1.0, 81)
    vals = 0.1 * np.sin(np.pi * x) * (1 - x)
    vals[0] = vals[-1] = 0.0
    opts = MinimizeOptions(starts=1, max_iters=100000, grad_tol=1e-300)
    res = minimize_Ieps(quadratic_density, 0.15, GridFunction(x, vals), opts)
    assert res.reason == "line_search"
    assert not res.converged
    assert res.iterations < opts.max_iters
    assert np.all(np.diff(res.history) < 0.0)


def test_line_search_takes_an_overflowing_trial_as_too_long():
    # sum(exp(x) - x) has its minimum at 0; the first trial overflows exp
    def fg(x):
        return float(np.sum(np.exp(x) - x)), lambda out: np.subtract(np.exp(x), 1.0, out=out)

    x = np.array([-1.0, -2.0])
    f, grad = fg(x)
    g = grad(None)
    d = -g
    gd = float(g @ d)
    trials = [(np.empty(2), np.empty(2)) for _ in range(2)]
    x_new, f_new, g_new = minimizer._wolfe_step(fg, x, f, gd, d, 1000.0, trials)
    assert np.isfinite(f_new) and np.all(np.isfinite(g_new))
    assert f_new <= f + minimizer.ARMIJO * float((x_new - x) @ g)
    assert float(g_new @ d) >= minimizer.CURVATURE * gd


def test_multi_start_winner_and_window(ex1, c1):
    res = multi_start(ex1, 0.1, FAST, c1)
    assert res.start_kind == "two-well"
    target = c1.A0 / c1.z21
    assert 0.9 * target <= res.value <= 1.25 * target
    values = {s.start_kind: s.value for s in res.per_start}
    assert values["two-well"] < values["three-well"]


def test_single_start_matches_two_well_descent(ex1, c1):
    eps = 0.1
    opts = MinimizeOptions(starts=1, seed=3, max_iters=40, grid_n=4001)
    direct = minimize_Ieps(ex1, eps, build_two_well_sawtooth(ex1, eps, constants=c1), opts)
    multi = multi_start(ex1, eps, opts, c1)
    assert multi.start_kind == "two-well"
    assert multi.value == direct.value


def test_multi_start_skips_a_seed_that_fails_to_build(ex2, c2):
    # at eps 0.1 the h7 competitor's transitions do not fit inside its plateaus
    opts = MinimizeOptions(starts=3, seed=3, max_iters=10)
    res = multi_start(ex2, 0.1, opts, c2)
    assert res.start_kind == "two-well"
    assert [s.start_kind for s in res.per_start] == ["two-well", "three-well"]
    assert [kind for kind, _ in res.failed] == ["h7-competitor"]


def test_multi_start_reproducible(ex1, c1):
    a = multi_start(ex1, 0.1, FAST, c1)
    b = multi_start(ex1, 0.1, FAST, c1)
    assert a.value == b.value
    assert a.per_start == b.per_start


def test_sweep_records_and_csv(ex1, c1):
    records = epsilon_sweep(ex1, [0.1, 0.07], FAST, c1)
    assert [r.eps for r in records] == [0.1, 0.07]
    for r in records:
        assert r.best_value >= 0.0
        assert 0.0 <= r.lambda1 <= 1.0 and 0.0 <= r.lambda2 <= 1.0
        assert r.eta == pytest.approx(r.eps ** (1.0 / 3.0))
        assert r.start_kind == "two-well"
        assert r.start_values["two-well"] < r.start_values["three-well"]
    csv_text = sweep_to_csv(records)
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3


def test_serial_ladder_holds_one_rung_of_results(ex1, c1, monkeypatch):
    # each rung's results are dropped once its winner is picked: at a rung's
    # multi_start only its own starts and the last rung's winner are alive
    refs, seen = [], []
    descend, pick = minimizer.minimize_Ieps, minimizer.multi_start

    def tracked(*args):
        out = descend(*args)
        refs.append(weakref.ref(out))
        return out

    def counted(*args):
        seen.append(sum(ref() is not None for ref in refs))
        return pick(*args)

    monkeypatch.setattr(minimizer, "minimize_Ieps", tracked)
    monkeypatch.setattr(minimizer, "multi_start", counted)
    opts = MinimizeOptions(starts=3, seed=3, max_iters=3, grid_n=2001)
    records = epsilon_sweep(ex1, [0.1, 0.07, 0.05], opts, c1, max_workers=1)
    assert len(records) == 3 and len(seen) == 3
    assert max(seen) <= opts.starts + 1


def test_descents_keep_their_results_whole(ex1, c1, monkeypatch):
    # a caller of minimize_Ieps, as a tracer is, keeps each result as returned
    kept, descend = [], minimizer.minimize_Ieps

    def keep(*args):
        kept.append(descend(*args))
        return kept[-1]

    monkeypatch.setattr(minimizer, "minimize_Ieps", keep)
    monkeypatch.setattr(minimizer, "_workers", lambda tasks: 1)
    res = multi_start(ex1, 0.1, FAST, c1)
    assert len(kept) == FAST.starts
    for r, record in zip(kept, res.per_start):
        assert len(r.u) == record.n_nodes and r.value == record.value
        assert r.start_kind == "" and r.per_start == []
    winner = kept[[s.start_kind for s in res.per_start].index(res.start_kind)]
    assert np.array_equal(res.u.values, winner.u.values) and res.history == winner.history


def test_competitor_seeds_descend(ex2, c2):
    # H7 and H8 fail for example 2: their competitors take the third and
    # fourth starts, and the two-well start still wins
    res = multi_start(ex2, 0.07, MinimizeOptions(starts=5, max_iters=15), c2)
    assert [s.start_kind for s in res.per_start] == \
        ["two-well", "three-well", "h7-competitor", "h8-competitor", "random-0"]
    assert all(np.isfinite(s.value) for s in res.per_start)
    assert res.start_kind == "two-well"
    assert res.value == min(s.value for s in res.per_start)


def test_results_compare_without_raising(ex1, c1):
    res = minimize_Ieps(ex1, 0.1, build_two_well_sawtooth(ex1, 0.1, constants=c1),
                        MinimizeOptions(max_iters=2))
    assert res == res
    assert res != minimize_Ieps(ex1, 0.1, res.u, MinimizeOptions(max_iters=2))


def test_sweep_requires_decreasing_ladder(ex1, c1):
    with pytest.raises(ParameterError):
        epsilon_sweep(ex1, [0.05, 0.07], FAST, c1)


def test_sweep_rejects_an_empty_ladder(ex1, c1):
    with pytest.raises(ParameterError, match="eps ladder is empty"):
        epsilon_sweep(ex1, [], FAST, c1)


def test_sweep_rejects_a_bad_eps_before_building_seeds(ex1, c1, monkeypatch):
    def no_seeds(*args):
        raise AssertionError("a seed was built")

    monkeypatch.setattr(minimizer, "_seeds", no_seeds)
    with pytest.raises(ParameterError, match="eps must be finite and positive"):
        epsilon_sweep(ex1, [0.1, 0.0], FAST, c1)


@pytest.mark.parametrize("eps", [0.0, -0.05, np.nan, np.inf])
def test_descents_reject_a_bad_eps(ex1, c1, eps):
    seed = build_two_well_sawtooth(ex1, 0.1, constants=c1)
    for run in (lambda: minimize_Ieps(ex1, eps, seed, FAST),
                lambda: multi_start(ex1, eps, FAST, c1),
                lambda: epsilon_sweep(ex1, [eps], FAST, c1)):
        with pytest.raises(ParameterError, match="eps must be finite and positive"):
            run()


def test_sweep_deterministic(ex1, c1):
    a = sweep_to_csv(epsilon_sweep(ex1, [0.1], FAST, c1))
    b = sweep_to_csv(epsilon_sweep(ex1, [0.1], FAST, c1))
    assert a == b


def test_options_validation():
    for bad in ({"grad_tol": 0.0}, {"grad_tol": -1e-4}, {"grad_tol": np.nan},
                {"grad_tol": np.inf}, {"starts": 0}, {"grid_n": 2},
                {"max_iters": 0}, {"max_iters": -1}, {"seed": -1}):
        with pytest.raises(ParameterError):
            MinimizeOptions(**bad)
    MinimizeOptions(grid_n=3, max_iters=1)


def test_sweep_rejects_negative_max_workers(ex1, c1):
    with pytest.raises(ParameterError):
        epsilon_sweep(ex1, [0.1], FAST, c1, max_workers=-1)


BLAS_VARS = {var for family in tripwell.BLAS_THREAD_VARS.values() for var in family}


def test_default_workers_leave_room_for_blas_threads(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(minimizer, "_blas_name", lambda: "scipy-openblas")
    assert minimizer._workers(5) == 1              # OpenBLAS takes every CPU
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert minimizer._workers(5) == min(5, cpus)
    assert minimizer._workers(1) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cpus))
    assert minimizer._workers(5) == 1
    # MKL reads its own variable first; an unknown BLAS is never pinned
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.delenv("OMP_NUM_THREADS")
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    assert minimizer._workers(5) == 1
    monkeypatch.setattr(minimizer, "_blas_name", lambda: "mkl-sdl")
    assert minimizer._workers(5) == min(5, cpus)
    monkeypatch.setattr(minimizer, "_blas_name", lambda: "")
    assert minimizer._workers(5) == 1


def test_default_workers_without_affinity_or_fork(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(minimizer, "_blas_name", lambda: "openblas")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert minimizer._workers(5) == 4
    # Windows has no fork: the starts run in this process
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert minimizer._workers(5) == 1


def test_blas_names_read_the_build_config():
    # numpy's BLAS is the only one a descent calls
    name = minimizer._blas_name()
    assert isinstance(name, str) and name == name.lower()


POOLED = MinimizeOptions(starts=3, seed=3, max_iters=20, grid_n=4001)


@pytest.fixture()
def pooled(monkeypatch):
    """Run the descents in two worker processes whatever the BLAS pins."""
    monkeypatch.setattr(minimizer, "_workers", lambda tasks: min(2, tasks))


def assert_no_child_process():
    # waitpid(-1) raises only when this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pooled_starts_match_serial(ex1, c1, monkeypatch):
    monkeypatch.setattr(minimizer, "_workers", lambda tasks: 1)
    serial = multi_start(ex1, 0.1, POOLED, c1)
    monkeypatch.setattr(minimizer, "_workers", lambda tasks: min(2, tasks))
    pooled = multi_start(ex1, 0.1, POOLED, c1)
    assert pooled.value == serial.value
    assert pooled.history == serial.history
    assert pooled.per_start == serial.per_start
    assert np.array_equal(pooled.u.nodes, serial.u.nodes)
    assert np.array_equal(pooled.u.values, serial.u.values)
    assert [s.start_kind for s in pooled.per_start] == ["two-well", "three-well", "random-0"]
    for s in pooled.per_start:
        assert s.n_nodes > 0 and s.iterations > 0 and s.n_fev > 0 and s.descent_s > 0.0
    assert_no_child_process()


def test_pooled_ladder_matches_serial_rung_by_rung(ex1, c1, pooled):
    # one pool over every start of the ladder, winners picked rung by rung
    ladder = epsilon_sweep(ex1, [0.1, 0.07], POOLED, c1)
    assert_no_child_process()
    rungs = [epsilon_sweep(ex1, [eps], POOLED, c1, max_workers=1)[0] for eps in (0.1, 0.07)]
    assert ladder == rungs
    assert [[s.start_kind for s in r.per_start] for r in ladder] == \
        [["two-well", "three-well", "random-0"]] * 2


def test_pooled_winner_shares_the_seed_grid(ex1, c1, pooled):
    # the worker builds the seed; the same build here gives the same grid
    res = multi_start(ex1, 0.1, POOLED, c1)
    assert res.start_kind == "two-well"
    assert np.array_equal(res.u.nodes, build_two_well_sawtooth(ex1, 0.1, constants=c1).nodes)
    for a in (res.u.values, res.u.nodes, res.u.grid.width_pairs, res.u.slopes()):
        assert not a.flags.writeable


def test_pool_records_a_start_that_raises_in_a_worker(ex1, c1, pooled, monkeypatch):
    descend = minimizer.minimize_Ieps

    def fail_three_well(spec, eps, init, opts):
        if init.meta.get("kind") == "three-well":
            raise NumericError("three-well descent failed")
        return descend(spec, eps, init, opts)

    # fork carries the patch into the workers
    monkeypatch.setattr(minimizer, "minimize_Ieps", fail_three_well)
    res = multi_start(ex1, 0.1, POOLED, c1)
    assert [s.start_kind for s in res.per_start] == ["two-well", "random-0"]
    assert res.failed == [("three-well", "three-well descent failed")]
    assert_no_child_process()
    # a sweep record lists the failed start too
    record, = epsilon_sweep(ex1, [0.1], POOLED, c1)
    assert record.failed == res.failed
    assert_no_child_process()

    def fail(spec, eps, init, opts):
        raise NumericError(f"{init.meta['kind']} failed")

    monkeypatch.setattr(minimizer, "minimize_Ieps", fail)
    with pytest.raises(ConstructionError, match="two-well: two-well failed; "
                                                "three-well: three-well failed; "
                                                "random-0: random-sawtooth failed"):
        multi_start(ex1, 0.1, POOLED, c1)
    assert_no_child_process()
    # a ladder stopped at its first rung drops the starts queued for the next
    with pytest.raises(ConstructionError, match="all starts failed"):
        epsilon_sweep(ex1, [0.1, 0.07, 0.05], POOLED, c1)
    assert_no_child_process()


def test_pool_leaves_no_child_when_a_worker_crashes(ex1, c1, pooled, monkeypatch):
    def crash(spec, eps, init, opts):
        raise RuntimeError("not a TripwellError")

    monkeypatch.setattr(minimizer, "minimize_Ieps", crash)
    with pytest.raises(RuntimeError, match="not a TripwellError"):
        multi_start(ex1, 0.1, POOLED, c1)
    assert_no_child_process()


def test_pooled_seeds_are_built_in_the_workers(ex1, c1, pooled, monkeypatch, tmp_path):
    # each builder leaves a file named for its start kind and process
    def recorded(build, kind):
        def run(*args, **kwargs):
            (tmp_path / f"{kind}.{os.getpid()}").touch()
            return build(*args, **kwargs)
        return run

    for name, kind in (("build_two_well_sawtooth", "two-well"),
                       ("build_three_well_profile", "three-well"),
                       ("_random_sawtooth", "random")):
        monkeypatch.setattr(minimizer, name, recorded(getattr(minimizer, name), kind))
    res = multi_start(ex1, 0.1, POOLED, c1)
    assert [s.start_kind for s in res.per_start] == ["two-well", "three-well", "random-0"]
    built = {p.name.split(".")[0]: int(p.name.split(".")[1]) for p in tmp_path.iterdir()}
    assert set(built) == {"two-well", "three-well", "random"}
    assert os.getpid() not in built.values()
    assert_no_child_process()


def test_pool_skips_a_seed_that_fails_to_build_in_a_worker(ex2, c2, pooled):
    # the h7 competitor's build raises in the worker, which returns the error
    res = multi_start(ex2, 0.1, MinimizeOptions(starts=3, seed=3, max_iters=10), c2)
    assert [s.start_kind for s in res.per_start] == ["two-well", "three-well"]
    assert_no_child_process()


def test_random_starts_draw_from_the_standard_library(ex1, c1):
    # per random start, in start order: the tooth-count factor, then the noise
    opts = MinimizeOptions(starts=4, seed=7, grid_n=2001)
    rng = random.Random(7)
    base = two_well_count(ex1, 0.1, 1.0, c1)
    plans = minimizer._seeds(ex1, 0.1, opts, c1)
    assert [kind for kind, _ in plans] == ["two-well", "three-well", "random-0", "random-1"]
    for _, args in plans[2:]:
        factor = rng.uniform(0.6, 1.6)
        noise = tuple(rng.gauss(0.0, 1.0) for _ in range(minimizer.RANDOM_MODES))
        assert args == (2001, base, factor, noise)


def test_sweep_never_loads_numpy_random(tmp_path):
    script = textwrap.dedent("""
        import sys
        import tripwell.minimizer as minimizer
        from tripwell import PotentialSpec

        # a pool of two whatever the BLAS pins and the CPU count
        minimizer._workers = lambda tasks: min(2, tasks)
        spec = PotentialSpec(wells=(-1.0, 1.0 / 3.0, 1.0))
        opts = minimizer.MinimizeOptions(starts=3, max_iters=2, grid_n=2001)
        for workers in (1, 2):
            records = minimizer.epsilon_sweep(spec, [0.1], opts, max_workers=workers)
            assert records[0].per_start[-1].start_kind == "random-0"
        assert "numpy.random" not in sys.modules
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def child_env() -> dict:
    """This environment, with this package first on the path of a child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(minimizer.__file__)),
                    env.get("PYTHONPATH")) if p)
    return env
