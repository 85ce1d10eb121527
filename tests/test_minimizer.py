import numpy as np
import pytest

from tripwell import GridFunction, energy_Ieps
from tripwell.errors import ParameterError
from tripwell.microstructure import build_three_well_profile, build_two_well_sawtooth
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
    assert 0 < res.n_fev < 2 * res.iterations


def test_descent_result_matches_public_energy(ex1, two_well_descent):
    # the objective's fused kernel pass and the public energy must agree exactly
    eps, seed, res = two_well_descent
    assert res.value == energy_Ieps(res.u, eps, ex1).total
    assert res.history[0] == energy_Ieps(seed, eps, ex1).total
    assert len(res.history) == res.iterations + 1


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


def test_multi_start_winner_and_window(ex1, c1):
    res = multi_start(ex1, 0.1, FAST, c1)
    assert res.start_kind == "two-well"
    target = c1.A0 / c1.z21
    assert 0.9 * target <= res.value <= 1.25 * target
    values = dict((k, v) for k, v, _ in res.per_start)
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
    assert [k for k, _, _ in res.per_start] == ["two-well", "three-well"]


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


def test_sweep_requires_decreasing_ladder(ex1, c1):
    with pytest.raises(ParameterError):
        epsilon_sweep(ex1, [0.05, 0.07], FAST, c1)


def test_sweep_deterministic(ex1, c1):
    a = sweep_to_csv(epsilon_sweep(ex1, [0.1], FAST, c1))
    b = sweep_to_csv(epsilon_sweep(ex1, [0.1], FAST, c1))
    assert a == b


def test_options_validation():
    with pytest.raises(ParameterError):
        MinimizeOptions(grad_tol=0.0)
    with pytest.raises(ParameterError):
        MinimizeOptions(starts=0)
