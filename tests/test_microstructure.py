import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from tripwell import (
    PotentialSpec,
    build_h7_competitor,
    build_h8_competitor,
    build_three_well_profile,
    build_two_well_sawtooth,
    check_hypotheses,
    energy_gradient,
    energy_Ieps,
    eval_f,
    solve_transition_ode,
    sqrt_W,
)
from tripwell.errors import ConstructionError, GridError, ParameterError
from tripwell.microstructure import (
    LAYER_RES,
    _bridge_mu,
    _lower_branch,
    _rise_table,
    _upper_branch,
    _zero_mean,
    build_profile,
    competitor_period_count,
    competitor_plan,
    competitor_seeds,
    two_well_count,
)
from tripwell.potential import coercivity_exponent


def tooth_boundaries(u):
    """Positions where the construction promises u to vanish."""
    kind = u.meta["kind"]
    if kind == "two-well":
        n, l = u.meta["N"], u.meta["l_N"]
    elif kind == "three-well":
        n, l = u.meta["M"], u.meta["l_M"]
    else:
        n, l = u.meta["periods"], (u.nodes[-1] - u.nodes[0]) / u.meta["periods"]
    return u.nodes[0] + l * np.arange(n + 1)


# ---------------------------------------------------------------------------
# heteroclinic transitions
# ---------------------------------------------------------------------------

def test_transition_anchor_and_range(ex1):
    eps = 0.05
    x = np.arange(-60 * eps**3, 60 * eps**3, eps**3 / 20)
    w = solve_transition_ode(ex1, eps, "z1z2", x)
    z1, z2, _ = ex1.wells
    assert abs(float(np.interp(0.0, x, w))) <= 1e-9
    assert np.all((w >= z1) & (w <= z2))
    assert np.all(np.diff(w) >= 0.0)


def test_transition_ode_residual(ex1):
    eps = 0.05
    x = np.arange(-30 * eps**3, 30 * eps**3, eps**3 / 50)
    w = solve_transition_ode(ex1, eps, "z1z2", x)
    wx = (w[2:] - w[:-2]) / (x[2:] - x[:-2])
    residual = np.abs(eps**3 * wx - np.asarray(sqrt_W(ex1, w[1:-1])))
    assert residual.max() < 1e-3 * np.max(np.abs(wx))


def test_transition_upper_branch(ex1):
    eps = 0.05
    x = np.arange(-60 * eps**3, 60 * eps**3, eps**3 / 20)
    w = solve_transition_ode(ex1, eps, "z2z3", x)
    _, z2, z3 = ex1.wells
    assert np.all((w >= z2) & (w <= z3))
    assert np.all(np.diff(w) >= 0.0)


def test_transition_grid_resolution_guard(ex1):
    with pytest.raises(GridError):
        solve_transition_ode(ex1, 0.05, "z1z2", np.linspace(-0.01, 0.01, 5))
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="eps must be finite and positive"):
            solve_transition_ode(ex1, eps, "z1z2", np.linspace(-0.01, 0.01, 5))


def test_layer_width_scaling(ex1):
    # width of the eta-interior of the layer scales like eps^3 * eta^(-1/2)
    eta = 0.1
    z1, z2, _ = ex1.wells
    widths = {}
    for eps in (0.1, 0.05):
        x = np.arange(-80 * eps**3, 80 * eps**3, eps**3 / 50)
        w = solve_transition_ode(ex1, eps, "z1z2", x)
        inside = (w > z1 + eta) & (w < z2 - eta)
        widths[eps] = float(np.sum(np.diff(x)[inside[:-1]]))
    c_fit = widths[0.1] / (0.1**3 * eta**-0.5)
    predicted = c_fit * 0.05**3 * eta**-0.5
    assert widths[0.05] == pytest.approx(predicted, rel=0.05)


def _zero_shift(wave, period, plateaus):
    """Zero-mean shift of wave(s - om) on a uniform grid over one period."""
    s = np.linspace(0.0, period, 20_001)
    lo, hi = plateaus
    return _zero_mean(lambda om: (s, wave(s - om)), lo - hi,
                      period * max(abs(lo), abs(hi)))


def test_zero_mean_shift_symmetric_wave():
    period = 0.4
    omega, _, _ = _zero_shift(lambda s: np.tanh(s / 0.02), period, (-1.0, 1.0))
    assert omega == pytest.approx(period / 2.0, abs=1e-9)


def test_zero_mean_shift_definitional_recheck(ex1):
    eps = 0.08
    period = 0.25
    z1, z2, _ = ex1.wells
    omega, nodes, shifted = _zero_shift(lambda s: _wave(ex1, eps, s), period, (z1, z2))
    s = np.linspace(0.0, period, 20_001)
    vals = _wave(ex1, eps, s - omega)
    assert np.array_equal(nodes, s)
    assert np.array_equal(shifted, vals)
    residual = abs(float(np.dot(np.diff(s), 0.5 * (vals[:-1] + vals[1:]))))
    assert residual <= 1e-15 * period * max(abs(z1), abs(z2))


def _wave(spec, eps, s):
    from tripwell.microstructure import _lower_branch
    return _lower_branch(spec).w_at_scaled(np.asarray(s, dtype=float) / eps**3)


def test_zero_mean_shift_bad_bracket(ex1):
    # a piece whose mean has no zero exhausts the step limit
    with pytest.raises(ConstructionError, match="steps"):
        _zero_shift(lambda s: np.abs(s) + 1.0, 0.3, (1.0, 2.0))


def test_competitor_mean_that_never_vanishes_raises(ex2, c2, monkeypatch):
    # a period whose mean the boundary shift cannot move is refused, not
    # returned with its mean left over
    from tripwell import microstructure

    build = microstructure._build_period
    plan = competitor_plan(ex2, "h7", 0.585, c2)
    periods = microstructure.competitor_period_count(ex2, 0.05, plan)
    widths = np.array([w for _, w in plan.segments]) / periods

    def stuck(spec, eps, zvals, _widths):
        nodes, vals = build(spec, eps, zvals, widths)
        return nodes, vals + 1e-9

    monkeypatch.setattr(microstructure, "_build_period", stuck)
    with pytest.raises(ConstructionError, match="steps"):
        microstructure._build_periodic_pattern(ex2, 0.05, plan, periods)


def test_tooth_positive_fraction_approaches_limit(ex1, c1):
    # share of nonnegative gradient inside a tooth tends to 1/z21 = 0.75
    devs = []
    for eps in (0.1, 0.05):
        u = build_two_well_sawtooth(ex1, eps, constants=c1)
        l = u.meta["l_N"]
        mask = (u.nodes >= 0.0) & (u.nodes <= l)
        s = u.slopes()
        cell_in = mask[:-1] & mask[1:]
        pos = float(np.dot(u.cell_widths()[cell_in], (s[cell_in] >= 0.0)))
        devs.append(abs(pos / l - 0.75))
    assert devs[-1] <= 0.02
    assert devs[-1] <= devs[0] + 1e-9


# ---------------------------------------------------------------------------
# two-well sawtooth
# ---------------------------------------------------------------------------

def test_two_well_boundary_and_tooth_zeros(two_well_ladder):
    for eps, u in two_well_ladder.items():
        assert u.values[0] == 0.0 and u.values[-1] == 0.0
        at = np.interp(tooth_boundaries(u), u.nodes, u.values)
        assert np.max(np.abs(at)) <= 1e-10


def test_two_well_energy_window(ex1, c1, two_well_ladder):
    target = c1.A0 / c1.z21
    u = two_well_ladder[0.05]
    total = energy_Ieps(u, 0.05, ex1).total
    assert abs(total - target) <= 0.15 * target


def test_two_well_energy_ladder_monotone(ex1, c1, two_well_ladder):
    target = c1.A0 / c1.z21
    gaps = [energy_Ieps(two_well_ladder[e], e, ex1).total - target
            for e in (0.1, 0.07, 0.05)]
    assert all(g > 0.0 for g in gaps)
    noise = 0.01 * gaps[0]
    assert gaps[1] <= gaps[0] + noise
    assert gaps[2] <= gaps[1] + noise


def test_two_well_volume_fractions(ex1, two_well_ladder):
    from tripwell.analysis import volume_fractions
    eps = 0.05
    vf = volume_fractions(two_well_ladder[eps], ex1, eps ** (1.0 / 3.0))
    assert abs(vf.lam[1] - 0.75) <= 0.05
    assert vf.lam[2] <= 0.01


def test_two_well_nodal_bound(ex1, two_well_ladder):
    u = two_well_ladder[0.05]
    assert np.max(np.abs(u.values)) <= ex1.wells[2] * u.meta["l_N"]


@pytest.mark.parametrize("eps", [0.1, 0.07, 0.05])
def test_two_well_grid_one_window_per_tooth(two_well_ladder, eps):
    u = two_well_ladder[eps]
    fine = np.diff(u.nodes) <= eps**3 / 96.0 * (1.0 + 1e-9)
    runs = int(fine[0]) + int(np.sum(fine[1:] & ~fine[:-1]))
    assert runs == u.meta["N"]
    # the second (falling) tooth carries the first tooth's nodes mirrored
    l = u.meta["l_N"]
    k = int(np.searchsorted(u.nodes, l * (1.0 + 1e-12), side="right"))
    first = u.nodes[:k]
    second = u.nodes[k - 1:2 * k - 1] - l
    assert np.allclose(second, l - first[::-1], rtol=0.0, atol=1e-12)


def test_two_well_count_rules(ex1, c1):
    assert two_well_count(ex1, 0.07, 1.0, c1) == 5
    u = build_two_well_sawtooth(ex1, 0.07, constants=c1, counts_override=6)
    assert u.meta["N"] == 6
    assert build_two_well_sawtooth(ex1, 0.07, constants=c1).meta["N"] == 5


@pytest.mark.parametrize("length", [-1.0, 0.0, np.nan, np.inf])
def test_two_well_count_rejects_a_bad_length(ex1, c1, length):
    with pytest.raises(ParameterError, match="length must be finite and positive"):
        two_well_count(ex1, 0.07, length, c1)


def test_two_well_eps_too_large(ex1, c1):
    with pytest.raises(ConstructionError):
        build_two_well_sawtooth(ex1, 0.9, constants=c1)


def test_two_well_subinterval(ex1, c1):
    u = build_two_well_sawtooth(ex1, 0.05, interval=(0.0, 0.6), constants=c1)
    assert u.nodes[0] == 0.0 and u.nodes[-1] == pytest.approx(0.6)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0


# ---------------------------------------------------------------------------
# three-well profile
# ---------------------------------------------------------------------------

def test_three_well_energy_window(ex1, c1, three_well_005):
    target = c1.B0 / c1.z31
    total = energy_Ieps(three_well_005, 0.05, ex1).total
    assert abs(total - target) <= 0.15 * target


def test_three_well_volume_fractions(ex1, three_well_005):
    from tripwell.analysis import volume_fractions
    eps = 0.05
    vf = volume_fractions(three_well_005, ex1, eps ** (1.0 / 3.0))
    assert abs(vf.lam[2] - 0.5) <= 0.05      # 1/z31
    assert vf.lam[1] <= 0.05


def test_three_well_tooth_zeros(three_well_005):
    at = np.interp(tooth_boundaries(three_well_005),
                   three_well_005.nodes, three_well_005.values)
    assert np.max(np.abs(at)) <= 1e-10


def test_three_well_teeth_alternate_like_the_sawtooth(ex1, three_well_005):
    # the first tooth is a regular rising tooth: the third one shifted back
    u = three_well_005
    l = u.meta["l_M"]
    k = int(np.searchsorted(u.nodes, l * (1.0 + 1e-12), side="right"))
    j = int(np.argmin(np.abs(u.nodes - 2.0 * l)))
    first, third = slice(0, k), slice(j, j + k)
    assert u.nodes[third].shape == u.nodes[first].shape
    assert np.allclose(u.nodes[third] - 2.0 * l, u.nodes[first], rtol=0.0, atol=1e-12)
    assert np.allclose(u.values[third], u.values[first], rtol=0.0, atol=1e-12)
    # no gradient spike where a plateau meets the transition window
    assert np.max(np.abs(energy_gradient(u, 0.05, ex1))) < 1e5


def test_three_well_eps_too_large(ex1, c1):
    with pytest.raises(ConstructionError):
        build_three_well_profile(ex1, 0.9, constants=c1)


# ---------------------------------------------------------------------------
# competitor profiles
# ---------------------------------------------------------------------------

def test_h7_lambda_formula(ex2, c2, h7_005):
    lam2 = 1.0 / (0.585 * c2.z31 + c2.z21)
    assert h7_005.meta["lambda2"] == pytest.approx(lam2, rel=1e-12)
    assert lam2 == pytest.approx(0.3745, abs=2e-4)


def test_competitor_weights_identities(ex2, c2):
    z = np.asarray(ex2.wells)
    for kind in ("h7", "h8"):
        for yhat in (0.1, 0.3, 0.585, 0.8):
            plan = competitor_plan(ex2, kind, yhat, c2)
            lam = np.asarray(plan.lam)
            assert abs(lam.sum() - 1.0) <= 1e-12
            assert abs(float(z @ lam)) <= 1e-12


def test_competitor_ideal_matches_closed_form(ex2, c2):
    # dual route: pattern geometry vs the closed-form comparison functions
    for yhat in (0.1, 0.3, 0.585, 0.61):
        plan = competitor_plan(ex2, "h7", yhat, c2)
        closed = plan.lam[1] * float(eval_f(ex2, "f7", yhat, c2)) ** (1.0 / 3.0)
        assert plan.ideal == pytest.approx(closed, rel=1e-10)
    for yhat in (0.1, 0.204, 0.61, 0.8, 1.2):
        plan = competitor_plan(ex2, "h8", yhat, c2)
        closed = plan.lam[1] * float(eval_f(ex2, "f8", yhat, c2)) ** (1.0 / 3.0)
        assert plan.ideal == pytest.approx(closed, rel=1e-10)


def test_h8_branch_threshold(ex2, c2):
    z1, z2, z3 = ex2.wells
    thresh = np.sqrt(z2 * c2.z21 / (z3 * c2.z31))
    assert thresh == pytest.approx(0.6124, abs=1e-4)
    assert competitor_plan(ex2, "h8", 0.204, c2).variant == "a"
    assert competitor_plan(ex2, "h8", 0.8, c2).variant == "b"


def test_h8_offset_in_unit_interval(ex2, c2):
    z1, z2, z3 = ex2.wells
    thresh = np.sqrt(z2 * c2.z21 / (z3 * c2.z31))
    for yhat in np.linspace(0.0, thresh, 13):
        plan = competitor_plan(ex2, "h8", float(yhat), c2)
        assert 0.0 <= plan.offset <= 1.0


def test_competitor_energy_approaches_ideal(ex2, c2, h7_005, h8_005):
    for u, kind in ((h7_005, "h7"), (h8_005, "h8")):
        total = energy_Ieps(u, 0.05, ex2).total
        ideal = u.meta["ideal_energy"]
        assert total > ideal
        assert total < ideal + 0.05 * ideal


def test_competitor_zero_mean_periods(h7_005, h8_005):
    for u in (h7_005, h8_005):
        at = np.interp(tooth_boundaries(u), u.nodes, u.values)
        assert np.max(np.abs(at)) <= 1e-10


def test_competitor_transitions_on_fine_cells(ex2, c2, h7_005, h8_005):
    # every cell whose slope is off the wells lies in a transition window
    eps = 0.05
    h8b = build_h8_competitor(ex2, eps, 0.8, constants=c2)
    for u in (h7_005, h8_005, h8b):
        s = u.slopes()
        off = np.min(np.abs(s[:, None] - np.asarray(ex2.wells)), axis=1) > 1e-9
        assert np.count_nonzero(off) > 0
        assert np.max(np.diff(u.nodes)[off]) <= eps**3 / LAYER_RES * (1.0 + 1e-9)


def test_competitor_guards(ex2, c2):
    with pytest.raises(ParameterError):
        build_h7_competitor(ex2, 0.05, -0.5, constants=c2)
    with pytest.raises(ConstructionError):
        build_h7_competitor(ex2, 0.45, 0.585, constants=c2)


@pytest.mark.parametrize("kind, spec, args, direct", [
    ("two-well", "ex1", (), lambda s, c: build_two_well_sawtooth(s, 0.07, constants=c)),
    ("two-well", "ex1", ((0.0, 0.6),),
     lambda s, c: build_two_well_sawtooth(s, 0.07, interval=(0.0, 0.6), constants=c)),
    ("three-well", "ex1", (), lambda s, c: build_three_well_profile(s, 0.07, constants=c)),
    ("h7", "ex2", (0.585,), lambda s, c: build_h7_competitor(s, 0.07, 0.585, constants=c)),
    ("h8", "ex2", (0.204,), lambda s, c: build_h8_competitor(s, 0.07, 0.204, constants=c)),
], ids=["two-well", "two-well-0-0.6", "three-well", "h7", "h8"])
def test_build_profile_is_the_direct_builder(ex1, ex2, c1, c2, kind, spec, args, direct):
    spec, c = (ex1, c1) if spec == "ex1" else (ex2, c2)
    u, v = build_profile(spec, 0.07, kind, *args, constants=c), direct(spec, c)
    assert u.nodes.tobytes() == v.nodes.tobytes()
    assert u.values.tobytes() == v.values.tobytes()
    assert u.meta == v.meta


def test_build_profile_looks_the_builder_up_when_called(ex1, c1, monkeypatch):
    from tripwell import microstructure

    monkeypatch.setattr(microstructure, "build_three_well_profile",
                        lambda spec, eps, *args, constants: (spec, eps, args, constants))
    assert build_profile(ex1, 0.07, "three-well", (0.2, 1.0), constants=c1) == (
        ex1, 0.07, ((0.2, 1.0),), c1)
    with pytest.raises(ParameterError, match="unknown profile kind 'h9'"):
        build_profile(ex1, 0.07, "h9", constants=c1)


def test_competitor_seeds_are_kind_and_yhat_pairs(ex1, ex2):
    rep = check_hypotheses(ex2)
    assert competitor_seeds(rep) == [("h7", rep.h7.worst_y), ("h8", rep.h8.worst_y)]
    assert competitor_seeds(check_hypotheses(ex1)) == []


@pytest.mark.parametrize("eps", [0.0, -0.05, np.nan, np.inf])
@pytest.mark.parametrize("build", [
    build_two_well_sawtooth, build_three_well_profile,
    lambda spec, eps, constants: build_h7_competitor(spec, eps, 0.585, constants=constants),
    lambda spec, eps, constants: build_h8_competitor(spec, eps, 0.204, constants=constants),
    lambda spec, eps, constants: two_well_count(spec, eps, 1.0, constants),
    lambda spec, eps, constants: competitor_period_count(
        spec, eps, competitor_plan(spec, "h7", 0.585, constants)),
], ids=["two-well", "three-well", "h7", "h8", "two-well-count", "period-count"])
def test_builders_reject_nonpositive_eps(ex2, c2, build, eps):
    with pytest.raises(ParameterError, match="eps must be finite and positive"):
        build(ex2, eps, constants=c2)


@pytest.mark.parametrize("build, kind, name", [
    (build_two_well_sawtooth, "two-well", "N"), (build_three_well_profile, "three-well", "M"),
])
def test_sawtooth_builders_report_too_few_teeth(ex1, c1, build, kind, name):
    with pytest.raises(ConstructionError) as info:
        build(ex1, 0.3, interval=(0.5, 0.8), constants=c1)
    assert str(info.value) == (f"eps=0.3 too large for a {kind} profile on length "
                               f"{0.8 - 0.5}: tooth rule gives {name}=1, "
                               f"minimal admissible {name} is 2")
    with pytest.raises(ParameterError, match="empty interval"):
        build(ex1, 0.07, interval=(0.5, 0.5), constants=c1)
    # the tooth rule would ask for infinitely many teeth
    for interval in ((0.0, np.inf), (-np.inf, 1.0), (-1e308, 1e308)):
        with pytest.raises(ParameterError, match="length must be finite and positive"):
            build(ex1, 0.07, interval=interval, constants=c1)


def node_limit_builds(ex1, ex2, c1, c2):
    return {
        "two-well": lambda eps, **kw: build_two_well_sawtooth(ex1, eps, constants=c1, **kw),
        "three-well": lambda eps, **kw: build_three_well_profile(ex1, eps, constants=c1, **kw),
        "h7": lambda eps: build_h7_competitor(ex2, eps, 0.585, constants=c2),
        "h8": lambda eps: build_h8_competitor(ex2, eps, 0.204, constants=c2),
    }


@pytest.fixture()
def no_assembly(monkeypatch):
    from tripwell import microstructure

    def unreachable(*args, **kwargs):
        raise AssertionError("a refused profile reached the assembly")

    monkeypatch.setattr(microstructure, "_assemble_pieces", unreachable)


@pytest.mark.parametrize("kind", ["two-well", "three-well", "h7", "h8"])
@pytest.mark.parametrize("eps", [1e-9, 1e-300, 1e-4])
def test_builders_refuse_a_profile_above_max_nodes(ex1, ex2, c1, c2, no_assembly, kind, eps):
    # 1e-9 asks for 340,710,112 two-well teeth and 1e-300 for a 300-digit
    # count: both are refused from the count; at 1e-4 the count passes and
    # the nodes of the built piece times the count exceed the limit
    with pytest.raises(ParameterError, match="MAX_NODES"):
        node_limit_builds(ex1, ex2, c1, c2)[kind](eps)


@pytest.mark.parametrize("kind", ["two-well", "three-well"])
def test_sawtooth_builders_refuse_a_huge_interval(ex1, ex2, c1, c2, no_assembly, kind):
    with pytest.raises(ParameterError, match="MAX_NODES"):
        node_limit_builds(ex1, ex2, c1, c2)[kind](0.07, interval=(0.0, 1e300))


@pytest.mark.parametrize("length", [1e12, 1e20, 1e300])
def test_sawtooth_refuses_an_interval_whose_nodes_round_coarser_than_a_step(ex1, length):
    # at 1e12 the floats are 6.1e-5 apart, and a layer step at eps 0.07 is 3.6e-6
    with pytest.raises(ParameterError,
                       match=re.escape(f"interval (0, {length}) too far from 0 for eps=0.07")):
        build_two_well_sawtooth(ex1, 0.07, interval=(0, length), counts_override=2)


def test_sawtooth_builds_on_an_interval_far_from_0_whose_nodes_resolve_a_step(ex1):
    u = build_two_well_sawtooth(ex1, 0.07, interval=(0, 1e6), counts_override=2)
    assert len(u) == 9443


def test_sawtooth_refuses_a_window_whose_steps_underflow(ex1, ex2, c1, c2, no_assembly):
    # two teeth pass the count, but eps^3 / LAYER_RES is 0 at eps 1e-300
    with pytest.raises(ParameterError, match="a transition window needs more than MAX_NODES"):
        node_limit_builds(ex1, ex2, c1, c2)["two-well"](1e-300, counts_override=2)


def test_builders_leave_numpy_ma_unloaded():
    # np.unique loads numpy.ma (about 9 ms and 0.4 MB of a cold command)
    code = (
        "import sys\n"
        "from tripwell import PotentialSpec, build_h7_competitor, build_h8_competitor, "
        "build_three_well_profile, build_two_well_sawtooth\n"
        "ex1, ex2 = PotentialSpec(wells=(-1.0, 1.0 / 3.0, 1.0)), PotentialSpec(wells=(-1.0, 0.5, 1.0))\n"
        "build_two_well_sawtooth(ex1, 0.07); build_three_well_profile(ex1, 0.07)\n"
        "build_h7_competitor(ex2, 0.07, 0.585); build_h8_competitor(ex2, 0.07, 0.204)\n"
        "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True", "False"]


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------

def test_all_profiles_have_zero_mean_gradient(two_well_ladder, three_well_005,
                                              h7_005, h8_005):
    profiles = list(two_well_ladder.values()) + [three_well_005, h7_005, h8_005]
    for u in profiles:
        assert abs(u.values[-1] - u.values[0]) <= 1e-10


def test_modica_mortola_consistency(ex1, two_well_ladder):
    from tripwell import H_antiderivative
    from tripwell.energy import interface_plus_W

    u = two_well_ladder[0.07]
    eps = 0.07
    marks = u.nodes[np.linspace(0, len(u) - 1, 10).astype(int)]
    s = u.slopes()
    H_cache = {}

    def H(val):
        if val not in H_cache:
            H_cache[val] = H_antiderivative(ex1, val)
        return H_cache[val]

    for i in range(len(marks) - 1):
        for j in range(i + 1, len(marks)):
            a, b = marks[i], marks[j]
            lhs = interface_plus_W(u, eps, ex1, a, b)
            ia = np.searchsorted(u.nodes, a)
            ib = np.searchsorted(u.nodes, b) - 1
            rhs = 2.0 * eps * abs(H(float(s[min(ia, len(s) - 1)])) -
                                  H(float(s[max(ib, 0)])))
            assert lhs >= rhs - 1e-6


# ---------------------------------------------------------------------------
# the composite rise and the three-well tooth window
# ---------------------------------------------------------------------------

EX1 = PotentialSpec(wells=(-1.0, 1.0 / 3.0, 1.0))
RISE_SPECS = [
    EX1,
    PotentialSpec(wells=(-1.0, 0.5, 1.0)),
    PotentialSpec(wells=(-2.0, 0.6, 1.5)),
    # a middle well of order 4 (q = 4) widens the bridge to mu = eps
    PotentialSpec(kind="custom-polynomial", wells=(-1.0, 1.0 / 3.0, 1.0),
                  coeffs=tuple(npp.polyfromroots([-1.0, -1.0] + [1.0 / 3.0] * 4 + [1.0, 1.0]))),
]


def three_branch_where(spec, eps, xs):
    """The rise at scaled positions xs by the three-branch rule: the lower
    branch up to x0, the bridge of unit slope up to x1 = x0 + 2 mu, the upper
    branch shifted to pass through z2 + mu at x1 beyond; every branch is
    evaluated on every point.  Returns the values, (x0, x1) and the position
    where the shifted upper branch ends."""
    z2 = spec.wells[1]
    mu = _bridge_mu(spec, eps)
    lower, upper = _lower_branch(spec), _upper_branch(spec)
    x0 = lower.x_at(z2 - mu)
    x1 = x0 + 2.0 * mu
    shift = upper.x_at(z2 + mu) - x1
    low = lower.w_at_scaled(xs)
    mid = (z2 - mu) + (xs - x0)
    high = upper.w_at_scaled(xs + shift)
    w = np.where(xs <= x0, low, np.where(xs <= x1, mid, high))
    return w, (x0, x1), upper.extent[1] - shift


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(RISE_SPECS),
       eps=st.sampled_from([0.1, 0.05, 0.03]),
       fractions=st.lists(st.floats(-0.5, 1.5, allow_nan=False), max_size=40))
def test_rise_branches_match_three_branch_where(spec, eps, fractions):
    # fractions of the table's extent: below 0 and above 1 lie beyond both ends
    tab = _rise_table(spec, eps)
    lo, hi = tab.extent
    _, (x0, x1), ref_hi = three_branch_where(spec, eps, np.zeros(1))
    assert lo == _lower_branch(spec).extent[0]
    assert abs(hi - ref_hi) <= 4.0 * np.spacing(hi)
    marks = [lo - 1.0, lo, hi + 1.0]
    for x in (x0, x1):
        marks += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    xs = np.array([lo + f * (hi - lo) for f in fractions] + marks)
    # the clamp to z3 jumps by 1e-12 of the upper span at hi, whose position
    # is compared to rounding above
    xs = xs[np.abs(xs - hi) > 4.0 * np.spacing(hi)]
    w_ref, _, _ = three_branch_where(spec, eps, xs)
    assert np.max(np.abs(tab.w_at_scaled(xs) - w_ref)) <= 1e-14


@pytest.mark.parametrize("eps", [0.03, 0.025])
def test_three_well_window_covers_the_shifted_transition(ex1, c1, eps):
    # the shift moves the transition by more than the window's margin below
    # eps ~ 0.035; every cell it crosses must still be a fine-window cell
    u = build_three_well_profile(ex1, eps, constants=c1)
    s_min, s_max = (eps**3 * x for x in _rise_table(ex1, eps).extent)
    l, om = u.meta["l_M"], u.meta["omega_star"]
    x = u.nodes
    step = eps**3 / LAYER_RES
    for start in (2.0 * l, 4.0 * l):                 # two rising teeth
        lo, hi = start + om + s_min, start + om + s_max
        i0, i1 = np.searchsorted(x, lo) - 1, np.searchsorted(x, hi) + 1
        assert np.max(np.diff(x[i0:i1])) <= step * (1.0 + 1e-6)


@pytest.mark.parametrize("kind", ["two-well", "three-well", "h7", "h8"])
def test_builders_keep_one_copy_of_the_profile(ex1, ex2, c1, c2, kind):
    # the nodes and values the assembly writes become the profile's own
    # read-only arrays; copying them again peaked at 82-84 bytes per node
    build = {
        "two-well": lambda: build_two_well_sawtooth(ex1, 0.07, constants=c1),
        "three-well": lambda: build_three_well_profile(ex1, 0.07, constants=c1),
        "h7": lambda: build_h7_competitor(ex2, 0.07, 0.585, constants=c2),
        "h8": lambda: build_h8_competitor(ex2, 0.07, 0.204, constants=c2),
    }[kind]
    build()                     # the transition tables are cached from here on
    tracemalloc.start()
    try:
        u = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 60 * len(u)
    for arr in (u.nodes, u.values, u.cell_widths()):
        assert arr.base is None and not arr.flags.writeable
    assert u.nodes is u.grid.nodes


# ---------------------------------------------------------------------------
# custom-polynomial densities
# ---------------------------------------------------------------------------

BUILDERS = {
    "two-well": lambda spec: build_two_well_sawtooth(spec, 0.07),
    "three-well": lambda spec: build_three_well_profile(spec, 0.07),
    "h7": lambda spec: build_h7_competitor(spec, 0.07, 0.585),
    "h8": lambda spec: build_h8_competitor(spec, 0.07, 0.204),
}


@pytest.mark.parametrize("kind", list(BUILDERS))
@pytest.mark.parametrize("which", ["ex1", "ex2"])
def test_canonical_density_written_as_custom_builds_the_same_profile(ex1, ex2, which, kind):
    # sqrt(polyval) once rounded to 0 beside the wells, and every builder
    # integrated 1/0 on a custom density
    spec = {"ex1": ex1, "ex2": ex2}[which]
    custom = PotentialSpec(kind="custom-polynomial", wells=spec.wells, coeffs=spec.coeffs)
    u, v = BUILDERS[kind](spec), BUILDERS[kind](custom)
    assert len(v) == len(u)
    assert energy_Ieps(v, 0.07, custom).total == pytest.approx(
        energy_Ieps(u, 0.07, spec).total, rel=1e-12)


def test_custom_density_without_closed_form_builds_the_well_profiles(ex2):
    custom = PotentialSpec(kind="custom-polynomial", wells=ex2.wells,
                           coeffs=tuple(npp.polymul(ex2.coeffs, (1.0, 0.0, 1.0))))
    assert custom.factors == ((1, 1, 1), (1.0, 0.0, 1.0))
    two, three = (energy_Ieps(BUILDERS[k](custom), 0.07, custom).total
                  for k in ("two-well", "three-well"))
    assert np.isfinite(two) and np.isfinite(three) and two < three


def test_order_four_well_sets_the_coercivity_exponent(ex2):
    z1 = ex2.wells[0]
    custom = PotentialSpec(kind="custom-polynomial", wells=ex2.wells,
                           coeffs=tuple(npp.polymul(ex2.coeffs, npp.polyfromroots([z1, z1]))))
    assert custom.factors == ((2, 1, 1), (1.0,))
    assert coercivity_exponent(custom) == 4.0
    assert len(BUILDERS["two-well"](custom)) == 112_134
    with pytest.raises(ConstructionError, match="does not fit inside a tooth"):
        BUILDERS["three-well"](custom)
