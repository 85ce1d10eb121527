import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripwell import GridFunction, PotentialSpec
from tripwell.analysis import (
    TransitionLayer,
    _band_layers,
    d_intervals,
    e0_family,
    empirical_young_measure,
    measure_report,
    rearrangement_envelope,
    transition_layers,
    volume_fractions,
)
from tripwell.errors import ParameterError
from tripwell.microstructure import build_h8_competitor, build_two_well_sawtooth


def quarter_sawtooth(z2=1.0 / 3.0):
    """One exact tooth: slope z1 = -1 on [0, 1/4], slope z2 on [1/4, 1]."""
    nodes = np.array([0.0, 0.25, 1.0])
    values = np.array([0.0, -0.25, -0.25 + 0.75 * z2])
    assert abs(values[-1]) < 1e-15
    values[-1] = 0.0
    return GridFunction(nodes, values)


def test_zero_profile_fractions(ex1):
    u = GridFunction(np.linspace(0, 1, 101), np.zeros(101))
    vf = volume_fractions(u, ex1, 0.2)
    assert vf.lam == (0.0, 0.0, 0.0)
    assert vf.sigma_measure == 1.0


def test_exact_sawtooth_fractions(ex1):
    vf = volume_fractions(quarter_sawtooth(), ex1, 0.1)
    assert vf.lam[0] == pytest.approx(0.25, abs=1e-15)
    assert vf.lam[1] == pytest.approx(0.75, abs=1e-15)
    assert vf.lam[2] == 0.0
    assert not vf.overlap


def test_partition_invariant_random_profiles(ex1):
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = 500
        x = np.linspace(0, 1, n)
        u = np.sin(np.pi * np.outer(x, [1, 2, 3])) @ rng.normal(0, 0.2, 3)
        u[0] = u[-1] = 0.0
        gf = GridFunction(x, u)
        vf = volume_fractions(gf, ex1, 0.15)
        assert sum(vf.lam) + vf.sigma_measure == pytest.approx(1.0, abs=1e-9)


def test_eta_guards_and_overlap_flag(ex1):
    u = quarter_sawtooth()
    with pytest.raises(ParameterError):
        volume_fractions(u, ex1, 0.0)
    with pytest.raises(ParameterError):
        volume_fractions(u, ex1, 1.1)          # >= (z3-z1)/2
    vf = volume_fractions(u, ex1, 0.45)        # eps^(1/3) regime
    assert vf.overlap


def test_single_up_down_excursion_layers(ex1):
    # gradient: z1 plateau, linear ramp to z2, plateau, ramp back; the
    # plateau lengths balance the mean so u closes at zero
    z1, z2, _ = ex1.wells
    ramp = 0.05
    # measure at z2 solves z1*(t1_total) + z2*t2 + ramp*(z1+z2) = 0
    xk = np.array([0.0, 0.2, 0.2 + ramp, 0.0, 0.0, 1.0])
    t2 = -(z1 * (1.0 - 2 * ramp) + ramp * (z1 + z2)) / (z2 - z1)
    xk[3] = xk[2] + t2
    xk[4] = xk[3] + ramp
    wk = np.array([z1, z1, z2, z2, z1, z1])
    x = np.unique(np.concatenate([np.linspace(0, 1, 801), xk]))
    w = np.interp(x, xk, wk)
    u = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(x))])
    u -= x * u[-1]
    u[0] = u[-1] = 0.0
    gf = GridFunction(x, u)
    layers = transition_layers(gf, ex1, 0.1)
    kinds = [L.kind for L in layers]
    assert kinds == ["A+", "A-"]
    assert xk[1] <= layers[0].span[0] <= layers[0].span[1] <= xk[2] + 1e-6


def reference_band_layers(x, v, lo, hi, plus, minus):
    """Node-by-node statement of the layer rule that ``_band_layers`` follows:
    maximal runs of lo < v < hi that are not clipped by the domain ends and
    that enter and leave through different thresholds, with the crossings
    interpolated linearly on the segments next to the run."""
    def cross(x0, x1, v0, v1, level):
        if v1 == v0:
            return x0
        t = (level - v0) / (v1 - v0)
        return float(x0 + t * (x1 - x0))

    layers = []
    inside = (v > lo) & (v < hi)
    n = len(v)
    i = 0
    while i < n:
        if not inside[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and inside[j + 1]:
            j += 1
        if i > 0 and j + 1 < n:
            enter_level = lo if v[i - 1] <= lo else hi
            exit_level = lo if v[j + 1] <= lo else hi
            if enter_level != exit_level:
                x_in = cross(x[i - 1], x[i], v[i - 1], v[i], enter_level)
                x_out = cross(x[j], x[j + 1], v[j], v[j + 1], exit_level)
                kind = plus if enter_level == lo else minus
                layers.append(TransitionLayer(kind=kind, span=(x_in, x_out)))
        i = j + 1
    return layers


LO, HI = -0.7, 0.2
# the thresholds themselves are drawn, so the ties of the `<=` rule are hit
BAND_VALUES = st.one_of(st.sampled_from([LO, HI, -1.0, -0.25, 0.0, 0.5]),
                        st.floats(-1.2, 0.7, allow_nan=False))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.floats(1e-3, 1.0), BAND_VALUES), min_size=1, max_size=40))
@example([(0.5, -0.25), (0.5, 0.5), (0.5, -0.25)])          # runs touch both ends
@example([(0.5, LO), (0.5, -0.25), (0.5, HI), (0.5, -0.25)])  # ties at both levels
def test_band_layers_match_reference(cells):
    x = np.cumsum([w for w, _ in cells])
    v = np.array([y for _, y in cells])
    got = _band_layers(x, v, LO, HI, "A+", "A-")
    assert got == reference_band_layers(x, v, LO, HI, "A+", "A-")
    assert all(type(a) is float for L in got for a in L.span)


def test_two_well_layer_counts(ex1, c1):
    u = build_two_well_sawtooth(ex1, 0.07, constants=c1, counts_override=6)
    layers = transition_layers(u, ex1, 0.1)
    n_plus = sum(1 for L in layers if L.kind == "A+")
    n_minus = sum(1 for L in layers if L.kind == "A-")
    assert n_plus == n_minus == 3                     # one per tooth period
    assert all(L.kind in ("A+", "A-") for L in layers)


def test_layer_count_scaling(ex1, two_well_ladder):
    cs = []
    for eps, u in two_well_ladder.items():
        layers = transition_layers(u, ex1, 0.1)
        n_plus = sum(1 for L in layers if L.kind == "A+")
        cs.append(n_plus * eps)
    assert max(cs) / min(cs) <= 2.0


def test_degenerate_band_is_empty(ex1, two_well_ladder):
    # eta too wide for the upper band: no B layer can exist by definition
    layers = transition_layers(two_well_ladder[0.05], ex1, 0.45)
    assert all(L.kind in ("A+", "A-") for L in layers)


def test_two_well_d_intervals(ex1, two_well_ladder):
    u = two_well_ladder[0.05]
    divs = d_intervals(u, ex1, 0.1)
    complete = [d for d in divs if d.dtype != "open"]
    assert complete
    for d in complete:
        assert d.n_layers == 0
        assert d.beta <= 1e-12
        assert d.alpha + d.beta <= d.span[1] - d.span[0] + 1e-12
        assert d.dtype == "II"           # sign change, no inner B layers


def test_three_well_d_intervals(ex1, three_well_005):
    divs = d_intervals(three_well_005, ex1, 0.1)
    complete = [d for d in divs if d.dtype != "open"]
    assert complete
    assert all(d.n_layers == 2 for d in complete)


def test_h8_competitor_classification(ex2, c2, h8_005):
    # variant a: the primitive's sign change sits in the middle-well plateau,
    # outside the enclosed top plateau, hence type III
    divs = [d for d in d_intervals(h8_005, ex2, 0.1) if d.dtype != "open"]
    assert divs
    assert all(d.dtype == "III" for d in divs)
    assert all(d.n_layers == 2 for d in divs)

    # variant b places the sign change inside the top plateau: type IV
    u_b = build_h8_competitor(ex2, 0.05, 0.8, constants=c2)
    divs_b = [d for d in d_intervals(u_b, ex2, 0.1) if d.dtype != "open"]
    assert divs_b
    assert all(d.dtype == "IV" for d in divs_b)


def test_slope_jump_over_band_leaves_open_interval(ex1):
    # the slope drops from the z2 plateau back to z1 within one cell, so that
    # descent leaves no A- layer: two A+ layers follow each other, the first
    # one finds no partner before the next A+ and gets an open interval
    z1 = ex1.wells[0]
    slopes = np.array([z1, -0.5, 0.25, 0.25, z1, -0.5] + [0.25] * 16 + [-0.5, z1])
    nodes = np.arange(len(slopes) + 1, dtype=float)
    u = GridFunction(nodes, np.concatenate([[0.0], np.cumsum(slopes)]), eps=0.1)
    layers = transition_layers(u, ex1, 0.1)
    assert [L.kind for L in layers] == ["A+", "A+", "A-"]
    divs = d_intervals(u, ex1, 0.1)
    assert len(divs) == 2
    assert divs[0].dtype == "open" and divs[1].dtype != "open"
    assert divs[0].span == (layers[0].span[1], nodes[-1])
    assert divs[1].span == (layers[1].span[1], layers[2].span[0])


def test_d_interval_requires_eps(ex1):
    with pytest.raises(ParameterError):
        d_intervals(quarter_sawtooth(), ex1, 0.1)
    u = quarter_sawtooth()
    u.eps = float("nan")             # set after the constructor's check
    with pytest.raises(ParameterError):
        d_intervals(u, ex1, 0.1)


def test_d_intervals_inside_l_intervals(ex1, two_well_ladder):
    u = two_well_ladder[0.07]
    eta = 0.1
    z1 = ex1.wells[0]
    divs = [d for d in d_intervals(u, ex1, eta) if d.dtype != "open"]
    mids, slopes = 0.5 * (u.nodes[:-1] + u.nodes[1:]), u.slopes()
    for d in divs:
        inside = (mids > d.span[0]) & (mids < d.span[1])
        assert np.all(slopes[inside] > z1 + eta)


def test_young_measure_two_point_limit(ex1):
    hist = empirical_young_measure(quarter_sawtooth(), ex1, bins=400)
    centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    near_z1 = np.abs(centers + 1.0) <= 0.05
    near_z2 = np.abs(centers - 1.0 / 3.0) <= 0.05
    assert hist.masses[near_z1].sum() == pytest.approx(0.25, abs=1e-12)
    assert hist.masses[near_z2].sum() == pytest.approx(0.75, abs=1e-12)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_young_measure_zero_profile(ex1):
    u = GridFunction(np.linspace(0, 1, 51), np.zeros(51))
    hist = empirical_young_measure(u, ex1, bins=100)
    centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    assert hist.masses[np.abs(centers) <= 0.05].sum() == pytest.approx(1.0)


def test_young_measure_mean_vanishes(ex1, two_well_ladder):
    for u in two_well_ladder.values():
        hist = empirical_young_measure(u, ex1, bins=400)
        assert abs(hist.mean) <= 1e-9


def test_e0_family_members(ex1):
    fam = e0_family(ex1, 0.0)
    assert fam.weights == pytest.approx((0.5, 0.0, 0.5), abs=1e-15)
    fam = e0_family(ex1, 0.75)
    assert fam.weights == pytest.approx((0.25, 0.75, 0.0), abs=1e-13)


def test_e0_family_identities(ex1):
    rng = np.random.default_rng(5)
    z = np.asarray(ex1.wells)
    z21 = 1.0 - z[1] / z[0]
    for lam in rng.uniform(0.0, 1.0 / z21, 1000):
        w = np.asarray(e0_family(ex1, lam).weights)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(float(z @ w)) <= 1e-12
        assert np.all(w >= -1e-12)


def test_e0_family_range_guard(ex1):
    with pytest.raises(ParameterError):
        e0_family(ex1, 0.76)
    with pytest.raises(ParameterError):
        e0_family(ex1, -0.01)


def test_rearrangement_identity_case():
    nodes = np.array([0.0, 0.3, 0.7, 1.0])
    values = np.array([0.0, 0.03, 0.23, 0.53])   # slopes already ascending
    rn, rv = rearrangement_envelope(nodes, values)
    assert np.allclose(rn, nodes)
    assert np.allclose(rv, values)


def test_rearrangement_two_cell_case():
    nodes = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 1.0, 1.5])           # slopes (2, 1)
    rn, rv = rearrangement_envelope(nodes, values)
    assert np.allclose(np.diff(rv) / np.diff(rn), [1.0, 2.0])
    assert np.interp(0.5, rn, rv) == pytest.approx(0.5)
    assert np.interp(0.5, nodes, values) == pytest.approx(1.0)


def test_rearrangement_pointwise_domination():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n = rng.integers(3, 30)
        nodes = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n)]))
        slopes = rng.uniform(0.0, 3.0, len(nodes) - 1)
        values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(nodes))])
        rn, rv = rearrangement_envelope(nodes, values)
        grid = np.unique(np.concatenate([nodes, rn]))
        diff = np.interp(grid, rn, rv) - np.interp(grid, nodes, values)
        worst = max(worst, float(diff.max()))
        assert sorted(np.diff(rv) / np.diff(rn)) == pytest.approx(
            sorted(slopes), rel=1e-9, abs=1e-12)
    assert worst <= 1e-10


def test_rearrangement_rejects_decreasing():
    nodes = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 1.0, 0.5])
    with pytest.raises(ParameterError):
        rearrangement_envelope(nodes, values)


def test_sigma_smallness_scaling(ex1, two_well_ladder):
    eta = 0.15
    q = 2.0
    cs = []
    for eps, u in two_well_ladder.items():
        vf = volume_fractions(u, ex1, eta)
        cs.append(vf.sigma_measure * eta**q / eps**2)
    assert max(cs) / min(cs) <= 2.0


def test_measure_report_assembly(ex1, two_well_ladder):
    u = two_well_ladder[0.07]
    rep = measure_report(u, ex1, 0.1)
    assert rep.layer_counts["A+"] == len([d for d in rep.d_intervals])
    assert rep.histogram.masses.sum() == pytest.approx(1.0, abs=1e-9)
    assert sum(rep.lam) + rep.sigma_measure == pytest.approx(1.0, abs=1e-9)


def test_measure_report_scans_each_band_once(ex1, two_well_ladder, monkeypatch):
    from tripwell import analysis

    calls = []
    band_layers = analysis._band_layers

    def counted(*args, **kwargs):
        calls.append(args[-2])
        return band_layers(*args, **kwargs)

    monkeypatch.setattr(analysis, "_band_layers", counted)
    u = two_well_ladder[0.07]
    rep = measure_report(u, ex1, 0.1)
    assert calls == ["A+", "B+"]
    monkeypatch.setattr(analysis, "_band_layers", band_layers)
    assert rep.d_intervals == tuple(d_intervals(u, ex1, 0.1))
