import json

import numpy as np
import pytest

from tripwell import GridFunction, discrete_derivatives, energy_Eeps, energy_gradient, energy_Ieps
from tripwell import microstructure
from tripwell.errors import GridError
from tripwell.grids import integrate_slopes


def random_smooth_profile(n, seed, amplitude=0.3, jitter=0.0):
    """Smooth random profile; jitter > 0 moves each interior node by up to
    that fraction of a cell, so neighbouring cells differ in width."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    k = np.arange(1, 9)
    coeffs = rng.normal(0.0, amplitude, 8) / k**2
    if jitter:
        x[1:-1] += rng.uniform(-jitter, jitter, n - 2) / (n - 1)
    u = np.sin(np.pi * np.outer(x, k)) @ coeffs
    u[0] = 0.0
    u[-1] = 0.0
    return GridFunction(x, u)


def test_second_difference_exact_for_quadratics():
    rng = np.random.default_rng(3)
    nodes = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 57)]))
    u = GridFunction(nodes, nodes * (1.0 - nodes))
    _, uxx = discrete_derivatives(u)
    assert np.allclose(uxx, -2.0, atol=1e-9)


def test_derivatives_of_zero_profile():
    u = GridFunction(np.linspace(0, 1, 11), np.zeros(11))
    ux, uxx = discrete_derivatives(u)
    assert np.all(ux == 0.0) and np.all(uxx == 0.0)


def test_second_difference_accuracy_sine():
    x = np.linspace(0.0, 1.0, 10_000)
    u = GridFunction(x, np.sin(np.pi * x))
    _, uxx = discrete_derivatives(u)
    exact = -np.pi**2 * np.sin(np.pi * x[1:-1])
    assert np.max(np.abs(uxx - exact)) < 1e-4


def test_zero_profile_energy_is_origin_density(ex1):
    u = GridFunction(np.linspace(0, 1, 101), np.zeros(101))
    for eps in (0.3, 0.1):
        br = energy_Ieps(u, eps, ex1)
        assert br.total == pytest.approx(eval_origin(ex1) / eps**2, rel=1e-12)
        assert br.interface == 0.0 and br.bulk_u2 == 0.0


def eval_origin(spec):
    return float(spec.W(0.0))


def test_breakdown_additivity_and_nonnegativity(ex1, two_well_ladder):
    u = two_well_ladder[0.05]
    br = energy_Ieps(u, 0.05, ex1)
    assert br.total == pytest.approx(br.interface + br.bulk_W + br.bulk_u2, rel=1e-12)
    assert br.interface >= 0.0 and br.bulk_W >= 0.0 and br.bulk_u2 >= 0.0


def test_rescaled_vs_unrescaled(ex1, two_well_ladder):
    u = two_well_ladder[0.1]
    eps = 0.1
    bi = energy_Ieps(u, eps, ex1)
    be = energy_Eeps(u, eps, ex1)
    assert bi.total == pytest.approx(be.total / eps**2, rel=1e-12)
    gi = energy_gradient(u, eps, ex1, "I_eps")
    ge = energy_gradient(u, eps, ex1, "E_eps")
    assert np.allclose(gi, ge / eps**2, rtol=1e-12, atol=0.0)


# the last cases are jittered (random, sorted) grids, where the stencil's left
# and right cell widths differ at every interior node; the Richardson
# combination of two central differences cancels their step^2 truncation
# error, which grows with that width contrast
@pytest.mark.parametrize("seed, jitter", [pytest.param(s, 0.0, id=str(s)) for s in range(5)]
                         + [pytest.param(5, 0.05, id="nonuniform"),
                            pytest.param(6, 0.3, id="jittered")])
def test_gradient_matches_finite_differences(ex1, seed, jitter):
    eps = 0.25
    u = random_smooth_profile(2001, seed, jitter=jitter)
    g = energy_gradient(u, eps, ex1)
    rng = np.random.default_rng(100 + seed)
    probes = rng.choice(np.arange(1, 2000), size=20, replace=False)
    vals = u.values.copy()

    def central(j, h):
        up = vals.copy(); up[j] += h
        dn = vals.copy(); dn[j] -= h
        fplus = energy_Ieps(GridFunction(u.nodes, up), eps, ex1).total
        fminus = energy_Ieps(GridFunction(u.nodes, dn), eps, ex1).total
        return (fplus - fminus) / (2.0 * h)

    for j in probes:
        h = 1e-7 * max(1.0, abs(vals[j]))
        fd = (4.0 * central(j, 0.5 * h) - central(j, h)) / 3.0
        assert abs(g[j - 1] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_energy_refinement_convergence(ex1, c1, monkeypatch):
    eps = 0.07

    def build(layer_res, plateau_pts):
        monkeypatch.setattr(microstructure, "LAYER_RES", layer_res)
        monkeypatch.setattr(microstructure, "TOOTH_PLATEAU_PTS", plateau_pts)
        return microstructure.build_two_well_sawtooth(ex1, eps, constants=c1)

    coarse = build(48, 49)
    fine = build(96, 99)
    e_coarse = energy_Ieps(coarse, eps, ex1).total
    e_fine = energy_Ieps(fine, eps, ex1).total
    assert abs(e_coarse - e_fine) / e_fine < 0.01


def test_under_resolution_flag(ex1):
    # sharp sawtooth corner on a grid much coarser than eps^3
    nodes = np.linspace(0.0, 1.0, 41)
    u = GridFunction(nodes, 0.25 - np.abs(nodes - 0.5) / 2.0)
    br = energy_Ieps(u, 0.05, ex1)
    assert br.under_resolved
    smooth = random_smooth_profile(4001, 0)
    assert not energy_Ieps(smooth, 0.3, ex1).under_resolved


def test_duplicate_nodes_rejected():
    with pytest.raises(GridError):
        GridFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan])
def test_energy_rejects_nonpositive_eps(ex1, eps):
    u = GridFunction(np.linspace(0.0, 1.0, 5), np.array([0.0, 0.1, 0.2, 0.1, 0.0]))
    for fn in (energy_Ieps, energy_gradient):
        with pytest.raises(GridError, match="eps must be positive"):
            fn(u, eps, ex1)


@pytest.mark.parametrize("doc", [
    {"nodes": "abc", "values": [0.0, 0.1, 0.0]},
    {"nodes": [0.0, None, 1.0], "values": [0.0, 0.1, 0.0]},
    {"nodes": [0.0, 0.5, 1.0], "values": [0.0, 0.1, 0.0], "eps": None},
    {"nodes": [0.0, 0.5, 1.0], "values": {"a": 1}},
])
def test_from_dict_rejects_malformed_profiles(doc):
    with pytest.raises(GridError):
        GridFunction.from_dict(doc)


def test_integrate_slopes_pins_boundaries():
    nodes = np.linspace(0.0, 1.0, 1001)
    w = np.sin(2 * np.pi * nodes)
    u = integrate_slopes(nodes, w)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0


def test_gridfunction_json_roundtrip(tmp_path, two_well_ladder):
    u = two_well_ladder[0.1]
    path = tmp_path / "profile.json"
    u.save(path)
    v = GridFunction.load(path)
    assert np.array_equal(u.nodes, v.nodes)
    assert np.array_equal(u.values, v.values)
    assert v.eps == u.eps
    assert v.meta["kind"] == "two-well"
    # the on-disk format is that of the streaming encoder, plus a newline
    ref = tmp_path / "reference.json"
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(u.to_dict(), fh)
        fh.write("\n")
    assert path.read_bytes() == ref.read_bytes()


def plain_kernel(x, v, eps, spec):
    """The E_eps parts and gradient with one temporary per operation: the
    reference the in-place kernel must match bit for bit."""
    z1, z2, z3 = spec.wells
    h = np.diff(x)
    ux = np.diff(v) / h
    uxx = 2.0 * (ux[1:] - ux[:-1]) / (h[:-1] + h[1:])
    xi = x[1:-1]
    w = np.concatenate([[0.5 * (xi[1] - xi[0])], 0.5 * (xi[2:] - xi[:-2]),
                        [0.5 * (xi[-1] - xi[-2])]])
    prod = (ux - z1) * (ux - z2) * (ux - z3)
    u2 = v * v
    parts = (eps**6 * float(np.dot(w, uxx * uxx)), float(np.dot(h, prod * prod)),
             float(np.dot(h, 0.5 * (u2[:-1] + u2[1:]))))
    a = 2.0 / (h[:-1] * (h[:-1] + h[1:]))
    c = 2.0 / (h[1:] * (h[:-1] + h[1:]))
    b = -(a + c)
    t = 2.0 * w * uxx
    g_if = np.zeros(len(x))
    g_if[:-2] += t * a
    g_if[1:-1] += t * b
    g_if[2:] += t * c
    dW = np.polynomial.polynomial.polyval(ux, np.polynomial.polynomial.polyder(spec.coeffs))
    g = eps**6 * g_if[1:-1] + (dW[:-1] - dW[1:]) + v[1:-1] * (h[:-1] + h[1:])
    return parts, g


@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_matches_plain_expressions_bit_for_bit(ex1, seed):
    from tripwell.energy import _ieps_objective

    eps = 0.2
    u = random_smooth_profile(501, seed, jitter=0.3)
    parts, g = plain_kernel(np.array(u.nodes), np.array(u.values), eps, ex1)
    br = energy_Eeps(u, eps, ex1)
    assert (br.interface, br.bulk_W, br.bulk_u2) == parts
    assert energy_gradient(u, eps, ex1, "E_eps").tobytes() == g.tobytes()
    f, gi = _ieps_objective(u.grid, eps, ex1)(u.values.copy())
    assert f == energy_Ieps(u, eps, ex1).total
    assert gi.tobytes() == energy_gradient(u, eps, ex1).tobytes()
