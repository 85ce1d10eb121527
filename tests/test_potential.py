import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from tripwell import PotentialSpec, estimate_coercivity, eval_dW, eval_W, sqrt_W, verify_growth
from tripwell.errors import ParameterError, SpecificationError
from tripwell.potential import eta0_bound


def test_wells_vanish(ex1, ex2):
    for spec in (ex1, ex2):
        for z in spec.wells:
            assert abs(eval_W(spec, z)) <= 1e-15


def test_density_value_at_origin(ex1):
    # (0+1)^2 (0-1/3)^2 (0-1)^2 = 1/9
    assert eval_W(ex1, 0.0) == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_well_ordering_enforced():
    with pytest.raises(SpecificationError):
        PotentialSpec(wells=(0.5, 1.0, 2.0))
    with pytest.raises(SpecificationError):
        PotentialSpec(wells=(-1.0, 1.0, 0.5))


@pytest.mark.parametrize("doc", [
    {"wells": [-1.0, 1.0]},
    {"wells": [-1.0, None, 1.0]},
    {"wells": [-1.0, 0.5, True]},
    {"wells": [-1.0, 0.5, 1.0], "coeffs": "abc"},
    {"wells": [-1.0, 0.5, 1.0], "growth_p": "6"},
    {"wells": [-1.0, 0.5, 1.0], "coercivity": {"q": 2.0}},
])
def test_from_dict_rejects_malformed_potentials(doc):
    with pytest.raises(SpecificationError):
        PotentialSpec.from_dict(doc)


def test_from_dict_roundtrip(ex1):
    spec = PotentialSpec(wells=ex1.wells, coercivity=estimate_coercivity(ex1, grid_n=1000))
    assert PotentialSpec.from_dict(spec.to_dict()) == spec


def test_custom_polynomial_matches_family(ex1):
    coeffs = npp.polyfromroots([-1.0, -1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0, 1.0])
    spec = PotentialSpec(kind="custom-polynomial", wells=ex1.wells,
                         coeffs=tuple(coeffs))
    s = np.linspace(-2.0, 2.0, 101)
    assert np.allclose(eval_W(spec, s), eval_W(ex1, s), rtol=1e-12, atol=1e-14)
    assert np.allclose(eval_dW(spec, s), eval_dW(ex1, s), rtol=1e-12, atol=1e-12)


def test_custom_polynomial_must_vanish_at_wells():
    with pytest.raises(SpecificationError):
        PotentialSpec(kind="custom-polynomial", wells=(-1.0, 0.5, 1.0),
                      coeffs=(0.0, 0.0, 1.0))


def test_derivative_stationary_at_wells(ex1, ex2):
    for spec in (ex1, ex2):
        for z in spec.wells:
            assert abs(eval_dW(spec, z)) <= 1e-12


def test_derivative_matches_finite_difference_at_origin(ex1):
    h = 1e-6
    fd = (eval_W(ex1, h) - eval_W(ex1, -h)) / (2.0 * h)
    assert eval_dW(ex1, 0.0) == pytest.approx(fd, rel=1e-8)


def test_sqrt_density_values(ex1, ex2):
    assert sqrt_W(ex1, 1.0 / 3.0) == 0.0
    assert sqrt_W(ex1, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sqrt_W(ex2, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_sqrt_density_squares_to_density(ex1):
    rng = np.random.default_rng(0)
    s = rng.uniform(-3.0, 3.0, 10_000)
    w = np.asarray(eval_W(ex1, s))
    sq = np.asarray(sqrt_W(ex1, s)) ** 2
    assert np.allclose(sq, w, rtol=1e-12, atol=1e-25)


def test_derivative_matches_finite_differences_sampled(ex1):
    rng = np.random.default_rng(1)
    s = rng.uniform(-2.5, 2.5, 1000)
    h = 1e-6 * np.maximum(1.0, np.abs(s))
    fd = (eval_W(ex1, s + h) - eval_W(ex1, s - h)) / (2.0 * h)
    d = np.asarray(eval_dW(ex1, s))
    assert np.all(np.abs(d - fd) <= 1e-6 * np.maximum(1.0, np.abs(d)))


def test_coercivity_estimate(ex1):
    rec = estimate_coercivity(ex1)
    assert rec.q == 2.0
    assert rec.eta0 == pytest.approx(0.3, rel=1e-12)   # 0.9*min(1, 1, 1/3, 1/3)
    assert rec.c0 > 0.0
    # definitional recheck on fresh random samples
    rng = np.random.default_rng(2)
    s = rng.uniform(-3.0, 3.0, 100_000)
    dist = np.min(np.abs(s[:, None] - np.asarray(ex1.wells)[None, :]), axis=1)
    lower = rec.c0 * np.minimum(dist**rec.q, rec.eta0**rec.q)
    # tiny slack: c0 is a sampled estimate of a continuum minimum
    assert np.all(np.asarray(eval_W(ex1, s)) >= lower * (1.0 - 1e-9) - 1e-15)


def test_coercivity_grid_guard(ex1):
    with pytest.raises(ParameterError):
        estimate_coercivity(ex1, grid_n=10)


def test_eta0_bound(ex1, ex2):
    assert eta0_bound(ex1) == pytest.approx(1.0 / 3.0)
    assert eta0_bound(ex2) == pytest.approx(0.25)


def test_growth_report_degree_six(ex1):
    rep = verify_growth(ex1, 6.0)
    assert rep.ok and rep.ok_lower and rep.ok_upper
    assert rep.c1 > 0.0 and rep.c3 > 0.0
    # witnesses hold on an independent sample
    s = np.linspace(-5.0, 5.0, 2001)
    w = np.asarray(eval_W(ex1, s))
    assert np.all(rep.c1 * np.abs(s) ** 6 - rep.c2 <= w + 1e-9)
    assert np.all(w <= rep.c3 * (np.abs(s) ** 6 + 1.0) + 1e-9)


def test_growth_report_degree_eight_fails_lower(ex1):
    rep = verify_growth(ex1, 8.0)
    assert not rep.ok
    assert not rep.ok_lower


def test_growth_single_point_range(ex1):
    rep = verify_growth(ex1, float(ex1.degree), bounds=(0.0, 0.0))
    assert rep.ok
    assert rep.c2 >= eval_W(ex1, 0.0)


def test_growth_exponent_guard(ex1):
    with pytest.raises(ParameterError):
        verify_growth(ex1, 1.0)
