import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from tripwell import H_antiderivative, PotentialSpec, check_hypotheses, eval_f, interface_energies, limit_constants
from tripwell.errors import ParameterError

from conftest import EX1_E0_EXACT, EX1_E1_EXACT, EX2_E0_EXACT, EX2_E1_EXACT


def golden_min(f, lo, hi, tol=1e-12):
    g = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_interface_energies_exact_oracle(ex1, ex2):
    E0, E1 = interface_energies(ex1)
    assert E0 == pytest.approx(EX1_E0_EXACT, abs=1e-9)
    assert E1 == pytest.approx(EX1_E1_EXACT, abs=1e-9)
    E0, E1 = interface_energies(ex2)
    assert E0 == pytest.approx(EX2_E0_EXACT, abs=1e-9)
    assert E1 == pytest.approx(EX2_E1_EXACT, abs=1e-9)


def test_interface_energies_published_values(ex1, ex2):
    E0, E1 = interface_energies(ex1)
    assert E0 == pytest.approx(1.054, abs=1e-3)
    assert E1 == pytest.approx(0.165, abs=1e-3)
    E0, E1 = interface_energies(ex2)
    assert E0 == pytest.approx(1.406, abs=1e-3)
    assert E1 == pytest.approx(0.073, abs=1e-3)


def test_interface_energy_tolerance_guard(ex1):
    with pytest.raises(ParameterError):
        interface_energies(ex1, tol=1.0)


def _custom(spec, factor=(1.0,)):
    """The canonical density of ``spec`` times a positive polynomial factor,
    given as a custom-polynomial spec."""
    coeffs = npp.polymul(spec.coeffs, factor)
    return PotentialSpec(kind="custom-polynomial", wells=spec.wells, coeffs=tuple(coeffs))


def test_custom_copies_reproduce_exact_constants(ex1, ex2):
    for spec, exact in ((ex1, (EX1_E0_EXACT, EX1_E1_EXACT)),
                        (ex2, (EX2_E0_EXACT, EX2_E1_EXACT))):
        custom = _custom(spec)
        c = limit_constants(custom)
        assert c.E0 == pytest.approx(exact[0], abs=1e-12)
        assert c.E1 == pytest.approx(exact[1], abs=1e-12)
        ref = check_hypotheses(spec).as_dict()
        got = check_hypotheses(custom, constants=c).as_dict()
        for name in ("H6", "H7", "H8"):
            assert got[name]["status"] == ref[name]["status"]
            assert len(got[name]["violation_intervals"]) == len(ref[name]["violation_intervals"])
            assert got[name]["worst_y"] == pytest.approx(ref[name]["worst_y"], abs=1e-6)


def test_custom_density_matches_adaptive_quadrature(ex1):
    from scipy import integrate

    custom = _custom(ex1, (1.0, 0.0, 1.0))      # no closed form in the code
    z1, z2, z3 = ex1.wells
    E0, E1 = interface_energies(custom)
    for got, a, b in ((E0, z1, z2), (E1, z2, z3)):
        ref, _ = integrate.quad(lambda s: float(custom.sqrtW(s)), a, b,
                                epsabs=1e-14, epsrel=1e-14, limit=200)
        assert got == pytest.approx(2.0 * ref, abs=1e-12)
    H = [H_antiderivative(custom, z) for z in (z1, z2)]
    assert H[1] - H[0] == pytest.approx(E0 / 2.0, abs=1e-12)


@pytest.mark.parametrize("module", ["tripwell", "tripwell.minimizer", "tripwell.cli"])
def test_import_loads_no_scipy(module):
    # scipy.optimize is imported inside minimize_Ieps, when a descent runs
    code = f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_antiderivative_properties(ex1):
    assert H_antiderivative(ex1, 0.0) == 0.0
    z1, z2, _ = ex1.wells
    E0, _ = interface_energies(ex1)
    assert 2.0 * (H_antiderivative(ex1, z2) - H_antiderivative(ex1, z1)) == \
        pytest.approx(E0, abs=1e-6)
    samples = np.linspace(-1.5, 1.5, 31)
    vals = [H_antiderivative(ex1, s) for s in samples]
    assert np.all(np.diff(vals) >= -1e-12)


def test_limit_constants_published_values(c1, c2):
    assert c1.A0 == pytest.approx(0.718, abs=1e-3)
    assert c1.B0 == pytest.approx(1.883, abs=1e-3)
    assert c2.A0 == pytest.approx(1.186, abs=1e-3)
    assert c2.B0 == pytest.approx(2.143, abs=1e-3)


def test_well_ratios(c1, c2):
    assert c1.z21 == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert c1.z31 == pytest.approx(2.0, rel=1e-14)
    assert c2.z21 == pytest.approx(1.5, rel=1e-14)
    # the two-well pattern must be the cheaper one per unit fraction
    for c in (c1, c2):
        assert c.A0 < (c.z21 / c.z31) * c.B0


def test_closed_forms_match_numeric_infimum(ex1, c1):
    z1, z2, z3 = ex1.wells

    def two_well_cost(d):
        return z2**2 * c1.z21 * d**2 / 3.0 + c1.E0 / d

    def three_well_cost(d):
        return z3**2 * c1.z31 * d**2 / 3.0 + (c1.E0 + c1.E1) / d

    d_opt = golden_min(two_well_cost, 1e-3, 100.0)
    assert two_well_cost(d_opt) == pytest.approx(c1.A0, rel=1e-8)
    d_opt = golden_min(three_well_cost, 1e-3, 100.0)
    assert three_well_cost(d_opt) == pytest.approx(c1.B0, rel=1e-8)


def test_optimal_periods_are_stationary(ex1, c1):
    # d* minimizes the full-interval-normalized two-well cost per unit length
    z1, z2, z3 = ex1.wells

    def phi(d):
        return z2**2 / c1.z21**2 * d**2 / 3.0 + c1.E0 / d

    def psi(h):
        return z3**2 / c1.z31**2 * h**2 / 3.0 + (c1.E0 + c1.E1) / h

    h = 1e-6
    assert abs(phi(c1.d_star + h) - phi(c1.d_star - h)) / (2 * h) < 1e-8
    assert abs(psi(c1.h_star + h) - psi(c1.h_star - h)) / (2 * h) < 1e-8
    assert phi(c1.d_star) == pytest.approx(c1.A0 / c1.z21, rel=1e-12)
    assert psi(c1.h_star) == pytest.approx(c1.B0 / c1.z31, rel=1e-12)


def test_eval_f_at_origin(ex1, c1):
    val = float(eval_f(ex1, "f6", 0.0, c1))
    expected = 9.0 * (c1.E0 + c1.E1) ** 2 * ex1.wells[1] ** 2
    assert val == pytest.approx(expected, rel=1e-14)
    assert val == pytest.approx(1.4835, abs=5e-3)


def test_f0_vanishes_at_balance_ratio(ex1, c1):
    z1, z2, z3 = ex1.wells
    y = np.sqrt(z2 * c1.z21 / (z3 * c1.z31))
    assert float(eval_f(ex1, "f0", y, c1)) == pytest.approx(0.0, abs=1e-14)


def test_f7_dips_below_cubic_for_second_example(ex2, c2):
    y = 0.585
    assert float(eval_f(ex2, "f7", y, c2)) < (c2.A0 + c2.B0 * y) ** 3


def test_eval_f_rejects_negative_ratio(ex1):
    with pytest.raises(ParameterError):
        eval_f(ex1, "f6", -0.1)
    with pytest.raises(ParameterError):
        eval_f(ex1, "f9", 0.1)


def test_hypotheses_first_example_all_hold(ex1):
    rep = check_hypotheses(ex1)
    for verdict in (rep.h6, rep.h7, rep.h8):
        assert verdict.status == "holds"
        assert verdict.violation_intervals == ()
        assert verdict.worst_margin >= 0.0


def test_hypotheses_second_example(ex2):
    rep = check_hypotheses(ex2)
    assert rep.h6.status == "holds"
    assert rep.h7.status == "fails"
    assert rep.h8.status == "fails"
    assert abs(rep.h7.worst_y - 0.585) <= 0.02
    assert abs(rep.h8.worst_y - 0.204) <= 0.02
    assert rep.h7.worst_margin < 0.0
    assert rep.h8.worst_margin < 0.0


def test_h6_origin_margin_first_example(ex1, c1):
    rep = check_hypotheses(ex1)
    margin0 = float(eval_f(ex1, "f6", 0.0, c1)) - c1.A0**3
    assert margin0 > 0.0
    assert rep.h6.worst_margin <= margin0 + 1e-12


@pytest.mark.parametrize("wells", [(-1.0, 0.5, 1.0), (-1.0, 0.5, 3.02)],
                         ids=["example-2", "sign-change-beyond-ymax"])
def test_report_invariants(wells):
    # with z3 = 3.02 the H6 margin changes sign near y = 55, beyond y_max = 50
    rep = check_hypotheses(PotentialSpec(wells=wells))
    for verdict in (rep.h6, rep.h7, rep.h8):
        fails = verdict.status == "fails"
        assert fails == (len(verdict.violation_intervals) > 0)
        assert fails == (verdict.worst_margin < 0.0)
        for lo, hi in verdict.violation_intervals:
            assert lo < hi


def test_verdicts_agree_with_dense_scan(ex1, ex2, c1, c2):
    ys = np.linspace(0.0, 50.0, 100_001)
    for spec, c in ((ex1, c1), (ex2, c2)):
        rep = check_hypotheses(spec, constants=c)
        for name, verdict in (("f6", rep.h6), ("f7", rep.h7), ("f8", rep.h8)):
            margin = np.asarray(eval_f(spec, name, ys, c)) - (c.A0 + c.B0 * ys) ** 3
            inside = np.zeros(len(ys), dtype=bool)
            for lo, hi in verdict.violation_intervals:
                inside |= (ys >= lo) & (ys <= hi)
            assert not np.any((margin < -1e-8) & ~inside)
            assert not np.any((margin > 1e-8) & inside)
            assert verdict.worst_margin <= margin.min()


def test_violation_endpoints_bracket_sign_changes(ex2, c2):
    rep = check_hypotheses(ex2, constants=c2)
    for name, verdict in (("f7", rep.h7), ("f8", rep.h8)):
        for lo, hi in verdict.violation_intervals:
            def margin(y):
                return float(eval_f(ex2, name, y, c2)) - (c2.A0 + c2.B0 * y) ** 3
            assert margin(lo - 1e-7) > 0.0 > margin(lo + 1e-7)
            assert margin(hi - 1e-7) < 0.0 < margin(hi + 1e-7)


def test_comparison_functions_dominate_scaled_line():
    # for z3 <= 3|z1| all three comparison functions dominate A0 + K*A0*y
    from tripwell import PotentialSpec

    ys = np.linspace(0.0, 50.0, 5001)
    for z2 in (1.0 / 3.0, 0.5, 0.2):
        spec = PotentialSpec(wells=(-1.0, z2, 1.0))
        c = limit_constants(spec)
        assert spec.wells[2] <= 3.0 * abs(spec.wells[0])
        K = (c.z31 / c.z21) * ((c.E0 + c.E1) / c.E0) ** (2.0 / 3.0)
        line = c.A0 + K * c.A0 * ys
        for name in ("f6", "f7", "f8"):
            vals = np.asarray(eval_f(spec, name, ys, c)) ** (1.0 / 3.0)
            assert np.all(vals >= line - 1e-9)


def test_parameter_guards(ex1):
    for y_max in (5.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            check_hypotheses(ex1, y_max=y_max)
