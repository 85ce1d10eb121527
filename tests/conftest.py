import numpy as np
import pytest

from tripwell import PotentialSpec, limit_constants
from tripwell.microstructure import (
    build_h7_competitor,
    build_h8_competitor,
    build_three_well_profile,
    build_two_well_sawtooth,
)

# exact interface energies from the hand-expanded cubic antiderivatives:
# on (z1, z2) the integrand is (s-z1)(z2-s)(z3-s); integrating the expanded
# polynomial and evaluating at the wells gives rational values.
EX1_E0_EXACT = 256.0 / 243.0
EX1_E1_EXACT = 40.0 / 243.0
EX2_E0_EXACT = 45.0 / 32.0
EX2_E1_EXACT = 7.0 / 96.0


@pytest.fixture(scope="session")
def ex1():
    return PotentialSpec(wells=(-1.0, 1.0 / 3.0, 1.0))


@pytest.fixture(scope="session")
def ex2():
    return PotentialSpec(wells=(-1.0, 0.5, 1.0))


@pytest.fixture(scope="session")
def c1(ex1):
    return limit_constants(ex1)


@pytest.fixture(scope="session")
def c2(ex2):
    return limit_constants(ex2)


@pytest.fixture(scope="session")
def two_well_ladder(ex1, c1):
    """Default two-well profiles on the acceptance eps ladder."""
    return {eps: build_two_well_sawtooth(ex1, eps, constants=c1)
            for eps in (0.1, 0.07, 0.05)}


@pytest.fixture(scope="session")
def three_well_005(ex1, c1):
    return build_three_well_profile(ex1, 0.05, constants=c1)


@pytest.fixture(scope="session")
def h7_005(ex2, c2):
    return build_h7_competitor(ex2, 0.05, 0.585, constants=c2)


@pytest.fixture(scope="session")
def h8_005(ex2, c2):
    return build_h8_competitor(ex2, 0.05, 0.204, constants=c2)


class QuadraticDensity:
    """Convex stand-in density for decoupled minimizer checks."""

    def W(self, s, out=None):
        return np.square(s, out=out)

    def dW(self, s, out=None):
        return np.multiply(s, 2.0, out=out)


@pytest.fixture()
def quadratic_density():
    return QuadraticDensity()
