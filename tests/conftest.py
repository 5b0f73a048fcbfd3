import numpy as np
import pytest

from bischur import Colligation, DiscreteMeasure01, SynthesizedSchur, fit_colligation

CHI = (1.0 + 0j, 1.0 + 0j)


def favourite_formula(lam):
    """(l1/2 + l2/2 - l1 l2) / (1 - l1/2 - l2/2), the running example."""
    l1, l2 = lam
    return (0.5 * l1 + 0.5 * l2 - l1 * l2) / (1.0 - 0.5 * l1 - 0.5 * l2)


@pytest.fixture(scope="session")
def favourite_colligation():
    """Exact 2-dimensional realization of the favourite function."""
    s = 1.0 / np.sqrt(2.0)
    return Colligation(
        a=0.0,
        beta=[s, s],
        gamma=[s, s],
        D=[[0.5, -0.5], [-0.5, 0.5]],
        P1=[[1.0, 0.0], [0.0, 0.0]],
    )


@pytest.fixture(scope="session")
def favourite_measure():
    return DiscreteMeasure01(((0.5, 1.0),))


@pytest.fixture(scope="session")
def fitted_favourite(favourite_measure):
    """Exact colligation of the favourite, built by synthesis from its measure."""
    return fit_colligation(SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0))


@pytest.fixture(scope="session")
def coordinate_colligation():
    """One-dimensional realization of phi(lam) = lam_1."""
    return Colligation(a=0.0, beta=[1.0], gamma=[1.0], D=[[0.0]], P1=[[1.0]])
