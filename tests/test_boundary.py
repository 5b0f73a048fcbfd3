from functools import partial

import numpy as np
import pytest

from bischur import (
    ApproachPath,
    DivergenceError,
    InvalidInputError,
    eval_phi,
    is_carapoint,
    model_liminf,
    nontangential_value,
    radial_liminf,
)
from bischur.boundary import STEPS, _quotient
from bischur.generate import (
    random_colligation,
    random_colligation_with_kernel,
    random_inward_direction,
    random_torus_point,
)

from conftest import CHI, favourite_formula


def julia_quotient(phi, lam):
    """The Julia quotient of phi at the point lam, as radial_liminf forms it."""
    return float(_quotient(phi(lam), lam))


class TestJuliaQuotient:
    def test_favourite_on_diagonal(self):
        assert julia_quotient(favourite_formula, (0.9, 0.9)) == pytest.approx(1.0)

    def test_zero_function(self):
        assert julia_quotient(lambda lam: 0.0, (0.5, 0.0)) == pytest.approx(4.0 / 3.0)

    def test_product_function(self):
        q = julia_quotient(lambda lam: lam[0] * lam[1], (0.9, 0.9))
        assert q == pytest.approx(1.81)

    def test_factor_two_sandwich_with_unsquared_quotient(self):
        # (1-|phi|)/(1-||lam||) and the squared quotient differ by a factor
        # (1+|phi|)/(1+||lam||) in [1/2, 2], so either bounds the other
        rng = np.random.default_rng(0)
        for _ in range(200):
            lam = (rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                   rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            value = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            squared = julia_quotient(lambda _lam: value, lam)
            plain = (1 - abs(value)) / (1 - max(abs(lam[0]), abs(lam[1])))
            assert plain <= 2.0 * squared + 1e-12
            assert squared <= 2.0 * plain + 1e-12


class TestApproachPath:
    def test_radial_points_stay_inside(self):
        path = ApproachPath.radial(CHI)
        for t in path.steps:
            assert max(abs(w) for w in path.point(t)) < 1.0

    def test_outward_direction_rejected(self):
        with pytest.raises(InvalidInputError):
            ApproachPath(CHI, (-1.0, 1.0))

    def test_steps_leaving_bidisc_are_dropped(self):
        path = ApproachPath(CHI, (1.0, 2.0))
        assert max(path.steps) <= 0.5
        assert all(max(abs(w) for w in path.point(t)) < 1.0 for t in path.steps)

    def test_point_off_the_torus_rejected(self):
        with pytest.raises(InvalidInputError, match="is not on the torus"):
            ApproachPath((1j, 0.3), (1j, 1))

    def test_steps_are_python_floats(self):
        path = ApproachPath(CHI, (1.0, 4.0))
        assert path.steps == tuple(STEPS[1:])
        assert all(type(t) is float for t in path.steps)


class TestRadialLiminf:
    def test_favourite_at_chi(self):
        report = radial_liminf(favourite_formula, ApproachPath.radial(CHI))
        assert report.converged
        assert report.estimate.real == pytest.approx(1.0, abs=1e-8)

    def test_unimodular_constant(self):
        report = radial_liminf(lambda lam: 1.0, ApproachPath.radial(CHI))
        assert report.estimate.real == pytest.approx(0.0, abs=1e-12)

    def test_mean_function(self):
        report = radial_liminf(lambda lam: (lam[0] + lam[1]) / 2, ApproachPath.radial(CHI))
        assert report.estimate.real == pytest.approx(1.0, abs=1e-8)

    def test_divergence_signals_no_carapoint_evidence(self):
        # |phi| < 1 constant has unbounded Julia quotient at the boundary
        with pytest.raises(DivergenceError):
            radial_liminf(lambda lam: 0.0, ApproachPath.radial(CHI))


class TestModelLiminf:
    def test_favourite_at_chi(self, favourite_colligation):
        report = model_liminf(favourite_colligation, ApproachPath.radial(CHI))
        assert report.converged
        assert report.estimate.real == pytest.approx(1.0, abs=1e-9)

    def test_radial_limit_is_the_witness_norm(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            tau = random_torus_point(rng)
            c = random_colligation_with_kernel(rng, int(rng.integers(2, 5)),
                                               int(rng.integers(1, 3)), tau)
            _, witness = is_carapoint(c, tau)
            norm_sq = np.linalg.norm(witness) ** 2
            report = model_liminf(c, ApproachPath.radial(tau))
            assert report.converged
            assert abs(report.estimate.real - norm_sq) < 1e-8 * (1.0 + norm_sq)

    def test_agrees_with_radial_liminf_along_a_nontangential_path(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            tau = random_torus_point(rng)
            c = random_colligation_with_kernel(rng, 3, 1, tau)
            path = ApproachPath(tau, random_inward_direction(rng, tau))
            model = model_liminf(c, path).estimate.real
            direct = radial_liminf(partial(eval_phi, c), path).estimate.real
            assert model == pytest.approx(direct, rel=1e-6)


class TestNontangentialValue:
    def test_favourite_at_chi(self):
        report = nontangential_value(favourite_formula, ApproachPath.radial(CHI))
        assert report.estimate == pytest.approx(1.0, abs=1e-9)

    def test_path_independence_at_carapoint(self):
        r1 = nontangential_value(favourite_formula, ApproachPath(CHI, (1.0, 2.0)))
        r2 = nontangential_value(favourite_formula, ApproachPath(CHI, (1.0 + 0.4j, 1.0)))
        assert abs(r1.estimate - r2.estimate) < 1e-6
        assert abs(r1.estimate - 1.0) < 1e-6


class TestIsCarapoint:
    def test_favourite_at_chi(self, favourite_colligation):
        ok, witness = is_carapoint(favourite_colligation, CHI)
        assert ok
        assert np.linalg.norm(witness) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_favourite_at_minus_chi_regular(self, favourite_colligation):
        ok, _ = is_carapoint(favourite_colligation, (-1.0, -1.0))
        assert ok  # the function is analytic there, hence trivially a carapoint
        assert abs(favourite_formula((-0.999, -0.999))) < 1.0

    def test_coordinate_function_on_torus(self, coordinate_colligation):
        ok, witness = is_carapoint(coordinate_colligation, (1.0, 1j))
        assert ok
        assert np.linalg.norm(witness) ** 2 == pytest.approx(1.0)

    def test_witness_norm_matches_radial_liminf(self):
        rng = np.random.default_rng(9)
        found = 0
        for _ in range(10):
            c = random_colligation(rng, 3)
            tau = random_torus_point(rng)
            ok, witness = is_carapoint(c, tau)
            if not ok:
                continue
            found += 1
            report = radial_liminf(partial(eval_phi, c), ApproachPath.radial(tau))
            assert report.estimate.real == pytest.approx(
                np.linalg.norm(witness) ** 2, abs=1e-6)
        assert found >= 5

    def test_interior_point_rejected(self, favourite_colligation):
        with pytest.raises(InvalidInputError):
            is_carapoint(favourite_colligation, (0.5, 1.0))
