from functools import partial

import numpy as np
import pytest

from bischur import (
    DivergenceError,
    InvalidInputError,
    eval_phi,
    directional_derivative_numeric,
    is_carapoint,
    model_liminf,
    nontangential_value,
    radial_liminf,
)
from bischur import boundary
from bischur.boundary import STEPS, _quotient
from bischur.slope import _line
from bischur.points import require_torus, to_circle
from bischur.generate import (
    random_colligation,
    random_colligation_with_kernel,
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


def radial_points(tau, monkeypatch):
    """The points at which radial_liminf samples phi along the radius to tau,
    every step read."""
    monkeypatch.setattr(boundary, "LIMINF_TOL", -1.0)
    points = []

    def phi(lam):
        points.extend(zip(*lam))
        return np.ones(len(lam[0]))

    radial_liminf(phi, tau)
    return points


class TestApproachPath:
    """The two approaches to a torus point: the radius of the black-box
    limits and the lines of the directional derivatives."""

    def test_radial_points_stay_inside(self, monkeypatch):
        points = radial_points(CHI, monkeypatch)
        assert points == [(1.0 - t, 1.0 - t) for t in STEPS]
        assert all(max(abs(w) for w in point) < 1.0 for point in points)

    def test_outward_direction_rejected(self):
        with pytest.raises(InvalidInputError, match="direction must satisfy"):
            directional_derivative_numeric(favourite_formula, CHI, [(-1.0, 1.0)], 1.0)

    def test_steps_leaving_bidisc_are_dropped(self):
        delta, steps = _line(CHI, (1.0, 2.0))
        assert max(steps) <= 0.5
        assert all(max(abs(1.0 - t * d) for d in delta) < 1.0 for t in steps)

    def test_point_off_the_torus_rejected(self):
        for limit in (radial_liminf, nontangential_value):
            with pytest.raises(InvalidInputError, match="is not on the torus"):
                limit(favourite_formula, (1j, 0.3))
        with pytest.raises(InvalidInputError, match="is not on the torus"):
            directional_derivative_numeric(favourite_formula, (1j, 0.3), [(1j, 1)], 1.0)

    def test_point_near_the_torus_is_put_on_it(self, monkeypatch):
        tau = (1.0000000000009, complex(0.0, -0.9999999999991))
        points = radial_points(tau, monkeypatch)
        # every step stays inside, and the radius ends at the torus point
        assert len(points) == len(STEPS)
        assert all(max(abs(w) for w in point) < 1.0 for point in points)
        assert require_torus(tau) == (1.0, -1j)
        assert max(abs(w - t) for w, t in zip(points[-1], (1.0, -1j))) < 1e-11

    @pytest.mark.parametrize("z", [1.0, -1.0, 1j, complex(-0.0, 1.0), complex(-1.0, -0.0),
                                   complex(0.6, 0.8), np.exp(2.5j)])
    def test_unimodular_coordinates_keep_their_bits(self, z):
        assert abs(z) == 1.0
        tau = to_circle(z), require_torus((z, 1.0))[0]
        assert [repr(t) for t in tau] == [repr(complex(z))] * 2

    def test_steps_are_python_floats(self):
        # a line drops the steps that leave the bidisc and keeps the others
        # as they are, so its quotients divide by the floats of STEPS
        delta, steps = _line(CHI, (1.0, 4.0))
        assert delta == (1.0, 4.0) and steps.tolist() == STEPS[1:].tolist()
        report, = directional_derivative_numeric(lambda lam: lam[0], CHI, [delta], 1.0)
        assert report.samples[0] == (1.0 - steps[0] - 1.0) / float(steps[0])
        assert all(type(t) is float for t in steps.tolist())


class TestRadialLiminf:
    def test_favourite_at_chi(self):
        report = radial_liminf(favourite_formula, CHI)
        assert report.converged
        assert report.estimate.real == pytest.approx(1.0, abs=1e-8)

    def test_unimodular_constant(self):
        report = radial_liminf(lambda lam: 1.0, CHI)
        assert report.estimate.real == pytest.approx(0.0, abs=1e-12)

    def test_mean_function(self):
        report = radial_liminf(lambda lam: (lam[0] + lam[1]) / 2, CHI)
        assert report.estimate.real == pytest.approx(1.0, abs=1e-8)

    def test_divergence_signals_no_carapoint_evidence(self):
        # |phi| < 1 constant has unbounded Julia quotient at the boundary
        with pytest.raises(DivergenceError):
            radial_liminf(lambda lam: 0.0, CHI)


class TestModelLiminf:
    def test_favourite_at_chi(self, favourite_colligation):
        report = model_liminf(favourite_colligation, CHI)
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
            report = model_liminf(c, tau)
            assert report.converged
            assert abs(report.estimate.real - norm_sq) < 1e-8 * (1.0 + norm_sq)

    def test_agrees_with_radial_liminf_along_the_radius(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            tau = random_torus_point(rng)
            c = random_colligation_with_kernel(rng, 3, 1, tau)
            model = model_liminf(c, tau).estimate.real
            direct = radial_liminf(partial(eval_phi, c), tau).estimate.real
            assert model == pytest.approx(direct, rel=1e-6)

    def test_a_group_is_refused_unless_one_carapoint_per_colligation_of_one_dimension(self):
        rng = np.random.default_rng(21)
        c2, c2b, c3 = (random_colligation(rng, n) for n in (2, 2, 3))
        for cs, taus in [([c2, c2b], [CHI]), ([c2], [CHI, CHI]), ([c2, c3], [CHI, CHI]),
                         ([c2, c2b], [CHI, (1.0, 0.5)])]:
            with pytest.raises(InvalidInputError):
                model_liminf(cs, taus)

    def test_off_torus_point_is_refused(self, favourite_colligation):
        with pytest.raises(InvalidInputError, match="not on the torus"):
            model_liminf(favourite_colligation, (1.0, 0.5))


class TestNontangentialValue:
    def test_favourite_at_chi(self):
        report = nontangential_value(favourite_formula, CHI)
        assert report.estimate == pytest.approx(1.0, abs=1e-9)

    def test_path_independence_at_carapoint(self):
        # a difference quotient from the radial value converges along a line
        # only if phi tends to that value along it too
        value = nontangential_value(favourite_formula, CHI).estimate
        assert abs(value - 1.0) < 1e-6
        for report in directional_derivative_numeric(
                favourite_formula, CHI, [(1.0, 2.0), (1.0 + 0.4j, 1.0)], value):
            assert report.converged


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
            report = radial_liminf(partial(eval_phi, c), tau)
            assert report.estimate.real == pytest.approx(
                np.linalg.norm(witness) ** 2, abs=1e-6)
        assert found >= 5

    def test_interior_point_rejected(self, favourite_colligation):
        with pytest.raises(InvalidInputError):
            is_carapoint(favourite_colligation, (0.5, 1.0))
