import numpy as np
import pytest

from bischur import (
    Colligation,
    NotAnIsometryError,
    eval_phi,
    model_residual,
    model_vector,
    structure_check,
    unitary_extension,
)
from bischur.generate import random_colligation, random_interior_point, random_interior_points

from conftest import favourite_formula


class TestEvalPhi:
    def test_value_at_origin_is_a(self):
        rng = np.random.default_rng(0)
        c = random_colligation(rng, 3)
        assert eval_phi(c, (0.0, 0.0)) == pytest.approx(c.a, abs=1e-14)

    def test_favourite_at_half_half(self, favourite_colligation):
        assert eval_phi(favourite_colligation, (0.5, 0.5)) == pytest.approx(0.5, abs=1e-13)

    def test_favourite_diagonal_identity(self, favourite_colligation):
        assert eval_phi(favourite_colligation, (0.9, 0.9)) == pytest.approx(0.9, abs=1e-13)

    def test_schur_bound_for_random_colligations(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = random_colligation(rng, int(rng.integers(1, 5)))
            for _ in range(10):
                assert abs(eval_phi(c, random_interior_point(rng))) <= 1.0 + 1e-9

    def test_boundary_points_rejected(self, favourite_colligation):
        from bischur import InvalidInputError
        with pytest.raises(InvalidInputError):
            eval_phi(favourite_colligation, (1.0, 0.5))


class TestModelVector:
    def test_origin_gives_gamma(self):
        rng = np.random.default_rng(2)
        c = random_colligation(rng, 4)
        assert np.allclose(model_vector(c, (0.0, 0.0)), c.gamma, atol=1e-14)

    def test_defining_residual(self):
        rng = np.random.default_rng(3)
        c = random_colligation(rng, 4)
        lam = random_interior_point(rng)
        u = model_vector(c, lam)
        residual = np.linalg.norm(c.gamma + c.D @ c.pencil(lam) @ u - u)
        assert residual < 1e-10

    def test_favourite_diagonal_norm_is_julia_quotient(self, favourite_colligation):
        u = model_vector(favourite_colligation, (0.9, 0.9))
        assert np.linalg.norm(u) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestModelResidual:
    def test_origin_pair_reflects_unitary_first_column(self):
        rng = np.random.default_rng(4)
        c = random_colligation(rng, 3)
        assert model_residual(c, (0.0, 0.0), (0.0, 0.0)) < 1e-14

    def test_random_pairs_for_unitary_realizations(self):
        rng = np.random.default_rng(5)
        c = random_colligation(rng, 4)
        for _ in range(100):
            lam, mu = random_interior_point(rng, 0.9), random_interior_point(rng, 0.9)
            assert model_residual(c, lam, mu) < 1e-10

    def test_scaled_realization_is_detected(self):
        rng = np.random.default_rng(6)
        c = random_colligation(rng, 3)
        broken = Colligation(a=1.01 * c.a, beta=1.01 * c.beta, gamma=1.01 * c.gamma,
                             D=1.01 * c.D, P1=c.P1)
        worst = max(
            model_residual(broken, random_interior_point(rng, 0.8), random_interior_point(rng, 0.8))
            for _ in range(20)
        )
        assert worst > 1e-3


class TestUnitaryExtension:
    def test_identity_columns(self):
        U = unitary_extension(np.eye(3), np.eye(3))
        assert np.allclose(U, np.eye(3), atol=1e-12)

    def test_permutation_case(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        U = unitary_extension(e1, e2)
        assert structure_check(U, "unitary").ok
        assert np.allclose(U @ e1, e2, atol=1e-12)

    def test_gramian_mismatch_raises(self):
        with pytest.raises(NotAnIsometryError) as err:
            unitary_extension(np.eye(2), 2.0 * np.eye(2))
        assert err.value.deviation == pytest.approx(3.0)

    def test_round_trip_through_known_realization(self):
        rng = np.random.default_rng(7)
        c = random_colligation(rng, 3)
        n = c.dim
        domain = np.zeros((n + 1, 20), dtype=complex)
        target = np.zeros((n + 1, 20), dtype=complex)
        for k in range(20):
            lam = random_interior_point(rng, 0.8)
            u = model_vector(c, lam)
            domain[0, k] = 1.0
            domain[1:, k] = c.pencil(lam) @ u
            target[0, k] = eval_phi(c, lam)
            target[1:, k] = u
        U = unitary_extension(domain, target)
        assert structure_check(U, "unitary").residual < 1e-9
        recovered = Colligation(a=U[0, 0], beta=U[0, 1:].conj(), gamma=U[1:, 0],
                                D=U[1:, 1:], P1=c.P1)
        worst = 0.0
        for _ in range(100):
            lam = random_interior_point(rng, 0.9)
            worst = max(worst, abs(eval_phi(recovered, lam) - eval_phi(c, lam)))
        assert worst < 1e-8


class TestFittedFavourite:
    def test_agrees_with_closed_form_on_thousand_points(self, fitted_favourite):
        lam = random_interior_points(np.random.default_rng(8), 1000, 0.95)
        assert np.abs(eval_phi(fitted_favourite, lam) - favourite_formula(lam)).max() < 1e-8

    def test_structural_invariants(self, fitted_favourite):
        residuals = fitted_favourite.validate()
        assert max(residuals.values()) < 1e-9
