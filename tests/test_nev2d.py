from functools import partial

import numpy as np
import pytest

from bischur import (
    ApproachPath,
    InternalInconsistencyError,
    InvalidInputError,
    ObstructionError,
    SynthesizedSchur,
    TwoVarNevRep,
    carapoint_at_infinity,
    desingularize,
    eval_h2,
    fit_colligation,
    nontangential_value,
    pick_value_from_schur,
    radial_liminf,
    rep_from_schur,
    schur_value_from_pick,
    to_bidisc,
    to_halfplane,
)
from bischur.desingularize import GeneralizedRealization
from bischur.generate import random_interior_point, random_nev_rep
from bischur.nev2d import VERIFICATION_GRID

from conftest import CHI, favourite_formula

HALF_REP = TwoVarNevRep(b=0.0, alpha=[1.0], B=[[0.0]], Y=[[0.5]])


def half_rep_h(z):
    return -2.0 / (z[0] + z[1])


class TestEvalH2:
    def test_half_rep_at_diagonal_i(self):
        assert eval_h2(HALF_REP, (1j, 1j)) == pytest.approx(1j)

    def test_half_rep_closed_form(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            z = (complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)),
                 complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)))
            assert abs(eval_h2(HALF_REP, z) - half_rep_h(z)) < 1e-12

    def test_growth_along_imaginary_diagonal(self):
        for y in (2.0, 8.0, 64.0):
            h = eval_h2(HALF_REP, (1j * y, 1j * y))
            assert y * h.imag == pytest.approx(1.0)

    def test_zero_alpha_gives_constant(self):
        rep = TwoVarNevRep(b=2.5, alpha=[0.0], B=[[1.0]], Y=[[0.3]])
        assert eval_h2(rep, (1j, 2j)) == pytest.approx(2.5)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(InvalidInputError):
            eval_h2(HALF_REP, (1j, -1j))

    def test_pick_positivity_random_reps(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            rep = random_nev_rep(rng, int(rng.integers(1, 5)))
            for _ in range(50):
                z = (complex(rng.uniform(-3, 3), rng.uniform(0.05, 3)),
                     complex(rng.uniform(-3, 3), rng.uniform(0.05, 3)))
                assert eval_h2(rep, z).imag >= -1e-12


class TestCarapointAtInfinity:
    def test_half_rep(self):
        report = carapoint_at_infinity(half_rep_h)
        assert report.finite
        assert report.limit == pytest.approx(1.0, abs=1e-8)
        assert report.value == pytest.approx(0.0, abs=1e-8)

    def test_linear_growth_is_rejected(self):
        report = carapoint_at_infinity(lambda z: (z[0] + z[1]) / 2.0)
        assert not report.finite

    def test_real_constant(self):
        report = carapoint_at_infinity(lambda z: -0.7)
        assert report.finite
        assert report.limit == pytest.approx(0.0, abs=1e-12)
        assert report.value == pytest.approx(-0.7, abs=1e-12)

    def test_limit_equals_alpha_norm_for_random_reps(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            rep = random_nev_rep(rng, int(rng.integers(1, 4)))
            report = carapoint_at_infinity(partial(eval_h2, rep))
            assert report.finite
            assert report.limit == pytest.approx(
                float(np.linalg.norm(rep.alpha) ** 2), abs=1e-6)


class TestCayleyMaps:
    def test_center_to_center(self):
        assert to_halfplane((0.0, 0.0)) == pytest.approx((1j, 1j))
        assert to_bidisc((1j, 1j)) == pytest.approx((0.0, 0.0))

    def test_involution_on_random_points(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            lam = random_interior_point(rng, 0.95)
            back = to_bidisc(to_halfplane(lam))
            assert abs(back[0] - lam[0]) < 1e-14 and abs(back[1] - lam[1]) < 1e-14
            w = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(schur_value_from_pick(pick_value_from_schur(w)) - w) < 1e-14

    def test_favourite_transforms_to_mean_of_coordinates(self):
        h = lambda z: pick_value_from_schur(favourite_formula(to_bidisc(z)))
        rng = np.random.default_rng(64)
        for _ in range(1000):
            z = (complex(rng.uniform(-4, 4), rng.uniform(0.1, 4)),
                 complex(rng.uniform(-4, 4), rng.uniform(0.1, 4)))
            assert abs(h(z) - (z[0] + z[1]) / 2.0) < 1e-10

    def test_half_rep_transforms_to_negated_favourite(self):
        phi = lambda lam: schur_value_from_pick(half_rep_h(to_halfplane(lam)))
        rng = np.random.default_rng(65)
        for _ in range(200):
            lam = random_interior_point(rng, 0.9)
            assert abs(phi(lam) + favourite_formula(lam)) < 1e-12
        value = nontangential_value(phi, ApproachPath.radial(CHI)).estimate
        assert value == pytest.approx(-1.0, abs=1e-8)


class TestRepFromSchur:
    def test_round_trip_through_fit_and_desingularization(self, favourite_measure):
        # h = -2/(z1+z2) corresponds to minus the favourite on the bidisc
        syn = SynthesizedSchur(favourite_measure, tau=CHI, omega=-1.0)
        g = desingularize(fit_colligation(syn), CHI)
        rep = rep_from_schur(g)
        assert rep.b == pytest.approx(0.0, abs=1e-10)
        assert np.linalg.norm(rep.alpha) ** 2 == pytest.approx(1.0, abs=1e-10)
        worst = max(abs(eval_h2(rep, z) - half_rep_h(z)) for z in VERIFICATION_GRID)
        assert worst < 1e-8
        rng = np.random.default_rng(66)
        for _ in range(50):
            z = (complex(rng.uniform(-2, 2), rng.uniform(0.3, 3)),
                 complex(rng.uniform(-2, 2), rng.uniform(0.3, 3)))
            assert abs(eval_h2(rep, z) - half_rep_h(z)) < 1e-8

    def test_obstruction_for_boundary_value_one(self, favourite_colligation):
        g = desingularize(favourite_colligation, CHI)
        with pytest.raises(ObstructionError):
            rep_from_schur(g)

    def test_unimodular_constant_function(self):
        # gamma = 0 with |a| = 1, a != 1: phi = a constant, h = i(1+a)/(1-a) real
        g = GeneralizedRealization(
            a=1j, beta=np.zeros(1), gamma=np.zeros(1), Q=np.array([[-1.0 + 0j]]),
            Y=np.array([[0.5 + 0j]]), tau=CHI, u_tau=np.zeros(1),
            model_basis=np.eye(1, dtype=complex),
            kernel_basis=np.zeros((1, 0), dtype=complex))
        rep = rep_from_schur(g)
        assert rep.b == pytest.approx(-1.0)  # i(1+i)/(1-i) = -1
        assert np.linalg.norm(rep.alpha) == pytest.approx(0.0, abs=1e-12)

    def test_strictly_contractive_constant_is_rejected(self):
        # |a| < 1 with gamma = 0 cannot come from a unitary realization and
        # its Pick transform i(1+a)/(1-a) is not real, so no resolvent data
        # exists; the non-unitary input is refused rather than regularized
        g = GeneralizedRealization(
            a=0.25, beta=np.zeros(1), gamma=np.zeros(1), Q=np.array([[0.0 + 0j]]),
            Y=np.array([[0.5 + 0j]]), tau=CHI, u_tau=np.zeros(1),
            model_basis=np.eye(1, dtype=complex),
            kernel_basis=np.zeros((1, 0), dtype=complex))
        with pytest.raises((InvalidInputError, InternalInconsistencyError)):
            rep_from_schur(g)

    def test_equivalence_chain_for_random_reps(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            rep = random_nev_rep(rng, 2)
            phi = lambda lam: schur_value_from_pick(eval_h2(rep, to_halfplane(lam)))
            liminf = radial_liminf(phi, ApproachPath.radial(CHI))
            assert liminf.converged and np.isfinite(liminf.estimate.real)
            value = nontangential_value(phi, ApproachPath.radial(CHI)).estimate
            assert abs(value - 1.0) > 1e-3

    def test_equivalence_chain_fails_together_for_the_favourite(self):
        # h = (z1+z2)/2: growth along iy diverges, the boundary value of the
        # Schur transform is 1, and (0,0) is not a carapoint of h(-1/z)
        h = lambda z: (z[0] + z[1]) / 2.0
        assert not carapoint_at_infinity(h).finite
        value = nontangential_value(favourite_formula, ApproachPath.radial(CHI)).estimate
        assert value == pytest.approx(1.0, abs=1e-8)
        etas = [2.0 ** -k for k in range(1, 12)]
        quotients = [h((1j / eta, 1j / eta)).imag / eta for eta in etas]
        assert all(b > a for a, b in zip(quotients, quotients[1:]))
        assert quotients[-1] > 1e5

    def test_pencil_cayley_identity_of_inner_function(self, favourite_measure):
        # i (1 + I(lam)) (1 - I(lam))^{-1} = z1 Y + z2 (1 - Y) at tau = (1, 1)
        from bischur import DiscreteMeasure01, eval_I
        rng = np.random.default_rng(69)
        nu = DiscreteMeasure01(((0.3, 0.8), (0.7, 0.5)))
        g = desingularize(fit_colligation(SynthesizedSchur(nu, tau=CHI, omega=-1.0)), CHI)
        eye = np.eye(g.dim)
        for _ in range(25):
            lam = random_interior_point(rng, 0.9)
            I = eval_I(g, lam)
            lhs = 1j * np.linalg.solve(eye - I, eye + I)
            z = to_halfplane(lam)
            rhs = z[0] * g.Y + z[1] * (eye - g.Y)
            assert np.linalg.norm(lhs - rhs, 2) < 1e-9

    def test_extraction_from_random_desingularizations_at_chi(self):
        # the compressed realization at (1, 1) is unitary whenever the source
        # is, so the Hermitian Cayley data must reproduce the Pick transform
        from bischur import eval_phi
        from bischur.generate import random_colligation_with_kernel
        rng = np.random.default_rng(77)
        done = 0
        while done < 5:
            c = random_colligation_with_kernel(rng, int(rng.integers(2, 4)), 1, CHI)
            g = desingularize(c, CHI)
            rep = rep_from_schur(g)  # runs its own verification grid
            phi = partial(eval_phi, c)
            for _ in range(10):
                z = (complex(rng.uniform(-2, 2), rng.uniform(0.3, 3)),
                     complex(rng.uniform(-2, 2), rng.uniform(0.3, 3)))
                target = pick_value_from_schur(phi(to_bidisc(z)))
                assert abs(eval_h2(rep, z) - target) < 1e-8
            done += 1

    def test_round_trip_from_scaled_scalar_reps(self):
        # b = 0, Y = 1/2 gives h = -||alpha||^2 2/(z1+z2), whose Schur
        # transform is the omega = -1 synthesis of the scaled half-atom
        from bischur import DiscreteMeasure01, synth_eval
        for scale in (0.5, 2.0):
            rep0 = TwoVarNevRep(b=0.0, alpha=[np.sqrt(scale)], B=[[0.0]], Y=[[0.5]])
            syn = SynthesizedSchur(DiscreteMeasure01(((0.5, scale),)), tau=CHI,
                                   omega=-1.0)
            phi_direct = lambda lam: schur_value_from_pick(eval_h2(rep0, to_halfplane(lam)))
            rng = np.random.default_rng(68)
            for _ in range(20):
                lam = random_interior_point(rng, 0.9)
                assert abs(phi_direct(lam) - synth_eval(syn, lam)) < 1e-10
            g = desingularize(fit_colligation(syn), CHI)
            rep1 = rep_from_schur(g)
            for z in VERIFICATION_GRID:
                assert abs(eval_h2(rep1, z) - eval_h2(rep0, z)) < 1e-7
