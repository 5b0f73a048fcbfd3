import warnings
from functools import partial

import numpy as np
import pytest

from bischur import (
    ApproachPath,
    BoundarySingularityError,
    Colligation,
    DiscreteMeasure01,
    GeneralizedRealization,
    InternalInconsistencyError,
    IllConditionedError,
    PreconditionError,
    SlopePair,
    SynthesizedSchur,
    Tolerances,
    UseLimitError,
    desingularize,
    eval_I,
    eval_phi,
    eval_phi_gen,
    fit_colligation,
    model_residual,
    nontangential_value,
    quadrature_log_check,
    slope_eval,
    structure_check,
    u_vector,
)
from bischur.desingularize import _consistency_checks
from bischur.generate import (
    random_colligation_with_kernel,
    random_interior_point,
    random_torus_point,
    random_unitary,
)

from conftest import CHI, favourite_formula


def torus_sample_away_from(rng, tau, margin=0.2):
    while True:
        lam = (np.exp(1j * rng.uniform(0, 2 * np.pi)),
               np.exp(1j * rng.uniform(0, 2 * np.pi)))
        if abs(lam[0] - tau[0]) > margin and abs(lam[1] - tau[1]) > margin:
            return lam


class TestDesingularize:
    def test_favourite_slope_pair(self, favourite_colligation):
        g = desingularize(favourite_colligation, CHI)
        assert g.kernel_dim == 1 and g.dim == 1
        pair = SlopePair.from_realization(g)
        for z in (1.0, 1j, 2.0 + 1j):
            assert slope_eval(pair, z) == pytest.approx(-2.0 / (1.0 + z), abs=1e-12)

    def test_invariants_of_realization(self, favourite_colligation):
        g = desingularize(favourite_colligation, CHI)
        assert structure_check(g.Y, "positive_contraction").ok
        assert structure_check(g.Q, "contraction").ok
        # trivial kernel of 1 - Q
        s = np.linalg.svd(np.eye(g.dim) - g.Q, compute_uv=False)
        assert s[-1] > 1e-10
        assert np.linalg.norm((np.eye(g.dim) - g.Q) @ g.u_tau - g.gamma) < 1e-10

    def test_coordinate_function_trivial_kernel(self, coordinate_colligation):
        g = desingularize(coordinate_colligation, CHI)
        assert g.kernel_dim == 0
        assert np.allclose(g.Y, [[1.0]])
        lam = (0.3 + 0.2j, -0.4 + 0.1j)
        assert eval_I(g, lam)[0, 0] == pytest.approx(lam[0], abs=1e-14)

    def test_engineered_double_kernel(self):
        rng = np.random.default_rng(21)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, 3, 2, tau)
        g = desingularize(c, tau)
        assert g.kernel_dim == 2 and g.dim == 3
        assert structure_check(g.Y, "positive_contraction").ok
        assert structure_check(g.Q, "contraction").ok
        # u_tau is orthogonal to the kernel in ambient coordinates
        ambient = g.model_basis @ g.u_tau
        assert np.abs(g.kernel_basis.conj().T @ ambient).max() < 1e-10

    def test_near_kernel_produces_a_note(self):
        # eigenvalue 1 - 1e-8 of D at chi sits just above the rank cutoff
        eps = 1e-8
        b = np.sqrt(2 * eps - eps * eps)
        from bischur import Colligation
        c = Colligation(a=-(1 - eps), beta=[b, 0.0], gamma=[b, 0.0],
                        D=[[1 - eps, 0.0], [0.0, -1.0]], P1=np.eye(2))
        c.validate()
        with pytest.warns(UserWarning):
            g = desingularize(c, CHI)
        assert g.notes
        assert g.kernel_dim == 0

    def test_not_a_carapoint_raises(self):
        # for a unitary L the kernel of 1 - D tau reduces D tau, so gamma is
        # always in the range; a genuine failure needs non-unitary data
        from bischur import Colligation
        broken = Colligation(a=0.0, beta=[0.0, 1.0], gamma=[1.0, 0.0],
                             D=[[1.0, 0.0], [0.0, 0.0]], P1=np.eye(2))
        with pytest.raises(PreconditionError):
            desingularize(broken, CHI)


class TestBoundaryValue:
    """phi(tau) = a + <u_tau, beta>, since (1 - Q) u_tau = gamma and I(tau) = 1."""

    @staticmethod
    def closed_form(c, tau):
        g = desingularize(c, tau)
        closed = g.a + g.u_tau @ g.beta.conj()
        radial = nontangential_value(partial(eval_phi, c), ApproachPath.radial(tau))
        assert abs(closed - radial.estimate) < 1e-10
        return closed

    @pytest.mark.parametrize("seed", range(8))
    def test_random_colligations_with_kernel(self, seed):
        rng = np.random.default_rng(40 + seed)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, int(rng.integers(2, 5)),
                                           int(rng.integers(1, 3)), tau)
        self.closed_form(c, tau)

    @pytest.mark.parametrize("n_atoms", [1, 3, 8])
    @pytest.mark.parametrize("tau, omega", [(CHI, 1.0), ((-1.0, 1j), -1.0),
                                            ((1j, -1j), np.exp(0.7j))])
    def test_exact_synthesized_colligations(self, n_atoms, tau, omega):
        rng = np.random.default_rng(n_atoms)
        nu = DiscreteMeasure01(tuple(zip(rng.uniform(size=n_atoms),
                                         rng.uniform(0.1, 2.0, size=n_atoms))))
        c = fit_colligation(SynthesizedSchur(nu, tau, omega))
        assert abs(self.closed_form(c, tau) - omega) < 1e-13


class TestEvalI:
    def test_radial_identity(self):
        rng = np.random.default_rng(23)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, 3, 1, tau)
        g = desingularize(c, tau)
        for t in 2.0 ** -np.arange(1, 9):
            lam = ((1 - t) * tau[0], (1 - t) * tau[1])
            dev = np.abs(eval_I(g, lam) - (1 - t) * np.eye(g.dim)).max()
            assert dev < 1e-12

    def test_scalar_half_matches_favourite(self, favourite_colligation):
        g = desingularize(favourite_colligation, CHI)
        assert np.allclose(g.Y, [[0.5]], atol=1e-12)
        assert eval_I(g, (0.5, 0.5))[0, 0] == pytest.approx(0.5, abs=1e-13)
        rng = np.random.default_rng(24)
        for _ in range(50):
            lam = random_interior_point(rng, 0.9)
            assert eval_I(g, lam)[0, 0] == pytest.approx(
                favourite_formula(lam), abs=1e-12)

    def test_contractive_inside_and_inner_on_torus(self):
        rng = np.random.default_rng(25)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, 3, 2, tau)
        g = desingularize(c, tau)
        eye = np.eye(g.dim)
        for _ in range(20):
            lam = random_interior_point(rng, 0.95)
            assert np.linalg.norm(eval_I(g, lam), 2) <= 1.0 + 1e-12
        for _ in range(20):
            lam = torus_sample_away_from(rng, tau)
            I = eval_I(g, lam)
            assert np.linalg.norm(I.conj().T @ I - eye, 2) < 1e-9

    def test_approach_to_one_is_lipschitz_radially(self):
        # along the radial path ||I - 1|| = t = (c/2) ||lam - tau|| with c = sqrt(2)
        rng = np.random.default_rng(26)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, 2, 1, tau)
        g = desingularize(c, tau)
        eye = np.eye(g.dim)
        for t in (0.25, 0.0625, 2.0 ** -8):
            lam = ((1 - t) * tau[0], (1 - t) * tau[1])
            gap = np.linalg.norm(eval_I(g, lam) - eye, 2)
            dist = np.linalg.norm(np.asarray(lam) - np.asarray(tau))
            assert gap <= 0.5 * np.sqrt(2.0) * dist * (1 + 1e-9)


class TestUVector:
    def test_origin_gives_gamma(self, favourite_colligation):
        g = desingularize(favourite_colligation, CHI)
        assert np.allclose(u_vector(g, (0.0, 0.0)), g.gamma, atol=1e-14)

    def test_radial_continuity_to_u_tau(self):
        rng = np.random.default_rng(27)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, 3, 1, tau)
        g = desingularize(c, tau)
        ts = 2.0 ** -np.arange(1, 21)
        diffs = [np.linalg.norm(u_vector(g, ((1 - t) * tau[0], (1 - t) * tau[1])) - g.u_tau)
                 for t in ts]
        assert diffs[-1] < 1e-5
        # bounded difference quotient: ||u_t - u_tau|| <= C t
        assert max(d / t for d, t in zip(diffs, ts)) < 1e3

    def test_favourite_diagonal_norm(self, favourite_colligation):
        g = desingularize(favourite_colligation, CHI)
        for r in (0.1, 0.5, 0.9):
            u = u_vector(g, (r, r))
            assert np.linalg.norm(u) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestEvalPhiGen:
    def test_origin(self, favourite_colligation):
        g = desingularize(favourite_colligation, CHI)
        assert eval_phi_gen(g, (0.0, 0.0)) == pytest.approx(g.a, abs=1e-14)

    def test_equivalence_with_source(self):
        rng = np.random.default_rng(28)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, 3, 2, tau)
        g = desingularize(c, tau)
        for _ in range(100):
            lam = random_interior_point(rng, 0.9)
            assert abs(eval_phi_gen(g, lam) - eval_phi(c, lam)) < 1e-9

    def test_favourite_near_chi(self, favourite_colligation):
        g = desingularize(favourite_colligation, CHI)
        assert eval_phi_gen(g, (0.9, 0.9)) == pytest.approx(0.9, abs=1e-12)

    def test_model_identity_for_generalized_model(self):
        rng = np.random.default_rng(29)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, 2, 2, tau)
        g = desingularize(c, tau)
        from bischur import eval_I as I_of, u_vector as u_of
        for _ in range(30):
            lam, mu = random_interior_point(rng, 0.85), random_interior_point(rng, 0.85)
            p_lam, p_mu = eval_phi_gen(g, lam), eval_phi_gen(g, mu)
            u_lam, u_mu = u_of(g, lam), u_of(g, mu)
            I_lam, I_mu = I_of(g, lam), I_of(g, mu)
            lhs = 1.0 - np.conj(p_mu) * p_lam
            rhs = np.vdot(u_mu, u_lam) - np.vdot(I_mu @ u_mu, I_lam @ u_lam)
            assert abs(lhs - rhs) < 1e-9



class TestSharedKernel:
    """The colligation kernel evaluates generalized realizations too."""

    def test_model_residual_of_generalized_models(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            tau = random_torus_point(rng)
            c = random_colligation_with_kernel(rng, int(rng.integers(2, 5)),
                                               int(rng.integers(1, 3)), tau)
            g = desingularize(c, tau)
            for _ in range(5):
                lam, mu = random_interior_point(rng, 0.85), random_interior_point(rng, 0.85)
                assert model_residual(g, lam, mu) < 1e-9

    def test_condition_guard_of_generalized_model(self):
        # the favourite plus a decoupled state with D = -1 on the first
        # coordinate: 1 - Q I(lam) is singular where lam_1 = -1, a point
        # the desingularization at (1, 1) leaves in place
        s = 1.0 / np.sqrt(2.0)
        c = Colligation(a=0.0, beta=[s, s, 0.0], gamma=[s, s, 0.0],
                        D=[[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, -1.0]],
                        P1=np.diag([1.0, 0.0, 1.0]))
        g = desingularize(c, CHI)
        tight = Tolerances(solve_cond_max=1e3)
        lam = (-1.0 + 1e-5, 0.0)
        for evaluate in (eval_phi_gen, u_vector):
            with pytest.raises(IllConditionedError) as err:
                evaluate(g, lam, tight)
            assert err.value.cond > 1e4
        assert eval_phi_gen(g, lam) == pytest.approx(eval_phi(c, lam), abs=1e-12)
        # near tau itself the desingularized resolvent stays well conditioned
        near_tau = (1.0 - 1e-5, 1.0 - 1e-5)
        assert eval_phi_gen(g, near_tau, tight) == pytest.approx(
            favourite_formula(near_tau), abs=1e-9)


def inner_model(Y):
    """A generalized realization at tau = (1, 1) that only carries Y, the
    datum the inner function is built from."""
    n = Y.shape[0]
    zero = np.zeros(n, dtype=complex)
    return GeneralizedRealization(
        a=0.0, beta=zero, gamma=zero, Q=np.zeros((n, n)), Y=Y, tau=CHI, u_tau=zero,
        model_basis=np.eye(n), kernel_basis=np.zeros((n, 0)))


def reference_inner(Y, l1, l2, tol=Tolerances()):
    """The inner-function denominator guard decided from a direct stacked
    SVD: I(lam), or the exception type and the point it names."""
    x1, x2 = l1[:, None, None], l2[:, None, None]
    eye = np.eye(Y.shape[0])
    num = x1 * Y + x2 * (eye - Y) - (x1 * x2) * eye
    den = eye - x1 * (eye - Y) - x2 * Y
    try:
        s = np.linalg.svd(den, compute_uv=False)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError, None
    singular = s[:, -1] <= tol.rank_rel * s[:, 0]
    if singular.any():
        k = int(np.argmax(singular))
        return BoundarySingularityError, (complex(l1[k]), complex(l2[k]))
    return None, np.linalg.solve(den, num)


class TestInnerFunctionGuard:
    # 1 - lam_1 (1 - Y) at lam_2 = 0 has singular values 1, 1 - lam_1 and
    # 1 - lam_1 / 2, so lam_1 = 1 - 1/kappa plants the condition number kappa
    FACTORS = (0.3, 0.49, 0.51, 0.99, 1.0, 1.01, 10.0)

    def test_decisions_equal_those_of_the_svd(self):
        rng = np.random.default_rng(8)
        U = random_unitary(rng, 3)
        dense = U @ np.diag([1.0, 0.0, 0.5]) @ U.conj().T
        ceiling = 1.0 / Tolerances().rank_rel
        l1 = np.array([1.0 - 1.0 / (f * ceiling) for f in self.FACTORS])
        nan = dense.copy()
        nan[0, 1] = np.nan
        cases = [(dense, np.array([x]), np.zeros(1)) for x in l1]
        cases += [
            (dense, l1[:3], np.zeros(3)),            # every point cleared
            (dense, l1, np.zeros(len(l1))),          # the first ones cleared
            (np.diag([1.0, 0.0, 0.5]), np.array([0.5, 1.0]), np.zeros(2)),  # exactly singular
            (nan, l1[:1], np.zeros(1)),
        ]
        decided = set()
        for Y, a, b in cases:
            kind, value = reference_inner(Y, a, b)
            decided.add(kind)
            if kind is None:
                got = eval_I(inner_model(Y), (a, b))
                assert got.tobytes() == value.tobytes()
                assert got.flags.c_contiguous
            elif kind is np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    eval_I(inner_model(Y), (a, b))
            else:
                with pytest.raises(kind) as err:
                    eval_I(inner_model(Y), (a, b))
                assert str(err.value) == f"inner-function denominator is singular at {value}"
        assert decided == {None, BoundarySingularityError, np.linalg.LinAlgError}

    def test_extreme_condition_emits_no_warning(self):
        g = inner_model(np.diag([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundarySingularityError):
                eval_I(g, (np.array([0.0, 0.0]), np.array([0.5, -1e300])))


class TestConsistencyChecks:
    def test_block_relations_are_decided_by_the_two_norm(self):
        rng = np.random.default_rng(21)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, 3, 2, tau)
        g = desingularize(c, tau)
        model, kernel = g.model_basis, g.kernel_basis
        E = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        E = E + E.conj().T
        tol = Tolerances()
        bound = 1e3 * tol.structural
        X = kernel.conj().T @ c.P1 @ kernel
        B = kernel.conj().T @ c.P1 @ model
        ek, em = np.eye(2), np.eye(3)
        seen = set()
        for t in np.geomspace(1e-9, 1e-5, 33):
            Y = g.Y + t * E
            relations = (
                (B @ B.conj().T - X @ (ek - X), "off-diagonal block: B B* = X(1 - X)"),
                (B.conj().T @ B - Y @ (em - Y), "off-diagonal block: B* B = Y(1 - Y)"),
                (B @ Y - (ek - X) @ B, "intertwining: B Y = (1 - X) B"),
                (B @ (em - Y) - X @ B, "intertwining: B (1 - Y) = X B"),
            )
            failed = [(float(np.linalg.norm(d, 2)), what) for d, what in relations
                      if np.linalg.norm(d, 2) > bound]
            # a deviation the Frobenius screen cannot pass but the 2-norm does
            if any(np.linalg.norm(d) > bound / 2 for d, _ in relations) and not failed:
                seen.add("screened")
            args = (c, tau, model, kernel, g.Q, Y, g.gamma, g.beta, g.u_tau,
                    model @ g.u_tau, tol)
            if failed:
                seen.add("raised")
                value, what = failed[0]
                with pytest.raises(InternalInconsistencyError) as err:
                    _consistency_checks(*args)
                assert str(err.value) == f"{what} deviates by {value:.3e}"
            else:
                seen.add("passed")
                _consistency_checks(*args)
        assert seen == {"raised", "passed", "screened"}


class TestQuadratureLogCheck:
    def test_matches_closed_form(self):
        _, _, err = quadrature_log_check(10 ** 4, (0.5, -0.5))
        assert err < 1e-3

    def test_convergence_in_node_count(self):
        _, _, err3 = quadrature_log_check(10 ** 3, (0.3, -0.3))
        _, _, err4 = quadrature_log_check(10 ** 4, (0.3, -0.3))
        assert err4 < err3 / 8  # at least first-order decay

    def test_degenerate_diagonal(self):
        with pytest.raises(UseLimitError):
            quadrature_log_check(100, (0.5, 0.5))
