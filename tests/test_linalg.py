import warnings

import numpy as np
import pytest

from bischur import (
    IllConditionedError,
    InvalidInputError,
    NoSolutionError,
    Tolerances,
    min_norm_solve,
    null_space,
    structure_check,
)
from bischur.linalg import guarded_solve


class TestNullSpace:
    def test_identity_has_trivial_kernel(self):
        assert null_space(np.eye(2)).shape == (2, 0)

    def test_zero_matrix_kernel_is_everything(self):
        Q = null_space(np.zeros((2, 2)))
        assert Q.shape == (2, 2)
        assert np.allclose(Q.conj().T @ Q, np.eye(2), atol=1e-12)

    def test_coordinate_kernel(self):
        Q = null_space(np.diag([0.0, 1.0]))
        assert Q.shape == (2, 1)
        assert abs(abs(Q[0, 0]) - 1.0) < 1e-12 and abs(Q[1, 0]) < 1e-12

    def test_random_kernels_are_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(3)
        tol = Tolerances()
        for _ in range(25):
            m, n, r = rng.integers(2, 7), rng.integers(2, 7), rng.integers(1, 3)
            r = min(r, m, n)
            A = (rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))) @ (
                rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))
            Q = null_space(A)
            assert Q.shape[1] == n - r
            if Q.shape[1]:
                assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) <= tol.structural
                s_max = np.linalg.norm(A, 2)
                assert np.linalg.norm(A @ Q, 2) <= 10 * tol.rank_rel * s_max

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            null_space(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMinNormSolve:
    def test_invertible_case(self):
        x = min_norm_solve(np.eye(2), [1.0, 2.0])
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_minimal_norm_selects_zero_in_kernel_direction(self):
        x = min_norm_solve(np.diag([1.0, 0.0]), [3.0, 0.0])
        assert np.allclose(x, [3.0, 0.0], atol=1e-14)

    def test_inconsistent_system_raises_with_residual(self):
        with pytest.raises(NoSolutionError) as err:
            min_norm_solve(np.diag([1.0, 0.0]), [0.0, 1.0])
        assert err.value.residual == pytest.approx(1.0)

    def test_minimality_against_random_solutions(self):
        rng = np.random.default_rng(5)
        tol = Tolerances()
        for _ in range(25):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A[:, -1] = A[:, 0]  # force rank deficiency
            x0 = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = min_norm_solve(A, A @ x0)
            assert np.linalg.norm(x) <= np.linalg.norm(x0) + tol.structural
            # the solution carries no kernel component
            K = null_space(A)
            assert np.abs(K.conj().T @ x).max() < 1e-9

    def test_condition_ceiling(self):
        A = np.diag([1.0, 1e-8])
        with pytest.raises(IllConditionedError):
            min_norm_solve(A, [1.0, 1.0], Tolerances(solve_cond_max=1e6))


# condition numbers planted around the ceiling, as multiples of it
CEILING_FACTORS = (0.3, 0.49, 0.51, 0.99, 1.0, 1.01, 10.0)


def planted(rng, n, kappa, scale=3.7):
    """A dense complex n x n matrix with 2-norm condition number kappa and
    largest singular value ``scale``."""
    def unitary():
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q
    sigma = scale * np.geomspace(1.0, 1.0 / kappa, n)
    return unitary() @ np.diag(sigma) @ unitary()


def guard_cases(ceiling, seed=0, n=4):
    """Matrices at the planted condition numbers, an exactly singular one
    and one with a NaN entry."""
    rng = np.random.default_rng(seed)
    cases = [planted(rng, n, f * ceiling) for f in CEILING_FACTORS]
    cases.append(np.diag([1.0, 0.0, 2.0, 1.0]).astype(complex))
    nan = planted(rng, n, 10.0)
    nan[1, 2] = np.nan
    cases.append(nan)
    return cases


def reference_solve(M, b, tol):
    """guarded_solve's guard decided from a direct stacked SVD: the
    solutions, or the exception type and condition number."""
    try:
        s = np.linalg.svd(M, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = s[:, 0] / s[:, -1]
        bad = ~(cond <= tol.solve_cond_max)
        if bad.any():
            return IllConditionedError, cond[np.argmax(bad)]
        return None, np.linalg.solve(M, b[None, :, None])[..., 0]
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError, None


def outcome(M, b, tol):
    points = (np.arange(len(M)) * 0.01j, np.zeros(len(M), dtype=complex))
    try:
        x = guarded_solve(M, b[:, None], points, tol.solve_cond_max)[..., 0]
    except IllConditionedError as exc:
        return IllConditionedError, exc.cond
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError, None
    return None, x


class TestGuardedSolve:
    @pytest.mark.parametrize("ceiling", [1e14, 1e10, 1e6])
    def test_decisions_equal_those_of_the_svd(self, ceiling):
        tol = Tolerances(solve_cond_max=ceiling)
        b = np.array([1.0, 2.0 - 1j, 0.5j, -1.0])
        cases = guard_cases(ceiling)
        stacks = [c[None] for c in cases]
        # a stack that is cleared up to its last points, and every case at once
        stacks += [np.array(cases[:3]), np.array(cases[2:7]), np.array(cases)]
        decided = set()
        for M in stacks:
            kind, value = reference_solve(M, b, tol)
            got_kind, got = outcome(M, b, tol)
            assert got_kind is kind
            decided.add(kind)
            if kind is IllConditionedError:
                assert got == float(value)
            elif kind is None:
                assert got.tobytes() == value.tobytes()
                assert got.flags.c_contiguous
        assert decided == {None, IllConditionedError, np.linalg.LinAlgError}

    def test_first_ill_conditioned_point_is_named(self):
        rng = np.random.default_rng(1)
        M = np.array([planted(rng, 3, k) for k in (2.0, 5e14, 3.0, 7e15)])
        points = (np.array([0.1, 0.2, 0.3, 0.4]), np.zeros(4))
        with pytest.raises(IllConditionedError, match=r"at \(\(0\.2\+0j\)") as err:
            guarded_solve(M, np.ones((3, 1)), points, Tolerances().solve_cond_max)
        s = np.linalg.svd(M[1], compute_uv=False)
        assert err.value.cond == s[0] / s[-1]
        assert err.value.point == (0.2 + 0j, 0j)

    def test_extreme_condition_emits_no_warning(self):
        M = np.array([np.diag([1.0, 1e-300]), np.diag([1e300, 1.0])], dtype=complex)
        points = (np.array([0.1, 0.2]), np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError) as err:
                guarded_solve(M, np.ones((2, 1)), points, Tolerances().solve_cond_max)
        s = np.linalg.svd(M[0], compute_uv=False)
        assert err.value.cond == s[0] / s[-1] == pytest.approx(1e300)

    def test_ceilings_beyond_the_screen_are_decided_by_the_svd(self):
        # past 1/eps an LU inverse can understate the condition number, so
        # that a kappa_F screen would clear matrices the SVD rejects
        tol = Tolerances(solve_cond_max=1e17)
        rng = np.random.default_rng(0)
        b = np.ones(4)
        decided = set()
        for f in np.geomspace(1.0, 30.0, 12):
            for _ in range(10):
                M = planted(rng, 4, f * tol.solve_cond_max)[None]
                kind, value = reference_solve(M, b, tol)
                assert outcome(M, b, tol)[0] is kind
                decided.add(kind)
        assert {None, IllConditionedError} <= decided


class TestStructureCheck:
    def test_identity_is_unitary(self):
        ok, residual = structure_check(np.eye(3), "unitary")
        assert ok and residual == 0.0

    def test_positive_contraction(self):
        ok, residual = structure_check(np.diag([0.5, 0.25]), "positive_contraction")
        assert ok and residual == 0.0

    def test_contraction_failure_measures_excess(self):
        ok, residual = structure_check(np.diag([2.0, 0.0]), "contraction")
        assert not ok and residual >= 1.0

    def test_projection_and_hermitian(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert structure_check(P, "projection").ok
        assert structure_check(P, "hermitian").ok
        assert not structure_check(P + 0.01, "projection").ok

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for kind in ("unitary", "hermitian", "contraction",
                     "positive_contraction", "projection"):
            loose = structure_check(A, kind, Tolerances(structural=1e3))
            tight = structure_check(A, kind, Tolerances(structural=1e-12))
            if tight.ok:
                assert loose.ok
            assert loose.residual == tight.residual

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            structure_check(np.ones((2, 3)), "unitary")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            structure_check(np.eye(2), "idempotent")


def test_tolerances_validation():
    with pytest.raises(InvalidInputError):
        Tolerances(rank_rel=2.0)
    with pytest.raises(InvalidInputError):
        Tolerances(structural=-1.0)
