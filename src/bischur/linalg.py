"""Dense complex-matrix utilities: null spaces, minimal-norm solves,
condition-guarded stacked solves, structural checks.

All rank decisions are made from singular values with a relative cutoff, and
minimal-norm solves reuse the same SVD, so the two operations agree about
what counts as the kernel.  A stacked solve screens its condition guard with
the LU factorization it solves with, and takes singular values only of the
points the screen cannot clear, near the ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IllConditionedError, InvalidInputError, NoSolutionError

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "StructureCheck",
    "as_matrix",
    "as_vector",
    "null_space",
    "min_norm_solve",
    "guarded_solve",
    "structure_check",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package.

    rank_rel: relative singular-value cutoff for rank decisions.
    structural: residual bound for unitarity/Hermiticity/consistency checks.
    solve_cond_max: condition-number ceiling for linear solves.
    """

    rank_rel: float = 1e-10
    structural: float = 1e-9
    solve_cond_max: float = 1e14

    def __post_init__(self):
        for name in ("rank_rel", "structural", "solve_cond_max"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InvalidInputError(f"tolerance {name} must be finite and positive")
        if self.rank_rel >= 1:
            raise InvalidInputError("rank_rel must be below 1")


DEFAULT_TOLERANCES = Tolerances()


class StructureCheck(NamedTuple):
    ok: bool
    residual: float


def as_matrix(A, name="matrix") -> np.ndarray:
    """Validate and convert to a 2-D complex128 array with finite entries."""
    A = np.asarray(A, dtype=complex)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidInputError(f"{name} must be a 2-D array with at least one row and column")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def as_vector(v, name="vector") -> np.ndarray:
    """Validate and convert to a 1-D complex128 array with finite entries."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v[:, 0]
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError(f"{name} must be a 1-D array or column")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return v


def _svd(A):
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    return u, s, vh


def _numerical_rank(s, rank_rel):
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_rel * s[0]))


def null_space(A, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthonormal basis of ker(A) as columns; zero columns if trivial.

    The kernel is read off the right singular vectors whose singular values
    fall below ``tol.rank_rel`` times the largest one.
    """
    A = as_matrix(A, "A")
    _, s, vh = _svd(A)
    rank = _numerical_rank(s, tol.rank_rel)
    return vh[rank:].conj().T.copy()


def min_norm_solve(A, b, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Minimal-Euclidean-norm solution of A x = b via the pseudo-inverse.

    Raises NoSolutionError when the residual exceeds
    ``tol.structural * (sigma_max(A) * ||x|| + ||b||)`` and IllConditionedError
    when the ratio of kept singular values exceeds ``tol.solve_cond_max``.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b")
    if b.shape[0] != A.shape[0]:
        raise InvalidInputError("b must have as many rows as A")
    return _min_norm_from_svd(A, b, _svd(A), tol)


def _min_norm_from_svd(A, b, usv, tol: Tolerances) -> np.ndarray:
    """``min_norm_solve`` for validated A and b, given ``usv = _svd(A)``,
    so that a caller who needs the same SVD takes it only once."""
    u, s, vh = usv
    rank = _numerical_rank(s, tol.rank_rel)
    if rank > 0:
        cond = s[0] / s[rank - 1]
        if cond > tol.solve_cond_max:
            raise IllConditionedError(
                f"effective condition number {cond:.3e} exceeds ceiling", cond
            )
        coeff = (u[:, :rank].conj().T @ b) / s[:rank]
        x = vh[:rank].conj().T @ coeff
    else:
        x = np.zeros(A.shape[1], dtype=complex)
    residual = float(np.linalg.norm(A @ x - b))
    sigma_max = s[0] if s.size else 0.0
    bound = tol.structural * (sigma_max * np.linalg.norm(x) + np.linalg.norm(b))
    if residual > bound:
        raise NoSolutionError(
            f"system inconsistent: residual {residual:.3e} above bound {bound:.3e}",
            residual,
        )
    return x


# Beyond this ceiling, a point the LU screen clears could have kappa * eps
# above about 1 %, enough to tip an SVD-computed condition number over the
# ceiling, so every point goes to the SVD.
_SCREEN_CEILING_MAX = 1e14
_NO_POINTS = np.empty(0, dtype=np.intp)


def _screened_solve(M, B, ceiling):
    """Solve M[k] X[k] = B for a stack of square matrices and screen their
    2-norm condition numbers against ``ceiling``.

    One stacked solve of [B | 1] gives, from one LU factorization per point,
    X and the inverse, hence kappa_F = ||M||_F ||M^-1||_F >= kappa_2.  A
    point with kappa_F <= ceiling / 2 is cleared: the 2 is a rounding margin
    that makes the SVD's condition number pass it too.  Only the points not
    cleared get singular values.  Returns (X, rest, s): X of shape
    (k, n, m), C-contiguous; ``rest``, the ascending indices of the points
    not cleared; ``s``, their singular values, shape (len(rest), n), or None
    when ``rest`` is empty.  When a matrix is exactly singular the LU fails:
    then X is None and every point is in ``rest``, so the caller decides on
    the SVD alone and solves as before once its guard passes.
    """
    k, n = M.shape[:2]
    m = B.shape[-1]
    R = np.zeros((k, n, m + n), dtype=complex)
    R[..., :m] = B
    R.reshape(k, -1)[:, m::m + n + 1] = 1.0   # the diagonal of R[..., m:]
    try:
        X = np.linalg.solve(M, R)
    except np.linalg.LinAlgError:
        return None, np.arange(k), np.linalg.svd(M, compute_uv=False)
    if ceiling > _SCREEN_CEILING_MAX:
        rest = np.arange(k)
    else:
        Mv = np.ascontiguousarray(M, dtype=complex).view(float)
        Xv = X.view(float)[..., 2 * m:]
        with np.errstate(over="ignore", invalid="ignore"):
            kappa2 = (np.add.reduce(np.square(Mv), axis=(1, 2))
                      * np.add.reduce(np.square(Xv), axis=(1, 2)))
        limit = (0.5 * ceiling) ** 2
        # the common case, every point cleared, in one comparison (a NaN
        # propagates through the maximum and fails it)
        if np.maximum.reduce(kappa2, initial=0.0) <= limit:
            rest = _NO_POINTS
        else:
            rest = np.flatnonzero(~(kappa2 <= limit))
    s = np.linalg.svd(M[rest], compute_uv=False) if rest.size else None
    return np.ascontiguousarray(X[..., :m]), rest, s


def guarded_solve(M, b, points, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve M[k] x[k] = b for a stack of square matrices, one per point.

    ``points`` is the stack of points (a pair of arrays) the matrices belong
    to.  The guard is decided per point: the condition number
    sigma_max / sigma_min of ``np.linalg.cond`` must be finite and at most
    ``tol.solve_cond_max``, else IllConditionedError names the first
    offending point and carries its condition number.  The LU factorization
    of the solve screens every point with kappa_F >= kappa_2, and singular
    values are taken only of the points near or above the ceiling, so each
    point is decided as from its singular values.  Returns the stack of
    solutions, shape (k, n), C-contiguous.
    """
    x, rest, s = _screened_solve(M, b[:, None], tol.solve_cond_max)
    if rest.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = s[:, 0] / s[:, -1]
        bad = ~(cond <= tol.solve_cond_max)
        if bad.any():
            j = int(np.argmax(bad))
            k = int(rest[j])
            point = (complex(points[0][k]), complex(points[1][k]))
            raise IllConditionedError(
                f"resolvent condition number {cond[j]:.3e} at {point}; "
                "the point is too close to a singularity",
                cond[j],
            )
        if x is None:
            x = np.linalg.solve(M, b[None, :, None])
    return x[..., 0]


def _hermitian_deviation(A):
    return float(np.linalg.norm(A - A.conj().T, 2))


def structure_check(A, kind: str, tol: Tolerances = DEFAULT_TOLERANCES) -> StructureCheck:
    """Measure how far a square matrix is from a structural class.

    kind is one of ``unitary``, ``hermitian``, ``positive_contraction``,
    ``contraction``, ``projection``.  Returns the measured deviation and
    whether it is within ``tol.structural``.
    """
    A = as_matrix(A, "A")
    n, m = A.shape
    if n != m:
        raise InvalidInputError("structure_check requires a square matrix")
    eye = np.eye(n)
    if kind == "unitary":
        residual = float(np.linalg.norm(A.conj().T @ A - eye, 2))
    elif kind == "hermitian":
        residual = _hermitian_deviation(A)
    elif kind == "contraction":
        residual = max(float(np.linalg.norm(A, 2)) - 1.0, 0.0)
    elif kind == "positive_contraction":
        herm = _hermitian_deviation(A)
        eigs = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
        low = max(float(-eigs.min()), 0.0)
        high = max(float(eigs.max()) - 1.0, 0.0)
        residual = max(herm, low, high)
    elif kind == "projection":
        residual = float(np.linalg.norm(A @ A - A, 2))
    else:
        raise InvalidInputError(f"unknown structure kind {kind!r}")
    return StructureCheck(residual <= tol.structural, residual)
