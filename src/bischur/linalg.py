"""Dense complex-matrix utilities: null spaces, minimal-norm solves,
condition-guarded stacked solves, structural checks.

This module makes every rank and conditioning decision of the package.
Rank decisions are made from singular values with a relative cutoff, and a
kernel split takes its minimal-norm solve from the same SVD, so the two
agree about what counts as the kernel.  Every guarded square solve goes
through ``guarded_solve``, which screens its condition guard with the LU
factorization it solves with and takes singular values only of the points
the screen cannot clear, near the ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import IllConditionedError, InvalidInputError, NoSolutionError
from .points import as_scalar

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
        for field in fields(self):
            refusal = f"tolerance {field.name} must be finite and positive"
            value = as_scalar(getattr(self, field.name), refusal, float)
            if not value > 0:
                raise InvalidInputError(refusal)
            object.__setattr__(self, field.name, value)
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


def _numerical_rank(s, rank_rel):
    """The number of singular values s (largest first) above rank_rel times
    the largest."""
    cut = rank_rel * s[0]
    return sum(1 for v in s if v > cut)


def _rank_groups(ranks):
    """(rank, members, at) for each distinct rank of a list of them, in
    order of its first member: the indices of its members, and ``at``, which
    selects them from a stack, the whole stack when every member has it."""
    distinct = dict.fromkeys(ranks)
    groups = []
    for rank in distinct:
        members = [i for i, r in enumerate(ranks) if r == rank]
        groups.append((rank, members, slice(None) if len(distinct) == 1 else members))
    return groups


def _adjoint(M):
    """The conjugate transposes of a stack of matrices."""
    return M.conj().swapaxes(-1, -2)


def _apply(M, v):
    """M[i] v[i] for a stack of matrices and one of vectors, each product
    the matrix-vector product of its member alone."""
    return (M @ v[..., None])[..., 0]


def _norms(x, axis=-1):
    """The Euclidean norms of a stack of complex arrays over ``axis``, the
    last one by default; over the last two, Frobenius norms."""
    v = np.ascontiguousarray(x, dtype=complex).view(float)
    return np.sqrt(np.add.reduce(np.square(v), axis=axis))


def null_space(A, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthonormal basis of ker(A) as columns; zero columns if trivial.

    The kernel is read off the right singular vectors whose singular values
    fall below ``tol.rank_rel`` times the largest one.
    """
    A = as_matrix(A, "A")
    _, s, vh = np.linalg.svd(A)
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
    return _kernel_split(A[None], b[None], tol)[0][0]


def _kernel_split(A, b, tol: Tolerances):
    """One SVD of each matrix of a validated stack A, (k, m, n), with right
    sides b, (k, m): (x, ranks, vh, near).  Row i of x is
    ``min_norm_solve(A[i], b[i], tol)``, ranks[i] the numerical rank of
    A[i], vh[i] its right singular vectors as rows (the first ranks[i] of
    them span ker(A[i])-perp) and near[i] its kept singular values within a
    factor 1e3 of the rank cutoff, whose kernel split is ill-determined.
    The solves of one rank are one stacked product, with each member's
    digits alone.  The first member min_norm_solve would refuse raises as it
    does there; a NoSolutionError holds its index as ``member``."""
    u, s, vh = np.linalg.svd(A)
    ranks, conds, near = [], [], []
    for i, row in enumerate(s.tolist()):
        rank = _numerical_rank(row, tol.rank_rel)
        ranks.append(rank)
        conds.append(row[0] / row[rank - 1] if rank else 0.0)
        limit = 1e3 * max(tol.rank_rel * row[0], np.finfo(float).tiny)
        near.append(s[i, :rank][s[i, :rank] < limit])
    x = np.zeros((len(A), A.shape[-1]), dtype=complex)
    for rank, _, at in _rank_groups(ranks):
        if rank:
            coeff = _apply(_adjoint(u[at, :, :rank]), b[at]) / s[at, :rank]
            x[at] = _apply(_adjoint(vh[at, :rank]), coeff)
    residual = _norms(_apply(A, x) - b).tolist()
    bound = (tol.structural * (s[:, 0] * _norms(x) + _norms(b))).tolist()
    for i, cond in enumerate(conds):
        if cond > tol.solve_cond_max:
            raise IllConditionedError(
                f"effective condition number {cond:.3e} exceeds ceiling", cond
            )
        if residual[i] > bound[i]:
            raise NoSolutionError(
                f"system inconsistent: residual {residual[i]:.3e} above bound {bound[i]:.3e}",
                residual[i], i,
            )
    return x, ranks, vh, near


# Beyond this ceiling, a point the LU screen clears could have kappa * eps
# above about 1 %, enough to tip an SVD-computed condition number over the
# ceiling, so every point goes to the SVD.
_SCREEN_CEILING_MAX = 1e14


def guarded_solve(M, B, points, ceiling) -> np.ndarray:
    """Solve M[k] X[k] = B for a stack of square matrices, one per point,
    refusing every point unless sigma_max / sigma_min <= ``ceiling``.

    ``B`` is (n, m), shared by every point, or a (k, n, m) stack; ``points``
    is the stack of points (a pair of arrays) the matrices belong to.  A
    refusal raises IllConditionedError naming the first refused point, with
    its condition number and the point.  One stacked solve of [B | 1] gives,
    from one LU factorization per point, X and the inverse, hence
    kappa_F = ||M||_F ||M^-1||_F >= kappa_2.  A point with
    kappa_F <= ceiling / 2 is cleared: the 2 is a rounding margin that makes
    the SVD's condition number pass it too.  Only the points not cleared get
    singular values, so each point is decided as its singular values decide
    it.  When a matrix is exactly singular the LU fails: then every point is
    decided by the SVD, and solved again once the guard passes.  Returns X,
    shape (k, n, m), C-contiguous.
    """
    if B.ndim == 2:
        B = B[None]
    k, n = M.shape[:2]
    m = B.shape[-1]
    R = np.zeros((k, n, m + n), dtype=complex)
    R[..., :m] = B
    R.reshape(k, -1)[:, m::m + n + 1] = 1.0   # the diagonal of R[..., m:]
    try:
        X = np.linalg.solve(M, R)
    except np.linalg.LinAlgError:
        X = None
    del R   # read only by the solve: the screen below then holds one stack less
    if X is None or ceiling > _SCREEN_CEILING_MAX:
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
            return np.ascontiguousarray(X[..., :m])
        rest = np.flatnonzero(~(kappa2 <= limit))
    s = np.linalg.svd(M[rest], compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    bad = ~(cond <= ceiling)
    if bad.any():
        j = int(np.argmax(bad))
        point = (complex(points[0][rest[j]]), complex(points[1][rest[j]]))
        raise IllConditionedError(
            f"resolvent condition number {cond[j]:.3e} at {point}; "
            "the point is too close to a singularity",
            cond[j], point,
        )
    if X is None:
        return np.ascontiguousarray(np.linalg.solve(M, B))
    return np.ascontiguousarray(X[..., :m])


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
