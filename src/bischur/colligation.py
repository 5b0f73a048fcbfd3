"""Finite-dimensional realizations of Schur-class functions on the bidisc.

A colligation packages a unitary operator

    L = [ a   beta* ]
        [ gamma  D  ]

on C (+) M together with a Hermitian projection P1 splitting M.  The point
``lam`` of the bidisc acts on M as ``lam_1 P1 + lam_2 (1 - P1)`` and the
realized function is

    phi(lam) = a + < I(lam) (1 - D I(lam))^{-1} gamma, beta >,

a Schur-class function whenever L is unitary.

The desingularized generalized model (see ``desingularize``) keeps this
formula with D replaced by Q and the pencil by an inner function I, so one
kernel, ``_realize``, evaluates both kinds of realization: every point
evaluation, model vector and model identity goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    NotAnIsometryError,
)
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .points import as_point, as_points, as_scalar, require_interior

__all__ = [
    "Colligation",
    "eval_phi",
    "model_vector",
    "model_residual",
    "unitary_extension",
]


@dataclass(frozen=True)
class Colligation:
    """Realization data (a, beta, gamma, D) with the coordinate projection P1.

    Construction only checks shapes and finiteness; ``validate`` measures the
    structural invariants (L unitary, P1 a Hermitian projection) so that
    deliberately broken instances can still be built for negative tests.
    """

    a: complex
    beta: np.ndarray
    gamma: np.ndarray
    D: np.ndarray
    P1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_scalar(self.a, "a must be a finite number"))
        beta = linalg.as_vector(self.beta, "beta")
        gamma = linalg.as_vector(self.gamma, "gamma")
        D = linalg.as_matrix(self.D, "D")
        P1 = linalg.as_matrix(self.P1, "P1")
        n = beta.shape[0]
        if gamma.shape[0] != n or D.shape != (n, n) or P1.shape != (n, n):
            raise InvalidInputError("beta, gamma, D and P1 must share one dimension")
        for name, value in (("beta", beta), ("gamma", gamma), ("D", D), ("P1", P1)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.beta.shape[-1]

    @property
    def L(self) -> np.ndarray:
        """The block operator [[a, beta*], [gamma, D]] on C (+) M."""
        return _block_operator(self.a, self.beta, self.gamma, self.D)

    def pencil(self, lam) -> np.ndarray:
        """The operator ``lam_1 P1 + lam_2 (1 - P1)`` on M."""
        l1, l2 = as_point(lam)
        return _pencil(self.P1, l1, l2)

    def _feedback(self, l1, l2, tol: Tolerances):
        """The pair (T, I(lam)) of the realization formula at a stack of
        points: (D, stacked pencil)."""
        return self.D, _pencil(self.P1, l1[:, None, None], l2[:, None, None])

    def validate(self, tol: Tolerances = DEFAULT_TOLERANCES) -> dict[str, float]:
        """Check the structural invariants, raising on violation."""
        residuals = {
            "unitary": linalg.structure_check(self.L, "unitary").residual,
            "projection": linalg.structure_check(self.P1, "projection").residual,
            "hermitian": linalg.structure_check(self.P1, "hermitian").residual,
        }
        bad = {k: v for k, v in residuals.items() if v > tol.structural}
        if bad:
            raise InvalidInputError(f"colligation fails structural checks: {bad}")
        return residuals


def _pencil(P1, l1, l2):
    return l1 * P1 + l2 * (np.eye(P1.shape[-1]) - P1)


def _block_operator(a, beta, gamma, T) -> np.ndarray:
    """The block operator [[a, beta*], [gamma, T]] on C (+) M."""
    n = beta.shape[0]
    L = np.zeros((n + 1, n + 1), dtype=complex)
    L[0, 0] = a
    L[0, 1:] = beta.conj()
    L[1:, 0] = gamma
    L[1:, 1:] = T
    return L


def _realize(r, lam, tol: Tolerances):
    """phi(lam), u_lam and I(lam) u_lam of a realization at interior points.

    ``r`` is a Colligation or a GeneralizedRealization; its ``_feedback``
    supplies (T, I(lam)).  ``lam`` is a point or a stack of points; all of
    them are solved at once, (1 - T I(lam)) u = gamma, by ``guarded_solve``
    at ``tol.solve_cond_max``.
    A point gives (complex, (n,), (n,)), a stack of k points ((k,), (k, n),
    (k, n)).

    ``r`` may also be a stack of k realizations of one kind and dimension
    (see ``_stack``), one row per point of the stack: every array of it has
    a leading axis of length k, and point j is evaluated with row j.  A
    single realization is that stack broadcast to every point, and each
    point's digits are the same either way.
    """
    l1, l2, single = require_interior(lam)
    T, I_lam = r._feedback(l1, l2, tol)
    u = linalg.guarded_solve(np.eye(r.dim) - T @ I_lam, r.gamma[..., None], (l1, l2),
                             tol.solve_cond_max)[..., 0]
    # einsum, not matmul: a point's digits must not depend on the stack size
    Iu = np.einsum("kij,kj->ki", I_lam, u)
    phi = r.a + np.einsum("...n,...n->...", Iu, r.beta.conj())
    return (complex(phi[0]), u[0], Iu[0]) if single else (phi, u, Iu)


def _stack(kind, values, rows):
    """A stack of realizations (or representations) of class ``kind`` and
    one dimension, for the evaluation kernels: ``values[i]`` holds the
    first fields of instance i in ``kind``'s order, and row j of every
    stacked field is that of instance ``rows[j]``.  A point field (tau) is
    stacked as a pair of arrays.  The stack skips ``kind``'s checks, so
    only ``_realize``, ``model_residual``, ``eval_I``, ``eval_h2``,
    ``slope_eval`` and ``boundary.model_liminf`` read it."""
    stack = object.__new__(kind)
    for field, column in zip(fields(kind), zip(*values)):
        column = np.array(column).take(rows, axis=0)
        object.__setattr__(stack, field.name,
                           tuple(column.T) if field.name == "tau" else column)
    return stack


def eval_phi(c: Colligation, lam, tol: Tolerances = DEFAULT_TOLERANCES):
    """Evaluate the realized function at an interior point (a complex), or
    at a stack of points (a complex array)."""
    return _realize(c, lam, tol)[0]


def model_vector(c: Colligation, lam, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The vector u_lam = (1 - D I(lam))^{-1} gamma of the realized model;
    shape (n,) at a point, (k, n) at a stack of k points."""
    return _realize(c, lam, tol)[1]


def model_residual(r, lam, mu, tol: Tolerances = DEFAULT_TOLERANCES):
    """Deviation in the model identity at a pair of interior points.

    ``r`` is a Colligation or a GeneralizedRealization.  Returns
    |1 - conj(phi(mu)) phi(lam) - <u_lam, u_mu> + <I(lam) u_lam, I(mu) u_mu>|,
    which vanishes (to rounding) when L is unitary.  ``lam`` and ``mu`` may
    be two stacks of one length; the residuals of the pairs then come back
    as an array, from one solve of both stacks.  ``r`` may then be a stack
    of realizations (see ``_realize``) with one row per point of lam and
    then one per point of mu.
    """
    residual, _, single = _model_identity(r, lam, mu, tol)
    return float(residual[0]) if single else residual


def _model_identity(r, lam, mu, tol: Tolerances):
    """(residuals, phi(lam), single) of ``model_residual``: the residuals as
    an array, phi at the points lam from the same solve, and whether lam was
    one point."""
    l1, l2, single = as_points(lam)
    m1, m2, single_mu = as_points(mu)
    if l1.shape != m1.shape or single != single_mu:
        raise InvalidInputError("lam and mu must be two points or two stacks of one length")
    k = l1.size
    phi, u, Iu = _realize(r, (np.append(l1, m1), np.append(l2, m2)), tol)
    lhs = 1.0 - np.conj(phi[k:]) * phi[:k]
    rhs = (u[k:].conj() * u[:k]).sum(-1) - (Iu[k:].conj() * Iu[:k]).sum(-1)
    return abs(lhs - rhs), phi[:k], single


def unitary_extension(domain_vecs, range_vecs,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Extend the map domain column -> range column to a unitary matrix.

    The columns must satisfy the lurking-isometry condition: equal Gramians.
    Since equal Gramians force equal ranks, the two orthocomplements have the
    same dimension and no ambient enlargement is ever needed; the returned
    matrix is square of the common row count.  The completion on the
    orthocomplement is an arbitrary unitary pairing, so only the action on
    the given columns (and derived function values) is contractual.
    """
    D = linalg.as_matrix(domain_vecs, "domain_vecs")
    R = linalg.as_matrix(range_vecs, "range_vecs")
    if D.shape != R.shape:
        raise InvalidInputError("domain and range must have identical shapes")
    gram_d = D.conj().T @ D
    gram_r = R.conj().T @ R
    deviation = float(np.linalg.norm(gram_d - gram_r, 2))
    scale = max(1.0, float(np.linalg.norm(gram_d, 2)))
    if deviation > tol.structural * scale:
        raise NotAnIsometryError(
            f"gramian mismatch {deviation:.3e} exceeds {tol.structural * scale:.3e}",
            deviation,
        )
    n = D.shape[0]
    u, s, vh = np.linalg.svd(D)
    rank = linalg._numerical_rank(s, tol.rank_rel)
    if rank == 0:
        return np.eye(n, dtype=complex)
    Qd = u[:, :rank]
    Cd = u[:, rank:]
    # Images of the orthonormal domain basis under the isometry; the equal
    # Gramians make these orthonormal up to rounding, and the polar factor
    # snaps them back onto an exact isometry.
    P = R @ (vh[:rank].conj().T / s[:rank])
    w, _, zh = np.linalg.svd(P, full_matrices=False)
    P_iso = w @ zh
    Cr = linalg.null_space(P_iso.conj().T, tol)
    if Cr.shape[1] != Cd.shape[1]:
        raise InternalInconsistencyError(
            "domain and range complements have different dimensions"
        )
    U = P_iso @ Qd.conj().T + Cr @ Cd.conj().T
    map_residual = float(np.abs(U @ D - R).max())
    if map_residual > 100 * tol.structural * max(1.0, float(np.abs(R).max())):
        raise InternalInconsistencyError(
            f"extension fails to reproduce the range columns ({map_residual:.3e})"
        )
    return U
