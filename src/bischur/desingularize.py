"""Desingularization of a realization at a carapoint.

Given a colligation with carapoint tau, the kernel N = ker(1 - D tau) is
split off and every datum is compressed to the model space M = N-perp:

    Y = compression of P1,   Q = compression of D tau,
    u_tau = minimal-norm solution of (1 - D tau) u = gamma,

producing the generalized realization phi(lam) = a + <I(lam)(1 - Q I(lam))^{-1}
gamma, beta> whose inner function

    I(lam) = (t1 Y + t2 (1 - Y) - t1 t2) / (1 - t1 (1 - Y) - t2 Y),
    t_j = conj(tau_j) lam_j,

absorbs the boundary singularity: I is inner, I((1-t) tau) = (1-t) and
I(lam) -> 1 nontangentially at tau.  When the kernel is trivial the same
steps leave everything uncompressed and I(lam) reduces to the linear pencil
conj(tau) lam.

Only (Q, I(lam)) differ from a colligation's (D, pencil), so the generalized
model is evaluated by the same kernel as a colligation (``colligation``):
``u_vector``, ``eval_phi_gen`` and ``model_residual`` all go through it.

The construction depends on the chosen realization; model bases are not
canonical, so only observable quantities (phi values, slope values, norms)
are comparable across runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .colligation import Colligation, _realize
from .errors import (
    BoundarySingularityError,
    IllConditionedError,
    InternalInconsistencyError,
    InvalidInputError,
    NoSolutionError,
    PreconditionError,
    UseLimitError,
)
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .points import as_points, require_interior, require_torus, to_stack

__all__ = [
    "GeneralizedRealization",
    "desingularize",
    "eval_I",
    "u_vector",
    "eval_phi_gen",
    "quadrature_log_check",
]


@dataclass(frozen=True)
class GeneralizedRealization:
    """Desingularized model data on M = ker(1 - D tau)-perp.

    Invariants: Y is a positive contraction, Q a contraction with trivial
    ker(1 - Q), and (1 - Q) u_tau = gamma.  ``model_basis`` (ambient x dim)
    and ``kernel_basis`` record the compression used; they are a
    realization-dependent choice, not part of the observable contract.
    """

    a: complex
    beta: np.ndarray
    gamma: np.ndarray
    Q: np.ndarray
    Y: np.ndarray
    tau: tuple[complex, complex]
    u_tau: np.ndarray
    model_basis: np.ndarray
    kernel_basis: np.ndarray
    notes: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.beta.shape[-1]

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[1]

    def _feedback(self, l1, l2, tol: Tolerances):
        """The pair (T, I(lam)) of the realization formula at a stack of
        points: (Q, stacked inner function)."""
        return self.Q, _inner_matrix(self.Y, self.tau, l1, l2, tol)


def _inner_matrix(Y: np.ndarray, tau, l1, l2, tol: Tolerances) -> np.ndarray:
    """I at the stack of points (l1, l2), shape (k, n, n).  Y and tau may be
    stacks with one row per point, Y (k, n, n) and tau a pair of (k,)
    arrays.  A denominator is singular when ``guarded_solve`` refuses it at
    the ceiling 1 / rank_rel."""
    x1 = (np.conj(tau[0]) * l1)[:, None, None]
    x2 = (np.conj(tau[1]) * l2)[:, None, None]
    eye = np.eye(Y.shape[-1])
    num = x1 * Y + x2 * (eye - Y) - (x1 * x2) * eye
    den = eye - x1 * (eye - Y) - x2 * Y
    try:
        return linalg.guarded_solve(den, num, (l1, l2), 1.0 / tol.rank_rel)
    except IllConditionedError as exc:
        raise BoundarySingularityError(
            f"inner-function denominator is singular at {exc.point}"
        ) from exc


def desingularize(c: Colligation, tau, tol: Tolerances = DEFAULT_TOLERANCES) -> GeneralizedRealization:
    """Compress a colligation to the generalized model at a carapoint.

    Raises PreconditionError when tau is not a carapoint (gamma outside
    ran(1 - D tau)).
    """
    tau = require_torus(tau)
    T = c.pencil(tau)
    D_tau = c.D @ T
    n = c.dim
    # one SVD of 1 - D tau gives both u_tau and the kernel split
    try:
        u_ambient, rank, vh, near = linalg._kernel_split(np.eye(n) - D_tau, c.gamma, tol)
    except NoSolutionError as exc:
        raise PreconditionError(
            f"{tuple(map(complex, tau))} is not a carapoint: {exc}"
        ) from exc

    notes = ()
    if near.size:
        notes = (
            f"singular values {near} sit just above the rank cutoff; "
            "the kernel split may be ill-determined",
        )
        warnings.warn(notes[0], stacklevel=2)
    if rank == n:
        model = np.eye(n, dtype=complex)
        kernel = np.zeros((n, 0), dtype=complex)
    else:
        model = vh[:rank].conj().T.copy()
        kernel = vh[rank:].conj().T.copy()

    Q = model.conj().T @ D_tau @ model
    Y = model.conj().T @ c.P1 @ model
    gamma_m = model.conj().T @ c.gamma
    beta_m = model.conj().T @ (T.conj().T @ c.beta)
    u_m = model.conj().T @ u_ambient

    _consistency_checks(c, tau, model, kernel, Q, Y, gamma_m, beta_m, u_m,
                        u_ambient, tol)
    return GeneralizedRealization(
        a=c.a, beta=beta_m, gamma=gamma_m, Q=Q, Y=Y, tau=tau, u_tau=u_m,
        model_basis=model, kernel_basis=kernel, notes=notes,
    )


def _consistency_checks(c, tau, model, kernel, Q, Y, gamma_m, beta_m, u_m,
                        u_ambient, tol):
    """Assert the facts the compression is guaranteed to satisfy."""
    bound = 1e3 * tol.structural

    def demand(value, what):
        if value > bound:
            raise InternalInconsistencyError(f"{what} deviates by {value:.3e}")

    def demand_2norm(X, what):
        # ||X||_2 <= ||X||_F, so a Frobenius norm within half the bound (the
        # 2 a rounding margin) passes without the SVD of the 2-norm
        if not np.linalg.norm(X) <= 0.5 * bound:
            demand(float(np.linalg.norm(X, 2)), what)

    # gamma and tau*beta live in the model space, u_tau is kernel-orthogonal
    demand(float(np.linalg.norm(c.gamma - model @ gamma_m)), "gamma in model space")
    tau_beta = c.pencil(tau).conj().T @ c.beta
    demand(float(np.linalg.norm(tau_beta - model @ beta_m)), "tau* beta in model space")
    if kernel.shape[1]:
        demand(float(np.abs(kernel.conj().T @ u_ambient).max()), "u_tau kernel-orthogonal")
    # the boundary vector solves (1 - Q) u = gamma
    demand(float(np.linalg.norm((np.eye(Q.shape[0]) - Q) @ u_m - gamma_m)),
           "(1 - Q) u_tau = gamma")
    # block relations of the split projection
    if kernel.shape[1]:
        X = kernel.conj().T @ c.P1 @ kernel
        B = kernel.conj().T @ c.P1 @ model
        eye_k = np.eye(X.shape[0])
        eye_m = np.eye(Y.shape[0])
        demand_2norm(B @ B.conj().T - X @ (eye_k - X),
                     "off-diagonal block: B B* = X(1 - X)")
        demand_2norm(B.conj().T @ B - Y @ (eye_m - Y),
                     "off-diagonal block: B* B = Y(1 - Y)")
        demand_2norm(B @ Y - (eye_k - X) @ B,
                     "intertwining: B Y = (1 - X) B")
        demand_2norm(B @ (eye_m - Y) - X @ B,
                     "intertwining: B (1 - Y) = X B")


def eval_I(g: GeneralizedRealization, lam, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The inner function of the generalized model at ``lam``: an (n, n)
    matrix at a point, a (k, n, n) stack at a stack of k points.

    Defined whenever 1 is outside the spectrum of t1 (1 - Y) + t2 Y; on the
    torus this holds exactly when lam_1 != tau_1 and lam_2 != tau_2.
    """
    l1, l2, single = to_stack(as_points(lam))
    I_lam = _inner_matrix(g.Y, g.tau, l1, l2, tol)
    return I_lam[0] if single else I_lam


def u_vector(g: GeneralizedRealization, lam, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Model vector u_lam = (1 - Q I(lam))^{-1} gamma at an interior point,
    or the (k, n) stack of them at a stack of k points."""
    return _realize(g, lam, tol)[1]


def eval_phi_gen(g: GeneralizedRealization, lam, tol: Tolerances = DEFAULT_TOLERANCES):
    """Evaluate the generalized realization; equals the source function.
    A complex at a point, a complex array at a stack of points."""
    return _realize(g, lam, tol)[0]


def quadrature_log_check(nodes: int, lam) -> tuple[complex, complex, float]:
    """Compare the discretized multiplication-operator inner function with its
    closed form.

    Y is discretized as multiplication by the midpoints of ``nodes`` uniform
    cells of [0, 1] (boundary point (1, 1)); the quadrature value of
    <I(lam) 1, 1> is checked against

        1 - (1 - lam1)(1 - lam2)/(lam1 - lam2) * [log(1 - lam2) - log(1 - lam1)]

    with the principal logarithm.  Returns (numeric, closed_form, error).
    """
    if nodes < 2:
        raise InvalidInputError("at least two quadrature nodes are required")
    l1, l2 = require_interior(lam)
    if abs(l1 - l2) < 1e-12:
        raise UseLimitError(
            "the closed form degenerates on the diagonal lam1 = lam2"
        )
    t = (np.arange(nodes) + 0.5) / nodes
    scalar = (t * l1 + (1.0 - t) * l2 - l1 * l2) / (1.0 - (1.0 - t) * l1 - t * l2)
    numeric = complex(scalar.mean())
    closed = 1.0 - (1.0 - l1) * (1.0 - l2) / (l1 - l2) * (
        np.log(1.0 - l2) - np.log(1.0 - l1)
    )
    return numeric, complex(closed), float(abs(numeric - closed))
