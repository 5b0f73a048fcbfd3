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

from dataclasses import dataclass

import numpy as np

from . import linalg
from .colligation import Colligation, _pencil, _realize
from .errors import (
    BoundarySingularityError,
    IllConditionedError,
    InternalInconsistencyError,
    InvalidInputError,
    NoSolutionError,
    PreconditionError,
    UseLimitError,
)
from .linalg import DEFAULT_TOLERANCES, Tolerances, _adjoint, _apply, _norms
from .points import as_points, require_interior, require_torus

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


def desingularize(c, tau, tol: Tolerances = DEFAULT_TOLERANCES):
    """Compress a colligation to the generalized model at a carapoint.

    ``c`` and ``tau`` may also be two sequences, of colligations of one
    dimension and of one carapoint for each; a list of models comes back,
    each what its colligation and carapoint give alone, digit for digit.
    One call takes one stacked SVD of the operators 1 - D tau, then
    compresses and checks the members of one rank as one stack; a single
    colligation is a group of one.

    Raises PreconditionError when tau is not a carapoint (gamma outside
    ran(1 - D tau)); a group raises what its first such member raises
    alone.  A model whose kernel split is ill-determined carries a note on
    ``notes``.
    """
    single = isinstance(c, Colligation)
    cs, taus = ([c], [tau]) if single else (list(c), list(tau))
    taus = [require_torus(t) for t in taus]
    if len(taus) != len(cs) or any(m.dim != cs[0].dim for m in cs):
        raise InvalidInputError(
            "a group needs colligations of one dimension and one carapoint for each")
    if not cs:
        return []
    n = cs[0].dim
    P1 = np.array([m.P1 for m in cs])
    t = np.array(taus)[:, :, None, None]
    T = _pencil(P1, t[:, 0], t[:, 1])
    D_tau = np.array([m.D for m in cs]) @ T
    gamma = np.array([m.gamma for m in cs])
    tau_beta = _apply(_adjoint(T), np.array([m.beta for m in cs]))
    # one SVD of each 1 - D tau gives both u_tau and the kernel split
    try:
        u_ambient, ranks, vh, near = linalg._kernel_split(np.eye(n) - D_tau, gamma, tol)
    except NoSolutionError as exc:
        raise PreconditionError(
            f"{tuple(map(complex, taus[exc.member]))} is not a carapoint: {exc}"
        ) from exc

    notes = [(f"singular values {s} sit just above the rank cutoff; "
              "the kernel split may be ill-determined",) if s.size else () for s in near]
    models = [None] * len(cs)
    for rank, members, at in linalg._rank_groups(ranks):
        if rank == n:
            model = np.repeat(np.eye(n, dtype=complex)[None], len(members), axis=0)
            kernel = np.zeros((len(members), n, 0), dtype=complex)
        else:
            model = _adjoint(vh[at, :rank]).copy()
            kernel = _adjoint(vh[at, rank:]).copy()
        model_h = _adjoint(model)
        Q = model_h @ D_tau[at] @ model
        Y = model_h @ P1[at] @ model
        gamma_m = _apply(model_h, gamma[at])
        beta_m = _apply(model_h, tau_beta[at])
        u_m = _apply(model_h, u_ambient[at])
        _consistency_checks(P1[at], gamma[at], tau_beta[at], model, kernel, Q, Y,
                            gamma_m, beta_m, u_m, u_ambient[at], tol)
        for j, i in enumerate(members):
            models[i] = GeneralizedRealization(
                a=cs[i].a, beta=beta_m[j], gamma=gamma_m[j], Q=Q[j], Y=Y[j], tau=taus[i],
                u_tau=u_m[j], model_basis=model[j], kernel_basis=kernel[j], notes=notes[i],
            )
    return models[0] if single else models


def _consistency_checks(P1, gamma, tau_beta, model, kernel, Q, Y, gamma_m, beta_m, u_m,
                        u_ambient, tol):
    """Assert the facts the compression is guaranteed to satisfy, for a
    stack of members of one rank.  A failed check raises with the figure of
    its first failing member."""
    bound = 1e3 * tol.structural

    def demand(values, what):
        for value in values.tolist():
            if value > bound:
                raise InternalInconsistencyError(f"{what} deviates by {value:.3e}")

    # gamma and tau*beta live in the model space, u_tau is kernel-orthogonal
    demand(_norms(gamma - _apply(model, gamma_m)), "gamma in model space")
    demand(_norms(tau_beta - _apply(model, beta_m)), "tau* beta in model space")
    kernel_h = _adjoint(kernel)
    if kernel.shape[-1]:
        demand(np.abs(_apply(kernel_h, u_ambient)).max(-1), "u_tau kernel-orthogonal")
    # the boundary vector solves (1 - Q) u = gamma
    eye_m = np.eye(Q.shape[-1])
    demand(_norms(_apply(eye_m - Q, u_m) - gamma_m), "(1 - Q) u_tau = gamma")
    # block relations of the split projection: in the split basis it is
    # P = [[Y, B*], [B, X]], and P^2 - P = 0 holds block by block
    if kernel.shape[-1]:
        X = kernel_h @ P1 @ kernel
        B = kernel_h @ P1 @ model
        P = np.concatenate((np.concatenate((Y, _adjoint(B)), -1),
                            np.concatenate((B, X), -1)), -2)
        gap = P @ P - P
        # ||G||_2 <= ||G||_F, so a Frobenius norm of the whole within half the
        # bound (the 2 a rounding margin) passes every block without the SVD
        # of its 2-norm
        rest = [not f <= 0.5 * bound for f in _norms(gap, (-2, -1)).tolist()]
        if any(rest):
            m = Y.shape[-1]
            # the top right block is the adjoint of the bottom left one, and
            # B (1 - Y) = X B is B Y = (1 - X) B rearranged
            for block, what in (
                    (gap[rest, m:, m:], "off-diagonal block: B B* = X(1 - X)"),
                    (gap[rest, :m, :m], "off-diagonal block: B* B = Y(1 - Y)"),
                    (gap[rest, m:, :m], "intertwining: B Y = (1 - X) B")):
                demand(np.linalg.norm(block, 2, axis=(-2, -1)), what)


def eval_I(g: GeneralizedRealization, lam, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The inner function of the generalized model at ``lam``: an (n, n)
    matrix at a point, a (k, n, n) stack at a stack of k points.

    Defined whenever 1 is outside the spectrum of t1 (1 - Y) + t2 Y; on the
    torus this holds exactly when lam_1 != tau_1 and lam_2 != tau_2.
    """
    l1, l2, single = as_points(lam)
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
    l1, l2, single = require_interior(lam)
    if not single:
        raise InvalidInputError("quadrature_log_check takes one interior point, not a stack")
    l1, l2 = complex(l1[0]), complex(l2[0])
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
