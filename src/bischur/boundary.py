"""Carapoint detection and nontangential limits.

A boundary point tau is a carapoint of a Schur function phi when the Julia
quotient (1 - |phi|^2)/(1 - ||lam||_inf^2) stays bounded as lam -> tau; for a
realized function this is equivalent to gamma lying in ran(1 - D tau), which
is decided here by a minimal-norm solve.  Limits along nontangential paths
are estimated by geometric step sequences with first-order elimination.

Path-based estimates can certify carapoint behavior along the chosen paths
but cannot prove a point is *not* a carapoint; divergence along a path is
therefore reported as absence of evidence, not as proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._limits import LimitReport, refine_to_limit, stacked_samplers
from .colligation import Colligation, model_vector
from .errors import InvalidInputError, NoSolutionError
from .linalg import DEFAULT_TOLERANCES, Tolerances, min_norm_solve
from .points import as_point, require_torus, sup_norm

__all__ = [
    "ApproachPath",
    "radial_liminf",
    "model_liminf",
    "nontangential_value",
    "is_carapoint",
]

# The geometric steps t_k = 2^-k, k = 1..40, of every approach path.
STEPS = 2.0 ** -np.arange(1, 41)
# Extrapolation tolerances, relative to 1 + |estimate|: of the Julia
# quotient's liminf (path samples or model vectors) and of phi's value.
LIMINF_TOL = 1e-9
VALUE_TOL = 1e-10


def _inward(tau, delta):
    """(tau, delta) as points, with tau on the torus and delta pointing
    into the bidisc there: Re(conj(tau_j) delta_j) > 0 in each coordinate."""
    tau = require_torus(tau)
    delta = as_point(delta)
    if any((np.conj(t) * d).real <= 0 for t, d in zip(tau, delta)):
        raise InvalidInputError(
            "direction must satisfy Re(conj(tau_j) delta_j) > 0 in every coordinate"
        )
    return tau, delta


@dataclass(frozen=True)
class ApproachPath:
    """A nontangential approach ``tau - t_k delta`` to a point of the torus.

    Each coordinate needs Re(conj(tau_j) delta_j) > 0 so the ray points into
    the bidisc.  The steps t_k are those of ``STEPS`` whose point lies in the
    open bidisc.
    """

    tau: tuple[complex, complex]
    delta: tuple[complex, complex]
    steps: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        tau, delta = _inward(self.tau, self.delta)
        l1, l2 = tau[0] - STEPS * delta[0], tau[1] - STEPS * delta[1]
        t = STEPS[np.maximum(np.abs(l1), np.abs(l2)) < 1.0]
        if not t.size:
            raise InvalidInputError("no step keeps the path inside the bidisc")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "steps", tuple(t.tolist()))

    @classmethod
    def radial(cls, tau) -> "ApproachPath":
        return cls(tau, tau)

    def point(self, t):
        """tau - t delta; for an array of steps, the stack of those points."""
        return (self.tau[0] - t * self.delta[0], self.tau[1] - t * self.delta[1])


def _quotient(value, lam):
    """The Julia quotient (1 - |phi|^2)/(1 - ||lam||_inf^2) from the values
    of phi at lam.

    The squared form is the primitive here; it equals the model-vector norm
    ||u_lam||^2 for realized functions, and the unsquared quotient differs
    from it by a factor in [1/2, 2], so the two are finite together.
    """
    return (1.0 - np.abs(value) ** 2) / (1.0 - sup_norm(lam) ** 2)


def _radial_samples(phi, path: ApproachPath):
    """A sampler of the rows (phi, Julia quotient) at the path's steps, for
    ``refine_to_limit``.  ``phi`` is called as ``radial_liminf`` says."""
    def sample(seq, t):
        lam = path.point(t)
        value = np.broadcast_to(phi(lam), t.shape)
        return np.stack([value, _quotient(value, lam)], axis=-1)

    return stacked_samplers(sample, [path.steps])[0]


def _limit(rows, path: ApproachPath, column: int, tol: float) -> LimitReport:
    return refine_to_limit(lambda k: rows(k)[column], path.steps, tol=tol)


def radial_liminf(phi, path: ApproachPath) -> LimitReport:
    """Extrapolated limit of the Julia quotient along a nontangential path,
    to ``LIMINF_TOL``.

    ``phi`` is called on stacks of the path's points, so it must accept a
    stack (or return a constant): once on the first steps, and once more on
    the rest only if the extrapolation reads past them; if a call raises a
    BischurError, its points are sampled on stacks of one as far as the
    extrapolation needs.  On a carapoint path this converges to the
    Caratheodory liminf; monotone blow-up past 1e6 raises DivergenceError,
    meaning the path provides no carapoint evidence.
    """
    return _limit(_radial_samples(phi, path), path, 1, LIMINF_TOL)


def nontangential_value(phi, path: ApproachPath) -> LimitReport:
    """Extrapolated limit of phi itself along a nontangential path, to
    ``VALUE_TOL``; ``phi`` is sampled as in ``radial_liminf``."""
    return _limit(_radial_samples(phi, path), path, 0, VALUE_TOL)


def _value_and_liminf(phi, path: ApproachPath) -> tuple[LimitReport, LimitReport]:
    """``nontangential_value`` and ``radial_liminf`` from one sampling of
    ``phi``.  The liminf is extrapolated first."""
    rows = _radial_samples(phi, path)
    liminf = _limit(rows, path, 1, LIMINF_TOL)
    return _limit(rows, path, 0, VALUE_TOL), liminf


def _one_minus_abs_sq(tau_j: complex, delta_j: complex, t):
    """1 - |tau_j - t delta_j|^2 without cancellation, for |tau_j| = 1:
    t (2 Re(conj(tau_j) delta_j) - t |delta_j|^2)."""
    return t * (2.0 * (np.conj(tau_j) * delta_j).real - t * abs(delta_j) ** 2)


def model_liminf(c: Colligation, path: ApproachPath,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> LimitReport:
    """The limit of ``radial_liminf`` for the function realized by ``c``,
    with the Julia quotient taken from the model vectors.

    By the model identity 1 - |phi(lam)|^2 = (1 - |lam_1|^2) ||P1 u_lam||^2
    + (1 - |lam_2|^2) ||(1 - P1) u_lam||^2, and each 1 - |lam_j|^2 is formed
    from the path data, so the quotient never subtracts two numbers near 1;
    on the radial path it is ||u_lam||^2.  The model vectors come from
    stacked solves, with the same head-then-tail calls and stack-of-one
    fallback as ``radial_liminf``.
    """
    def quotient(seq, t):
        u = model_vector(c, path.point(t), tol)
        # einsum, not matmul: a point's digits must not depend on the stack size
        p1u = np.einsum("kj,ij->ki", u, c.P1)
        norm1 = (np.abs(p1u) ** 2).sum(-1)
        norm2 = (np.abs(u - p1u) ** 2).sum(-1)
        d1, d2 = (_one_minus_abs_sq(tj, dj, t) for tj, dj in zip(path.tau, path.delta))
        d = np.minimum(d1, d2)
        return norm1 * (d1 / d) + norm2 * (d2 / d)

    return refine_to_limit(stacked_samplers(quotient, [path.steps])[0], path.steps,
                           tol=LIMINF_TOL)


def is_carapoint(c: Colligation, tau, tol: Tolerances = DEFAULT_TOLERANCES):
    """Decide whether tau on the torus is a carapoint of the realized function.

    Returns ``(True, witness)`` where the witness is the minimal-norm solution
    of (1 - D tau) u = gamma (the boundary model vector u_tau), or
    ``(False, None)`` when gamma is outside the range.  For a unitary L in
    finite dimensions gamma always lies in the range (the kernel of 1 - D tau
    reduces the contraction D tau), so the negative branch signals non-unitary
    or numerically borderline data.
    """
    tau = require_torus(tau)
    M = np.eye(c.dim) - c.D @ c.pencil(tau)
    try:
        witness = min_norm_solve(M, c.gamma, tol)
    except NoSolutionError:
        return False, None
    return True, witness
