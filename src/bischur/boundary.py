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

from ._limits import LimitReport, presample, refine_to_limit
from .colligation import Colligation, model_vector
from .errors import InvalidInputError, NoSolutionError
from .linalg import DEFAULT_TOLERANCES, Tolerances, min_norm_solve
from .points import TORUS_SLACK, as_point, require_boundary, require_interior, sup_norm

__all__ = [
    "ApproachPath",
    "default_steps",
    "julia_quotient",
    "radial_liminf",
    "model_liminf",
    "nontangential_value",
    "is_carapoint",
]

def default_steps(n_steps: int = 40) -> np.ndarray:
    """Geometric step sequence t_k = 2^-k, k = 1..n_steps."""
    return 2.0 ** -np.arange(1, n_steps + 1)


def _inward(tau, delta):
    """(tau, delta) as points, with tau on the boundary and delta pointing
    into the bidisc there: Re(conj(tau_j) delta_j) > 0 in each unimodular
    coordinate."""
    tau = require_boundary(tau)
    delta = as_point(delta)
    for t, d in zip(tau, delta):
        if abs(abs(t) - 1.0) <= TORUS_SLACK and (np.conj(t) * d).real <= 0:
            raise InvalidInputError(
                "direction must satisfy Re(conj(tau_j) delta_j) > 0 "
                "in every unimodular coordinate"
            )
    return tau, delta


@dataclass(frozen=True)
class ApproachPath:
    """A nontangential approach ``tau - t_k delta`` to a boundary point.

    Each unimodular coordinate of tau needs Re(conj(tau_j) delta_j) > 0 so
    the ray points into the bidisc; steps must be finite, positive and
    strictly decreasing.
    Steps whose point would leave the open bidisc are dropped up front.
    """

    tau: tuple[complex, complex]
    delta: tuple[complex, complex]
    steps: tuple[float, ...] = field(default_factory=lambda: tuple(default_steps()))

    def __post_init__(self):
        tau, delta = _inward(self.tau, self.delta)
        t = np.asarray(self.steps, dtype=float)
        if t.ndim != 1 or not t.size or not (np.isfinite(t) & (t > 0)).all():
            raise InvalidInputError("steps must be finite and positive")
        if (t[1:] >= t[:-1]).any():
            raise InvalidInputError("steps must be strictly decreasing")
        l1, l2 = tau[0] - t * delta[0], tau[1] - t * delta[1]
        t = t[np.maximum(np.abs(l1), np.abs(l2)) < 1.0]
        if not t.size:
            raise InvalidInputError("no step keeps the path inside the bidisc")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "steps", tuple(t.tolist()))

    @classmethod
    def radial(cls, tau, n_steps: int = 40) -> "ApproachPath":
        tau = require_boundary(tau)
        return cls(tau, tau, default_steps(n_steps))

    def point(self, t):
        """tau - t delta; for an array of steps, the stack of those points."""
        return (self.tau[0] - t * self.delta[0], self.tau[1] - t * self.delta[1])


def julia_quotient(phi, lam):
    """(1 - |phi(lam)|^2) / (1 - ||lam||_inf^2) at an interior point, or as
    an array at a stack of points (``phi`` is then called once on the stack).

    The squared form is the primitive here; it equals the model-vector norm
    ||u_lam||^2 for realized functions, and the unsquared quotient differs
    from it by a factor in [1/2, 2], so the two are finite together.
    """
    lam = require_interior(lam)
    quotient = _quotient(np.broadcast_to(phi(lam), np.shape(lam[0])), lam)
    return quotient if isinstance(lam[0], np.ndarray) else float(quotient)


def _quotient(value, lam):
    """The Julia quotient from the values of phi at lam."""
    return (1.0 - np.abs(value) ** 2) / (1.0 - sup_norm(lam) ** 2)


def radial_liminf(phi, path: ApproachPath, tol: float = 1e-9) -> LimitReport:
    """Extrapolated limit of the Julia quotient along a nontangential path.

    ``phi`` is called on stacks of the path's points, so it must accept a
    stack (or return a constant): once on the first steps, and once more on
    the rest only if the extrapolation reads past them; if a call raises a
    BischurError, its points are sampled one by one as far as the
    extrapolation needs.  On a carapoint path this converges to the
    Caratheodory liminf; monotone blow-up past 1e6 raises DivergenceError,
    meaning the path provides no carapoint evidence.
    """
    sample = presample(lambda t: julia_quotient(phi, path.point(t)), path.steps)
    return refine_to_limit(sample, path.steps, path.steps, tol=tol)


def _value_and_liminf(phi, path: ApproachPath) -> tuple[LimitReport, LimitReport]:
    """``nontangential_value`` and ``radial_liminf`` (at their default
    tolerances) from one sampling of ``phi``: the Julia quotient is formed
    from the same values of phi.  The liminf is extrapolated first."""
    def sample(t):
        lam = path.point(t)
        value = np.broadcast_to(phi(lam), np.shape(t))
        return np.stack([value, _quotient(value, lam)], axis=-1)

    rows = presample(sample, path.steps)
    liminf = refine_to_limit(lambda t: rows(t)[1], path.steps, path.steps, tol=1e-9)
    value = refine_to_limit(lambda t: rows(t)[0], path.steps, path.steps, tol=1e-10)
    return value, liminf


def _one_minus_abs_sq(tau_j: complex, delta_j: complex, t):
    """1 - |tau_j - t delta_j|^2 without cancellation: on a unimodular
    coordinate it is t (2 Re(conj(tau_j) delta_j) - t |delta_j|^2)."""
    base = 0.0 if abs(abs(tau_j) - 1.0) <= TORUS_SLACK else 1.0 - abs(tau_j) ** 2
    return base + t * (2.0 * (np.conj(tau_j) * delta_j).real - t * abs(delta_j) ** 2)


def model_liminf(c: Colligation, path: ApproachPath,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> LimitReport:
    """The limit of ``radial_liminf`` for the function realized by ``c``,
    with the Julia quotient taken from the model vectors.

    By the model identity 1 - |phi(lam)|^2 = (1 - |lam_1|^2) ||P1 u_lam||^2
    + (1 - |lam_2|^2) ||(1 - P1) u_lam||^2, and each 1 - |lam_j|^2 is formed
    from the path data, so the quotient never subtracts two numbers near 1;
    on the radial path it is ||u_lam||^2.  The model vectors come from
    stacked solves, with the same head-then-tail calls and point-by-point
    fallback as ``radial_liminf``.
    """
    def quotient(t):
        u = model_vector(c, path.point(t), tol)
        p1u = u @ c.P1.T
        norm1 = (np.abs(p1u) ** 2).sum(-1)
        norm2 = (np.abs(u - p1u) ** 2).sum(-1)
        d1, d2 = (_one_minus_abs_sq(tj, dj, t) for tj, dj in zip(path.tau, path.delta))
        d = np.minimum(d1, d2)
        return norm1 * (d1 / d) + norm2 * (d2 / d)

    return refine_to_limit(presample(quotient, path.steps), path.steps, path.steps,
                           tol=1e-9)


def nontangential_value(phi, path: ApproachPath, tol: float = 1e-10) -> LimitReport:
    """Extrapolated limit of phi itself along a nontangential path.

    ``phi`` is called on stacks of the path's points, as in
    ``radial_liminf``."""
    sample = presample(lambda t: phi(path.point(t)), path.steps)
    return refine_to_limit(sample, path.steps, path.steps, tol=tol)


def is_carapoint(c: Colligation, tau, tol: Tolerances = DEFAULT_TOLERANCES):
    """Decide whether tau on the torus is a carapoint of the realized function.

    Returns ``(True, witness)`` where the witness is the minimal-norm solution
    of (1 - D tau) u = gamma (the boundary model vector u_tau), or
    ``(False, None)`` when gamma is outside the range.  For a unitary L in
    finite dimensions gamma always lies in the range (the kernel of 1 - D tau
    reduces the contraction D tau), so the negative branch signals non-unitary
    or numerically borderline data.
    """
    tau = as_point(tau)
    if any(abs(abs(t) - 1.0) > TORUS_SLACK for t in tau):
        raise InvalidInputError("carapoint detection requires a torus point")
    M = np.eye(c.dim) - c.D @ c.pencil(tau)
    try:
        witness = min_norm_solve(M, c.gamma, tol)
    except NoSolutionError:
        return False, None
    return True, witness
