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

from ._limits import LimitReport, refine_to_limit
from .colligation import Colligation
from .errors import InvalidInputError, NoSolutionError
from .linalg import DEFAULT_TOLERANCES, Tolerances, min_norm_solve
from .points import TORUS_SLACK, as_point, require_boundary, require_interior, sup_norm

__all__ = [
    "ApproachPath",
    "default_steps",
    "julia_quotient",
    "radial_liminf",
    "nontangential_value",
    "is_carapoint",
]

def default_steps(n_steps: int = 40) -> np.ndarray:
    """Geometric step sequence t_k = 2^-k, k = 1..n_steps."""
    return 2.0 ** -np.arange(1, n_steps + 1)


@dataclass(frozen=True)
class ApproachPath:
    """A nontangential approach ``tau - t_k delta`` to a boundary point.

    Each unimodular coordinate of tau needs Re(conj(tau_j) delta_j) > 0 so
    the ray points into the bidisc; steps must be positive and decreasing.
    Steps whose point would leave the open bidisc are dropped up front.
    """

    tau: tuple[complex, complex]
    delta: tuple[complex, complex]
    steps: tuple[float, ...] = field(default_factory=lambda: tuple(default_steps()))

    def __post_init__(self):
        tau = require_boundary(self.tau)
        delta = as_point(self.delta)
        for t, d in zip(tau, delta):
            if abs(abs(t) - 1.0) <= TORUS_SLACK and (np.conj(t) * d).real <= 0:
                raise InvalidInputError(
                    "direction must satisfy Re(conj(tau_j) delta_j) > 0 "
                    "in every unimodular coordinate"
                )
        steps = tuple(float(s) for s in self.steps)
        if not steps or any(s <= 0 for s in steps):
            raise InvalidInputError("steps must be positive")
        if any(b >= a for a, b in zip(steps, steps[1:])):
            raise InvalidInputError("steps must be strictly decreasing")
        steps = tuple(
            s for s in steps
            if sup_norm((tau[0] - s * delta[0], tau[1] - s * delta[1])) < 1.0
        )
        if not steps:
            raise InvalidInputError("no step keeps the path inside the bidisc")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def radial(cls, tau, n_steps: int = 40) -> "ApproachPath":
        tau = require_boundary(tau)
        return cls(tau, tau, tuple(default_steps(n_steps)))

    @classmethod
    def along(cls, tau, delta, n_steps: int = 40) -> "ApproachPath":
        return cls(require_boundary(tau), as_point(delta), tuple(default_steps(n_steps)))

    def point(self, t: float) -> tuple[complex, complex]:
        return (self.tau[0] - t * self.delta[0], self.tau[1] - t * self.delta[1])


def julia_quotient(phi, lam) -> float:
    """(1 - |phi(lam)|^2) / (1 - ||lam||_inf^2) at an interior point.

    The squared form is the primitive here; it equals the model-vector norm
    ||u_lam||^2 for realized functions, and the unsquared quotient differs
    from it by a factor in [1/2, 2], so the two are finite together.
    """
    lam = require_interior(lam)
    value = complex(phi(lam))
    return float((1.0 - abs(value) ** 2) / (1.0 - sup_norm(lam) ** 2))


def radial_liminf(phi, path: ApproachPath, tol: float = 1e-9) -> LimitReport:
    """Extrapolated limit of the Julia quotient along a nontangential path.

    On a carapoint path this converges to the Caratheodory liminf; monotone
    blow-up past 1e6 raises DivergenceError, meaning the path provides no
    carapoint evidence.
    """
    return refine_to_limit(
        lambda t: julia_quotient(phi, path.point(t)),
        path.steps,
        path.steps,
        tol=tol,
    )


def nontangential_value(phi, path: ApproachPath, tol: float = 1e-10) -> LimitReport:
    """Extrapolated limit of phi itself along a nontangential path."""
    return refine_to_limit(
        lambda t: phi(path.point(t)),
        path.steps,
        path.steps,
        tol=tol,
    )


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
