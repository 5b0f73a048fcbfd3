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
from .colligation import Colligation, _stack, model_vector
from .errors import InvalidInputError, NoSolutionError
from .linalg import DEFAULT_TOLERANCES, Tolerances, min_norm_solve
from .points import as_point, require_torus

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
    sup = np.maximum(np.abs(lam[0]), np.abs(lam[1]))
    return (1.0 - np.abs(value) ** 2) / (1.0 - sup ** 2)


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
    stack (or return a constant): once on the first steps, then on a stack
    of one for each step the extrapolation reads past them; if the first
    call raises a BischurError, its points are sampled on stacks of one as
    far as the extrapolation needs.  On a carapoint path this converges to
    the Caratheodory liminf; monotone blow-up past 1e6 raises DivergenceError,
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


def model_liminf(c, tau, tol: Tolerances = DEFAULT_TOLERANCES):
    """The limit of ``radial_liminf`` along the radius lam = (1 - t) tau for
    the function realized by ``c``, from its model vectors: by the model
    identity 1 - |phi|^2 = (1 - |lam_1|^2) ||P1 u_lam||^2 + (1 - |lam_2|^2)
    ||(1 - P1) u_lam||^2, and on the radius 1 - |lam_j|^2 = 1 - ||lam||_inf^2,
    so the quotient is ||u_lam||^2, with no cancellation.

    ``c`` and ``tau`` may also be two sequences, of colligations of one
    dimension and of one carapoint for each; a list of reports comes back,
    each what its colligation and carapoint give alone, digit for digit.
    One call is one ``stacked_samplers`` sampling: the first steps of every
    radius from one solve of a stack of the colligations, and a step read
    past them, or every step once that solve raised a BischurError, from a
    stack of one, as in ``radial_liminf``.
    """
    single = isinstance(c, Colligation)
    cs, taus = ([c], [tau]) if single else (list(c), list(tau))
    taus = np.array([require_torus(t) for t in taus]).reshape(-1, 2)
    if len(taus) != len(cs) or any(m.dim != cs[0].dim for m in cs):
        raise InvalidInputError(
            "a group needs colligations of one dimension and one carapoint for each")
    members = [(m.a, m.beta, m.gamma, m.D, m.P1) for m in cs]

    def norm_sq(seq, t):
        stack = _stack(Colligation, members, seq)
        tau1, tau2 = taus.take(seq, axis=0).T
        u = model_vector(stack, ((1.0 - t) * tau1, (1.0 - t) * tau2), tol)
        return (np.abs(u) ** 2).sum(-1)

    samplers = stacked_samplers(norm_sq, [STEPS] * len(cs))
    reports = [refine_to_limit(sample, STEPS, tol=LIMINF_TOL) for sample in samplers]
    return reports[0] if single else reports


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
