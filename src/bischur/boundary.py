"""Carapoint detection and limits along the radius.

A boundary point tau is a carapoint of a Schur function phi when the Julia
quotient (1 - |phi|^2)/(1 - ||lam||_inf^2) stays bounded as lam -> tau; for a
realized function this is equivalent to gamma lying in ran(1 - D tau), which
is decided here by a minimal-norm solve.  Limits of a black-box phi are
taken along the radius tau - t tau over the geometric steps ``STEPS``, with
first-order elimination; lines through tau belong to ``slope``.

A radial estimate can certify carapoint behavior along the radius but cannot
prove a point is *not* a carapoint; divergence is therefore reported as
absence of evidence, not as proof.
"""

from __future__ import annotations

import numpy as np

from ._limits import STEPS, LimitReport, refine_to_limit, stacked_samplers
from .colligation import Colligation, _stack, model_vector
from .errors import InvalidInputError, NoSolutionError
from .linalg import DEFAULT_TOLERANCES, Tolerances, min_norm_solve
from .points import as_point, require_torus

__all__ = [
    "radial_liminf",
    "model_liminf",
    "nontangential_value",
    "is_carapoint",
]

# Extrapolation tolerances, relative to 1 + |estimate|: of the Julia
# quotient's liminf (radial samples or model vectors) and of phi's value.
LIMINF_TOL = 1e-9
VALUE_TOL = 1e-10


def _quotient(value, lam):
    """The Julia quotient (1 - |phi|^2)/(1 - ||lam||_inf^2) from the values
    of phi at lam.

    The squared form is the primitive here; it equals the model-vector norm
    ||u_lam||^2 for realized functions, and the unsquared quotient differs
    from it by a factor in [1/2, 2], so the two are finite together.
    """
    sup = np.maximum(np.abs(lam[0]), np.abs(lam[1]))
    return (1.0 - np.abs(value) ** 2) / (1.0 - sup ** 2)


def _radial_samples(phi, tau):
    """A sampler of the rows (phi, Julia quotient) at tau - t tau, tau put on
    the torus and t times tau as given, over ``STEPS``, as ``radial_liminf`` says."""
    delta = as_point(tau)
    tau = require_torus(tau)

    def sample(seq, t):
        lam = (tau[0] - t * delta[0], tau[1] - t * delta[1])
        value = np.broadcast_to(phi(lam), t.shape)
        return np.stack([value, _quotient(value, lam)], axis=-1)

    return stacked_samplers(sample, [STEPS])[0]


def _limit(rows, column: int, tol: float) -> LimitReport:
    return refine_to_limit(lambda k: rows(k)[column], STEPS, tol=tol)


def radial_liminf(phi, tau) -> LimitReport:
    """Extrapolated limit of the Julia quotient along the radius to the torus
    point tau, to ``LIMINF_TOL``.

    ``phi`` is called on stacks of the radius's points, so it must accept a
    stack (or return a constant): once on the first steps, then on a stack
    of one for each step the extrapolation reads past them; if the first
    call raises a BischurError, its points are sampled on stacks of one as
    far as the extrapolation needs.  At a carapoint this converges to the
    Caratheodory liminf; monotone blow-up past 1e6 raises DivergenceError,
    meaning the radius provides no carapoint evidence.
    """
    return _limit(_radial_samples(phi, tau), 1, LIMINF_TOL)


def nontangential_value(phi, tau) -> LimitReport:
    """Extrapolated limit of phi itself along the radius to tau, to
    ``VALUE_TOL``, the nontangential value at a carapoint; ``phi`` is
    sampled as in ``radial_liminf``."""
    return _limit(_radial_samples(phi, tau), 0, VALUE_TOL)


def _value_and_liminf(phi, tau) -> tuple[LimitReport, LimitReport]:
    """``nontangential_value`` and ``radial_liminf`` from one sampling of
    ``phi``.  The liminf is extrapolated first."""
    rows = _radial_samples(phi, tau)
    liminf = _limit(rows, 1, LIMINF_TOL)
    return _limit(rows, 0, VALUE_TOL), liminf


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
