"""Slope functions at carapoints.

Every carapoint of a Schur function on the bidisc carries a slope function

    h(z) = - < (1 - Y + z Y)^{-1} u_tau, u_tau >

built from the desingularized model data (Y, u_tau); it encodes all
directional derivatives through

    D_{-delta} phi(tau) = phi(tau) conj(tau_2) delta_2
                          h( conj(tau_2) delta_2 / (conj(tau_1) delta_1) ).

Both h and -z h(z) lie in the Pick class, h is real on (0, inf), and
h(1) = -||u_tau||^2 equals minus the Caratheodory liminf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates
from ._limits import STEPS, refine_to_limit, stacked_samplers
from .errors import DomainError, InvalidInputError
from .linalg import as_matrix, as_vector
from .points import as_point, as_values, require_torus
from .representations import DiscreteMeasure01

__all__ = [
    "SlopePair",
    "slope_eval",
    "slope_measure",
    "directional_derivative_analytic",
    "directional_derivative_numeric",
    "derivative_checks",
    "pick_check",
]

# Eigenvalues of Y this close are one atom of the slope measure.
CLUSTER_TOL = 1e-8
# Extrapolation tolerance of a difference quotient, relative to 1 + |estimate|.
DERIVATIVE_TOL = 1e-8


@dataclass(frozen=True)
class SlopePair:
    """A positive contraction Y together with the boundary vector u_tau."""

    Y: np.ndarray
    u_tau: np.ndarray

    def __post_init__(self):
        Y = as_matrix(self.Y, "Y")
        u = as_vector(self.u_tau, "u_tau")
        if Y.shape[0] != Y.shape[1] or Y.shape[0] != u.shape[0]:
            raise InvalidInputError("Y must be square and match u_tau")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "u_tau", u)

    @classmethod
    def from_realization(cls, g) -> "SlopePair":
        """Extract (Y, u_tau) from a desingularized realization."""
        return cls(g.Y, g.u_tau)


def slope_eval(pair: SlopePair, z):
    """Evaluate h(z) = -<(1 - Y + z Y)^{-1} u_tau, u_tau> off the cut, at a
    point (a complex) or an array of points (an array of the same shape).

    ``pair`` may also be a stack of k pairs of one dimension (see
    ``colligation._stack``) with z an array of k points, one row per point;
    each value is then what its pair gives alone, digit for digit.
    """
    z, single = as_values(z)
    on_cut = (z.imag == 0.0) & (z.real <= 0.0)
    if on_cut.any():
        raise DomainError(f"slope functions are undefined on the cut (-inf, 0]; "
                          f"got {z[on_cut][0]}")
    M = np.eye(pair.Y.shape[-1]) + (z - 1.0)[..., None, None] * pair.Y
    # einsum, not matmul: a point's digits must not depend on the stack size
    h = -np.einsum("...n,...n->...", np.linalg.solve(M, pair.u_tau[..., None])[..., 0],
                   pair.u_tau.conj())
    return complex(h[0]) if single else h


def slope_measure(pair: SlopePair) -> DiscreteMeasure01:
    """Spectral measure of the slope pair: eigenvalues of Y with weights
    |<u_tau, e_i>|^2, eigenvalues clustered within ``CLUSTER_TOL``."""
    eigs, vecs = np.linalg.eigh(0.5 * (pair.Y + pair.Y.conj().T))
    weights = np.abs(vecs.conj().T @ pair.u_tau) ** 2
    atoms: list[tuple[float, float]] = []
    for s, w in zip(eigs, weights):
        s = min(max(float(s), 0.0), 1.0)
        if atoms and abs(s - atoms[-1][0]) <= CLUSTER_TOL:
            atoms[-1] = (atoms[-1][0], atoms[-1][1] + float(w))
        else:
            atoms.append((s, float(w)))
    return DiscreteMeasure01(tuple((s, w) for s, w in atoms if w > 1e-14))


def _line(tau, delta):
    """(delta, steps): delta as a point, pointing into the bidisc at the torus
    point tau, as ``require_torus`` gives it (Re(conj(tau_j) delta_j) > 0 in
    each coordinate), and the steps of ``STEPS``, at least one, at which
    tau - t delta is in the bidisc."""
    delta = as_point(delta)
    if any((np.conj(t) * d).real <= 0 for t, d in zip(tau, delta)):
        raise InvalidInputError(
            "direction must satisfy Re(conj(tau_j) delta_j) > 0 in every coordinate"
        )
    l1, l2 = tau[0] - STEPS * delta[0], tau[1] - STEPS * delta[1]
    steps = STEPS[np.maximum(np.abs(l1), np.abs(l2)) < 1.0]
    if not steps.size:
        raise InvalidInputError("no step keeps the line inside the bidisc")
    return delta, steps


def _lines(tau, deltas):
    """(d, steps): the ``_line`` of each direction of ``deltas`` at the torus
    point tau, the directions as the rows of an (n, 2) array and a list of
    each line's steps."""
    lines = [_line(tau, delta) for delta in deltas]
    return (np.array([delta for delta, _ in lines], dtype=complex).reshape(-1, 2),
            [steps for _, steps in lines])


def _analytic(phi_tau, tau, d, h):
    """The slope formula at the torus point tau along the rows of ``d``."""
    w1 = np.conj(tau[0]) * d[:, 0]
    w2 = np.conj(tau[1]) * d[:, 1]
    return complex(phi_tau) * w2 * h(w2 / w1)


def _numeric(phi, tau, d, steps, phi_tau):
    """The difference quotients of ``phi`` at the point tau along the rows of
    ``d``, each over its line's ``steps``."""
    values = stacked_samplers(lambda j, t: phi((tau[0] - t * d[j, 0], tau[1] - t * d[j, 1])),
                              steps)
    phi_tau = complex(phi_tau)
    return [refine_to_limit(lambda k: (complex(value(k)) - phi_tau) / line[k], line,
                            tol=DERIVATIVE_TOL)
            for line, value in zip(steps, values)]


def directional_derivative_analytic(phi_tau, tau, deltas, h) -> np.ndarray:
    """Directional derivatives from the slope formula, one per direction of
    the sequence ``deltas``, as a complex array.  ``h`` is the slope function
    at tau, such as ``partial(slope_eval, pair)``; it is called once, on the
    array of the directions' arguments conj(tau_2) delta_2 / (conj(tau_1)
    delta_1).  Each delta must be a line of ``directional_derivative_numeric``."""
    tau = require_torus(tau)
    return _analytic(phi_tau, tau, _lines(tau, deltas)[0], h)


def directional_derivative_numeric(phi, tau, deltas, phi_tau):
    """Difference-quotient estimates of D_{-delta} phi(tau) from the boundary
    value ``phi_tau``: one ``LimitReport`` per direction of the sequence
    ``deltas``, extrapolated to ``DERIVATIVE_TOL`` along the line tau - t delta
    over the steps t = 2^-k, k = 1..40, that keep it in the bidisc (some must).
    tau must be within ``TORUS_SLACK`` of the torus; the lines start at tau as
    given, and their steps are those of tau put on the torus.

    ``phi`` is called on stacks of points, so it must accept a stack (or
    return a constant): once on the first steps of every line together,
    then on a stack of one for each step an extrapolation reads past them;
    if the first call raises a BischurError, its points are sampled on
    stacks of one as far as the extrapolations need.  Quotients are
    extrapolated with one elimination step, which removes the O(t)
    truncation term.
    """
    point = as_point(tau)
    return _numeric(phi, point, *_lines(require_torus(point), deltas), phi_tau)


def derivative_checks(phi, tau, phi_tau, deltas, h) -> list[dict]:
    """The slope formula checked along each direction of ``deltas``: one
    record per direction with its ``delta``, the ``numeric`` difference
    quotient limit of ``phi`` (see ``directional_derivative_numeric``), the
    ``analytic`` value from the slope function ``h`` (see
    ``directional_derivative_analytic``), ``abs_err``, ``rel_err`` (relative
    to 1 + |analytic|) and whether the quotients ``converged``.  Both sides
    read one validation of tau and of each direction's line."""
    point = as_point(tau)
    torus = require_torus(point)
    d, steps = _lines(torus, deltas)
    checks = []
    for delta, report, analytic in zip(d.tolist(), _numeric(phi, point, d, steps, phi_tau),
                                       _analytic(phi_tau, torus, d, h).tolist()):
        abs_err = abs(report.estimate - analytic)
        checks.append({"delta": tuple(delta), "numeric": report.estimate,
                       "analytic": analytic, "abs_err": abs_err,
                       "rel_err": abs_err / (1.0 + abs(analytic)),
                       "converged": report.converged})
    return checks


def pick_check(h, grid) -> dict:
    """Minimal imaginary parts of h and -z h(z) on an upper-half-plane grid,
    as ``{"min_im_h", "min_im_neg_zh", "pass"}``.

    ``h`` is called once, on the grid as a 1-D complex array, so it must
    return an array of that shape (or a constant), or one such row per
    function of a family, whose minima are then taken over every row.
    Slope-type functions keep both minima nonnegative; the check passes
    when neither is below ``-gates.PICK_SLACK``, or names the first that is.
    """
    z = np.asarray(grid, dtype=complex).reshape(-1)
    if (z.imag <= 0).any():
        raise InvalidInputError("pick_check grid points must have Im z > 0")
    values, z = np.broadcast_arrays(h(z), z)
    min_h = float(np.min(values.imag, initial=np.inf))
    min_zh = float(np.min((-z * values).imag, initial=np.inf))
    report = {"min_im_h": min_h, "min_im_neg_zh": min_zh}
    return gates.verdict(report, [gates.within(name, figure, "ge", -gates.PICK_SLACK)
                                  for name, figure in report.items()])
