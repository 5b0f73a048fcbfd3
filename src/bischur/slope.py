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
from typing import NamedTuple

import numpy as np

from . import boundary
from ._limits import refine_to_limit, stacked_samplers
from .errors import DomainError, InvalidInputError
from .linalg import as_matrix, as_vector
from .points import any_true, as_complex, as_point
from .representations import DiscreteMeasure01

__all__ = [
    "SlopePair",
    "slope_eval",
    "slope_measure",
    "directional_derivative_analytic",
    "directional_derivative_numeric",
    "pick_check",
    "PickReport",
]

# Eigenvalues of Y this close are one atom of the slope measure.
CLUSTER_TOL = 1e-8
# Extrapolation tolerance of a difference quotient, relative to 1 + |estimate|.
DERIVATIVE_TOL = 1e-8
# How far below zero pick_check lets either minimal imaginary part fall.
PICK_SLACK = 1e-12


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

    @classmethod
    def from_measure(cls, nu: DiscreteMeasure01) -> "SlopePair":
        """Diagonal operator model of an atomic measure: Y = diag(s_i),
        u_tau = (sqrt(w_i))."""
        if not nu.atoms:
            return cls(np.zeros((1, 1)), np.zeros(1))
        s = np.array([loc for loc, _ in nu.atoms], dtype=float)
        w = np.array([wt for _, wt in nu.atoms], dtype=float)
        return cls(np.diag(s).astype(complex), np.sqrt(w).astype(complex))


def slope_eval(pair: SlopePair, z):
    """Evaluate h(z) = -<(1 - Y + z Y)^{-1} u_tau, u_tau> off the cut, at a
    point (a complex) or an array of points (an array of the same shape)."""
    z = as_complex(z)
    on_cut = (z.imag == 0.0) & (z.real <= 0.0)
    if any_true(on_cut):
        raise DomainError(f"slope functions are undefined on the cut (-inf, 0]; "
                          f"got {np.extract(on_cut, z)[0]}")
    M = np.eye(pair.Y.shape[0]) + np.multiply.outer(z - 1.0, pair.Y)
    # einsum, not matmul: a point's digits must not depend on the stack size
    h = -np.einsum("...n,n->...", np.linalg.solve(M, pair.u_tau[:, None])[..., 0],
                   pair.u_tau.conj())
    return complex(h) if isinstance(z, complex) else h


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


def directional_derivative_analytic(phi_tau, tau, delta, h) -> complex:
    """Directional derivative from the slope formula, with ``h`` the slope
    function at tau (a callable on complex numbers, such as
    ``partial(slope_eval, pair)``).  delta must point into the bidisc at
    tau, as for an ``ApproachPath``."""
    tau, delta = boundary._inward(tau, delta)
    w1 = np.conj(tau[0]) * delta[0]
    w2 = np.conj(tau[1]) * delta[1]
    return complex(phi_tau) * w2 * h(w2 / w1)


def directional_derivative_numeric(phi, tau, deltas, phi_tau):
    """Difference-quotient estimates of D_{-delta} phi(tau) from the boundary
    value ``phi_tau``: one ``(estimate, LimitReport)`` pair per direction of
    the sequence ``deltas``, extrapolated to ``DERIVATIVE_TOL``.

    ``phi`` is called on stacks of points, so it must accept a stack (or
    return a constant): once on the first steps of every path together, and
    once more on the rest of a path only if its extrapolation reads past
    them; if a call raises a BischurError, its points are sampled on stacks
    of one as far as the extrapolations need.  Quotients are extrapolated
    with one elimination step, which removes the O(t) truncation term.
    """
    tau = as_point(tau)
    paths = [boundary.ApproachPath(tau, delta) for delta in deltas]
    d = np.array([path.delta for path in paths]).reshape(-1, 2)
    values = stacked_samplers(lambda j, t: phi((tau[0] - t * d[j, 0], tau[1] - t * d[j, 1])),
                              [path.steps for path in paths])
    phi_tau = complex(phi_tau)
    results = []
    for path, value in zip(paths, values):
        report = refine_to_limit(
            lambda k: (complex(value(k)) - phi_tau) / path.steps[k],
            path.steps,
            tol=DERIVATIVE_TOL,
        )
        results.append((report.estimate, report))
    return results


class PickReport(NamedTuple):
    min_im_h: float
    min_im_neg_zh: float
    passed: bool


def pick_check(h, grid) -> PickReport:
    """Minimal imaginary parts of h and -z h(z) on an upper-half-plane grid.

    ``h`` is called once, on the grid as a 1-D complex array, so it must
    return an array of that shape (or a constant).  Slope-type functions
    keep both minima nonnegative; the check passes when both stay above
    ``-PICK_SLACK``.
    """
    z = np.asarray(grid, dtype=complex).reshape(-1)
    if (z.imag <= 0).any():
        raise InvalidInputError("pick_check grid points must have Im z > 0")
    values = np.broadcast_to(h(z), z.shape)
    min_h = float(np.min(values.imag, initial=np.inf))
    min_zh = float(np.min((-z * values).imag, initial=np.inf))
    return PickReport(min_h, min_zh, min_h >= -PICK_SLACK and min_zh >= -PICK_SLACK)
