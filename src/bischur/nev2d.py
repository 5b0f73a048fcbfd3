"""Two-variable Nevanlinna representations via a self-adjoint resolvent.

A function in the two-variable Pick class with a finite-value carapoint at
infinity is exactly one of the form

    h(z) = b - < (B + z1 Y + z2 (1 - Y))^{-1} alpha, alpha >

with b real, B Hermitian and Y a positive contraction.  The data is
extracted from a desingularized Schur realization at (1, 1) through the
Cayley transform J = i (1 + L)(1 - L)^{-1} of the unitary block operator L;
the transform exists precisely when the boundary value of the Schur function
at (1, 1) differs from 1, the obstruction reported otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._limits import refine_to_limit, stacked_samplers
from .colligation import _block_operator
from .desingularize import GeneralizedRealization, eval_phi_gen
from .errors import (
    DivergenceError,
    DomainError,
    IllConditionedError,
    InternalInconsistencyError,
    InvalidInputError,
    ObstructionError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_matrix,
    as_vector,
    guarded_solve,
    structure_check,
)
from .points import as_point, as_points, as_scalar, as_values, require_upper_half_plane

__all__ = [
    "TwoVarNevRep",
    "eval_h2",
    "carapoint_at_infinity",
    "InfinityCarapoint",
    "to_bidisc",
    "pick_value_from_schur",
    "schur_value_from_pick",
    "rep_from_schur",
    "VERIFICATION_GRID",
]

_GRID_COORDS = (0.5j, 1j, 1 + 1j, -1 + 2j, 3j)
VERIFICATION_GRID = tuple((z1, z2) for z1 in _GRID_COORDS for z2 in _GRID_COORDS)
_GRID_STACK = tuple(np.array(VERIFICATION_GRID).T)
# The diagonal ray (iy, iy) of carapoint_at_infinity, y = 2^2 .. 2^25, and
# the tolerance of its extrapolations, relative to 1 + |estimate|.
INFINITY_YS = tuple(float(2.0 ** k) for k in range(2, 26))
INFINITY_TOL = 1e-8


@dataclass(frozen=True)
class TwoVarNevRep:
    """Resolvent-representation data (b, alpha, B, Y)."""

    b: float
    alpha: np.ndarray
    B: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        b = as_scalar(self.b, "b must be a finite real number", float)
        alpha = as_vector(self.alpha, "alpha")
        B = as_matrix(self.B, "B")
        Y = as_matrix(self.Y, "Y")
        m = alpha.shape[0]
        if B.shape != (m, m) or Y.shape != (m, m):
            raise InvalidInputError("alpha, B and Y must share one dimension")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Y", Y)

    @property
    def dim(self) -> int:
        return self.alpha.shape[-1]


def eval_h2(rep: TwoVarNevRep, z, tol: Tolerances = DEFAULT_TOLERANCES):
    """Evaluate b - <(B + z1 Y + z2 (1 - Y))^{-1} alpha, alpha> on the
    upper half-plane squared: a complex at a point, a complex array at a
    stack of points, solved at once by ``guarded_solve`` at
    ``tol.solve_cond_max``.  ``rep`` may also be a stack of representations
    of one dimension with one row per point (see ``colligation._stack``)."""
    z1, z2, single = require_upper_half_plane(z)
    T = (rep.B + z1[:, None, None] * rep.Y
         + z2[:, None, None] * (np.eye(rep.dim) - rep.Y))
    # einsum, not matmul: a point's digits must not depend on the stack size
    x = guarded_solve(T, rep.alpha[..., None], (z1, z2), tol.solve_cond_max)[..., 0]
    h = rep.b - np.einsum("...n,...n->...", x, rep.alpha.conj())
    return complex(h[0]) if single else h


class InfinityCarapoint(NamedTuple):
    """The carapoint at infinity along the diagonal ray: ``finite`` when
    y Im h(iy, iy) has a finite limit, ``limit``, and then ``value``, the
    extrapolated h(iy, iy), with ``converged`` the flag of that second
    extrapolation."""

    finite: bool
    limit: float | None
    value: complex | None
    converged: bool = False


_GROWTH_XS = [1.0 / (y * y) for y in INFINITY_YS]
_VALUE_XS = [1.0 / y for y in INFINITY_YS]


def _infinity(value) -> InfinityCarapoint:
    """The carapoint at infinity from a sampler of h(iy, iy) over INFINITY_YS."""
    ys = INFINITY_YS
    try:
        growth = refine_to_limit(lambda k: ys[k] * complex(value(k)).imag, _GROWTH_XS,
                                 tol=INFINITY_TOL)
    except DivergenceError:
        return InfinityCarapoint(False, None, None)
    if not growth.converged:
        return InfinityCarapoint(False, None, None)
    limit = refine_to_limit(value, _VALUE_XS, tol=INFINITY_TOL)
    return InfinityCarapoint(True, float(growth.estimate.real), complex(limit.estimate),
                             limit.converged)


def carapoint_at_infinity(h, count=None):
    """Detect a finite-value carapoint at infinity along the diagonal ray.

    Extrapolates y Im h(iy, iy) as y -> infinity over ``INFINITY_YS``, to
    ``INFINITY_TOL``; convergence to a finite limit is the carapoint
    condition, and the value is the extrapolated h(iy, iy).  Divergence is
    encoded as ``finite=False``.  ``h`` is called once, on the stack of all
    the points (iy, iy), so it must accept a stack (or return a constant);
    if that call raises a BischurError, the points are sampled on stacks of
    one as far as the extrapolation needs.

    With ``count``, ``h`` is a family of ``count`` functions sampled
    together: ``h(seq, z)`` gives at point i of the stack z the value of
    function ``seq[i]``.  A list of ``count`` results comes back, each what
    its function gives alone, digit for digit: one call of ``h`` covers the
    ray of every function, and a point past it, or every point once that
    call raised, is taken for its own function on a stack of one.
    """
    family = h if count is not None else (lambda seq, z: h(z))
    samplers = stacked_samplers(lambda seq, y: family(seq, (1j * y, 1j * y)),
                                [INFINITY_YS] * (1 if count is None else count))
    results = [_infinity(value) for value in samplers]
    return results[0] if count is None else results


def to_bidisc(z):
    """Inverse coordinatewise Cayley map lam_j = (z_j - i)/(z_j + i), at a
    point or a stack of points."""
    z1, z2, single = as_points(z)
    lam = schur_value_from_pick(z1), schur_value_from_pick(z2)
    return tuple(complex(v[0]) for v in lam) if single else lam


def pick_value_from_schur(w):
    """i (1 + w)/(1 - w), at a value or an array of values."""
    w, single = as_values(w)
    if (w == 1.0).any():
        raise DomainError("the value map is singular at 1")
    v = 1j * (1.0 + w) / (1.0 - w)
    return complex(v[0]) if single else v


def schur_value_from_pick(v):
    """(v - i)/(v + i), at a value or an array of values."""
    v, single = as_values(v)
    if (v == -1j).any():
        raise DomainError("the value map is singular at -i")
    w = (v - 1j) / (v + 1j)
    return complex(w[0]) if single else w


def rep_from_schur(g: GeneralizedRealization,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> TwoVarNevRep:
    """Extract the resolvent representation from a desingularization at (1, 1).

    Assembles L = [[a, beta*], [gamma, Q]], requires it unitary with 1 outside
    its spectrum (otherwise the boundary value is 1 and the representation is
    obstructed: ``guarded_solve`` refuses 1 - L above the ceiling
    min(1 / rank_rel, solve_cond_max)), forms the Hermitian Cayley transform
    J = i (1 + L)(1 - L)^{-1} and reads off b, alpha, B from its blocks; Y is
    inherited from the model.  The result is verified against the Cayley
    transform of the realized function on a fixed grid.
    """
    tau = as_point(g.tau)
    if abs(tau[0] - 1.0) > 1e-12 or abs(tau[1] - 1.0) > 1e-12:
        raise InvalidInputError(
            "the representation is extracted at the boundary point (1, 1)"
        )
    L = _block_operator(g.a, g.beta, g.gamma, g.Q)
    unitary = structure_check(L, "unitary", tol)
    if not unitary.ok:
        raise InvalidInputError(
            f"the generalized realization is not unitary (residual "
            f"{unitary.residual:.3e}); no Hermitian Cayley transform exists"
        )
    eye = np.eye(g.dim + 1)
    try:
        J = guarded_solve((eye - L)[None], 1j * (eye + L), ((tau[0],), (tau[1],)),
                          min(1.0 / tol.rank_rel, tol.solve_cond_max))[0]
    except IllConditionedError as exc:
        raise ObstructionError(
            "1 lies in the spectrum of the realization: the function has "
            "boundary value 1 at (1, 1) and no finite-value carapoint at "
            "infinity, so the resolvent representation does not exist"
        ) from exc
    herm = float(np.linalg.norm(J - J.conj().T, 2))
    if herm > tol.structural * (1.0 + float(np.linalg.norm(J, 2))):
        raise InternalInconsistencyError(
            f"Cayley transform is not Hermitian (residual {herm:.3e})"
        )
    J = 0.5 * (J + J.conj().T)
    rep = TwoVarNevRep(b=J[0, 0].real, alpha=J[1:, 0], B=J[1:, 1:], Y=g.Y)
    target = pick_value_from_schur(eval_phi_gen(g, to_bidisc(_GRID_STACK), tol))
    worst = float(np.max(np.abs(eval_h2(rep, _GRID_STACK, tol) - target)))
    if not worst <= 1e-8:
        raise InternalInconsistencyError(
            f"representation mismatches the Cayley transform of the function "
            f"by {worst:.3e} on the verification grid"
        )
    return rep
