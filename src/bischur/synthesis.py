"""Construction of Schur functions with a prescribed slope function.

Given an atomic positive measure nu on [0, 1], the Herglotz-class function

    f(lam) = sum_i w_i f_{s_i}(lam),
    f_s(lam) = ( s (1+lam1)/(1-lam1) + (1-s) (1+lam2)/(1-lam2) )^{-1},

yields phi = (1 - f)/(1 + f) in the Schur class with a carapoint at (1, 1),
boundary value 1 there, and slope function h(z) = -sum w_i/(1 - s_i + s_i z).
Relocation to an arbitrary torus point tau and unimodular boundary value
omega is the change of variable

    phi_relocated(lam) = omega * phi(conj(tau_1) lam_1, conj(tau_2) lam_2),

which preserves the slope function.

The same data gives an exact unitary colligation.  Since
f_s = (1 - I_s)/(1 + I_s) for the scalar inner function I_s of the
generalized model with Y = s, phi is realized over the diagonal inner
function I = diag(I_{s_i}) by the inverse Cayley transform of
J = [[0, sqrt(w)^T], [sqrt(w), 0]].  Each I_s has the 2-dimensional
colligation [[0, c^T], [c, d d^T]] with c = (sqrt(s), sqrt(1-s)) and
d = (sqrt(1-s), -sqrt(s)); feeding these back into the outer operator gives
a 2N-dimensional linear-pencil realization of phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import boundary, gates, slope as slope_mod
from .colligation import Colligation, eval_phi
from .errors import InternalInconsistencyError, InvalidInputError, PoleError
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .points import (TORUS_SLACK, as_points, as_scalar, first_point, require_interior,
                     require_torus, to_circle)
from .representations import DiscreteMeasure01, h_from_measure

__all__ = [
    "SynthesizedSchur",
    "herglotz_component",
    "synth_eval",
    "fit_colligation",
    "verify_slope",
    "verify_carapoint",
]


@dataclass(frozen=True)
class SynthesizedSchur:
    """A Schur function with slope measure nu at the carapoint tau, where it
    takes the unimodular boundary value omega.  tau and omega may lie within
    TORUS_SLACK of the torus and the circle; they are stored put on them."""

    nu: DiscreteMeasure01
    tau: tuple[complex, complex]
    omega: complex

    def __post_init__(self):
        if not isinstance(self.nu, DiscreteMeasure01):
            raise InvalidInputError("nu must be a DiscreteMeasure01")
        tau = require_torus(self.tau)
        omega = as_scalar(self.omega, "omega must be unimodular")
        if abs(abs(omega) - 1.0) > TORUS_SLACK:
            raise InvalidInputError("omega must be unimodular")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "omega", to_circle(omega))


def _herglotz_den(s, l1, l2):
    """The denominator of f_s at the points (l1, l2): s a float, or a column
    of atoms' s against the point stack, one row per atom."""
    return s * (1.0 + l1) / (1.0 - l1) + (1.0 - s) * (1.0 + l2) / (1.0 - l2)


def herglotz_component(s: float, lam):
    """f_s(lam), the convex-combination Herglotz kernel; Re f_s > 0 inside.
    A complex at a point, a complex array at a stack of points."""
    refusal = "the mixing parameter s must lie in [0, 1]"
    s = as_scalar(s, refusal, float)
    if not 0.0 <= s <= 1.0:
        raise InvalidInputError(refusal)
    l1, l2, single = as_points(lam)
    if (l1 == 1.0).any() or (l2 == 1.0).any():
        raise PoleError("herglotz component has a pole where a coordinate equals 1")
    den = _herglotz_den(s, l1, l2)
    zero = first_point((l1, l2), den == 0)
    if zero is not None:
        raise PoleError(f"herglotz denominator vanishes at {zero}")
    f = 1.0 / den
    return complex(f[0]) if single else f


def _herglotz_sum(nu: DiscreteMeasure01, lam):
    """f = sum_i w_i f_{s_i} at the point or point stack ``lam``, unchecked:
    every atom's f_s in one broadcast, the rows added in atom order from
    zeros, so each value has the bits of the sum of ``herglotz_component``s."""
    l1, l2 = np.asarray(lam[0], dtype=complex), np.asarray(lam[1], dtype=complex)
    column = (-1,) + (1,) * l1.ndim
    s, w = (np.array([atom[j] for atom in nu.atoms], dtype=float).reshape(column)
            for j in (0, 1))
    total = np.zeros(np.broadcast_shapes(l1.shape, l2.shape), dtype=complex)
    for term in w * (1.0 / _herglotz_den(s, l1, l2)):
        total = total + term
    return total


def synth_eval(syn: SynthesizedSchur, lam):
    """Evaluate the synthesized Schur function at an interior point (a
    complex), or at a stack of points (a complex array)."""
    l1, l2, single = require_interior(lam)
    mu = (syn.tau[0].conjugate() * l1, syn.tau[1].conjugate() * l2)
    # |lam| < 1 keeps Re den > 0 for every atom; only rounding can put a
    # relocated coordinate on the pole 1
    if (mu[0] == 1.0).any() or (mu[1] == 1.0).any():
        raise PoleError("herglotz component has a pole where a coordinate equals 1")
    f = _herglotz_sum(syn.nu, mu)
    value = syn.omega * (1.0 - f) / (1.0 + f)
    return complex(value[0]) if single else value


# Interior points at which fit_colligation checks itself against synth_eval,
# as one stack.
_GATE_POINTS = tuple(np.array(
    [(0.3, -0.2j), (0.5j, 0.45), (-0.6 + 0.1j, 0.2 - 0.5j), (0.1, 0.7j)]).T)


def fit_colligation(syn: SynthesizedSchur,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> Colligation:
    """The exact unitary colligation realizing the synthesized function.

    L = (J - i)(J + i)^{-1}, with its first row scaled by -omega, realizes
    phi at tau = (1, 1) over I = diag(I_{s_i}).  Composing it with the atom
    colligations (B = C^T stacks the c_i) gives

        a = L_00,  beta = B^T beta_L,  gamma = C gamma_L,  D = D_I + C D_L B,

    and relocation to tau is beta <- T beta, D <- D T* with T = pencil(tau).
    The state space is [coordinate 1 of every atom, coordinate 2 of every
    atom], so P1 projects onto the first N coordinates.  The result is
    checked against synth_eval at fixed interior points.
    """
    atoms = syn.nu.atoms
    n = len(atoms)
    if n == 0:
        raise InvalidInputError("cannot build a colligation for the empty measure")
    s = np.array([atom[0] for atom in atoms])
    w = np.array([atom[1] for atom in atoms])
    J = np.zeros((n + 1, n + 1))
    J[0, 1:] = J[1:, 0] = np.sqrt(w)
    eye = np.eye(n + 1)
    L = np.linalg.solve(J + 1j * eye, J - 1j * eye)
    L[0] *= -syn.omega
    c1, c2 = np.sqrt(s), np.sqrt(1.0 - s)
    first, second = np.arange(n), np.arange(n, 2 * n)
    C = np.zeros((2 * n, n))
    C[first, first], C[second, first] = c1, c2
    D_I = np.zeros((2 * n, 2 * n))
    D_I[first, first], D_I[second, second] = c2 * c2, c1 * c1
    D_I[first, second] = D_I[second, first] = -c1 * c2
    P1 = np.zeros((2 * n, 2 * n))
    P1[first, first] = 1.0
    t = np.repeat(np.asarray(syn.tau), n)
    exact = Colligation(a=L[0, 0], beta=t * (C @ L[0, 1:].conj()),
                        gamma=C @ L[1:, 0],
                        D=(D_I + C @ L[1:, 1:] @ C.T) * t.conj(),
                        P1=P1)
    gap = np.abs(eval_phi(exact, _GATE_POINTS, tol) - synth_eval(syn, _GATE_POINTS))
    if not (gap <= 1e-8).all():
        raise InternalInconsistencyError(
            "exact colligation disagrees with the synthesized function"
        )
    return exact


def verify_slope(syn: SynthesizedSchur, deltas) -> dict:
    """Compare numeric directional derivatives at tau with the slope formula,
    ``slope.derivative_checks`` with h evaluated from the measure, as
    ``{"max_rel_err", "pass"}``.

    The check passes when every difference quotient converged and every
    relative error is below analyze's ``gates.DERIVATIVE_REL_ERR_MAX``;
    otherwise ``reason`` names the first cause.  A NaN error fails, and
    makes ``max_rel_err`` NaN.
    """
    checks = slope_mod.derivative_checks(partial(synth_eval, syn), syn.tau, syn.omega,
                                         deltas, partial(h_from_measure, syn.nu))
    # np.max, not max: max skips a NaN that does not come first
    worst = float(np.max([0.0, *(check["rel_err"] for check in checks)]))
    return gates.verdict({"max_rel_err": worst}, [
        *(gates.converged(f"the difference quotient along delta {k}", check["converged"])
          for k, check in enumerate(checks)),
        *(gates.within(f"rel_err along delta {k}", check["rel_err"], "lt",
                       gates.DERIVATIVE_REL_ERR_MAX) for k, check in enumerate(checks)),
    ])


def verify_carapoint(syn: SynthesizedSchur) -> dict:
    """Check the radial Julia liminf equals the total mass of nu and that the
    nontangential boundary value equals omega, as ``{"liminf",
    "expected_mass", "boundary_value", "omega", "pass"}``.  Both come from
    one sampling of phi along the radius.  The check passes when both
    extrapolations converged and both agree, the liminf to analyze's bound
    ``gates.LIMINF_MATCH_MAX`` (1 + mass); ``reason`` names a first failure."""
    value, liminf = boundary._value_and_liminf(partial(synth_eval, syn), syn.tau)
    mass = syn.nu.total_mass
    report = {"liminf": float(liminf.estimate.real), "expected_mass": mass,
              "boundary_value": complex(value.estimate), "omega": syn.omega}
    return gates.verdict(report, [
        gates.converged("the radial Julia liminf", liminf.converged),
        gates.converged("the radial boundary value", value.converged),
        gates.within("|liminf - expected_mass|", abs(report["liminf"] - mass), "lt",
                     gates.LIMINF_MATCH_MAX * (1.0 + mass)),
        gates.within("|boundary_value - omega|", abs(report["boundary_value"] - syn.omega),
                     "lt", gates.BOUNDARY_VALUE_MAX),
    ])
