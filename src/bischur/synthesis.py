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
from typing import NamedTuple

import numpy as np

from . import boundary, slope as slope_mod
from .colligation import Colligation, eval_phi
from .errors import InternalInconsistencyError, InvalidInputError, PoleError
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .points import any_true, as_points, first_point, require_interior, require_torus
from .representations import DiscreteMeasure01, h_from_measure

__all__ = [
    "SynthesizedSchur",
    "herglotz_component",
    "synth_eval",
    "fit_colligation",
    "verify_slope",
    "verify_carapoint",
    "SlopeVerification",
    "CarapointVerification",
]


@dataclass(frozen=True)
class SynthesizedSchur:
    """A Schur function with slope measure nu at the carapoint tau, where it
    takes the unimodular boundary value omega."""

    nu: DiscreteMeasure01
    tau: tuple[complex, complex]
    omega: complex

    def __post_init__(self):
        if not isinstance(self.nu, DiscreteMeasure01):
            raise InvalidInputError("nu must be a DiscreteMeasure01")
        tau = require_torus(self.tau)
        omega = complex(self.omega)
        if not abs(abs(omega) - 1.0) <= 1e-12:   # a NaN fails too
            raise InvalidInputError("omega must be unimodular")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "omega", omega)


def herglotz_component(s: float, lam):
    """f_s(lam), the convex-combination Herglotz kernel; Re f_s > 0 inside.
    A complex at a point, a complex array at a stack of points."""
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise InvalidInputError("the mixing parameter s must lie in [0, 1]")
    l1, l2 = as_points(lam)
    if any_true(l1 == 1.0) or any_true(l2 == 1.0):
        raise PoleError("herglotz component has a pole where a coordinate equals 1")
    den = s * (1.0 + l1) / (1.0 - l1) + (1.0 - s) * (1.0 + l2) / (1.0 - l2)
    zero = first_point((l1, l2), den == 0)
    if zero is not None:
        raise PoleError(f"herglotz denominator vanishes at {zero}")
    return 1.0 / den


def _herglotz_sum(nu: DiscreteMeasure01, lam):
    return sum((w * herglotz_component(s, lam) for s, w in nu.atoms), 0.0 + 0.0j)


def synth_eval(syn: SynthesizedSchur, lam):
    """Evaluate the synthesized Schur function at an interior point (a
    complex), or at a stack of points (a complex array)."""
    l1, l2 = require_interior(lam)
    mu = (syn.tau[0].conjugate() * l1, syn.tau[1].conjugate() * l2)
    f = _herglotz_sum(syn.nu, mu)
    if any_true(abs(1.0 + f) < 1e-100):
        raise InternalInconsistencyError(
            "1 + f vanished at an interior point; Re f > 0 should forbid this"
        )
    value = syn.omega * (1.0 - f) / (1.0 + f)
    return value if isinstance(value, np.ndarray) else complex(value)


# Interior points at which fit_colligation checks itself against synth_eval,
# as one stack.
_GATE_POINTS = tuple(np.array(
    [(0.3, -0.2j), (0.5j, 0.45), (-0.6 + 0.1j, 0.2 - 0.5j), (0.1, 0.7j)]).T)
# Bounds of verify_slope (the largest relative derivative error) and of
# verify_carapoint (the liminf, relative to 1 + mass, and the boundary value).
SLOPE_TOL = 1e-5
CARAPOINT_TOL = 1e-6


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
    C = np.vstack([np.diag(c1), np.diag(c2)])
    D_I = np.block([[np.diag(c2 * c2), np.diag(-c1 * c2)],
                    [np.diag(-c1 * c2), np.diag(c1 * c1)]])
    t = np.repeat(np.asarray(syn.tau), n)
    exact = Colligation(a=L[0, 0], beta=t * (C @ L[0, 1:].conj()),
                        gamma=C @ L[1:, 0],
                        D=(D_I + C @ L[1:, 1:] @ C.T) * t.conj(),
                        P1=np.diag(np.repeat([1.0, 0.0], n)))
    gap = np.abs(eval_phi(exact, _GATE_POINTS, tol) - synth_eval(syn, _GATE_POINTS))
    if not (gap <= 1e-8).all():
        raise InternalInconsistencyError(
            "exact colligation disagrees with the synthesized function"
        )
    return exact


class SlopeVerification(NamedTuple):
    deltas: tuple
    numeric: tuple
    analytic: tuple
    max_rel_err: float
    passed: bool
    reason: str | None = None


def verify_slope(syn: SynthesizedSchur, deltas) -> SlopeVerification:
    """Compare numeric directional derivatives at tau with the slope formula.

    For each direction the analytic side is
    omega * conj(tau_2) delta_2 * h( conj(tau_2) delta_2 / (conj(tau_1) delta_1) )
    with h evaluated from the measure; errors are relative to 1 + |value|.
    The check passes when every difference quotient converged and the
    largest error is below ``SLOPE_TOL``; otherwise ``reason`` says why.
    """
    deltas = tuple(deltas)
    results = slope_mod.directional_derivative_numeric(
        partial(synth_eval, syn), syn.tau, deltas, phi_tau=syn.omega
    )
    numeric, analytic, unconverged = [], [], []
    worst = 0.0
    for k, (delta, (num, report)) in enumerate(zip(deltas, results)):
        ana = complex(slope_mod.directional_derivative_analytic(
            syn.omega, syn.tau, delta, partial(h_from_measure, syn.nu)))
        numeric.append(complex(num))
        analytic.append(ana)
        worst = max(worst, float(abs(num - ana) / (1.0 + abs(ana))))
        if not report.converged:
            unconverged.append(k)
    reason = None
    if unconverged:
        reason = f"the difference quotients along deltas {unconverged} did not converge"
    elif not worst < SLOPE_TOL:
        reason = f"max_rel_err {worst:.3e} is not below {SLOPE_TOL:g}"
    return SlopeVerification(deltas, tuple(numeric), tuple(analytic),
                             worst, reason is None, reason)


class CarapointVerification(NamedTuple):
    liminf: float
    expected_mass: float
    boundary_value: complex
    omega: complex
    passed: bool
    reason: str | None = None


def verify_carapoint(syn: SynthesizedSchur) -> CarapointVerification:
    """Check the radial Julia liminf equals the total mass of nu and that the
    nontangential boundary value equals omega.  Both come from one sampling
    of phi along the radius; the check passes when both extrapolations
    converged and both agree within ``CARAPOINT_TOL``, and otherwise
    ``reason`` says why."""
    path = boundary.ApproachPath.radial(syn.tau)
    value, liminf = boundary._value_and_liminf(partial(synth_eval, syn), path)
    mass = syn.nu.total_mass
    failures = [f"the radial {name} did not converge"
                for name, report in (("Julia liminf", liminf), ("boundary value", value))
                if not report.converged]
    if not abs(liminf.estimate.real - mass) < CARAPOINT_TOL * (1.0 + mass):
        failures.append("the Julia liminf differs from the mass of nu")
    if not abs(value.estimate - syn.omega) < CARAPOINT_TOL:
        failures.append("the boundary value differs from omega")
    reason = "; ".join(failures) or None
    return CarapointVerification(float(liminf.estimate.real), mass,
                                 complex(value.estimate), syn.omega,
                                 reason is None, reason)
