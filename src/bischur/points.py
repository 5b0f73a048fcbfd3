"""Point validation for the bidisc, the torus and the upper half-plane."""

from __future__ import annotations

import cmath

import numpy as np

from .errors import InvalidInputError

TORUS_SLACK = 1e-12


def as_point(lam) -> tuple[complex, complex]:
    """Coerce to a pair of finite complex scalars."""
    try:
        l1, l2 = lam
    except (TypeError, ValueError):
        raise InvalidInputError("a point must be a pair of complex numbers") from None
    l1, l2 = complex(l1), complex(l2)
    if not (cmath.isfinite(l1) and cmath.isfinite(l2)):
        raise InvalidInputError("point coordinates must be finite")
    return l1, l2


def sup_norm(lam) -> float:
    l1, l2 = as_point(lam)
    return max(abs(l1), abs(l2))


def require_interior(lam) -> tuple[complex, complex]:
    lam = as_point(lam)
    if sup_norm(lam) >= 1.0:
        raise InvalidInputError(f"point {lam} is not in the open bidisc")
    return lam


def require_torus(tau) -> tuple[complex, complex]:
    tau = as_point(tau)
    if any(abs(abs(t) - 1.0) > TORUS_SLACK for t in tau):
        raise InvalidInputError(f"point {tau} is not on the torus")
    return tau


def require_boundary(tau) -> tuple[complex, complex]:
    """Accept points with every coordinate in the closed disc and at least
    one on the circle (covers torus points and mixed boundary points)."""
    tau = as_point(tau)
    if any(abs(t) > 1.0 + TORUS_SLACK for t in tau):
        raise InvalidInputError(f"point {tau} lies outside the closed bidisc")
    if max(abs(t) for t in tau) < 1.0 - TORUS_SLACK:
        raise InvalidInputError(f"point {tau} is interior, not a boundary point")
    return tau


def require_upper_half_plane(z) -> tuple[complex, complex]:
    z = as_point(z)
    if any(np.imag(w) <= 0 for w in z):
        raise InvalidInputError(f"point {z} is not in the open upper half-plane squared")
    return z
