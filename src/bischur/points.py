"""Point validation for the bidisc, the torus and the upper half-plane.

A point is a pair of complex scalars.  Where a function says it takes a
stack of points, the pair may instead hold two equal-length 1-D arrays, the
k-th point being (lam_1[k], lam_2[k]).
"""

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
        raise InvalidInputError(f"point {(l1, l2)} has a coordinate that is not finite")
    return l1, l2


def as_points(lam):
    """A point as ``as_point`` gives it, or a stack of points as a pair of
    finite 1-D complex arrays of one length."""
    try:
        l1, l2 = lam
    except (TypeError, ValueError):
        raise InvalidInputError("a point must be a pair of complex numbers") from None
    if _is_scalar(l1) and _is_scalar(l2):
        return as_point((l1, l2))
    l1, l2 = np.asarray(l1, dtype=complex), np.asarray(l2, dtype=complex)
    if l1.ndim != 1 or l1.shape != l2.shape:
        raise InvalidInputError("a stack of points must be two 1-D arrays of one length")
    bad = first_point((l1, l2), ~(np.isfinite(l1) & np.isfinite(l2)))
    if bad is not None:
        raise InvalidInputError(f"point {bad} has a coordinate that is not finite")
    return l1, l2


def _is_scalar(v) -> bool:
    return isinstance(v, (complex, float, int)) or np.ndim(v) == 0


def as_complex(v):
    """A complex scalar, or a complex array for array input."""
    return complex(v) if _is_scalar(v) else np.asarray(v, dtype=complex)


def any_true(mask) -> bool:
    """Whether a boolean, or a boolean array, holds anywhere."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def first_point(lam, bad) -> tuple[complex, complex] | None:
    """The first point of ``lam`` (a point or a stack) where the boolean
    ``bad`` holds, or None when it holds nowhere."""
    if not any_true(bad):
        return None
    if not isinstance(bad, np.ndarray):
        return tuple(map(complex, lam))
    k = int(np.argmax(bad))
    return complex(lam[0][k]), complex(lam[1][k])


def to_stack(lam):
    """(l1, l2, single): a point or stack already returned by ``as_points``
    as two 1-D arrays, and whether it was a single point."""
    l1, l2 = lam
    if isinstance(l1, np.ndarray):
        return l1, l2, False
    return np.array([l1]), np.array([l2]), True


def _sup(l1, l2):
    return np.maximum(abs(l1), abs(l2)) if isinstance(l1, np.ndarray) else max(abs(l1), abs(l2))


def require_interior(lam):
    """A point or a stack of points of the open bidisc (see ``as_points``)."""
    lam = as_points(lam)
    outside = first_point(lam, _sup(*lam) >= 1.0)
    if outside is not None:
        raise InvalidInputError(f"point {outside} is not in the open bidisc")
    return lam


def to_circle(z: complex) -> complex:
    """A nonzero complex scalar over its modulus; z itself, bit for bit,
    when its modulus is 1.0."""
    r = abs(z)
    return complex(z.real / r, z.imag / r)


def require_torus(tau) -> tuple[complex, complex]:
    """A point within TORUS_SLACK of the torus, put on it by ``to_circle``."""
    tau = as_point(tau)
    if any(abs(abs(t) - 1.0) > TORUS_SLACK for t in tau):
        raise InvalidInputError(f"point {tau} is not on the torus")
    return to_circle(tau[0]), to_circle(tau[1])


def require_upper_half_plane(z):
    """A point or a stack of points of the upper half-plane squared."""
    z = as_points(z)
    below = first_point(z, (z[0].imag <= 0) | (z[1].imag <= 0))
    if below is not None:
        raise InvalidInputError(f"point {below} is not in the open upper half-plane squared")
    return z
