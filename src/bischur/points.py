"""Point validation for the bidisc, the torus and the upper half-plane.

A point is a pair of complex scalars, a stack of points a pair of 1-D arrays
of one length, the k-th point being (lam_1[k], lam_2[k]).  The validators
give a lone point (or value) as a stack of one and say it came alone, so
every evaluator computes on a stack and unwraps a lone point at return.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import InvalidInputError

TORUS_SLACK = 1e-12
# a few ulps of 1: a modulus computed this close to 1 is decided exactly
_NEAR_ONE = 4 * np.finfo(float).eps
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def as_point(lam) -> tuple[complex, complex]:
    """Coerce to a pair of finite complex scalars."""
    try:
        l1, l2 = lam
    except (TypeError, ValueError):
        raise InvalidInputError("a point must be a pair of complex numbers") from None
    try:
        l1, l2 = complex(l1), complex(l2)
    except (TypeError, ValueError):
        raise InvalidInputError(f"point {lam!r} has a coordinate that is not a number") from None
    if not (cmath.isfinite(l1) and cmath.isfinite(l2)):
        raise InvalidInputError(f"point {(l1, l2)} has a coordinate that is not finite")
    return l1, l2


def as_points(lam):
    """(l1, l2, single): a point or a stack of points as two finite 1-D
    complex arrays of one length, a point as a stack of one, and whether
    ``lam`` was one point."""
    try:
        l1, l2 = lam
    except (TypeError, ValueError):
        raise InvalidInputError("a point must be a pair of complex numbers") from None
    try:
        l1, l2 = np.asarray(l1, dtype=complex), np.asarray(l2, dtype=complex)
    except (TypeError, ValueError):
        raise InvalidInputError("a coordinate of a point is not a number or an array of "
                                "numbers") from None
    single = l1.ndim == l2.ndim == 0
    if not single and (l1.ndim != 1 or l1.shape != l2.shape):
        raise InvalidInputError("a stack of points must be two 1-D arrays of one length")
    l1, l2 = np.atleast_1d(l1, l2)
    bad = first_point((l1, l2), ~(np.isfinite(l1) & np.isfinite(l2)))
    if bad is not None:
        raise InvalidInputError(f"point {bad} has a coordinate that is not finite")
    return l1, l2, single


def as_values(z):
    """(z, single): a complex value or an array of them as a finite complex
    array, a lone value as an array of one, and whether ``z`` was one."""
    try:
        z = np.asarray(z, dtype=complex)
    except (TypeError, ValueError):
        raise InvalidInputError(f"value {z!r} is not a number or an array of numbers") from None
    finite = np.isfinite(z)
    if not finite.all():
        raise InvalidInputError(f"value {complex(z[~finite][0])} is not finite")
    return np.atleast_1d(z), z.ndim == 0


def as_scalar(z, refusal: str, kind=complex):
    """``z`` as a finite Python complex (a float for ``kind=float``), or
    InvalidInputError(refusal) when it is not a finite number (text and
    booleans are not) of that kind."""
    if isinstance(z, _NOT_NUMBERS):
        raise InvalidInputError(refusal)
    try:
        z = kind(z)
    except (TypeError, ValueError, OverflowError):
        z = cmath.nan
    if not cmath.isfinite(z):
        raise InvalidInputError(refusal)
    return z


def first_point(lam, bad) -> tuple[complex, complex] | None:
    """The first point of the stack ``lam`` where the boolean array ``bad``
    holds, or None when it holds nowhere."""
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return complex(lam[0][k]), complex(lam[1][k])


def _in_disc(z: complex) -> bool:
    """|z| < 1, decided exactly: with Re z = a/b and Im z = c/d in lowest
    terms, (ad)^2 + (cb)^2 < (bd)^2 in Python's integers."""
    (a, b), (c, d) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    return (a * d) ** 2 + (c * b) ** 2 < (b * d) ** 2


def require_interior(lam):
    """A point or a stack of points of the open bidisc, as ``as_points``
    gives it.  numpy's modulus is not correctly rounded, and may differ
    with the array's layout, so a point whose larger modulus lies within
    _NEAR_ONE of 1 is decided exactly."""
    l1, l2, single = as_points(lam)
    r = np.maximum(abs(l1), abs(l2))
    outside = r >= 1.0
    if r.max(initial=0.0) >= 1.0 - _NEAR_ONE:
        for k in np.flatnonzero(abs(r - 1.0) <= _NEAR_ONE):
            outside[k] = not (_in_disc(l1[k]) and _in_disc(l2[k]))
    outside = first_point((l1, l2), outside)
    if outside is not None:
        raise InvalidInputError(f"point {outside} is not in the open bidisc")
    return l1, l2, single


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
    """A point or a stack of points of the upper half-plane squared, as
    ``as_points`` gives it."""
    z1, z2, single = as_points(z)
    below = first_point((z1, z2), (z1.imag <= 0) | (z2.imag <= 0))
    if below is not None:
        raise InvalidInputError(f"point {below} is not in the open upper half-plane squared")
    return z1, z2, single
