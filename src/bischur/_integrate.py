"""Stieltjes window integrals by contour deformation.

h is analytic in the upper half-plane, so the integral of Im h(x + iy) over
[a, b] is Im of the integral of h dz along a+iy -> a+iY -> b+iY -> b+iy,
Y = max(b - a, 2y), away from the spikes atoms put on Im z = y.  Each side
carries an n-point Gauss-Legendre rule, log-graded on the vertical sides,
s = y (Y/y)^v for v in [0, 1], so an atom near or on a window endpoint is
resolved (on one it gets half weight); n doubles from 16 until two rules
agree within REL_TOL times sum |w_i h(z_i)|.  h is called once on the 16-
and 32-node rules of every y of a stack, sampling the top side once when all
share Y = b - a, then once per level for the ys not settled, so a y gets the
same digits in any stack.  See Trefethen and Weideman, SIAM Review 56
(2014); Davis and Rabinowitz, Methods of Numerical Integration.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import InvalidInputError, NoLimitError

__all__ = ["adaptive_trapezoid"]

MAX_NODES = 1024  # Gauss-Legendre nodes per side of the last rule tried
REL_TOL = 1e-6  # agreement of two successive rules, relative to sum |w_i h(z_i)|


class _Refusal(InvalidInputError):
    """h answered with values of another shape, or with values that are not numbers."""


@cache
def _gauss_legendre(*sizes):
    """Nodes and weights on [0, 1] of the n-point Gauss-Legendre rules, n in sizes, end to end."""
    from numpy.polynomial.legendre import leggauss  # late: it slows package import
    x, w = map(np.concatenate, zip(*map(leggauss, sizes)))
    return 0.5 * (x + 1.0), 0.5 * w


def _require_finite_height(a, b, top, bottom):
    """Refuse the floats a and b and the ys from ``top`` down to ``bottom`` of
    a window when the contour height Y = max(b - a, 2y) at the largest y is
    not finite, or Y / y at the smallest is not finite and positive (Y / y is
    largest there)."""
    if not (math.isfinite(b - a) and math.isfinite(2.0 * top)):
        raise InvalidInputError(f"the contour height over [{a}, {b}] at y = {top} is not finite")
    if not (bottom > 0 and math.isfinite(max(b - a, 2.0 * bottom) / bottom)):
        raise InvalidInputError(f"the contour height over [{a}, {b}] is not a finite positive "
                                f"multiple of y = {bottom}")


def _level(h, a, b, y, sizes, previous=None):
    """The integrals of the column ``y`` by the last rule of ``sizes`` nodes, from one call
    of h, and where they agree with the rule before (``previous`` when given)."""
    v, w = _gauss_legendre(*sizes)
    Y = np.maximum(b - a, 2.0 * y)
    ratio = Y / y
    log = np.array([[math.log(q)] for q in ratio.ravel()])  # math.log: same digits in any stack
    s = y * ratio ** v
    rise = 1j * log * s * w  # dz on the left side
    top = a + (b - a) * v + 1j * (Y[:1] if (Y == Y[0]).all() else Y)
    points = np.concatenate((a + 1j * s, top, b + 1j * s), axis=None)
    hz = np.asarray(h(points))
    try:
        hz = np.broadcast_to(hz.astype(complex, casting="same_kind", copy=False), points.shape)
    except (TypeError, ValueError):
        raise _Refusal(f"h returned {hz.dtype} values of shape {hz.shape} where numbers "
                       f"of shape {points.shape} or a constant were due") from None
    sides = (rise * hz[:s.size].reshape(s.shape),  # a rule's row is [left, top, right], as alone
             np.broadcast_to((b - a) * w * hz[s.size:-s.size].reshape(top.shape), s.shape),
             -rise * hz[-s.size:].reshape(s.shape))
    value = previous
    for m in sizes:
        terms = np.concatenate([side[:, :m] for side in sides], axis=1)
        sides, previous, value = [side[:, m:] for side in sides], value, np.sum(terms, axis=1).imag
    return value, np.abs(value - previous) <= REL_TOL * np.abs(terms).sum(axis=1)


def adaptive_trapezoid(h, a, b, y):
    """Integral of Im h(x + iy) over [a, b], by Gauss-Legendre on the contour,
    or the array of them for a 1-D array of ys.

    ``h`` is called once per rule level, on a 1-D array of points with
    Im z >= min(y), and returns an array of that shape (or a constant).  The
    name is that of the trapezoid rule this replaced; the benchmark tracer
    resolves it until its next revision renames it (ROADMAP.md).  Raises
    InvalidInputError before any call of h when the contour height
    Y = max(b - a, 2y) is not finite, or Y / y is not finite and positive.
    """
    ys = np.array(y, dtype=float, ndmin=1)
    _require_finite_height(float(a), float(b), float(ys.max()), float(ys.min()))
    values, settled = _level(h, a, b, ys[:, None], (16, 32))
    live, n = np.flatnonzero(~settled), 32
    while live.size and np.isfinite(values[live]).all() and n < MAX_NODES:
        n *= 2
        values[live], settled = _level(h, a, b, ys[live, None], (n,), values[live])
        live = live[~settled]
    if live.size:  # an integral that is not finite stops the doubling: none can settle
        k = live[np.argmin(np.isfinite(values[live]))]
        raise NoLimitError(f"the window integral over [{a}, {b}] at y = {float(ys[k])} did not "
                           f"settle: it is {values[k]} with {n} Gauss-Legendre nodes per side")
    return values if np.ndim(y) else float(values[0])
