"""Stieltjes window integrals by contour deformation.

h is analytic in the upper half-plane, so the integral of Im h(x + iy) over
[a, b] is Im of the integral of h dz along a+iy -> a+iY -> b+iY -> b+iy,
Y = max(b - a, 2y), away from the spikes atoms put on Im z = y.  Each side
carries an n-point Gauss-Legendre rule, log-graded on the vertical sides,
s = y (Y/y)^v for v in [0, 1], so an atom near or on a window endpoint is
resolved (on one it gets half weight); n doubles from 16 until two rules
agree within REL_TOL times sum |w_i h(z_i)|.  h is called once per rule
level for all unsettled ys of a stack (first on the 16- and 32-node rules of
every y), and a y gets the same digits in any stack; stieltjes_recover says
what h sees of ys the extrapolation never reads.  See Trefethen and Weideman,
SIAM Review 56 (2014); Davis and Rabinowitz, Methods of Numerical Integration.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import NoLimitError

__all__ = ["adaptive_trapezoid"]

MAX_NODES = 1024  # Gauss-Legendre nodes per side of the last rule tried
REL_TOL = 1e-6  # agreement of two successive rules, relative to sum |w_i h(z_i)|


@cache
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    from numpy.polynomial.legendre import leggauss  # late: it slows package import
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _contour_rule(n, a, b, y):
    """Points and dz-weights of the n-node rule, one row per y of the column y."""
    v, w = _gauss_legendre(n)
    Y = np.maximum(b - a, 2.0 * y)
    log = np.array([[math.log(q)] for q in (Y / y).ravel()])  # math.log: same digits in any stack
    s = y * (Y / y) ** v
    rise = 1j * log * s * w  # dz on the left side
    z = np.concatenate((a + 1j * s, np.broadcast_to(a + (b - a) * v + 1j * Y, s.shape),
                        b + 1j * s), axis=1)
    return z, np.concatenate((rise, np.broadcast_to((b - a) * w, s.shape), -rise), axis=1)


def adaptive_trapezoid(h, a, b, y):
    """Integral of Im h(x + iy) over [a, b], by Gauss-Legendre on the contour,
    or the array of them for a 1-D array of ys.

    ``h`` is called once per rule level, on a 1-D array of points with
    Im z >= min(y), and returns an array of that shape (or a constant).  The
    name is that of the trapezoid rule this replaced; the benchmark tracer
    resolves it until its next revision renames it (ROADMAP.md).
    """
    ys = np.array(y, dtype=float, ndmin=1)
    values, live = np.empty(ys.shape), np.arange(ys.size)
    previous, n = None, 16
    while live.size and n <= MAX_NODES:
        rules = [_contour_rule(m, a, b, ys[live, None])
                 for m in ((n,) if previous is not None else (n, 2 * n))]
        points = np.concatenate([z.ravel() for z, _ in rules])
        hz = np.broadcast_to(h(points), points.shape)
        for (z, weights), rows in zip(rules, np.split(hz, [rules[0][0].size])):
            terms = weights * rows.reshape(z.shape)
            value = np.sum(terms, axis=1).imag
            if previous is not None:
                settled = np.abs(value - previous) <= REL_TOL * np.abs(terms).sum(axis=1)
                values[live[settled]] = value[settled]
                live, value = live[~settled], value[~settled]
            previous, n = value, 2 * n
    if live.size:
        raise NoLimitError(f"the window integral over [{a}, {b}] at y = {float(ys[live[0]])} "
                           f"did not settle with {MAX_NODES} Gauss-Legendre nodes per side")
    return values if np.ndim(y) else float(values[0])
