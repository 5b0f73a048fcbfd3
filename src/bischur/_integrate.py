"""Stieltjes window integrals by contour deformation.

h is analytic in the upper half-plane, so the integral of Im h(x + iy) over
[a, b] is Im of the integral of h dz along a+iy -> a+iY -> b+iY -> b+iy,
Y = max(b - a, 2y), away from the spikes atoms put on Im z = y.  Each side
carries an n-point Gauss-Legendre rule, log-graded on the vertical sides,
s = y (Y/y)^v for v in [0, 1], so an atom near or on a window endpoint is
resolved (on one it gets half weight); n doubles from 16 until two rules
agree within REL_TOL times sum |w_i h(z_i)|.  See Trefethen and Weideman,
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


def adaptive_trapezoid(h, a, b, y):
    """Integral of Im h(x + iy) over [a, b], by Gauss-Legendre on the contour.

    ``h`` is called once per rule, on an array of points with Im z >= y, and
    returns an array of that shape (or a constant).  The name is that of the
    trapezoid rule this replaced: the benchmark tracer resolves it, and it
    stays until the benchmark's next revision renames it (ROADMAP.md).
    """
    Y = max(b - a, 2.0 * y)
    previous, n = None, 16
    while n <= MAX_NODES:
        v, w = _gauss_legendre(n)
        s = y * (Y / y) ** v
        rise = 1j * math.log(Y / y) * s * w  # dz on the left side
        z = np.concatenate((a + 1j * s, a + (b - a) * v + 1j * Y, b + 1j * s))
        terms = np.concatenate((rise, (b - a) * w, -rise)) * np.broadcast_to(h(z), z.shape)
        value = float(np.sum(terms).imag)
        if previous is not None and \
                abs(value - previous) <= REL_TOL * float(np.abs(terms).sum()):
            return value
        previous, n = value, 2 * n
    raise NoLimitError(f"the window integral over [{a}, {b}] at y = {y} did not settle "
                       f"with {MAX_NODES} Gauss-Legendre nodes per side")
