"""Three equivalent encodings of slope-type Pick functions, for atomic data.

A function h with both h and -z h(z) in the Pick class is exactly one of

  (measure form)     h(z) = - sum_i w_i / (1 - s_i + s_i z),  s_i in [0, 1],
  (Nevanlinna form)  h(z) = c + d z + (1/pi) sum_i m_i (1 + t_i z)/(t_i - z)
                     with d = 0, all t_i <= 0 and c <= (1/pi) sum_i t_i m_i,

and the two atomic encodings convert into each other by

  t = 1 - 1/s,   m = pi w (1 - t)/(1 + t^2),   nu({0}) = (1/pi) sum t m - c.

Only atomic measures are represented; continuous data enters elsewhere via
quadrature discretization.  A Stieltjes-inversion integrator provides an
independent numerical route back to the measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import REL_TOL, _level, _Refusal, _require_finite_height, adaptive_trapezoid
from ._limits import refine_to_limit
from .points import as_scalar, as_values
from .errors import (
    BischurError,
    InvalidInputError,
    NoLimitError,
    NotSlopeTypeError,
    PoleError,
)

__all__ = [
    "DiscreteMeasure01",
    "NevanlinnaData",
    "h_from_measure",
    "h_from_nevanlinna",
    "nevanlinna_from_measure",
    "measure_from_nevanlinna",
    "stieltjes_recover",
]

# The first call of h takes the first rule level of this many ys of a window,
# and a window read past them takes the others in one more call.  Criterion
# 05's window reads 6 ys; of the 4 320 windows of the benchmark's stieltjes
# pools of seeds 1-30, 1 reads 3, 921 read 4, 3 149 read 5 and 249 read 6.
_FIRST_YS = 6


def _normalize_atoms(pairs, *, low=None, high=None, what="atom"):
    """Sort, merge coincident locations, drop zero weights, check signs."""
    try:
        pairs = [(loc, weight) for loc, weight in pairs]
    except (TypeError, ValueError):
        raise InvalidInputError(f"{what} atoms must be (location, weight) pairs") from None
    merged: dict[float, float] = {}
    for loc, weight in pairs:
        refusal = f"{what} data must be finite real numbers"
        loc, weight = as_scalar(loc, refusal, float), as_scalar(weight, refusal, float)
        if weight < 0:
            raise InvalidInputError(f"{what} weights must be nonnegative")
        if low is not None and (loc < low or loc > high):
            raise InvalidInputError(f"{what} location {loc} outside [{low}, {high}]")
        merged[loc] = merged.get(loc, 0.0) + weight
    return tuple(sorted((s, w) for s, w in merged.items() if w > 0.0))


@dataclass(frozen=True)
class DiscreteMeasure01:
    """Atomic positive measure on [0, 1]: sorted (location, weight) pairs."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", _normalize_atoms(self.atoms, low=0.0, high=1.0, what="measure")
        )

    @property
    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))


@dataclass(frozen=True)
class NevanlinnaData:
    """Data (c, d, mu) of h(z) = c + d z + (1/pi) int (1 + t z)/(t - z) dmu."""

    c: float
    d: float
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        refusal = "c and d must be finite real numbers"
        c, d = as_scalar(self.c, refusal, float), as_scalar(self.d, refusal, float)
        if d < 0:
            raise InvalidInputError("d must be nonnegative")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "atoms", _normalize_atoms(self.atoms, what="Nevanlinna"))

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))


def _columns(rows, ndim):
    """The shape (k, 1, ..., 1) of a column, with ``ndim`` ones to broadcast
    against the points, and the atoms of ``rows``, k atom tuples, as columns:
    column j holds each row's j-th (location, weight) as two such arrays.  A
    row shorter than the longest is padded with zero weights at the
    location of the first atom of the first row that has one.  Every padded
    denominator is then that atom's own, which the pole check passes (or
    refuses in column 0), so a padded term adds an exact zero, never a NaN."""
    shape = (len(rows),) + (1,) * ndim
    width = max(map(len, rows), default=0)
    if not width:
        return shape, []
    pad = (next(row for row in rows if row)[0][0], 0.0)
    table = np.array([row + (pad,) * (width - len(row)) for row in rows])
    return shape, [(table[:, j, 0].reshape(shape), table[:, j, 1].reshape(shape))
                   for j in range(width)]


def _pole(hit, z, loc, weight, what) -> PoleError:
    """The error for the points ``hit`` of a column's atoms: it names the
    first point, the atom and, for a column of a stack, its row."""
    if not isinstance(loc, np.ndarray):
        return PoleError(f"evaluation point {np.extract(hit, z)[0]} {what}={loc}")
    row, *at = np.argwhere(hit & (weight > 0))[0]
    point = np.broadcast_to(z, hit.shape[1:])[tuple(at)]
    return PoleError(f"evaluation point {point} {what}={loc.flat[row]} in row {row}")


def _unwrap(values, single):
    """``values`` at an array of points, or for a lone point its value: a
    complex, or one per row of a sequence of members."""
    values = values[..., 0] if single else values
    return complex(values) if values.ndim == 0 else values


def h_from_measure(nu, z):
    """Evaluate - sum w / (1 - s + s z) off the cut (-inf, 0], at a point (a
    complex) or an array of points (an array of the same shape).  ``nu`` is
    a DiscreteMeasure01 or a sequence of them; a sequence gives one row per
    measure, of shape ``(len(nu), *z.shape)``, each row equal to that
    measure's own call on ``z``, bit for bit."""
    z, single = as_values(z)
    if isinstance(nu, DiscreteMeasure01):
        shape, columns = (), nu.atoms
    else:
        shape, columns = _columns([m.atoms for m in nu], z.ndim)
    total = np.zeros(shape[:1] + z.shape, dtype=complex)
    floor = 1e-14 * (1.0 + abs(z))
    for s, w in columns:
        den = 1.0 - s + s * z
        hit = abs(den) < floor
        if hit.any():
            raise _pole(hit, z, s, w, "hits the pole of the atom at s")
        total = total + w / den
    return _unwrap(-total, single)


def h_from_nevanlinna(nd, z):
    """Evaluate c + d z + (1/pi) sum m (1 + t z)/(t - z) at a point or an
    array of points; the result has the shape of ``z``.  ``nd`` is a
    NevanlinnaData or a sequence of them, which gives one row per member as
    ``h_from_measure`` does.  Raises PoleError when any point coincides with
    an atom."""
    z, single = as_values(z)
    if isinstance(nd, NevanlinnaData):
        total, columns = nd.c + nd.d * z, nd.atoms
    else:
        shape, columns = _columns([x.atoms for x in nd], z.ndim)
        c = np.array([x.c for x in nd]).reshape(shape)
        total = c + np.array([x.d for x in nd]).reshape(shape) * z
    floor = 1e-14 * (1.0 + abs(z))
    for t, m in columns:
        den = t - z
        hit = abs(den) < floor
        if hit.any():
            raise _pole(hit, z, t, m, "coincides with the atom at t")
        total = total + m * (1.0 + t * z) / (math.pi * den)
    return _unwrap(total, single)


def nevanlinna_from_measure(nu: DiscreteMeasure01) -> NevanlinnaData:
    """Convert the [0, 1]-measure form into Nevanlinna data.

    The result always satisfies the slope-type conditions: d = 0, no mass on
    (0, inf), and c <= (1/pi) sum t m.
    """
    atoms = []
    mass_at_zero = 0.0
    for s, w in nu.atoms:
        if s == 0.0:
            mass_at_zero += w
            continue
        t = 1.0 - 1.0 / s
        m = math.pi * w * (1.0 - t) / (1.0 + t * t)
        atoms.append((t, m))
    first_moment = sum(t * m for t, m in atoms) / math.pi
    return NevanlinnaData(c=first_moment - mass_at_zero, d=0.0, atoms=tuple(atoms))


def measure_from_nevanlinna(nd: NevanlinnaData) -> DiscreteMeasure01:
    """Invert ``nevanlinna_from_measure``; raises NotSlopeTypeError naming the
    violated condition when the data is not of slope type."""
    if nd.d > 0.0:
        raise NotSlopeTypeError("condition (a) fails: d must vanish", "a")
    if any(t > 0.0 for t, _ in nd.atoms):
        raise NotSlopeTypeError(
            "condition (b) fails: the measure must not charge (0, inf)", "b"
        )
    first_moment = sum(t * m for t, m in nd.atoms) / math.pi
    slack = 1e-12 * (1.0 + abs(first_moment))
    if nd.c > first_moment + slack:
        raise NotSlopeTypeError(
            f"condition (c) fails: c = {nd.c} exceeds the first moment "
            f"{first_moment}", "c"
        )
    atoms = [
        (1.0 / (1.0 - t), m * (1.0 + t * t) / (math.pi * (1.0 - t)))
        for t, m in nd.atoms
    ]
    mass_at_zero = first_moment - nd.c
    if mass_at_zero > slack:
        atoms.append((0.0, mass_at_zero))
    return DiscreteMeasure01(tuple(atoms))


def stieltjes_recover(h, a: float, b: float, ys) -> float:
    """Recover Poisson-measure mass on a window by Stieltjes inversion.

    Integrates Im h(x + iy) over [a, b] for each y in the decreasing sequence
    ``ys`` and extrapolates y -> 0, to ``10 * REL_TOL``.  Each integral is
    taken along a contour above the window, a+iy -> a+iY -> b+iY -> b+iy, by
    Gauss-Legendre rules that double until two agree within ``REL_TOL``.
    ``h`` is called on a 1-D array of points with Im z >= ys[-1] and must
    return an array of that shape (or a constant): once on the first rule
    level of the first six ys, sampling a shared top side once, once more on
    that of all the others when the extrapolation first reads past the sixth,
    then alone for each y it reads that has not settled, so it sees only
    first-level points of unread ys.  A BischurError h raises on either
    stacked call falls back to stacks of one y for every y not yet taken, any
    other exception propagates.  For Nevanlinna data the limit is the window
    mass of (1 + t^2) dmu(t), with half weight for atoms on a window endpoint.
    Raises InvalidInputError before any call of ``h`` when a, b or some y is
    not a finite real, ``ys`` is empty, or the contour height Y = max(b - a,
    2y) or Y / y is not finite, or on the first call when h returns another
    shape, and NoLimitError when an integral it reads or the sequence does
    not settle.
    """
    refusal = "the window ends and ys must be finite reals"
    a, b = as_scalar(a, refusal, float), as_scalar(b, refusal, float)
    ys = [as_scalar(y, refusal, float) for y in ys]
    if not b > a:
        raise InvalidInputError("window must satisfy a < b")
    if not ys or any(y <= 0 for y in ys) or any(q >= p for p, q in zip(ys, ys[1:])):
        raise InvalidInputError("ys must be nonempty, positive and strictly decreasing")
    _require_finite_height(a, b, ys[0], ys[-1])
    column, first = np.array(ys)[:, None], []  # first: a y's first-level integral, or None

    def take(stop):
        """The first level of ys[len(first):stop], from one call of h."""
        try:
            values, settled = _level(h, a, b, column[len(first):stop], (16, 32))
        except _Refusal:  # h answered: a stack of one y would be refused too
            raise
        except BischurError:  # an error of h: stacks of one y from here on
            first.extend([None] * (len(ys) - len(first)))
        else:
            first.extend(v if ok else None for v, ok in zip(values, settled))

    def sample(k):
        if k == len(first):
            take(len(ys))
        return adaptive_trapezoid(h, a, b, ys[k]) if first[k] is None else first[k]

    take(_FIRST_YS)
    report = refine_to_limit(sample, ys, tol=10 * REL_TOL)
    if not report.converged:
        raise NoLimitError(
            f"window integrals did not stabilize (best gap {report.achieved:.3e})"
        )
    return float(report.estimate.real)
