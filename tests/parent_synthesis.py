"""``synthesis.herglotz_component`` and its denominator as they were before
``synth_eval`` took every atom in one broadcast, kept verbatim as the
reference that ``synthesis._herglotz_sum`` must match bit for bit.  Only this
docstring and the imports differ from that code.
"""

from __future__ import annotations

from bischur.errors import InvalidInputError, PoleError
from bischur.points import as_points, as_scalar, first_point


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
