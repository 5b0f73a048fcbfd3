"""Pass decisions: every bound a gate reads, named once, and the one verdict.

A gate's checks are ``(passed, reason)`` pairs, read in order; the first
that failed decides it and names the cause.  Commands read each bound as
``gates.NAME`` when they decide, so a bound rebound here is the one that counts.
"""

import operator

# Relative bounds are taken times 1 + the size of the expected value.
RESIDUAL_MAX = 1e-9           # analyze's model residuals; verify's model and inner
DERIVATIVE_REL_ERR_MAX = 1e-7  # D phi(tau) = phi(tau) w2 h(w2 / w1), relative
ENCODING_MATCH_MAX = 1e-7     # analyze: h from Y, from its measure, from its Nevanlinna data
LIMINF_MATCH_MAX = 1e-8       # Julia liminf = ||u_tau||^2 = -h(1) = mass, relative
BOUNDARY_VALUE_MAX = 1e-6     # synth --verify: |phi(tau) - omega|
VALUE_MATCH_MAX = 1e-6        # nevrep: |h(iy, iy) - b| at infinity, relative
INFINITY_LIMIT_MAX = 1e-6     # |lim y Im h(iy, iy) - ||alpha||^2|, relative in nevrep
SCHUR_EXCESS_MAX = 1e-9       # verify: |phi| - 1 inside the bidisc
RADIAL_INNER_MAX = 1e-11      # verify: |I(r tau) - r| along the radius
SLOPE_LIMINF_MAX = 1e-6       # verify: |Julia liminf + h(1)|
ROUND_TRIP_MAX = 1e-12        # verify: measure -> Nevanlinna data -> measure
EQUIVALENCE_MAX = 1e-10       # verify: h from a measure against h from its Nevanlinna data
PICK_SLACK = 1e-12            # how far below 0 a Pick-class function's Im may fall

# A comparison's test, and the words of a figure that fails it.
_COMPARISONS = {"lt": (operator.lt, "is not below"), "le": (operator.le, "is above"),
                "ge": (operator.ge, "is below")}


def bound(name: str) -> float:
    """The bound ``name`` as it stands now; ``"-NAME"`` is its negative."""
    return -bound(name[1:]) if name.startswith("-") else globals()[name]


def within(name: str, figure, comparison: str, limit: float) -> tuple:
    """The check that ``figure``, named ``name``, is below ``limit``
    (``"lt"``), at most it (``"le"``) or at least it (``"ge"``).  A null or
    NaN figure meets no limit."""
    if figure is None:
        return False, f"{name} is null"
    test, words = _COMPARISONS[comparison]
    return bool(test(figure, limit)), f"{name} {figure:.3e} {words} {limit:.3g}"


def converged(name: str, flag: bool) -> tuple:
    """The check that the extrapolation ``name`` converged."""
    return flag, f"{name} did not converge"


def verdict(record: dict, checks) -> dict:
    """Set ``record["pass"]`` from ``checks`` and, at the first that failed,
    ``record["reason"]`` to its reason; return the record."""
    reason = next((reason for passed, reason in checks if not passed), None)
    record["pass"] = reason is None
    if reason is not None:
        record["reason"] = reason
    return record
