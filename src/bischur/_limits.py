"""Sequence extrapolation shared by the boundary, slope and representation
modules.

The model throughout is ``f(x) = F + c x + o(x)`` along a decreasing positive
sequence ``x_k -> 0``; successive pairs eliminate the linear term
(Richardson step for geometric sequences).  Convergence is declared when
three consecutive extrapolants agree to the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BischurError, DivergenceError

__all__ = ["LimitReport", "refine_to_limit", "presample"]

# Samples growing monotonically past this size are taken as divergent.
_DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class LimitReport:
    """Result of an extrapolated limit.

    estimate: the extrapolated value (best available if not converged).
    converged: whether three successive extrapolants agreed within tol.
    samples: the raw sampled values, in evaluation order.
    extrapolants: the eliminated-first-order sequence.
    xs: the extrapolation variable values actually used.
    achieved: smallest successive extrapolant gap observed.
    """

    estimate: complex
    converged: bool
    samples: tuple
    extrapolants: tuple
    xs: tuple
    achieved: float


def refine_to_limit(sample, args, xs, *, tol=1e-9):
    """Extrapolate ``sample(args[k])`` along ``xs[k] -> 0``.

    Evaluation is lazy: it stops as soon as three successive extrapolants
    agree within ``tol * (1 + |estimate|)``.  Raises DivergenceError when the
    samples grow monotonically past ``_DIVERGENCE_THRESHOLD``.
    """
    args = list(args)
    xs = [float(x) for x in xs]
    if len(args) != len(xs) or not args:
        raise ValueError("args and xs must be nonempty sequences of equal length")

    samples: list[complex] = []
    extrapolants: list[complex] = []
    best_gap = float("inf")
    best_estimate = None
    for k, (arg, x) in enumerate(zip(args, xs)):
        value = complex(sample(arg))
        samples.append(value)
        if k == 0:
            extrapolants.append(value)
        else:
            ratio = xs[k - 1] / x
            extrapolants.append((ratio * value - samples[k - 1]) / (ratio - 1.0))
        if (
            k >= 2
            and abs(samples[k]) > abs(samples[k - 1]) > abs(samples[k - 2])
            and abs(samples[k]) > _DIVERGENCE_THRESHOLD
        ):
            raise DivergenceError(
                f"samples grow without bound (|f| reached {abs(value):.3e})"
            )
        if k >= 1:
            gap = abs(extrapolants[k] - extrapolants[k - 1])
            if gap < best_gap:
                best_gap = gap
                best_estimate = extrapolants[k]
            if k >= 2:
                prev_gap = abs(extrapolants[k - 1] - extrapolants[k - 2])
                scale = 1.0 + abs(extrapolants[k])
                if gap <= tol * scale and prev_gap <= tol * scale:
                    return LimitReport(
                        extrapolants[k], True, tuple(samples),
                        tuple(extrapolants), tuple(xs[: k + 1]), gap,
                    )
    estimate = best_estimate if best_estimate is not None else extrapolants[-1]
    return LimitReport(
        estimate, False, tuple(samples), tuple(extrapolants), tuple(xs), best_gap
    )


def presample(f, args):
    """A sampler for ``refine_to_limit`` that calls ``f`` once on all of
    ``args`` (distinct floats) as one array.

    ``f`` must return an array of the shape of its argument, or a constant.
    When that call raises a BischurError, ``f`` itself is returned, so
    ``refine_to_limit`` samples point by point and a point it never reaches
    never raises.
    """
    args = np.asarray(args, dtype=float)
    try:
        values = np.broadcast_to(f(args), args.shape)
    except BischurError:
        return f
    return dict(zip(args.tolist(), values)).__getitem__
