"""Sequence extrapolation shared by the boundary, slope and representation
modules.

The model throughout is ``f(x) = F + c x + o(x)`` along a decreasing positive
sequence ``x_k -> 0``; successive pairs eliminate the linear term
(Richardson step for geometric sequences).  Convergence is declared when
three consecutive extrapolants agree to the requested tolerance.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import BischurError, DivergenceError, InvalidInputError

__all__ = ["LimitReport", "refine_to_limit", "stacked_samplers"]

# The geometric steps t_k = 2^-k, k = 1..40, of every approach to the torus:
# the radius tau - t tau and the lines tau - t delta.
STEPS = 2.0 ** -np.arange(1, 41)
# Samples growing monotonically past this size are taken as divergent.
_DIVERGENCE_THRESHOLD = 1e6
# The one stacked call of the samplers covers this many args of each
# sequence; a later arg costs a call of its own.  The CLI's extrapolations
# have been seen to read at most 25 args, and past 24 only rarely.
_HEAD = 24


@dataclass(frozen=True)
class LimitReport:
    """Result of an extrapolated limit.

    estimate: the extrapolated value (best available if not converged).
    converged: whether three successive extrapolants agreed within tol.
    samples: the raw sampled values, in evaluation order.
    achieved: smallest successive extrapolant gap observed.
    """

    estimate: complex
    converged: bool
    samples: tuple
    achieved: float


def refine_to_limit(sample, xs, *, tol):
    """Extrapolate ``sample(k)`` along ``xs[k] -> 0``, reading k = 0, 1, ...

    Evaluation is lazy: ``xs[k]`` is read, as a float, with ``sample(k)``,
    and it stops as soon as three successive extrapolants agree within
    ``tol * (1 + |estimate|)``.  Raises DivergenceError when the
    samples grow monotonically past ``_DIVERGENCE_THRESHOLD``.
    """
    samples: list[complex] = []
    best_gap = float("inf")
    best_estimate = None
    last_size = size = 0.0  # the moduli of samples k - 2 and k - 1, read from k = 2 on
    for k, x in enumerate(xs):
        x, value = float(x), complex(sample(k))
        samples.append(value)
        size_before, last_size, size = last_size, size, abs(value)
        if k == 0:
            extrapolant = value
        else:
            ratio = last_x / x
            previous, extrapolant = extrapolant, (ratio * value - samples[k - 1]) / (ratio - 1.0)
        if k >= 2 and size > last_size > size_before and size > _DIVERGENCE_THRESHOLD:
            raise DivergenceError(f"samples grow without bound (|f| reached {size:.3e})")
        if k >= 1:
            gap = abs(extrapolant - previous)
            if gap < best_gap:
                best_gap = gap
                best_estimate = extrapolant
            if k >= 2:
                scale = 1.0 + abs(extrapolant)
                if gap <= tol * scale and last_gap <= tol * scale:
                    return LimitReport(extrapolant, True, tuple(samples), gap)
            last_gap = gap
        last_x = x
    if not samples:
        raise InvalidInputError("xs must be a nonempty sequence")
    estimate = best_estimate if best_estimate is not None else extrapolant
    return LimitReport(estimate, False, tuple(samples), best_gap)


def stacked_samplers(f, arg_lists):
    """Samplers for ``refine_to_limit``, one per sequence of ``arg_lists``,
    that share one stacked call of ``f``: sampler ``j`` gives at ``k`` the
    value of ``f`` at ``arg_lists[j][k]``.

    ``f(seq, args)`` takes an integer array ``seq`` that names the sequence
    of each entry of the float array ``args``, of the same 1-D shape, and
    returns an array with one row per arg (or a constant).  A sequence may
    stand for one instance of a stack, such as a colligation of
    ``boundary.model_liminf`` or a function of
    ``nev2d.carapoint_at_infinity``, so that ``f`` evaluates each arg with
    the instance its ``seq`` names.  The one stacked call covers the first
    ``_HEAD`` args of every sequence together.  An index past the head, or
    any index once that call raised a BischurError, is sampled on a stack of
    one, with ``seq`` naming its sequence alone, so a point the
    extrapolation never reaches never raises, and each sequence's values do
    not depend on the others as long as ``f`` gives each row the digits it
    gives alone.
    """
    seqs = [np.asarray(args, dtype=float) for args in arg_lists]
    values = [[] for _ in seqs]

    def extend(js, chunks):
        """Append the values of f on the chunks of the sequences js."""
        sizes = [len(chunk) for chunk in chunks]
        args = np.concatenate(chunks)
        rows = np.asarray(f(np.repeat(js, sizes), args))
        rows = np.broadcast_to(rows, args.shape + rows.shape[1:])
        ends = np.cumsum(sizes).tolist()
        for j, start, end in zip(js, [0, *ends], ends):
            values[j].extend(rows[start:end])

    if seqs:
        with suppress(BischurError):
            extend(list(range(len(seqs))), [args[:_HEAD] for args in seqs])

    def sampler(j):
        def sample(k):
            while k >= len(values[j]):
                n = len(values[j])
                extend([j], [seqs[j][n:n + 1]])
            return values[j][k]
        return sample

    return [sampler(j) for j in range(len(seqs))]
