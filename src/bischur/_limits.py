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

__all__ = ["LimitReport", "refine_to_limit", "stacked_samplers"]

# Samples growing monotonically past this size are taken as divergent.
_DIVERGENCE_THRESHOLD = 1e6
# The first call of a sampler covers this many args of each sequence.  No
# extrapolation of the CLI's pipelines has been seen to read more than 21.
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

    Evaluation is lazy: it stops as soon as three successive extrapolants
    agree within ``tol * (1 + |estimate|)``.  Raises DivergenceError when the
    samples grow monotonically past ``_DIVERGENCE_THRESHOLD``.
    """
    xs = [float(x) for x in xs]
    if not xs:
        raise ValueError("xs must be a nonempty sequence")

    samples: list[complex] = []
    extrapolants: list[complex] = []
    best_gap = float("inf")
    best_estimate = None
    for k, x in enumerate(xs):
        value = complex(sample(k))
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
                    return LimitReport(extrapolants[k], True, tuple(samples), gap)
    estimate = best_estimate if best_estimate is not None else extrapolants[-1]
    return LimitReport(estimate, False, tuple(samples), best_gap)


def stacked_samplers(f, arg_lists):
    """Samplers for ``refine_to_limit``, one per sequence of ``arg_lists``,
    that share a few stacked calls of ``f``: sampler ``j`` gives at ``k`` the
    value of ``f`` at ``arg_lists[j][k]``.

    ``f(seq, args)`` takes an integer array ``seq`` that names the sequence
    of each entry of the float array ``args``, of the same 1-D shape, and
    returns an array with one row per arg (or a constant).  The first call
    covers the first ``_HEAD`` args of every sequence together.  A sampler
    asked for an index past its head makes one more call, on the rest of its
    own sequence.  When a call raises a BischurError, its args are sampled
    on stacks of one instead, as far as the extrapolation reads, so a point
    the extrapolation never reaches never raises.
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

    def stacked(js, chunks):
        """``extend``; False, with nothing appended, if f raised."""
        try:
            extend(js, chunks)
        except BischurError:
            return False
        return True

    head = bool(seqs) and stacked(list(range(len(seqs))), [args[:_HEAD] for args in seqs])
    tail_due = [head and args.size > _HEAD for args in seqs]

    def sampler(j):
        def sample(k):
            if k >= len(values[j]) and tail_due[j]:
                tail_due[j] = False
                stacked([j], [seqs[j][_HEAD:]])
            while k >= len(values[j]):
                n = len(values[j])
                extend([j], [seqs[j][n:n + 1]])
            return values[j][k]
        return sample

    return [sampler(j) for j in range(len(seqs))]
