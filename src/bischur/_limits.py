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

__all__ = ["LimitReport", "refine_to_limit", "presample", "stacked_samplers"]

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


def refine_to_limit(sample, args, xs, *, tol):
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


def stacked_samplers(f, arg_lists):
    """Samplers for ``refine_to_limit``, one per sequence of ``arg_lists``
    (each of distinct floats), that share a few stacked calls of ``f``.

    ``f(k, args)`` takes an integer array ``k`` that names the sequence of
    each entry of the float array ``args``, of the same 1-D shape, and
    returns an array with one row per arg (or a constant).  The first call
    covers the first ``_HEAD`` args of every sequence together.  A sampler
    asked for an arg past its head makes one more call, on the rest of its
    own sequence.  When a call raises a BischurError, its args are sampled
    one by one instead, as ``f(k, arg)`` with an int and the arg itself, so a
    point the extrapolation never reaches never raises.
    """
    seqs = [np.asarray(args, dtype=float) for args in arg_lists]
    known = [{} for _ in seqs]

    def call(ks, chunks):
        """One call of f on the chunks of the sequences ks; False if it
        raised."""
        sizes = [len(chunk) for chunk in chunks]
        args = np.concatenate(chunks)
        try:
            values = np.asarray(f(np.repeat(ks, sizes), args))
            values = np.broadcast_to(values, args.shape + values.shape[1:])
        except BischurError:
            return False
        ends = np.cumsum(sizes).tolist()
        for k, chunk, start, end in zip(ks, chunks, [0, *ends], ends):
            known[k].update(zip(chunk.tolist(), values[start:end]))
        return True

    tails = [args[_HEAD:] for args in seqs]
    if seqs and not call(list(range(len(seqs))), [args[:_HEAD] for args in seqs]):
        tails = [tail[:0] for tail in tails]

    def sampler(k):
        def sample(arg):
            if arg not in known[k] and tails[k].size:
                call([k], [tails[k]])
                tails[k] = tails[k][:0]
            return known[k][arg] if arg in known[k] else f(k, arg)
        return sample

    return [sampler(k) for k in range(len(seqs))]


def presample(f, args):
    """A sampler for ``refine_to_limit`` that calls ``f`` on arrays of
    ``args`` (distinct floats): ``stacked_samplers`` for one sequence, with
    ``f`` taking the args alone.  ``f`` must return an array with one row
    per arg, or a constant; point by point it is called as ``f(arg)``.
    """
    return stacked_samplers(lambda k, t: f(t), [args])[0]
