"""refine_to_limit against a reference: the loop as it was before it took
one modulus per sample and kept no list of extrapolants.  Both must give
the same report, field for field and bit for bit, read the same samples and
raise the same divergence message."""

import numpy as np
import pytest

from bischur._limits import _DIVERGENCE_THRESHOLD, STEPS, LimitReport, refine_to_limit
from bischur.errors import DivergenceError, InvalidInputError


def reference_refine_to_limit(sample, xs, *, tol):
    """Extrapolate ``sample(k)`` along ``xs[k] -> 0``, reading k = 0, 1, ...

    Evaluation is lazy: it stops as soon as three successive extrapolants
    agree within ``tol * (1 + |estimate|)``.  Raises DivergenceError when the
    samples grow monotonically past ``_DIVERGENCE_THRESHOLD``.
    """
    xs = [float(x) for x in xs]
    if not xs:
        raise InvalidInputError("xs must be a nonempty sequence")

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



def sequences(kind, seed, complex_values):
    """(sample, xs, tol) of a seeded sequence of one kind."""
    rng = np.random.default_rng([seed, complex_values])
    unit = 1j if complex_values else 0.0
    limit, slope, curve = rng.normal(size=3) + unit * rng.normal(size=3)
    if kind == "single":
        return (lambda k: limit), [rng.uniform(0.1, 1.0)], 1e-9
    xs = np.sort(rng.uniform(1e-6, 1.0, 30))[::-1] if seed % 2 else STEPS
    if kind == "converging":
        tol = 10.0 ** -rng.integers(6, 13)
        return (lambda k: limit + slope * xs[k] + curve * xs[k] ** 2), xs, tol
    if kind == "never converging":
        noise = rng.normal(size=len(xs)) + unit * rng.normal(size=len(xs))
        return (lambda k: limit + noise[k]), xs, 1e-12
    if kind == "diverging":
        return (lambda k: limit + 1e3 * (1.0 + slope) / xs[k] ** 3), xs, 1e-12
    # samples past the threshold that do not grow monotonically, and NaNs
    # that make every gap NaN
    if kind == "large, not monotone":
        return (lambda k: _DIVERGENCE_THRESHOLD * (1.0 + unit) * (2.0 + (-1) ** k + k)), xs, 1e-12
    return (lambda k: complex(np.nan, 0.0) if k % 2 else limit), xs, 1e-9


def outcome(refine, sample, xs, tol):
    """The fields of the report, or the divergence message, and the ks read."""
    read = []
    try:
        report = refine(lambda k: read.append(k) or sample(k), xs, tol=tol)
    except DivergenceError as error:
        return "raised", str(error), read
    assert isinstance(report, LimitReport)
    # repr tells -0.0 from 0.0 and reads NaN as itself
    return repr(report.estimate), report.converged, repr(report.samples), repr(report.achieved), read


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["converging", "never converging", "diverging", "single",
                                  "large, not monotone", "nan samples"])
def test_every_field_is_the_reference_s(kind, complex_values):
    for seed in range(20):
        sample, xs, tol = sequences(kind, seed, complex_values)
        expected = outcome(reference_refine_to_limit, sample, xs, tol)
        assert outcome(refine_to_limit, sample, xs, tol) == expected, (kind, seed)
        if kind == "diverging":
            assert expected[0] == "raised"
        if kind == "converging" and xs is STEPS:
            assert expected[1] is True


def test_an_empty_sequence_is_refused_before_any_sample():
    for xs in ([], np.array([]), iter(())):
        read = []
        with pytest.raises(InvalidInputError, match="xs must be a nonempty sequence"):
            refine_to_limit(read.append, xs, tol=1e-9)
        assert read == []
