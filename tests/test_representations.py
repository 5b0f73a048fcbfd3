import math
from functools import partial

import numpy as np
import pytest

from bischur import (
    DiscreteMeasure01,
    InvalidInputError,
    NevanlinnaData,
    NoLimitError,
    NotSlopeTypeError,
    PoleError,
    h_from_measure,
    h_from_nevanlinna,
    measure_from_nevanlinna,
    nevanlinna_from_measure,
    pick_check,
    stieltjes_recover,
)
from bischur._integrate import adaptive_trapezoid
from bischur.generate import random_measure

HALF_MEASURE = DiscreteMeasure01(((0.5, 1.0),))
HALF_NEV = NevanlinnaData(c=-1.0, d=0.0, atoms=((-1.0, math.pi),))


class TestMeasureTypes:
    def test_atoms_sorted_merged_and_positive(self):
        nu = DiscreteMeasure01(((0.7, 1.0), (0.2, 0.5), (0.7, 2.0), (0.4, 0.0)))
        assert nu.atoms == ((0.2, 0.5), (0.7, 3.0))
        assert nu.total_mass == pytest.approx(3.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            DiscreteMeasure01(((0.5, -1.0),))

    def test_location_outside_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            DiscreteMeasure01(((1.5, 1.0),))

    def test_nevanlinna_negative_d_rejected(self):
        with pytest.raises(InvalidInputError):
            NevanlinnaData(c=0.0, d=-1.0, atoms=())


class TestEvaluation:
    def test_half_atom_at_one(self):
        assert h_from_measure(HALF_MEASURE, 1.0) == pytest.approx(-1.0)

    def test_atom_at_zero_is_constant(self):
        nu = DiscreteMeasure01(((0.0, 1.0),))
        for z in (1.0, 1j, 5.0 + 2j):
            assert h_from_measure(nu, z) == pytest.approx(-1.0)

    def test_atom_at_one(self):
        nu = DiscreteMeasure01(((1.0, 1.0),))
        assert h_from_measure(nu, 1j) == pytest.approx(1j)

    def test_pole_detected(self):
        with pytest.raises(PoleError):
            h_from_measure(HALF_MEASURE, -1.0)

    def test_nevanlinna_value(self):
        assert h_from_nevanlinna(HALF_NEV, 1j) == pytest.approx(-1.0 + 1.0j)

    def test_nevanlinna_linear_term(self):
        nd = NevanlinnaData(c=0.0, d=1.0, atoms=())
        for z in (1j, 2.0 + 3j):
            assert h_from_nevanlinna(nd, z) == pytest.approx(z)

    def test_nevanlinna_constant(self):
        nd = NevanlinnaData(c=5.0, d=0.0, atoms=())
        assert h_from_nevanlinna(nd, 1j) == pytest.approx(5.0)

    def test_nevanlinna_atom_pole(self):
        with pytest.raises(PoleError):
            h_from_nevanlinna(HALF_NEV, -1.0)

    def test_nevanlinna_on_an_array_matches_scalar_calls(self):
        rng = np.random.default_rng(44)
        nd = nevanlinna_from_measure(DiscreteMeasure01(
            ((0.0, 0.7), (0.2, 1.3), (0.55, 0.4), (0.9, 2.0))))
        z = rng.uniform(-3, 3, (3, 7)) + 1j * rng.uniform(1e-4, 3, (3, 7))
        values = h_from_nevanlinna(nd, z)
        assert values.shape == z.shape
        scalars = np.array([[h_from_nevanlinna(nd, complex(p)) for p in row] for row in z])
        assert np.abs(values - scalars).max() <= 1e-15 * np.abs(scalars).max()
        assert isinstance(h_from_nevanlinna(nd, complex(z[0, 0])), complex)

    def test_nevanlinna_array_with_one_point_on_an_atom(self):
        with pytest.raises(PoleError):
            h_from_nevanlinna(HALF_NEV, np.array([1j, 0.5 + 1j, -1.0, 2.0]))


class TestConversions:
    def test_half_measure_forward(self):
        nd = nevanlinna_from_measure(HALF_MEASURE)
        assert nd.d == 0.0
        assert nd.c == pytest.approx(-1.0)
        assert nd.atoms == ((-1.0, pytest.approx(math.pi)),)

    def test_zero_atom_forward(self):
        nd = nevanlinna_from_measure(DiscreteMeasure01(((0.0, 1.0),)))
        assert nd.atoms == () and nd.c == pytest.approx(-1.0) and nd.d == 0.0

    def test_one_atom_forward(self):
        nd = nevanlinna_from_measure(DiscreteMeasure01(((1.0, 1.0),)))
        assert nd.c == pytest.approx(0.0)
        assert nd.atoms == ((0.0, pytest.approx(math.pi)),)

    def test_half_backward(self):
        nu = measure_from_nevanlinna(HALF_NEV)
        assert len(nu.atoms) == 1
        assert nu.atoms[0][0] == pytest.approx(0.5, abs=1e-15)
        assert nu.atoms[0][1] == pytest.approx(1.0, abs=1e-15)

    def test_linear_term_violates_condition_a(self):
        with pytest.raises(NotSlopeTypeError) as err:
            measure_from_nevanlinna(NevanlinnaData(c=0.0, d=1.0, atoms=()))
        assert err.value.condition == "a"

    def test_positive_mass_violates_condition_b(self):
        with pytest.raises(NotSlopeTypeError) as err:
            measure_from_nevanlinna(NevanlinnaData(c=0.0, d=0.0, atoms=((1.0, 1.0),)))
        assert err.value.condition == "b"

    def test_large_c_violates_condition_c(self):
        with pytest.raises(NotSlopeTypeError) as err:
            measure_from_nevanlinna(NevanlinnaData(c=1.0, d=0.0, atoms=()))
        assert err.value.condition == "c"

    def test_round_trip_with_atom_at_zero(self):
        nu = DiscreteMeasure01(((0.0, 0.7), (0.5, 1.0)))
        nd = nevanlinna_from_measure(nu)
        assert nd.c == pytest.approx(-1.7)
        back = measure_from_nevanlinna(nd)
        assert back.atoms[0][0] == 0.0
        assert back.atoms[0][1] == pytest.approx(0.7, abs=1e-12)

    def test_round_trip_on_random_measures(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            nu = random_measure(rng)
            back = measure_from_nevanlinna(nevanlinna_from_measure(nu))
            assert len(back.atoms) == len(nu.atoms)
            for (s1, w1), (s2, w2) in zip(nu.atoms, back.atoms):
                assert abs(s1 - s2) < 1e-12 and abs(w1 - w2) < 1e-12

    def test_evaluation_equivalence(self):
        rng = np.random.default_rng(42)
        grid = [complex(rng.uniform(-3, 3), rng.uniform(0.05, 3)) for _ in range(40)]
        grid += [complex(x, 0.0) for x in (0.1, 1.0, 7.0)]
        for _ in range(100):
            nu = random_measure(rng)
            nd = nevanlinna_from_measure(nu)
            for z in grid:
                assert abs(h_from_measure(nu, z) - h_from_nevanlinna(nd, z)) < 1e-10

    def test_pick_membership_of_measure_form(self):
        rng = np.random.default_rng(43)
        grid = [complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)) for _ in range(50)]
        for _ in range(25):
            assert pick_check(partial(h_from_measure, random_measure(rng)), grid)["pass"]


def _recorded(h):
    """h, and the list of arrays it is called on."""
    calls = []

    def recorded(z):
        calls.append(np.array(z))
        return h(z)

    return recorded, calls


def _atom_window(a, b, y):
    """Exact integral of Im h(x + iy) over [a, b] for HALF_NEV's atom at t = -1."""
    t = -1.0
    return 2.0 * (math.atan((b - t) / y) + math.atan((t - a) / y))


class TestStieltjes:
    def test_single_atom_window(self):
        h = lambda z: h_from_nevanlinna(HALF_NEV, z)
        ys = [0.1 * 2.0 ** -k for k in range(11)]
        mass = stieltjes_recover(h, -2.0, 0.0, ys)
        assert mass == pytest.approx(2.0 * math.pi, rel=0.01)

    def test_empty_window(self):
        h = lambda z: h_from_nevanlinna(HALF_NEV, z)
        ys = [0.1 * 2.0 ** -k for k in range(8)]
        assert abs(stieltjes_recover(h, 1.0, 2.0, ys)) < 1e-3

    def test_real_constant_gives_zero(self):
        ys = [0.1 * 2.0 ** -k for k in range(5)]
        assert stieltjes_recover(lambda z: -3.0, -1.0, 1.0, ys) == pytest.approx(0.0)

    @pytest.mark.parametrize("a, b, ys", [
        (-2.0, math.inf, [0.1, 0.05, 0.01]),
        (-math.inf, 0.0, [0.1, 0.05, 0.01]),
        (-2.0, 0.0, [0.1, math.nan, 0.01]),
        (-2.0, 0.0, [math.inf, 0.1, 0.05]),
        (-2.0, 0.0, []),
        (-2.0 + 0j, 0.0, [0.1, 0.05, 0.01]),
        (-2.0, 1j, [0.1, 0.05, 0.01]),
        (-2.0, 0.0, [0.1, 0.05j, 0.01]),
    ], ids=["b-inf", "a-inf", "y-nan", "y-inf", "ys-empty", "a-complex", "b-complex",
            "y-complex"])
    def test_non_finite_input_rejected_before_h(self, a, b, ys):
        h, calls = _recorded(lambda z: h_from_nevanlinna(HALF_NEV, z))
        with pytest.raises(InvalidInputError):
            stieltjes_recover(h, a, b, ys)
        assert calls == []

    def test_criterion_05_window_calls_h_once(self):
        h, calls = _recorded(lambda z: h_from_nevanlinna(HALF_NEV, z))
        ys = [0.1 * 2.0 ** -k for k in range(11)]
        assert stieltjes_recover(h, -2.0, 0.0, ys) == pytest.approx(2.0 * math.pi, rel=0.01)
        assert len(calls) == 1

    def test_ys_the_extrapolation_never_reads_never_raise(self):
        # the extrapolation settles on the first six ys, down to 0.003125; below
        # Im z = 2e-3 the noise keeps every later y's rules from agreeing
        rng = np.random.default_rng(19)

        def noisy(z):
            noise = rng.normal(size=z.shape) + 1j * rng.normal(size=z.shape)
            return h_from_nevanlinna(HALF_NEV, z) + np.where(z.imag < 2e-3, noise, 0.0)

        h, calls = _recorded(noisy)
        ys = [0.1 * 2.0 ** -k for k in range(11)]
        with pytest.raises(NoLimitError):
            adaptive_trapezoid(h, -2.0, 0.0, ys[6])
        calls.clear()
        # the unread ys cost only their first-level points: no rule of theirs
        # is doubled (once 12 calls on 32 208 points)
        assert stieltjes_recover(h, -2.0, 0.0, ys) == 6.2831850630461155
        assert len(calls) == 1 and sum(z.size for z in calls) <= 1584

    def test_a_non_finite_integral_is_not_doubled(self):
        ys = [0.1 * 2.0 ** -k for k in range(11)]
        h, calls = _recorded(lambda z: np.full(z.shape, np.nan))
        with pytest.raises(NoLimitError, match=r"at y = 0\.1 did not settle: it is nan with 32 "):
            stieltjes_recover(h, -2.0, 0.0, ys)
        # the first level of every y, then that of the y read alone (once 12
        # calls on 73 152 points, doubling to the last rule)
        assert [z.size for z in calls] == [1104, 144]
        h, calls = _recorded(lambda z: np.where(z.imag < 2e-3, np.nan, 1.0))
        with pytest.raises(NoLimitError, match=r"at y = 0\.001 did not settle: it is nan"):
            adaptive_trapezoid(h, -2.0, 0.0, np.array([0.1, 0.01, 0.001]))
        assert len(calls) == 1
        # NaNs below the ys the extrapolation reads never raise
        h = lambda z: np.where(z.imag < 2e-3, np.nan, h_from_nevanlinna(HALF_NEV, z))
        assert stieltjes_recover(h, -2.0, 0.0, ys) == 6.2831850630461155


class TestContourQuadrature:
    def test_poisson_spike_matches_arctan(self):
        y, x0, a, b = 1e-4, -0.3, -2.0, 1.0
        value = adaptive_trapezoid(lambda z: 1.0 / (x0 - z), a, b, y)
        exact = math.atan((b - x0) / y) - math.atan((a - x0) / y)
        assert value == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("y", [0.1 * 2.0 ** -10, 3e-5])
    @pytest.mark.parametrize("a, b", [(-4.0, 0.5), (-2.0, 0.0),
                                      (-1.001, 0.5), (-3.0, -1.0001)])
    def test_spike_windows_match_arctan(self, a, b, y):
        # [-4, 0.5] put the spike between the old trapezoid's grid nodes and
        # [-2, 0] on one; the log-graded sides keep an atom near an endpoint
        # within rules of at most 64 nodes per side
        h, calls = _recorded(lambda z: h_from_nevanlinna(HALF_NEV, z))
        value = adaptive_trapezoid(h, a, b, y)
        assert value == pytest.approx(_atom_window(a, b, y), rel=1e-9)
        assert sum(z.size for z in calls) <= 3 * (16 + 32 + 64)

    def test_atom_on_an_endpoint_gives_half_its_mass(self):
        h = lambda z: h_from_nevanlinna(HALF_NEV, z)
        ys = [0.1 * 2.0 ** -k for k in range(11)]
        y = ys[-1]
        assert adaptive_trapezoid(h, -1.0, 0.0, y) == pytest.approx(
            _atom_window(-1.0, 0.0, y), rel=1e-9)
        assert stieltjes_recover(h, -1.0, 0.0, ys) == pytest.approx(math.pi, rel=1e-6)
        assert stieltjes_recover(h, -3.0, -1.0, ys) == pytest.approx(math.pi, rel=1e-6)

    @pytest.mark.parametrize("y", [0.1, 1e-4, 3e-5])
    def test_h_is_never_called_below_the_line(self, y):
        for a, b in [(-4.0, 0.5), (-1.0, 0.0), (-1.0 - 1e-6, 2.0)]:
            h, calls = _recorded(lambda z: h_from_nevanlinna(HALF_NEV, z))
            adaptive_trapezoid(h, a, b, y)
            assert min(float(np.imag(z).min()) for z in calls) >= y

    @pytest.mark.parametrize("y", [0.1, 0.1 * 2.0 ** -10])
    def test_criterion_05_window_points(self, y):
        h, calls = _recorded(lambda z: h_from_nevanlinna(HALF_NEV, z))
        adaptive_trapezoid(h, -2.0, 0.0, y)
        assert sum(z.size for z in calls) <= 200

    def test_non_analytic_integrand_has_no_limit(self):
        rng = np.random.default_rng(7)
        noise = lambda z: rng.normal(size=z.shape) + 1j * rng.normal(size=z.shape)
        with pytest.raises(NoLimitError, match=r"\[-1\.0, 1\.0\] at y = 0\.01"):
            adaptive_trapezoid(noise, -1.0, 1.0, 0.01)
