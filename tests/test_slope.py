from functools import partial

import numpy as np
import pytest

from bischur import (
    DiscreteMeasure01,
    DomainError,
    InvalidInputError,
    SlopePair,
    SynthesizedSchur,
    derivative_checks,
    desingularize,
    directional_derivative_analytic,
    directional_derivative_numeric,
    eval_phi,
    fit_colligation,
    h_from_measure,
    nontangential_value,
    pick_check,
    slope_eval,
    slope_measure,
    synth_eval,
)
from bischur._limits import LimitReport
from bischur.cli import _verify_directions
from bischur.generate import (
    random_colligation_with_kernel,
    random_inward_direction,
    random_measure,
    random_torus_point,
)

from conftest import CHI, favourite_formula

HALF_PAIR = SlopePair(Y=[[0.5]], u_tau=[1.0])
HALF_H = partial(slope_eval, HALF_PAIR)


class TestSlopeEval:
    def test_half_at_one(self):
        assert slope_eval(HALF_PAIR, 1.0) == pytest.approx(-1.0)

    def test_half_at_i(self):
        assert slope_eval(HALF_PAIR, 1j) == pytest.approx(-1.0 + 1.0j)
        assert slope_eval(HALF_PAIR, 1j).imag > 0

    def test_zero_vector_gives_zero(self):
        pair = SlopePair(Y=[[0.3]], u_tau=[0.0])
        assert slope_eval(pair, 2.0 + 1j) == 0.0

    def test_cut_rejected(self):
        with pytest.raises(DomainError):
            slope_eval(HALF_PAIR, -1.0)
        with pytest.raises(DomainError):
            slope_eval(HALF_PAIR, 0.0)
        with pytest.raises(DomainError, match=r"got \(-1\+0j\)"):
            slope_eval(HALF_PAIR, np.array([1j, 2.0, -1.0]))

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(31)
        W = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        Y = (W * rng.uniform(size=4)) @ W.conj().T
        pair = SlopePair(Y=0.5 * (Y + Y.conj().T), u_tau=rng.normal(size=4) + 0.5j)
        z = np.append(rng.uniform(-3, 3, 20) + 1j * rng.uniform(1e-4, 3, 20), [0.5, 7.0])
        values = slope_eval(pair, z)
        assert values.shape == z.shape
        scalars = np.array([slope_eval(pair, complex(p)) for p in z])
        assert np.array_equal(values, scalars)
        assert isinstance(slope_eval(pair, complex(z[0])), complex)


class TestSlopeMeasure:
    def test_favourite(self, favourite_colligation):
        g = desingularize(favourite_colligation, CHI)
        nu = slope_measure(SlopePair.from_realization(g))
        assert len(nu.atoms) == 1
        s, w = nu.atoms[0]
        assert s == pytest.approx(0.5, abs=1e-12)
        assert w == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(31)
        W = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        Y = (W * rng.uniform(size=4)) @ W.conj().T
        pair = SlopePair(Y=0.5 * (Y + Y.conj().T),
                         u_tau=rng.normal(size=4) + 1j * rng.normal(size=4))
        nu = slope_measure(pair)
        from bischur import h_from_measure
        for z in (1.0, 1j, 0.3 + 2j):
            assert h_from_measure(nu, z) == pytest.approx(slope_eval(pair, z), abs=1e-10)


class TestDirectionalDerivativeAnalytic:
    def test_favourite_direction_one_one(self):
        value, = directional_derivative_analytic(1.0, CHI, [(1.0, 1.0)], HALF_H)
        assert value == pytest.approx(-1.0)

    def test_favourite_direction_one_two(self):
        value, = directional_derivative_analytic(1.0, CHI, [(1.0, 2.0)], HALF_H)
        assert value == pytest.approx(-4.0 / 3.0)

    def test_zero_boundary_vector(self):
        pair = SlopePair(Y=[[0.5]], u_tau=[0.0])
        h = partial(slope_eval, pair)
        value, = directional_derivative_analytic(1.0, CHI, [(1.0, 1.0)], h)
        assert value == 0.0

    def test_homogeneity_in_the_direction(self):
        rng = np.random.default_rng(32)
        tau = random_torus_point(rng)
        h = partial(slope_eval, SlopePair(Y=[[0.7]], u_tau=[1.3]))
        delta = random_inward_direction(rng, tau)
        base, = directional_derivative_analytic(1.0, tau, [delta], h)
        for c in (0.5, 2.0, 7.5):
            scaled, = directional_derivative_analytic(1.0, tau, [(c * delta[0], c * delta[1])], h)
            assert scaled == pytest.approx(c * base, rel=1e-12)


class TestOutwardDirection:
    @pytest.mark.parametrize("tau, delta", [
        (CHI, (-1.0, 1.0)), (CHI, (1.0, -0.5)), (CHI, (1j, 1.0)),
        ((-1.0, 1j), (1.0, 1j)), ((-1.0, 1j), (-1.0, 1.0)),
    ])
    def test_both_derivatives_reject_it(self, tau, delta):
        with pytest.raises(InvalidInputError):
            directional_derivative_analytic(1.0, tau, [delta], HALF_H)
        with pytest.raises(InvalidInputError):
            directional_derivative_numeric(favourite_formula, tau, [delta], 1.0)


class TestDirectionalDerivativeNumeric:
    def test_favourite_direction_one_one(self):
        report, = directional_derivative_numeric(favourite_formula, CHI, [(1.0, 1.0)], 1.0)
        assert report.converged
        assert report.estimate == pytest.approx(-1.0, abs=1e-6)

    def test_favourite_direction_two_one(self):
        report, = directional_derivative_numeric(favourite_formula, CHI, [(2.0, 1.0)], 1.0)
        assert report.estimate == pytest.approx(-4.0 / 3.0, abs=1e-6)

    def test_linear_function(self):
        report, = directional_derivative_numeric(lambda lam: lam[0], CHI, [(1.0, 1.0)], 1.0)
        assert report.estimate == pytest.approx(-1.0, abs=1e-9)

    def test_sequence_of_directions_gives_each_single_result(self):
        rng = np.random.default_rng(34)
        tau = random_torus_point(rng)
        phi = partial(eval_phi, random_colligation_with_kernel(rng, 3, 1, tau))
        deltas = [random_inward_direction(rng, tau) for _ in range(5)]
        phi_tau = nontangential_value(phi, tau).estimate
        results = directional_derivative_numeric(phi, tau, deltas, phi_tau)
        assert isinstance(results, list) and len(results) == len(deltas)
        for delta, result in zip(deltas, results):
            assert [result] == directional_derivative_numeric(phi, tau, [delta], phi_tau)

    def test_one_direction_in_a_sequence_gives_a_list(self):
        results = directional_derivative_numeric(favourite_formula, CHI, [(1.0, 1.0)], 1.0)
        assert isinstance(results, list) and len(results) == 1
        report, = results
        assert isinstance(report, LimitReport) and report.converged

    def test_empty_sequence_of_directions(self):
        assert directional_derivative_numeric(favourite_formula, CHI, [], 1.0) == []

    def test_a_line_that_no_step_keeps_inside_is_rejected(self):
        # tau - t delta leaves the bidisc at every step t >= 2^-40
        with pytest.raises(InvalidInputError, match="no step keeps the line inside"):
            directional_derivative_numeric(favourite_formula, CHI, [(1.0, 1e13)], 1.0)

    def test_one_outward_direction_in_a_sequence_is_rejected(self):
        with pytest.raises(InvalidInputError):
            directional_derivative_numeric(favourite_formula, CHI,
                                           [(1.0, 1.0), (-1.0, 1.0)], 1.0)

    def test_agrees_with_analytic_for_realized_functions(self):
        rng = np.random.default_rng(33)
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, 3, 1, tau)
        g = desingularize(c, tau)
        pair = SlopePair.from_realization(g)
        phi = partial(eval_phi, c)
        phi_tau = nontangential_value(phi, tau).estimate
        deltas = [random_inward_direction(rng, tau) for _ in range(20)]
        results = directional_derivative_numeric(phi, tau, deltas, phi_tau)
        analytics = directional_derivative_analytic(phi_tau, tau, deltas,
                                                    partial(slope_eval, pair))
        for numeric, analytic in zip(results, analytics, strict=True):
            assert abs(numeric.estimate - analytic) < 1e-5 * (1.0 + abs(analytic))


class TestDerivativeChecks:
    def test_record_of_each_direction(self):
        deltas = [(1.0, 1.0), (2.0, 1.0)]
        checks = derivative_checks(favourite_formula, CHI, 1.0, deltas, HALF_H)
        assert [check["delta"] for check in checks] == [(1 + 0j, 1 + 0j), (2 + 0j, 1 + 0j)]
        for check, report, analytic in zip(
                checks, directional_derivative_numeric(favourite_formula, CHI, deltas, 1.0),
                directional_derivative_analytic(1.0, CHI, deltas, HALF_H).tolist(), strict=True):
            numeric = report.estimate
            assert check == {"delta": check["delta"], "numeric": numeric,
                             "analytic": analytic, "abs_err": abs(numeric - analytic),
                             "rel_err": abs(numeric - analytic) / (1.0 + abs(analytic)),
                             "converged": report.converged}
            assert check["converged"] and check["rel_err"] < 1e-6

    def test_analyze_and_synth_records_agree(self):
        # analyze checks the fitted colligation against its desingularized
        # slope function, synth --verify the synthesized function against
        # the measure's; both read the same directions
        rng = np.random.default_rng(11)
        for _ in range(30):
            nu = random_measure(rng)
            for tau in (CHI, (-1.0, 1j)):
                syn = SynthesizedSchur(nu, tau=tau, omega=-1.0)
                c = fit_colligation(syn)
                g = desingularize(c, tau)
                deltas = _verify_directions(syn.tau)
                fitted = derivative_checks(
                    partial(eval_phi, c), tau, g.a + g.u_tau @ g.beta.conj(), deltas,
                    partial(slope_eval, SlopePair.from_realization(g)))
                synthesized = derivative_checks(partial(synth_eval, syn), tau, syn.omega,
                                                deltas, partial(h_from_measure, nu))
                for a, b in zip(fitted, synthesized, strict=True):
                    assert a["converged"] and b["converged"]
                    assert abs(a["analytic"] - b["analytic"]) <= 1e-12 * abs(b["analytic"])
                    assert abs(a["numeric"] - b["numeric"]) <= 1e-8


class TestPickCheck:
    GRID = [complex(x, y) for x in np.linspace(-3, 3, 10)
            for y in np.linspace(0.1, 2.5, 10)]

    def test_favourite_slope_function(self):
        report = pick_check(lambda z: -2.0 / (1.0 + z), self.GRID)
        assert report["pass"]
        assert report["min_im_h"] > 0 and report["min_im_neg_zh"] > 0

    def test_identity_function_fails(self):
        report = pick_check(lambda z: z, self.GRID)
        assert not report["pass"]
        assert report["min_im_neg_zh"] < -1e-6

    def test_negative_constant_passes_at_boundary(self):
        report = pick_check(lambda z: -1.0, self.GRID)
        assert report["pass"]
        assert report["min_im_h"] == 0.0 and report["min_im_neg_zh"] >= 0.0

    def test_nan_values_fail(self):
        report = pick_check(lambda z: np.where(z.real > 0, np.nan, -1.0 / z), self.GRID)
        assert not report["pass"]

    def test_grid_is_checked_before_h_is_called(self):
        calls = []
        with pytest.raises(InvalidInputError):
            pick_check(calls.append, self.GRID + [1.0])
        assert calls == []

    def test_every_slope_pair_passes(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            W = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            Y = (W * rng.uniform(size=n)) @ W.conj().T
            pair = SlopePair(Y=0.5 * (Y + Y.conj().T),
                             u_tau=rng.normal(size=n) + 1j * rng.normal(size=n))
            assert pick_check(lambda z: slope_eval(pair, z), self.GRID)["pass"]


class TestRealAxisCheck:
    def test_half_pair_values(self):
        assert np.abs(slope_eval(HALF_PAIR, np.array([0.1, 1.0, 10.0])).imag).max() < 1e-12
        assert slope_eval(HALF_PAIR, 0.1) == pytest.approx(-2.0 / 1.1)
        assert slope_eval(HALF_PAIR, 10.0) == pytest.approx(-2.0 / 11.0)

    def test_zero_vector(self):
        pair = SlopePair(Y=[[0.4]], u_tau=[0.0])
        assert np.abs(slope_eval(pair, np.array([1.0, 2.0])).imag).max() == 0.0

    def test_random_pairs_on_log_grid(self):
        rng = np.random.default_rng(35)
        xs = np.logspace(-2, 2, 20)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            W = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            Y = (W * rng.uniform(size=n)) @ W.conj().T
            pair = SlopePair(Y=0.5 * (Y + Y.conj().T),
                             u_tau=rng.normal(size=n) + 1j * rng.normal(size=n))
            assert np.abs(slope_eval(pair, xs).imag).max() < 1e-12

    def test_slope_from_measure_diag_model(self):
        nu = DiscreteMeasure01(((0.2, 0.5), (0.8, 1.5)))
        s, w = np.array(nu.atoms).T
        pair = SlopePair(np.diag(s), np.sqrt(w))
        from bischur import h_from_measure
        for z in (1.0, 1j, 3.0):
            assert slope_eval(pair, z) == pytest.approx(h_from_measure(nu, z), abs=1e-12)
