import warnings
from functools import partial

import numpy as np
import pytest

from bischur import (
    DiscreteMeasure01,
    InvalidInputError,
    SlopePair,
    SynthesizedSchur,
    derivative_checks,
    desingularize,
    fit_colligation,
    h_from_measure,
    herglotz_component,
    model_residual,
    nontangential_value,
    radial_liminf,
    slope_eval,
    slope_measure,
    synth_eval,
    verify_carapoint,
    verify_slope,
)
from bischur import gates, synthesis
from bischur.generate import random_interior_point, random_interior_points

from conftest import CHI, favourite_formula


def seeded_measure(n_atoms):
    rng = np.random.default_rng(n_atoms)
    return DiscreteMeasure01(tuple(zip(rng.uniform(size=n_atoms),
                                       rng.uniform(0.1, 2.0, size=n_atoms))))


class TestHerglotzComponent:
    def test_diagonal_value_is_mixing_free(self):
        for s in (0.0, 0.3, 1.0):
            for r in (0.2, 0.9):
                assert herglotz_component(s, (r, r)) == pytest.approx((1 - r) / (1 + r))

    def test_pure_first_coordinate(self):
        assert herglotz_component(1.0, (0.0, 0.77j)) == pytest.approx(1.0)

    def test_mixed_arithmetic(self):
        assert herglotz_component(0.5, (0.5, -0.5)) == pytest.approx(3.0 / 5.0)

    def test_positive_real_part_inside(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            s = rng.uniform()
            assert herglotz_component(s, random_interior_point(rng, 0.95)).real > 0


class TestSynthesizedSchur:
    @pytest.mark.parametrize("omega", [np.nan, complex(np.nan, 1.0), np.inf, 0.5],
                             ids=["nan", "nan_imag", "inf", "inside"])
    def test_non_unimodular_omega_rejected(self, favourite_measure, omega):
        with pytest.raises(InvalidInputError, match="omega must be unimodular"):
            SynthesizedSchur(favourite_measure, tau=CHI, omega=omega)

    def test_near_unimodular_values_are_put_on_the_circle(self, favourite_measure):
        syn = SynthesizedSchur(favourite_measure, tau=(-1.0000000000009, 1j),
                               omega=complex(0.0, -1.0000000000005))
        assert syn.tau == (-1.0, 1j)
        assert syn.omega == -1j


class TestSynthEval:
    def test_half_atom_reproduces_favourite(self, favourite_measure):
        syn = SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0)
        rng = np.random.default_rng(51)
        for _ in range(300):
            lam = random_interior_point(rng, 0.95)
            assert abs(synth_eval(syn, lam) - favourite_formula(lam)) < 1e-12

    def test_radial_value_from_total_mass(self):
        nu = DiscreteMeasure01(((0.2, 0.7), (0.9, 1.8)))
        syn = SynthesizedSchur(nu, tau=CHI, omega=1.0)
        mass = nu.total_mass
        for r in (0.3, 0.8, 0.99):
            f = (1 - r) / (1 + r) * mass
            assert synth_eval(syn, (r, r)) == pytest.approx((1 - f) / (1 + f), abs=1e-12)

    def test_relocated_diagonal_identity(self, favourite_measure):
        syn = SynthesizedSchur(favourite_measure, tau=(-1.0, 1.0), omega=1j)
        for r in (0.2, 0.6, 0.9):
            assert synth_eval(syn, (-r, r)) == pytest.approx(1j * r, abs=1e-12)

    def test_schur_membership_and_herglotz_positivity(self):
        rng = np.random.default_rng(52)
        from bischur.generate import random_measure
        from bischur.synthesis import _herglotz_sum
        for _ in range(10):
            nu = random_measure(rng)
            syn = SynthesizedSchur(nu, tau=CHI, omega=1.0)
            lam = random_interior_points(rng, 1000, 0.98)
            assert (np.abs(synth_eval(syn, lam)) <= 1.0).all()
            assert (_herglotz_sum(nu, lam).real > 0.0).all()


    def test_a_point_relocated_onto_the_pole_is_refused(self):
        # conj(tau_1) tau_1 is exactly 1 here, and |tau_1|^2 exactly
        # 1 + 6.6e-17: (tau_1, 0) is outside the bidisc, whatever numpy's
        # modulus of tau_1 reads
        tau = complex(0.9682458365518543, 0.25)
        syn = SynthesizedSchur(DiscreteMeasure01(((0.3, 1.0),)), tau=(tau, 1.0), omega=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="not in the open bidisc"):
                synth_eval(syn, (tau, 0.0))


class TestModelVectors:
    def test_model_identity_holds(self, favourite_measure):
        nu = DiscreteMeasure01(((0.25, 0.5), (0.75, 1.25)))
        rng = np.random.default_rng(53)
        for syn in (SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0),
                    SynthesizedSchur(nu, tau=(1j, -1.0), omega=-1j)):
            c = fit_colligation(syn)
            for _ in range(20):
                lam, mu = random_interior_point(rng, 0.9), random_interior_point(rng, 0.9)
                assert model_residual(c, lam, mu) < 1e-12


class TestFitColligation:
    def test_fit_matches_two_atom_function(self):
        nu = DiscreteMeasure01(((0.3, 0.4), (0.8, 1.1)))
        syn = SynthesizedSchur(nu, tau=(-1j, 1.0), omega=np.exp(0.3j))
        fitted = fit_colligation(syn)
        fitted.validate()
        rng = np.random.default_rng(54)
        from bischur import eval_phi
        for _ in range(200):
            lam = random_interior_point(rng, 0.9)
            assert abs(eval_phi(fitted, lam) - synth_eval(syn, lam)) < 1e-10

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 8, 30])
    def test_the_colligation_is_the_block_formula(self, n_atoms):
        # the blocks built with vstack, block and diag, as a reference
        nu = DiscreteMeasure01(((0.0, 0.5), (1.0, 0.25), *seeded_measure(n_atoms).atoms))
        syn = SynthesizedSchur(nu, tau=(np.exp(0.7j), -1j), omega=np.exp(1.3j))
        s, w = np.array(nu.atoms).T
        n = len(s)
        J = np.zeros((n + 1, n + 1))
        J[0, 1:] = J[1:, 0] = np.sqrt(w)
        L = np.linalg.solve(J + 1j * np.eye(n + 1), J - 1j * np.eye(n + 1))
        L[0] *= -syn.omega
        c1, c2 = np.sqrt(s), np.sqrt(1.0 - s)
        C = np.vstack([np.diag(c1), np.diag(c2)])
        D_I = np.block([[np.diag(c2 * c2), np.diag(-c1 * c2)],
                        [np.diag(-c1 * c2), np.diag(c1 * c1)]])
        t = np.repeat(np.asarray(syn.tau), n)
        fitted = fit_colligation(syn)
        for got, expected in [(fitted.beta, t * (C @ L[0, 1:].conj())),
                              (fitted.gamma, C @ L[1:, 0]),
                              (fitted.D, (D_I + C @ L[1:, 1:] @ C.T) * t.conj()),
                              (fitted.P1, np.diag(np.repeat([1.0, 0.0], n)))]:
            assert got.tobytes() == np.asarray(expected, dtype=complex).tobytes()
        assert repr(fitted.a) == repr(complex(L[0, 0]))

    @pytest.mark.parametrize("nu", [
        pytest.param(DiscreteMeasure01(((0.15, 0.6), (0.5, 0.9), (0.95, 0.3))),
                     id="3-atoms"),
        pytest.param(seeded_measure(16), id="16-atoms"),
        pytest.param(seeded_measure(30), id="30-atoms"),
        pytest.param(seeded_measure(100), id="100-atoms"),
        pytest.param(DiscreteMeasure01(((0.4, 1.0), (0.403, 0.7), (0.406, 1.3),
                                        (0.409, 0.5))), id="crowded"),
    ])
    def test_slope_round_trip_through_desingularization(self, nu):
        tau = (np.exp(0.7j), np.exp(-2.1j))
        syn = SynthesizedSchur(nu, tau=tau, omega=np.exp(1.3j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = desingularize(fit_colligation(syn), tau)
        assert g.notes == ()
        assert g.kernel_dim == len(nu.atoms)
        pair = SlopePair.from_realization(g)
        for z in (1.0, 0.3, 2.5, 1j, 1 + 1j, 3 - 0.5j, 0.07, 12.0, 0.4 + 2j, 5j):
            assert abs(slope_eval(pair, z) - h_from_measure(nu, z)) < 1e-6
        back = slope_measure(pair)
        assert len(back.atoms) == len(nu.atoms)
        for (s, w), (s_back, w_back) in zip(nu.atoms, back.atoms):
            assert abs(s - s_back) < 1e-9
            assert abs(w - w_back) < 1e-9


class TestVerifySlope:
    @staticmethod
    def derivative_check(nu, delta):
        """The one derivative_checks record of verify_slope at (1, 1), omega 1."""
        syn = SynthesizedSchur(nu, tau=CHI, omega=1.0)
        check, = derivative_checks(partial(synth_eval, syn), CHI, 1.0, [delta],
                                   partial(h_from_measure, nu))
        return check

    def test_favourite_direction_one_one(self, favourite_measure):
        report = verify_slope(SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0), [(1.0, 1.0)])
        assert report["pass"]
        check = self.derivative_check(favourite_measure, (1.0, 1.0))
        assert check["numeric"] == pytest.approx(-1.0, abs=1e-6)
        assert check["analytic"] == pytest.approx(-1.0)

    def test_favourite_complex_direction(self, favourite_measure):
        report = verify_slope(SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0), [(1 + 1j, 2.0)])
        assert report["max_rel_err"] < 1e-5

    def test_endpoint_atoms_give_sum_of_masses(self):
        nu = DiscreteMeasure01(((0.0, 1.0), (1.0, 1.0)))
        report = verify_slope(SynthesizedSchur(nu, tau=CHI, omega=1.0), [(1.0, 1.0)])
        assert self.derivative_check(nu, (1.0, 1.0))["analytic"] == pytest.approx(-2.0)
        assert report["pass"]

    def test_relocated_directions(self, favourite_measure):
        syn = SynthesizedSchur(favourite_measure, tau=(-1.0, 1j), omega=-1.0)
        deltas = [(-1.0, 1j), (-2.0, 1j * (1 + 0.4j))]
        report = verify_slope(syn, deltas)
        assert report["pass"]

    def test_asymmetric_atom_orientation(self):
        # s weights the first coordinate inside f_s, so the derivative along
        # (2, 1) for a single atom at s = 0.9 is -2/((1-s) 2 + s) = -2/1.1;
        # the symmetric half-atom cannot distinguish a swapped convention
        nu = DiscreteMeasure01(((0.9, 1.0),))
        from bischur import directional_derivative_numeric
        num, = directional_derivative_numeric(
            partial(synth_eval, SynthesizedSchur(nu, tau=CHI, omega=1.0)), CHI, [(2.0, 1.0)], phi_tau=1.0)
        assert num.estimate == pytest.approx(-2.0 / 1.1, abs=1e-6)
        syn = SynthesizedSchur(nu, tau=(1j, -1.0), omega=np.exp(0.7j))
        report = verify_slope(syn, [(1j * (2 + 0.3j), -1.0 - 0.2j), (1j, -3.0)])
        assert report["pass"]


    def test_error_above_tol_fails_with_a_reason(self, favourite_measure, monkeypatch):
        monkeypatch.setattr(gates, "DERIVATIVE_REL_ERR_MAX", 0.0)
        report = verify_slope(SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0), [(1.0, 2.0)])
        assert not report["pass"]
        assert report["reason"] == (
            f"rel_err along delta 0 {report['max_rel_err']:.3e} is not below 0")

    def test_a_nan_rel_err_fails_in_any_direction(self, favourite_measure, monkeypatch):
        # max() passes over a NaN that is not first: the maximum is NaN
        # then, and each direction is gated
        real = synthesis.h_from_measure
        monkeypatch.setattr(synthesis, "h_from_measure", lambda nu, z: np.where(
            np.arange(len(z)) == 1, np.nan, real(nu, z)))
        report = verify_slope(SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0),
                              [(1.0, 2.0), (2.0, 1.0)])
        assert np.isnan(report["max_rel_err"]) and not report["pass"]
        assert report["reason"] == "rel_err along delta 1 nan is not below 1e-07"

    def test_no_direction_passes_vacuously(self, favourite_measure):
        report = verify_slope(SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0), [])
        assert report == {"max_rel_err": 0.0, "pass": True}

    def test_passing_check_has_no_reason(self, favourite_measure):
        assert "reason" not in verify_slope(
            SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0), [(1.0, 2.0)])


class TestVerifyCarapoint:
    def test_favourite(self, favourite_measure):
        report = verify_carapoint(SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0))
        assert report["pass"]
        assert report["liminf"] == pytest.approx(1.0, abs=1e-6)
        assert report["boundary_value"] == pytest.approx(1.0, abs=1e-6)

    def test_mass_scaling(self, favourite_measure):
        tripled = DiscreteMeasure01(tuple((s, 3 * w) for s, w in favourite_measure.atoms))
        report = verify_carapoint(SynthesizedSchur(tripled, tau=CHI, omega=1.0))
        assert report["liminf"] == pytest.approx(3.0, abs=1e-6)

    def test_relocated_boundary_value(self, favourite_measure):
        syn = SynthesizedSchur(favourite_measure, tau=(-1.0, -1.0), omega=-1.0)
        report = verify_carapoint(syn)
        assert report["pass"] and "reason" not in report
        assert report["boundary_value"] == pytest.approx(-1.0, abs=1e-6)

    def test_mismatch_fails_with_a_reason(self, favourite_measure, monkeypatch):
        # only the first failure is named: the liminf's, not the boundary value's
        monkeypatch.setattr(gates, "LIMINF_MATCH_MAX", 0.0)
        monkeypatch.setattr(gates, "BOUNDARY_VALUE_MAX", 0.0)
        report = verify_carapoint(SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0))
        assert not report["pass"]
        gap = abs(report["liminf"] - report["expected_mass"])
        assert report["reason"] == f"|liminf - expected_mass| {gap:.3e} is not below 0"
        monkeypatch.setattr(gates, "LIMINF_MATCH_MAX", 1.0)
        report = verify_carapoint(SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0))
        gap = abs(complex(report["boundary_value"]) - report["omega"])
        assert report["reason"] == f"|boundary_value - omega| {gap:.3e} is not below 0"

    def test_liminf_and_value_match_the_library_limits(self, favourite_measure):
        syn = SynthesizedSchur(favourite_measure, tau=(1j, -1.0), omega=np.exp(0.7j))
        phi = partial(synth_eval, syn)
        report = verify_carapoint(syn)
        assert report["liminf"] == radial_liminf(phi, syn.tau).estimate.real
        assert report["boundary_value"] == nontangential_value(phi, syn.tau).estimate


class TestCayleyDerivativeIdentity:
    def test_quotient_rule_between_f_and_phi(self, favourite_measure):
        # D phi = -2 D f / (1 + f)^2 at the carapoint, with radial limit f = 0
        from bischur.synthesis import _herglotz_sum
        syn = SynthesizedSchur(favourite_measure, tau=CHI, omega=1.0)
        phi = partial(synth_eval, syn)
        f = lambda lam: _herglotz_sum(favourite_measure, lam)
        for delta in ((1.0, 1.0), (2.0, 1.0 + 0.5j)):
            quotient = lambda t, d=delta: (
                f((1 - t * d[0], 1 - t * d[1])) / t)
            ts = 2.0 ** -np.arange(6, 16)
            df = 2 * quotient(ts[-1]) - quotient(ts[-2])
            from bischur import directional_derivative_numeric
            dphi = directional_derivative_numeric(phi, CHI, [delta], phi_tau=1.0)[0].estimate
            assert abs(dphi - (-2.0 * df)) < 1e-4 * (1 + abs(dphi))
