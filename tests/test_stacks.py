"""Stacked evaluation and draws: a stack of points, or of realizations, gives
what its members give one by one, and a public instance draw, a batch of
one, gives the instances of the draws before the batches."""

import math
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from bischur import (
    BoundarySingularityError,
    Colligation,
    DiscreteMeasure01,
    GeneralizedRealization,
    IllConditionedError,
    InvalidInputError,
    NevanlinnaData,
    PoleError,
    PreconditionError,
    SlopePair,
    SynthesizedSchur,
    Tolerances,
    TwoVarNevRep,
    carapoint_at_infinity,
    desingularize,
    eval_h2,
    eval_I,
    eval_phi,
    eval_phi_gen,
    h_from_measure,
    h_from_nevanlinna,
    model_liminf,
    model_residual,
    nevanlinna_from_measure,
    pick_check,
    pick_value_from_schur,
    radial_liminf,
    schur_value_from_pick,
    slope_eval,
    synth_eval,
    to_bidisc,
)
from bischur import _limits, boundary, cli, generate, nev2d, slope, synthesis
from bischur._integrate import adaptive_trapezoid
from bischur._limits import STEPS, refine_to_limit
from bischur.boundary import _quotient
from bischur.colligation import _realize, _stack
from bischur.generate import (
    random_colligation,
    random_colligation_with_kernel,
    random_interior_point,
    random_interior_points,
    random_inward_direction,
    random_inward_directions,
    random_nev_rep,
    random_torus_point,
    random_torus_points,
    random_unitary,
    random_upper_points,
)

import parent_generate
from parent_synthesis import herglotz_component
from conftest import CHI

N_POINTS = 64


def bidisc_stack(rng, n=N_POINTS):
    """n interior points; every fourth one lies 1e-8 inside the torus."""
    radius = 0.95 * np.sqrt(rng.uniform(size=(2, n)))
    radius[:, ::4] = 1.0 - 1e-8
    lam = radius * np.exp(2j * np.pi * rng.uniform(size=(2, n)))
    return lam[0], lam[1]


def points_of(stack):
    return list(zip(*stack))


@pytest.mark.parametrize("dim", range(1, 9))
def test_colligation_stack_matches_points(dim):
    rng = np.random.default_rng(700 + dim)
    c = random_colligation(rng, dim)
    lam, mu = bidisc_stack(rng), bidisc_stack(rng)
    # phi's digits at a point do not depend on the size of its stack
    assert np.array_equal(eval_phi(c, lam), [eval_phi(c, p) for p in points_of(lam)])
    assert np.array_equal(model_residual(c, lam, mu), [
        model_residual(c, p, q) for p, q in zip(points_of(lam), points_of(mu))])


def test_generalized_stack_matches_points():
    rng = np.random.default_rng(710)
    for _ in range(6):
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, int(rng.integers(1, 5)),
                                           int(rng.integers(1, 3)), tau)
        g = desingularize(c, tau)
        lam = bidisc_stack(rng)
        points = points_of(lam)
        assert np.array_equal(eval_phi_gen(g, lam), [eval_phi_gen(g, p) for p in points])
        assert np.array_equal(eval_I(g, lam), [eval_I(g, p) for p in points])


def test_h2_stack_matches_points():
    rng = np.random.default_rng(720)
    for dim in range(1, 6):
        rep = random_nev_rep(rng, dim)
        z = rng.uniform(-3, 3, size=(2, N_POINTS)) + 1j * rng.uniform(0.05, 3, size=(2, N_POINTS))
        z[:, ::4] = z[:, ::4].real + 1e-8j
        # h2's digits at a point do not depend on the size of its stack
        assert np.array_equal(eval_h2(rep, (z[0], z[1])), [eval_h2(rep, p) for p in zip(*z)])


def test_slope_stack_matches_points():
    rng = np.random.default_rng(725)
    for dim in range(1, 9):
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        Y = A @ A.conj().T
        pair = SlopePair(Y / (1.01 * np.linalg.norm(Y, 2)), rng.normal(size=dim) + 0.5j)
        z = rng.uniform(-3, 3, N_POINTS) + 1j * rng.uniform(0.05, 3, N_POINTS)
        assert np.array_equal(slope_eval(pair, z), [slope_eval(pair, w) for w in z])


def complex_bits(values):
    """The bytes of complex values, which tell -0.0 from 0.0."""
    return np.asarray(values, dtype=complex).tobytes()


@pytest.mark.parametrize("atoms", range(1, 31))
def test_synth_stack_matches_points(atoms):
    rng = np.random.default_rng(730 + atoms)
    nu = DiscreteMeasure01(tuple(zip(rng.uniform(size=atoms), rng.uniform(0.1, 2.0, atoms))))
    syn = SynthesizedSchur(nu, tau=random_torus_point(rng), omega=np.exp(1j * rng.uniform(0, 6)))
    lam = bidisc_stack(rng)
    points = points_of(lam)
    assert np.array_equal(synth_eval(syn, lam), [synth_eval(syn, p) for p in points])
    for s, _ in nu.atoms:
        assert np.array_equal(herglotz_component(s, lam),
                              [herglotz_component(s, p) for p in points])
    # the one broadcast over every atom is the sum of the atoms' own calls,
    # added in atom order from zeros
    def sequential(at):
        return sum((w * herglotz_component(s, at) for s, w in nu.atoms),
                   np.zeros(np.shape(at[0]), dtype=complex))

    assert complex_bits(synthesis._herglotz_sum(nu, lam)) == complex_bits(sequential(lam))
    for p in [*points[:8], (0.0, 0.0), (0.5, -0.5j), (complex(-0.0, 0.3), -0.9)]:
        assert np.shape(synthesis._herglotz_sum(nu, p)) == ()
        assert complex_bits(synthesis._herglotz_sum(nu, p)) == complex_bits(sequential(p))


@pytest.mark.parametrize("atoms", [1, 2, 5, 12, 30])
def test_one_variable_stack_matches_points(atoms):
    rng = np.random.default_rng(735 + atoms)
    nu = DiscreteMeasure01(tuple(zip(rng.uniform(0.01, 0.99, atoms),
                                     rng.uniform(0.1, 2.0, atoms))))
    upper = np.concatenate([random_upper_points(rng, (N_POINTS,)), rng.uniform(0.01, 9, 16)])
    disc = np.concatenate(bidisc_stack(rng))
    # a value's digits do not depend on the size of its array
    for evaluate, z in ((partial(h_from_measure, nu), upper),
                        (partial(h_from_nevanlinna, nevanlinna_from_measure(nu)), upper),
                        (pick_value_from_schur, disc), (schur_value_from_pick, upper)):
        assert np.array_equal(evaluate(z), [evaluate(w) for w in z])
    lam = bidisc_stack(rng)
    z = pick_value_from_schur(lam[0]), pick_value_from_schur(lam[1])
    assert np.array_equal(np.transpose(to_bidisc(z)), [to_bidisc(p) for p in points_of(z)])


@pytest.mark.parametrize("a, b", [(-4.0, 0.5), (-2.0, 0.0), (-1.001, 0.5), (-3.0, -1.0001),
                                  (-1.05, -0.95)])
def test_window_integral_stack_matches_ys(a, b):
    h = partial(h_from_nevanlinna, NevanlinnaData(c=-1.0, d=0.0, atoms=((-1.0, math.pi),)))
    ys = [0.1 * 2.0 ** -k for k in range(11)]   # acceptance criterion 05
    # a y's integral does not depend on the stack it is taken in, whether the
    # ys share the top side Y = b - a or, on [-1.05, -0.95], the first has Y = 2y
    stack = adaptive_trapezoid(h, a, b, np.array(ys))
    assert np.array_equal(stack, [adaptive_trapezoid(h, a, b, y) for y in ys])
    exact = [2.0 * (math.atan((b + 1.0) / y) + math.atan((-1.0 - a) / y)) for y in ys]
    assert stack == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_stack_names_its_first_ill_conditioned_point(favourite_colligation, k):
    bad = (1.0 - 1e-15, 1.0 - 1e-15)
    good = [(0.1, 0.2j), (0.5, -0.3), (0.2j, 0.7), (-0.4, 0.4), (0.3, 0.3)]
    points = good[:k] + [bad] + good[k:]
    with pytest.raises(IllConditionedError) as scalar:
        eval_phi(favourite_colligation, bad)
    with pytest.raises(IllConditionedError) as stacked:
        eval_phi(favourite_colligation, tuple(np.array(points).T))
    assert stacked.value.cond == scalar.value.cond
    assert str(stacked.value) == str(scalar.value)


def julia_quotient(phi, lam):
    """The Julia quotient of phi at a point or a stack, as radial_liminf
    forms it."""
    return _quotient(phi(lam), lam)


def radius(t):
    """The points CHI - t CHI of the radius at the steps t."""
    return CHI[0] - t * CHI[0], CHI[1] - t * CHI[1]


def pointwise(phi, tol):
    """radial_liminf of phi along the radius to CHI, sampled on stacks of one."""
    return refine_to_limit(lambda k: julia_quotient(phi, radius(STEPS[k:k + 1]))[0],
                           STEPS, tol=tol)


def test_unreached_ill_conditioned_tail_falls_back_to_points(favourite_colligation):
    # the resolvent of the favourite at (1 - t)(1, 1) has condition about 1/t,
    # so a ceiling of 1e3 breaks the radius's tail, which the limit never reaches
    phi = partial(eval_phi, favourite_colligation, tol=Tolerances(solve_cond_max=1e3))
    with pytest.raises(IllConditionedError):
        phi(radius(STEPS))
    lazy = pointwise(phi, 1e-9)
    assert lazy.converged
    assert radial_liminf(phi, CHI) == lazy


def test_model_liminf_falls_back_on_an_unreached_tail(favourite_colligation):
    tight = model_liminf(favourite_colligation, CHI, Tolerances(solve_cond_max=1e3))
    loose = model_liminf(favourite_colligation, CHI)
    assert tight.converged
    assert len(tight.samples) == len(loose.samples)
    assert tight.estimate == pytest.approx(loose.estimate, abs=1e-12)


def counted(f, calls, at=0):
    """f, recording the length of the point stack it gets as argument ``at``."""
    def wrapped(*args):
        calls.append(len(args[at][0]))
        return f(*args)
    return wrapped


def test_path_converging_in_its_head_makes_one_call(favourite_colligation):
    calls = []
    report = radial_liminf(counted(partial(eval_phi, favourite_colligation), calls), CHI)
    assert calls == [24]
    assert report.converged and len(report.samples) <= 24
    assert report.estimate == pytest.approx(1.0, abs=1e-8)


def test_path_read_past_its_head_samples_stacks_of_one(favourite_colligation, monkeypatch):
    # no gap is below a negative tolerance, so the extrapolation along the
    # radius reads every step, past the head
    monkeypatch.setattr(boundary, "LIMINF_TOL", -1.0)
    phi = partial(eval_phi, favourite_colligation)
    calls = []
    report = radial_liminf(counted(phi, calls), CHI)
    assert calls == [24] + [1] * (len(STEPS) - 24)
    assert len(report.samples) == len(STEPS)
    # head then stacks of one give the digits of stacks of one and of one
    # whole-radius call
    assert report == pointwise(phi, -1.0)
    whole = julia_quotient(phi, radius(STEPS))
    assert report == refine_to_limit(whole.__getitem__, STEPS, tol=-1.0)


@pytest.mark.parametrize("broken", ["head"])
def test_stack_that_raises_falls_back_to_points(broken, favourite_colligation, monkeypatch):
    monkeypatch.setattr(boundary, "LIMINF_TOL", -1.0)
    phi = partial(eval_phi, favourite_colligation)
    calls = []

    def breaks(lam):
        calls.append(np.shape(lam[0]))
        if len(lam[0]) > 1:
            raise IllConditionedError(f"the {broken} stack is refused", cond=1e300)
        return phi(lam)

    report = radial_liminf(breaks, CHI)
    assert len(report.samples) == len(STEPS)
    # no second stacked call: every point alone
    assert calls == [(24,)] + [(1,)] * len(report.samples)
    assert report == radial_liminf(phi, CHI)
    assert report == pointwise(phi, -1.0)


def refusing_stacks(f, at):
    """f, raising when its argument ``at`` is a stack of more than one point."""
    def refuses(*args):
        if len(args[at][0]) > 1:
            raise IllConditionedError("stacks are refused", cond=1e300)
        return f(*args)
    return refuses


SAMPLINGS = ("whole", "head and stacks of one", "stacks of one")


@pytest.mark.parametrize("dim", range(2, 9))
def test_model_liminf_samplings_agree_bit_for_bit(dim, monkeypatch):
    rng = np.random.default_rng(750 + dim)
    c = random_colligation(rng, dim)
    tau = random_torus_point(rng)
    # no gap is below a negative tolerance, so every step is read; at 1e-300
    # a radius whose extrapolants repeat exactly (dim 2) stops at step 37
    monkeypatch.setattr(boundary, "LIMINF_TOL", -1.0)
    reports = []
    for sampling in SAMPLINGS:
        with monkeypatch.context() as m:
            if sampling == "whole":
                m.setattr(_limits, "_HEAD", len(boundary.STEPS))
            elif sampling == "stacks of one":
                m.setattr(boundary, "model_vector", refusing_stacks(boundary.model_vector, 1))
            reports.append(model_liminf(c, tau))
    assert len(reports[0].samples) == len(boundary.STEPS) > _limits._HEAD
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("dim", range(1, 9))
def test_carapoint_at_infinity_samplings_agree_bit_for_bit(dim, monkeypatch):
    rep = random_nev_rep(np.random.default_rng(760 + dim), dim)
    limits = []
    monkeypatch.setattr(nev2d, "refine_to_limit", lambda *args, **kwargs: limits.append(
        refine_to_limit(*args, **kwargs)) or limits[-1])
    results = []
    for sampling in SAMPLINGS:
        h = partial(eval_h2, rep)
        with monkeypatch.context() as m:
            if sampling == "head and stacks of one":
                m.setattr(_limits, "_HEAD", 10)
            elif sampling == "stacks of one":
                h = refusing_stacks(h, 0)
            results.append((carapoint_at_infinity(h), limits[:]))
        limits.clear()
    assert results[0][0].finite
    assert results[1] == results[0] and results[2] == results[0]


def colligation_group(dim):
    """Three colligations of one dimension, each with its own carapoint."""
    rng = np.random.default_rng(780 + dim)
    cs = [random_colligation(rng, dim) for _ in range(3)]
    return cs, [random_torus_point(rng) for _ in cs]


@pytest.mark.parametrize("tol", [boundary.LIMINF_TOL, 1e-300], ids=["default", "every step"])
@pytest.mark.parametrize("dim", range(1, 7))
def test_model_liminf_of_a_group_is_each_alone(dim, tol, monkeypatch):
    cs, taus = colligation_group(dim)
    monkeypatch.setattr(boundary, "LIMINF_TOL", tol)
    alone = [model_liminf(c, tau) for c, tau in zip(cs, taus)]
    calls = []
    monkeypatch.setattr(boundary, "model_vector", counted(boundary.model_vector, calls, 1))
    together = model_liminf(cs, taus)
    # estimate, samples, gap and flag, bit for bit
    assert together == alone
    # one head call for the group, then a stack of one per step read past it
    past = sum(max(0, len(report.samples) - _limits._HEAD) for report in alone)
    assert calls == [3 * _limits._HEAD] + [1] * past
    if tol == 1e-300:
        assert past > 0


@pytest.mark.parametrize("dim", range(1, 7))
def test_model_liminf_of_a_group_whose_head_raises(dim, monkeypatch):
    cs, taus = colligation_group(dim)
    alone = [model_liminf(c, tau) for c, tau in zip(cs, taus)]
    monkeypatch.setattr(boundary, "model_vector", refusing_stacks(boundary.model_vector, 1))
    # every member falls back to stacks of one, with the same digits
    assert model_liminf(cs, taus) == alone


@pytest.mark.parametrize("refused", [False, True], ids=["stacked", "head raises"])
@pytest.mark.parametrize("dim", range(1, 7))
def test_carapoint_at_infinity_of_a_family_is_each_alone(dim, refused, monkeypatch):
    rng = np.random.default_rng(790 + dim)
    reps = [random_nev_rep(rng, dim) for _ in range(3)]
    limits = []
    monkeypatch.setattr(nev2d, "refine_to_limit", lambda *args, **kwargs: limits.append(
        refine_to_limit(*args, **kwargs)) or limits[-1])
    alone = [carapoint_at_infinity(partial(eval_h2, rep)) for rep in reps]
    alone_limits = limits[:]
    limits.clear()
    members = [(rep.b, rep.alpha, rep.B, rep.Y) for rep in reps]
    calls = []

    def family(seq, z):
        return eval_h2(_stack(TwoVarNevRep, members, seq), z)

    if refused:
        family = refusing_stacks(family, 1)
    together = carapoint_at_infinity(counted(family, calls, 1), len(reps))
    assert all(result.finite and result.converged for result in alone)
    # every result and every extrapolation (samples, gap, flag), bit for bit
    assert together == alone and limits == alone_limits
    if refused:
        assert calls[0] == 3 * len(nev2d.INFINITY_YS) and set(calls[1:]) == {1}
    else:
        # the whole ray of every function in one call
        assert calls == [3 * len(nev2d.INFINITY_YS)]


def test_derivative_checks_make_one_call(favourite_colligation, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "eval_phi", lambda c, lam, tol: counted(
        partial(eval_phi, c, tol=tol), calls)(lam))
    g = desingularize(favourite_colligation, CHI)
    phi_tau = g.a + g.u_tau @ g.beta.conj()
    checks = cli._derivative_checks(favourite_colligation, CHI, phi_tau,
                                    SlopePair.from_realization(g),
                                    np.random.default_rng(3), 4, Tolerances())
    assert len(calls) == 1 and calls[0] <= 4 * 24
    assert len(checks) == 4 and all(check["converged"] for check in checks)


def test_derivative_checks_call_h_once(favourite_colligation, monkeypatch):
    g = desingularize(favourite_colligation, CHI)
    calls = []
    monkeypatch.setattr(slope, "slope_eval",
                        lambda pair, z: calls.append(z.shape) or slope_eval(pair, z))
    checks = cli._derivative_checks(favourite_colligation, CHI, g.a + g.u_tau @ g.beta.conj(),
                                    SlopePair.from_realization(g),
                                    np.random.default_rng(3), 4, Tolerances())
    assert calls == [(4,)] and len(checks) == 4
    # synth --verify's six directions: one call of the measure's h
    syn = SynthesizedSchur(DiscreteMeasure01(((0.3, 1.0), (0.8, 0.5))), tau=(1j, -1.0),
                           omega=-1.0)
    calls.clear()
    monkeypatch.setattr(synthesis, "h_from_measure",
                        lambda nu, z: calls.append(z.shape) or h_from_measure(nu, z))
    assert synthesis.verify_slope(syn, cli._verify_directions(syn.tau))["pass"]
    assert calls == [(6,)]


def test_synth_verification_makes_one_call_per_check(monkeypatch):
    syn = SynthesizedSchur(DiscreteMeasure01(((0.3, 1.0), (0.8, 0.5))),
                           tau=(1j, -1.0), omega=-1.0)
    calls = []
    monkeypatch.setattr(synthesis, "synth_eval", lambda s, lam: counted(
        partial(synth_eval, s), calls)(lam))
    report = synthesis.verify_slope(syn, cli._verify_directions(syn.tau))
    assert report["pass"] and calls == [6 * 24]
    calls.clear()
    assert synthesis.verify_carapoint(syn)["pass"] and calls == [24]


# ------------------------------------------------------------ stacked draws


def same_draws(stacked, one_by_one):
    """Run two draws from one seed; the stack must hold the points drawn one
    by one, bit for bit, and leave the generator where they leave it."""
    rng_stacked, rng_points = np.random.default_rng(740), np.random.default_rng(740)
    stack = np.asarray(stacked(rng_stacked), dtype=complex)
    points = np.asarray(one_by_one(rng_points), dtype=complex)
    assert stack.shape == points.shape
    assert stack.tobytes() == points.tobytes()
    assert rng_stacked.uniform() == rng_points.uniform()


@pytest.mark.parametrize("rmax", [0.9, 0.85])
def test_interior_points_are_the_point_draws(rmax):
    same_draws(lambda rng: random_interior_points(rng, 50, rmax),
               lambda rng: np.transpose([random_interior_point(rng, rmax) for _ in range(50)]))


def test_torus_points_are_the_point_draws():
    same_draws(lambda rng: random_torus_points(rng, 50),
               lambda rng: np.transpose([random_torus_point(rng) for _ in range(50)]))


@pytest.mark.parametrize("tau", [CHI, (1j, -1.0), (np.exp(2.5j), np.exp(-0.7j))])
def test_inward_directions_are_the_point_draws(tau):
    same_draws(lambda rng: random_inward_directions(rng, tau, 50),
               lambda rng: np.transpose([random_inward_direction(rng, tau) for _ in range(50)]))


def upper_point(rng):
    """One point of random_upper_points's box, drawn as the verify suites
    drew their grids point by point."""
    return complex(rng.uniform(-3, 3), rng.uniform(0.05, 3.0))


def test_measures_grid_is_the_point_draws():
    same_draws(lambda rng: random_upper_points(rng, (25,)),
               lambda rng: [upper_point(rng) for _ in range(25)])


def test_reps_grid_is_the_point_draws():
    same_draws(lambda rng: random_upper_points(rng, (10, 2)),
               lambda rng: [(upper_point(rng), upper_point(rng)) for _ in range(10)])


def test_pair_stacks_alternate_lam_and_mu():
    def one_by_one(rng):
        pairs = [(random_interior_point(rng, 0.85), random_interior_point(rng, 0.85))
                 for _ in range(7)]
        return np.transpose(pairs, (1, 2, 0))   # (lam or mu, coordinate, point)

    same_draws(lambda rng: cli._pair_stacks(rng, 7), one_by_one)


# ------------------------------------------------------------ batched draws


def colligation_fields(c):
    return c.a, c.beta, c.gamma, c.D, c.P1


def instance_arrays(x):
    """The arrays of a drawn instance: its fields, or a measure's atoms."""
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, DiscreteMeasure01):
        return [np.array(atom) for atom in x.atoms]
    return [np.asarray(getattr(x, field.name)) for field in fields(x)]


# each public draw with its arguments after rng, drawn from a second generator
PUBLIC_DRAWS = {
    "random_unitary": lambda spec: (int(spec.integers(1, 8)),),
    "random_projection": lambda spec: (int(spec.integers(1, 8)),),
    "random_colligation": lambda spec: (int(spec.integers(1, 7)),),
    "random_colligation_with_kernel": lambda spec: (
        int(spec.integers(1, 5)), int(spec.integers(1, 4)), random_torus_point(spec)),
    "random_measure": lambda spec: (),
    "random_nev_rep": lambda spec: (int(spec.integers(1, 6)),),
}


def same_public_draws(name, seed, count=12):
    """Draw count instances with the public draw ``name`` and with the draw
    before the batches: every array must have the same bits, and the
    generator must be in the same state after each instance.  A refused
    instance must be refused alike."""
    spec = np.random.default_rng(1200 + seed)
    batched, before = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(count):
        args = PUBLIC_DRAWS[name](spec)
        try:
            want = getattr(parent_generate, name)(before, *args)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError, match=str(exc)):
                getattr(generate, name)(batched, *args)
        else:
            got = getattr(generate, name)(batched, *args)
            assert type(got) is type(want)
            for x, y in zip(instance_arrays(got), instance_arrays(want), strict=True):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()
        assert batched.bit_generator.state == before.bit_generator.state


@pytest.mark.parametrize("name", PUBLIC_DRAWS)
@pytest.mark.parametrize("seed", range(10))
def test_public_draws_are_the_draws_before_the_batches(name, seed):
    same_public_draws(name, seed)


@pytest.mark.parametrize("seed", range(3))
def test_turned_blocks_are_those_before_the_batches(seed, monkeypatch):
    # at 0.2 about one block in nine is turned, and a block of dimension 1
    # may be refused
    for module in (generate, parent_generate):
        monkeypatch.setattr(module, "BLOCK_SIGMA_MIN", 0.2)
    same_public_draws("random_colligation_with_kernel", seed, count=30)


class Recording:
    """A generator that records the method and size of each call."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        def call(*args, size=None):
            self.calls.append((name, size))
            return getattr(self.rng, name)(*args, size=size)
        return call


@pytest.mark.parametrize("batch, args, calls", [
    (generate._colligations, (3, 4), [("normal", (4, 2, 4, 4)), ("integers", 4),
                                      ("normal", (4, 2, 3, 3))]),
    (generate._kernel_colligations, (2, 2, [CHI] * 5), [
        ("normal", (5, 2, 3, 3)), ("integers", 5), ("normal", (5, 2, 2, 2)),
        ("integers", 5), ("normal", (5, 2, 2, 2)), ("normal", (5, 2, 4, 4))]),
    (generate._kernel_colligations, (1, 1, [CHI] * 3), [
        ("normal", (3, 2, 2, 2)), ("normal", (3, 2, 1, 1)), ("integers", (3, 1, 1)),
        ("normal", (3, 2, 2, 2))]),
    (generate._nev_reps, (2, 3), [("normal", (3, 2, 2, 2)), ("normal", (3, 2, 2, 2)),
                                  ("uniform", (3, 1, 2)), ("normal", (3, 2, 2)),
                                  ("normal", 3)]),
])
def test_a_batch_draws_each_array_in_one_call(batch, args, calls):
    rng = Recording(0)
    batch(rng, *args)
    assert rng.calls == calls


def test_a_batch_of_measures_draws_each_array_in_one_call():
    rng = Recording(0)
    measures = generate._measures(rng, 6)
    total = sum(len(nu.atoms) for nu in measures)
    assert rng.calls == [("integers", 6), ("uniform", total), ("uniform", total)]


@pytest.mark.parametrize("seed", range(3))
def test_a_kernel_colligation_reads_the_stream_alike_at_any_threshold(seed, monkeypatch):
    # a block that fails at c = 1 is turned by a phase, not drawn again, so
    # the draws of one seed read the same numbers at 1e-3 as at 0.2, where
    # about one block in nine is turned
    shapes = np.random.default_rng(1000 + seed).integers([2, 1], [5, 3], size=(30, 2)).tolist()
    taus = [random_torus_point(np.random.default_rng(1100 + 30 * seed + j)) for j in range(30)]
    states, draws = [], []
    for sigma_min in (generate.BLOCK_SIGMA_MIN, 0.2):
        monkeypatch.setattr(generate, "BLOCK_SIGMA_MIN", sigma_min)
        rng = np.random.default_rng(seed)
        draws.append([random_colligation_with_kernel(rng, m, k, tau)
                      for (m, k), tau in zip(shapes, taus)])
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]
    turned = [not np.array_equal(c.gamma, drawn.gamma) for drawn, c in zip(*draws)]
    assert 0 < sum(turned) < len(turned)


def test_a_block_no_phase_can_turn_is_refused(monkeypatch):
    # sigma_min(1 - c D0 pencil0) <= 1 + ||D0 pencil0|| <= 2 for every phase c
    monkeypatch.setattr(generate, "BLOCK_SIGMA_MIN", 3.0)
    with pytest.raises(InvalidInputError, match="no phase keeps 1 outside the block's spectrum"):
        random_colligation_with_kernel(np.random.default_rng(0), 3, 1, (1.0, 1j))


# ------------------------------------------------- stacks of realizations


def fields_of(kind, instance, count):
    """The first ``count`` fields of an instance of kind, in order."""
    return tuple(getattr(instance, field.name) for field in fields(kind)[:count])


def point_stacks(rng, sizes):
    """One stack of interior points per size, some 1e-8 inside the torus."""
    return [bidisc_stack(rng, int(k)) for k in sizes]


def stacked(kind, instances, count, stacks):
    """The stack of the instances with one row per point of their point
    stacks, and those points as one stack."""
    rows = np.repeat(np.arange(len(instances)), [len(lam[0]) for lam in stacks])
    stack = _stack(kind, [fields_of(kind, x, count) for x in instances], rows)
    return stack, tuple(np.concatenate(coordinate) for coordinate in zip(*stacks))


def assert_stack_is_its_instances(kind, instances, count, stacks, evaluate):
    """evaluate on the stack of the instances, each row at its own points,
    gives each output of the instances alone at their points, concatenated,
    bit for bit."""
    alone = [evaluate(x, lam) for x, lam in zip(instances, stacks)]
    for k, output in enumerate(evaluate(*stacked(kind, instances, count, stacks))):
        expected = np.concatenate([a[k] for a in alone])
        assert output.shape == expected.shape
        assert output.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", range(1, 6))
def test_colligation_stack_is_its_instances(dim):
    rng = np.random.default_rng(1000 + dim)
    cs = [random_colligation(rng, dim) for _ in range(7)]
    assert_stack_is_its_instances(Colligation, cs, 5, point_stacks(rng, [1, 4, 9, 2, 16, 3, 5]),
                                  lambda c, lam: _realize(c, lam, Tolerances()))


def generalized_realizations(rng, count):
    """Desingularizations of random colligations with a kernel, grouped by
    dimension."""
    groups = {}
    for _ in range(count):
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, int(rng.integers(1, 5)),
                                           int(rng.integers(1, 3)), tau)
        g = desingularize(c, tau)
        groups.setdefault(g.dim, []).append(g)
    return groups.values()


def near_cutoff_colligation():
    """A colligation whose 1 - D tau at CHI has the singular value 1e-8, just
    above the rank cutoff: its desingularization carries a note."""
    eps = 1e-8
    b = np.sqrt(2 * eps - eps * eps)
    return Colligation(a=-(1 - eps), beta=[b, 0.0], gamma=[b, 0.0],
                       D=[[1 - eps, 0.0], [0.0, -1.0]], P1=np.eye(2))


def desingularization_group(dim):
    """Colligations of one dimension with a relocated carapoint each, their
    kernel dimensions 0 to 2 interleaved; at dimension 2 also one with a
    singular value just above the rank cutoff."""
    rng = np.random.default_rng(1030 + dim)
    members = []
    for kernel_dim in (1, 0, 2, 1, 0, 2):
        if kernel_dim < dim:
            tau = random_torus_point(rng)
            c = (random_colligation_with_kernel(rng, dim - kernel_dim, kernel_dim, tau)
                 if kernel_dim else random_colligation(rng, dim))
            members.append((c, tau))
    if dim == 2:
        members.insert(2, (near_cutoff_colligation(), CHI))
    return [c for c, _ in members], [tau for _, tau in members]


def bits(g):
    """Every field of a model, with its shape and dtype, as bytes."""
    return [(f.name, np.shape(x), np.asarray(x).dtype, np.asarray(x).tobytes())
            for f in fields(g) for x in [getattr(g, f.name)]]


@pytest.mark.parametrize("dim", range(1, 7))
def test_desingularize_of_a_group_is_each_alone(dim):
    cs, taus = desingularization_group(dim)
    alone = [desingularize(c, tau) for c, tau in zip(cs, taus)]
    together = desingularize(cs, taus)
    # every field, notes included
    assert [bits(g) for g in together] == [bits(g) for g in alone]
    assert sum(len(g.notes) for g in alone) == (dim == 2)
    assert sorted({g.kernel_dim for g in alone}) == list(range(min(dim, 3)))


def test_a_group_raises_what_its_non_carapoint_raises_alone():
    rng = np.random.default_rng(1040)
    # gamma outside ran(1 - D) at CHI: non-unitary data
    broken = Colligation(a=0.0, beta=[0.0, 1.0], gamma=[1.0, 0.0],
                         D=[[1.0, 0.0], [0.0, 0.0]], P1=np.eye(2))
    with pytest.raises(PreconditionError) as alone:
        desingularize(broken, CHI)
    taus = [random_torus_point(rng), CHI, random_torus_point(rng)]
    with pytest.raises(PreconditionError) as together:
        desingularize([random_colligation(rng, 2), broken, random_colligation(rng, 2)], taus)
    assert str(together.value) == str(alone.value)


def test_a_group_needs_one_dimension_and_a_carapoint_each():
    rng = np.random.default_rng(1050)
    cs = [random_colligation(rng, 2), random_colligation(rng, 3)]
    with pytest.raises(InvalidInputError):
        desingularize(cs, [CHI, CHI])
    with pytest.raises(InvalidInputError):
        desingularize(cs[:1], [CHI, CHI])


def test_slope_eval_of_a_stack_of_pairs_is_each_alone():
    rng = np.random.default_rng(1060)
    for gs in generalized_realizations(rng, 24):
        pairs = [SlopePair.from_realization(g) for g in gs]
        z = rng.uniform(0.05, 3, len(gs)) + 1j * rng.uniform(-3, 3, len(gs))
        z[0] = 1.0
        stack = _stack(SlopePair, [(p.Y, p.u_tau) for p in pairs], np.arange(len(pairs)))
        assert np.array_equal(slope_eval(stack, z), [slope_eval(p, w) for p, w in zip(pairs, z)])


def test_generalized_stack_is_its_instances():
    rng = np.random.default_rng(1010)
    for gs in generalized_realizations(rng, 24):
        stacks = point_stacks(rng, rng.integers(1, 8, size=len(gs)))
        assert_stack_is_its_instances(GeneralizedRealization, gs, 6, stacks,
                                      lambda g, lam: _realize(g, lam, Tolerances()))
        assert_stack_is_its_instances(GeneralizedRealization, gs, 6, stacks,
                                      lambda g, lam: (eval_I(g, lam),))


def test_h2_stack_is_its_instances():
    rng = np.random.default_rng(1020)
    for dim in range(1, 6):
        reps = [random_nev_rep(rng, dim) for _ in range(6)]
        stacks = [tuple(random_upper_points(rng, (int(k), 2)).T)
                  for k in rng.integers(1, 12, size=6)]
        assert_stack_is_its_instances(TwoVarNevRep, reps, 4, stacks,
                                      lambda rep, z: (eval_h2(rep, z),))


def test_model_residual_stack_is_its_instances():
    rng = np.random.default_rng(1030)
    cs = [random_colligation(rng, 3) for _ in range(5)]
    lams, mus = point_stacks(rng, [3] * 5), point_stacks(rng, [3] * 5)
    # one row per point of lam, then one per point of mu
    rows = np.repeat(np.arange(5), 3)
    stack = _stack(Colligation, [colligation_fields(c) for c in cs], np.concatenate([rows, rows]))
    lam, mu = (stacked(Colligation, cs, 5, stacks)[1] for stacks in (lams, mus))
    alone = np.concatenate([model_residual(c, l, m) for c, l, m in zip(cs, lams, mus)])
    assert model_residual(stack, lam, mu).tobytes() == alone.tobytes()


@pytest.mark.parametrize("j", [0, 2, 4])
def test_stack_refusing_one_instance_names_its_point(favourite_colligation, j):
    rng = np.random.default_rng(1040)
    cs = [random_colligation(rng, 2) for _ in range(5)]
    cs[j] = favourite_colligation
    stacks = point_stacks(rng, [3] * 5)
    bad = (1.0 - 1e-15, 1.0 - 1e-15)
    stacks[j] = tuple(np.append(x, b) for x, b in zip(stacks[j], bad))
    with pytest.raises(IllConditionedError) as alone:
        eval_phi(favourite_colligation, bad)
    with pytest.raises(IllConditionedError) as refused:
        eval_phi(*stacked(Colligation, cs, 5, stacks))
    assert refused.value.point == bad
    assert str(refused.value) == str(alone.value)


@pytest.mark.parametrize("j", [0, 3])
def test_inner_stack_refusing_one_instance_names_its_point(j):
    # 1 - lam_1 (1 - Y) at lam_2 = 0, with 0 in the spectrum of Y, has
    # condition number about 1 / (1 - lam_1): 1e11, above 1 / rank_rel
    rng = np.random.default_rng(1050)
    zero = np.zeros(3, dtype=complex)
    gs = []
    for _ in range(4):
        U = random_unitary(rng, 3)
        gs.append(GeneralizedRealization(
            a=0.0, beta=zero, gamma=zero, Q=np.zeros((3, 3)),
            Y=U @ np.diag([1.0, 0.0, 0.5]) @ U.conj().T, tau=CHI, u_tau=zero,
            model_basis=np.eye(3), kernel_basis=np.zeros((3, 0))))
    stacks = point_stacks(rng, [2] * 4)
    bad = (1.0 - 1e-11, 0.0)
    stacks[j] = tuple(np.append(x, b) for x, b in zip(stacks[j], bad))
    with pytest.raises(BoundarySingularityError) as err:
        eval_I(*stacked(GeneralizedRealization, gs, 6, stacks))
    assert str(err.value) == ("inner-function denominator is singular at "
                              f"{tuple(map(complex, bad))}")


def measures_of_1_to_4_atoms(rng):
    """Random measures of 1 to 4 atoms, with measures that have atoms at
    s = 0 and s = 1 and one with no atoms among them."""
    drawn = [DiscreteMeasure01(tuple(zip(rng.uniform(size=k), rng.uniform(0.1, 2.0, size=k))))
             for k in (3, 1, 4, 2, 4, 1)]
    return [*drawn[:2], DiscreteMeasure01(((0.0, 1.0),)), *drawn[2:4],
            DiscreteMeasure01(((0.0, 0.5), (0.3, 1.0), (1.0, 2.0))), DiscreteMeasure01(()),
            DiscreteMeasure01(((1.0, 0.7),)), *drawn[4:]]


def assert_rows_are_the_members(evaluate, members, z):
    rows = evaluate(members, z)
    assert rows.shape == (len(members), *z.shape)
    for row, member in zip(rows, members):
        assert (row == evaluate(member, z)).all()


# upper points, a second row of them, and positive reals, off every pole
STACK_POINTS = np.concatenate([
    random_upper_points(np.random.default_rng(1060), (2, 9)),
    [[0.25, 1.0, 3.0, 1e-3, 7.0, 0.5, 2.0, 1e4, 1.5]]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", [STACK_POINTS, STACK_POINTS[0], STACK_POINTS[2]],
                         ids=["grid", "upper", "real"])
def test_measure_stack_is_its_members(z):
    measures = measures_of_1_to_4_atoms(np.random.default_rng(1070))
    assert_rows_are_the_members(h_from_measure, measures, z)
    assert_rows_are_the_members(h_from_measure, measures[2:3], z)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", [STACK_POINTS, STACK_POINTS[0], np.array([0.0, -0.5, -2.5, 3.0])],
                         ids=["grid", "upper", "real"])
def test_nevanlinna_stack_is_its_members(z):
    # no atom sits at t = 0, so z = 0 would be 0/0 at an atom padded there
    nds = [NevanlinnaData(c=-1.0, d=0.5, atoms=()),
           *(nevanlinna_from_measure(nu) for nu in measures_of_1_to_4_atoms(
               np.random.default_rng(1080)) if all(s < 1.0 for s, _ in nu.atoms)),
           NevanlinnaData(c=2.0, d=0.0, atoms=())]
    assert sorted({len(nd.atoms) for nd in nds}) == [0, 1, 2, 3, 4]
    assert_rows_are_the_members(h_from_nevanlinna, nds, z)
    assert_rows_are_the_members(h_from_nevanlinna, nds[:1], z)


def test_empty_stacks_have_no_rows():
    assert h_from_measure([], STACK_POINTS).shape == (0, *STACK_POINTS.shape)
    assert h_from_nevanlinna([], 1j).shape == (0,)
    assert desingularize([], []) == []
    assert model_liminf([], []) == []
    assert carapoint_at_infinity(lambda seq, z: z[0], 0) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("point, row", [(-1.0, 1), (-2.0, 2)])
def test_stack_pole_names_the_row_of_its_atom(point, row):
    # row 0 is padded at t = -1, the first atom of row 1, so its padded
    # term is 0/0 at z = -1, which the pole of row 1 must refuse first
    nds = [NevanlinnaData(c=-1.0, d=0.0, atoms=()),
           NevanlinnaData(c=-1.0, d=0.0, atoms=((-1.0, 1.0),)),
           NevanlinnaData(c=-1.0, d=0.0, atoms=((-2.0, 1.0),))]
    z = np.array([1j, point, 3.0])
    with pytest.raises(PoleError) as alone:
        h_from_nevanlinna(nds[row], z)
    assert str(alone.value) == f"evaluation point ({point:g}+0j) coincides with the atom at t={point}"
    with pytest.raises(PoleError) as stacked_err:
        h_from_nevanlinna(nds, z)
    assert str(stacked_err.value) == f"{alone.value} in row {row}"
    measures = [DiscreteMeasure01(()), DiscreteMeasure01(((0.5, 1.0),))]
    with pytest.raises(PoleError, match=r"^evaluation point \(-1\+0j\) hits the pole of the "
                                        r"atom at s=0.5 in row 1$"):
        h_from_measure(measures, -1.0)


def test_pick_check_of_rows_is_the_worst_row():
    measures = measures_of_1_to_4_atoms(np.random.default_rng(1090))
    grid = random_upper_points(np.random.default_rng(1100), (25,))
    rows = h_from_measure(measures, grid)
    alone = [pick_check(partial(h_from_measure, nu), grid) for nu in measures]
    assert pick_check(lambda z: rows, grid) == {
        "min_im_h": min(check["min_im_h"] for check in alone),
        "min_im_neg_zh": min(check["min_im_neg_zh"] for check in alone),
        "pass": True}
    assert pick_check(lambda z: np.stack([rows[0], z]), grid)["pass"] is False
