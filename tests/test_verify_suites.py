"""The verify suites against a per-instance reference.

Each suite draws all its instances in batches and evaluates the instances of
one dimension as one stack.  The reference below draws the same instances in
the same order, with the batched draws of ``generate``, and then evaluates
them one instance at a time, each alone, as the suites were first written.
Both must give the same suite figures, bit for bit, from one seed.
"""

from functools import partial

import numpy as np
import pytest

from bischur import Tolerances, boundary, cli, generate, nev2d, representations, slope as slope_mod
from bischur.cli import _pair_stacks
from bischur.gates import (
    EQUIVALENCE_MAX,
    INFINITY_LIMIT_MAX,
    PICK_SLACK,
    RADIAL_INNER_MAX,
    RESIDUAL_MAX,
    ROUND_TRIP_MAX,
    SCHUR_EXCESS_MAX,
    SLOPE_LIMINF_MAX,
)
from bischur.colligation import Colligation, eval_phi, model_residual
from bischur.desingularize import desingularize, eval_I
from bischur.generate import (
    _colligations,
    _kernel_colligations,
    _measures,
    _nev_reps,
    random_colligation_with_kernel,
    random_interior_points,
    random_torus_points,
    random_upper_points,
)


def by_dimension(rng, dims, batch):
    """The instances of a suite, drawn as the suites draw them: one batch
    ``batch(rng, dim, group)`` of instances per dimension, in order of its
    first instance, put back in instance order."""
    instances = [None] * len(dims)
    for dim in dict.fromkeys(dims):
        group = [i for i, d in enumerate(dims) if d == dim]
        for i, instance in zip(group, batch(rng, dim, group), strict=True):
            instances[i] = instance
    return instances


def chunks(lam, k):
    """A stack of points as its consecutive stacks of k points."""
    return [(lam[0][j:j + k], lam[1][j:j + k]) for j in range(0, len(lam[0]), k)]


def pair_chunks(pairs, k):
    """Stacks of pairs (lam, mu) as consecutive pairs of stacks of k points."""
    return list(zip(chunks(pairs[0], k), chunks(pairs[1], k)))


def inner_residual(g, lam, tol):
    """Max of ||I* I - 1|| over the torus points lam, skipping those within
    0.2 of tau."""
    l1, l2 = lam
    kept = (abs(l1 - g.tau[0]) >= 0.2) & (abs(l2 - g.tau[1]) >= 0.2)
    if not kept.any():
        return 0.0
    I_lam = eval_I(g, (l1[kept], l2[kept]), tol)
    gap = np.swapaxes(I_lam.conj(), -1, -2) @ I_lam - np.eye(g.dim)
    return float(np.linalg.svd(gap, compute_uv=False)[:, 0].max())


def suite_colligations(rng, n, tol):
    dims = rng.integers(2, 6, size=n).tolist()
    lams = chunks(random_interior_points(rng, 4 * n), 4)
    pairs = pair_chunks(_pair_stacks(rng, 3 * n), 3)
    cs = by_dimension(rng, dims, lambda rng, dim, group: [
        Colligation(*fields) for fields in zip(*_colligations(rng, dim, len(group)))])
    worst_schur = 0.0
    worst_model = 0.0
    for c, lam, pair in zip(cs, lams, pairs):
        worst_schur = max(worst_schur, float(np.abs(eval_phi(c, lam, tol)).max()) - 1.0)
        worst_model = max(worst_model, float(model_residual(c, *pair, tol).max()))
    return {
        "schur_bound_excess_max": worst_schur,
        "model_residual_max": worst_model,
        "pass": bool(worst_schur <= SCHUR_EXCESS_MAX and worst_model < RESIDUAL_MAX),
    }


def suite_desingularization(rng, n, tol):
    taus = list(zip(*random_torus_points(rng, n)))
    shapes = list(zip(rng.integers(2, 5, size=n).tolist(), rng.integers(1, 3, size=n).tolist()))
    pairs = pair_chunks(_pair_stacks(rng, 3 * n), 3)
    torus = chunks(random_torus_points(rng, 3 * n), 3)
    cs = by_dimension(rng, shapes, lambda rng, shape, group: _kernel_colligations(
        rng, *shape, [taus[i] for i in group]))
    worst = {"model_residual": 0.0, "inner": 0.0, "radial_inner": 0.0,
             "slope_liminf": 0.0}
    unconverged = 0
    for c, tau, pair, torus_points in zip(cs, taus, pairs, torus):
        g = desingularize(c, tau, tol)
        worst["model_residual"] = max(worst["model_residual"],
                                      float(model_residual(g, *pair, tol).max()))
        worst["inner"] = max(worst["inner"], inner_residual(g, torus_points, tol))
        shrink = 1.0 - np.array([0.5, 0.125, 2.0 ** -6])
        I_lam = eval_I(g, (shrink * tau[0], shrink * tau[1]), tol)
        worst["radial_inner"] = max(worst["radial_inner"], float(
            np.abs(I_lam - shrink[:, None, None] * np.eye(g.dim)).max()))
        pair = slope_mod.SlopePair.from_realization(g)
        liminf = boundary.model_liminf(c, tau, tol)
        unconverged += not liminf.converged
        worst["slope_liminf"] = max(worst["slope_liminf"], abs(
            liminf.estimate.real + slope_mod.slope_eval(pair, 1.0).real))
    suite = {
        **worst,
        "pass": bool(not unconverged
                     and worst["model_residual"] < RESIDUAL_MAX and worst["inner"] < RESIDUAL_MAX
                     and worst["radial_inner"] < RADIAL_INNER_MAX
                     and worst["slope_liminf"] < SLOPE_LIMINF_MAX),
    }
    if unconverged:
        suite["slope_liminf"] = None
        suite["reason"] = (f"the Julia liminf did not converge for "
                           f"{unconverged} of {n} colligations")
    return suite


def suite_measures(rng, n, tol):
    worst_round = 0.0
    worst_equiv = 0.0
    min_im = np.inf
    min_im_zh = np.inf
    lost_atoms = 0
    grid = random_upper_points(rng, (25,))
    equiv_grid = grid[:8]
    for nu in _measures(rng, n):
        nd = representations.nevanlinna_from_measure(nu)
        back = representations.measure_from_nevanlinna(nd)
        if len(back.atoms) != len(nu.atoms):
            lost_atoms += 1
        else:
            for (s1, w1), (s2, w2) in zip(nu.atoms, back.atoms):
                worst_round = max(worst_round, abs(s1 - s2), abs(w1 - w2))
        gap = (representations.h_from_measure(nu, equiv_grid)
               - representations.h_from_nevanlinna(nd, equiv_grid))
        worst_equiv = max(worst_equiv, float(np.abs(gap).max()))
        check = slope_mod.pick_check(partial(representations.h_from_measure, nu), grid)
        min_im = min(min_im, check["min_im_h"])
        min_im_zh = min(min_im_zh, check["min_im_neg_zh"])
    suite = {
        "round_trip_max": None if lost_atoms else worst_round,
        "evaluation_equivalence_max": worst_equiv,
        "min_im_h": float(min_im),
        "min_im_neg_zh": float(min_im_zh),
        "pass": bool(not lost_atoms and worst_round < ROUND_TRIP_MAX
                     and worst_equiv < EQUIVALENCE_MAX and min_im >= -PICK_SLACK
                     and min_im_zh >= -PICK_SLACK),
    }
    if lost_atoms:
        suite["reason"] = (f"the round trip changed the number of atoms of "
                           f"{lost_atoms} of {n} measures")
    return suite


def suite_reps(rng, n, tol):
    min_im = np.inf
    worst_limit = 0.0
    no_limit = 0
    dims = rng.integers(1, 5, size=n).tolist()
    grids = random_upper_points(rng, (n, 10, 2))
    reps = by_dimension(rng, dims, lambda rng, dim, group: [
        nev2d.TwoVarNevRep(*fields) for fields in zip(*_nev_reps(rng, dim, len(group)))])
    for rep, grid in zip(reps, grids):
        h = partial(nev2d.eval_h2, rep, tol=tol)
        min_im = min(min_im, float(h(tuple(grid.T)).imag.min()))
        infinity = nev2d.carapoint_at_infinity(h)
        if not (infinity.finite and infinity.converged):
            no_limit += 1
        else:
            worst_limit = max(worst_limit, abs(
                infinity.limit - float(np.linalg.norm(rep.alpha) ** 2)))
    suite = {
        "min_im_h2": float(min_im),
        "infinity_limit_err_max": None if no_limit else worst_limit,
        "pass": bool(not no_limit and min_im >= -PICK_SLACK
                     and worst_limit < INFINITY_LIMIT_MAX),
    }
    if no_limit:
        suite["reason"] = (f"y Im h(iy, iy) found no finite limit, or h(iy, iy) no "
                           f"converged value, for {no_limit} of {n} representations")
    return suite


REFERENCE = (suite_colligations, suite_desingularization, suite_measures, suite_reps)
STACKED = (cli._suite_colligations, cli._suite_desingularization, cli._suite_measures,
           cli._suite_reps)


@pytest.mark.parametrize("seed, n", [(seed, 10) for seed in range(10)] + [(104, 50)])
def test_suites_equal_their_per_instance_reference(seed, n):
    # verify's four suites in its order and sizes, each from where the last
    # one left the generator
    stacked_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sizes = (n, max(1, n // 2), n, max(1, n // 2))
    for stacked, reference, size in zip(STACKED, REFERENCE, sizes):
        tol = Tolerances()
        assert stacked(stacked_rng, size, tol) == reference(reference_rng, size, tol)
        assert stacked_rng.bit_generator.state == reference_rng.bit_generator.state


def test_limits_are_sampled_per_dimension(monkeypatch):
    # one model_liminf per ambient dimension, one carapoint_at_infinity per
    # rep dimension, and every instance sampled once
    liminf_calls, infinity_calls, rep_batches = [], [], []
    model_liminf, carapoint_at_infinity = boundary.model_liminf, nev2d.carapoint_at_infinity
    nev_reps = cli._nev_reps
    monkeypatch.setattr(boundary, "model_liminf", lambda cs, taus, tol: liminf_calls.append(
        [c.dim for c in cs]) or model_liminf(cs, taus, tol))
    monkeypatch.setattr(nev2d, "carapoint_at_infinity", lambda h, count: infinity_calls.append(
        count) or carapoint_at_infinity(h, count))
    monkeypatch.setattr(cli, "_nev_reps", lambda rng, dim, count: rep_batches.append(
        (dim, count)) or nev_reps(rng, dim, count))
    rng = np.random.default_rng(104)
    assert cli._suite_desingularization(rng, 25, Tolerances())["pass"]
    assert cli._suite_reps(rng, 25, Tolerances())["pass"]
    assert sum(map(len, liminf_calls)) == 25 and sum(infinity_calls) == 25
    assert all(len(set(dims)) == 1 for dims in liminf_calls)
    assert len({dims[0] for dims in liminf_calls}) == len(liminf_calls) > 1
    # one batch of representations per dimension, sampled as one family
    assert infinity_calls == [count for _, count in rep_batches]
    assert len({dim for dim, _ in rep_batches}) == len(rep_batches) > 1


@pytest.mark.parametrize("n", [1, 7, 50])
def test_measures_are_evaluated_in_one_call_per_encoding(monkeypatch, n):
    # one h_from_measure and one h_from_nevanlinna over every measure, and
    # one pick_check of all their rows, whatever n is
    calls = []
    for module, name in ((representations, "h_from_measure"),
                         (representations, "h_from_nevanlinna"), (slope_mod, "pick_check")):
        monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name), name=name:
                            calls.append(name) or real(*args))
    assert cli._suite_measures(np.random.default_rng(104), n, Tolerances())["pass"]
    assert sorted(calls) == ["h_from_measure", "h_from_nevanlinna", "pick_check"]


def spied_batches(monkeypatch):
    """The list that collects, for each batch of colligations the stacked
    desingularization suite draws, in draw order, the generator's state
    before it, its arguments and its colligations."""
    batches, draw = [], cli._kernel_colligations

    def spy(rng, n_model, kernel_dim, taus):
        state = rng.bit_generator.state
        batches.append((state, n_model, kernel_dim, taus, draw(rng, n_model, kernel_dim, taus)))
        return batches[-1][-1]
    monkeypatch.setattr(cli, "_kernel_colligations", spy)
    return batches


def colligation_bits(c):
    return [np.asarray(field).tobytes() for field in (c.a, c.beta, c.gamma, c.D, c.P1)]


@pytest.mark.parametrize("seed, n", [(10, 1), (4, 5), (3, 25)])
def test_a_block_that_fails_at_phase_one_is_turned_as_a_batch_of_one_turns_it(
        seed, n, monkeypatch):
    # at 0.2 some block of each seed here fails at c = 1, one of them in a
    # batch of one: the suite turns it by a phase and reads the stream as it
    # does at the default threshold, and each of its batches of one is the
    # colligation that random_colligation_with_kernel draws from where the
    # batch starts
    batches = spied_batches(monkeypatch)
    tol, states = Tolerances(), []
    for sigma_min in (generate.BLOCK_SIGMA_MIN, 0.2):
        monkeypatch.setattr(generate, "BLOCK_SIGMA_MIN", sigma_min)
        stacked_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        start = len(batches)
        assert cli._suite_desingularization(stacked_rng, n, tol) == suite_desingularization(
            reference_rng, n, tol)
        assert stacked_rng.bit_generator.state == reference_rng.bit_generator.state
        states.append(stacked_rng.bit_generator.state)
        singles = [batch for batch in batches[start:] if len(batch[3]) == 1]
        assert singles
        for state, n_model, kernel_dim, (tau,), (c,) in singles:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            assert colligation_bits(c) == colligation_bits(
                random_colligation_with_kernel(rng, n_model, kernel_dim, tau))
    built = [(kernel_dim, tau, c) for _, _, kernel_dim, taus, cs in batches
             for tau, c in zip(taus, cs)]
    assert states[0] == states[1] and len(built) == 2 * n
    phases = []
    for (_, _, drawn), (kernel_dim, tau, turned) in zip(built[:n], built[n:]):
        # only gamma0 and D0 turn: a, beta and P1 keep their bits
        assert turned.a == drawn.a
        assert np.array_equal(turned.beta, drawn.beta) and np.array_equal(turned.P1, drawn.P1)
        gaps = {p: np.abs(turned.gamma - p * drawn.gamma).max() for p in (1.0, 1j, -1.0, -1j)}
        phase = min(gaps, key=gaps.get)
        assert gaps[phase] < 1e-14
        assert (phase == 1.0) == (np.array_equal(turned.gamma, drawn.gamma)
                                  and np.array_equal(turned.D, drawn.D))
        phases.append(phase)
        # 1 - D tau has the planted kernel and every other singular value
        # above the threshold
        eye, P1 = np.eye(turned.dim), turned.P1
        s = np.linalg.svd(eye - turned.D @ (tau[0] * P1 + tau[1] * (eye - P1)), compute_uv=False)
        assert s[-kernel_dim:].max() < 1e-12 and s[-kernel_dim - 1] > 0.2
    assert any(phase != 1.0 for phase in phases)


def test_desingularizations_are_one_call_per_dimension(monkeypatch):
    # one batch per shape (model and kernel dimension), one desingularize
    # per ambient dimension and one h(1) evaluation per model dimension,
    # each colligation drawn and built once
    calls, evaluations = [], []
    desingularize_, slope_eval = cli.desingularize, slope_mod.slope_eval
    batches = spied_batches(monkeypatch)
    monkeypatch.setattr(cli, "desingularize", lambda cs, taus, tol: calls.append(
        [c.dim for c in cs]) or desingularize_(cs, taus, tol))
    monkeypatch.setattr(slope_mod, "slope_eval", lambda pair, z: evaluations.append(
        pair.u_tau.shape) or slope_eval(pair, z))
    assert cli._suite_desingularization(np.random.default_rng(104), 25, Tolerances())["pass"]
    assert sum(len(batch[4]) for batch in batches) == 25
    assert len({batch[1:3] for batch in batches}) == len(batches) > 1
    assert sum(map(len, calls)) == 25 and all(len(set(dims)) == 1 for dims in calls)
    assert len({dims[0] for dims in calls}) == len(calls) > 1
    assert sum(count for count, _ in evaluations) == 25
    assert len({dim for _, dim in evaluations}) == len(evaluations) > 1
