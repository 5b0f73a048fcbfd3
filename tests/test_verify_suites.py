"""The verify suites against a per-instance reference.

Each suite draws every instance first and evaluates the instances of one
dimension as one stack.  The reference below is the suites as they were
written before: one instance at a time, each drawn and then evaluated.  Both
must give the same suite figures, bit for bit, from one seed.
"""

from functools import partial

import numpy as np
import pytest

from bischur import Tolerances, boundary, cli, nev2d, representations, slope as slope_mod
from bischur.cli import (
    EQUIVALENCE_MAX,
    INFINITY_LIMIT_MAX,
    RADIAL_INNER_MAX,
    RESIDUAL_MAX,
    ROUND_TRIP_MAX,
    SCHUR_EXCESS_MAX,
    SLOPE_LIMINF_MAX,
    _pair_stacks,
)
from bischur.colligation import eval_phi, model_residual
from bischur.desingularize import desingularize, eval_I
from bischur.generate import (
    random_colligation,
    random_colligation_with_kernel,
    random_interior_points,
    random_measure,
    random_nev_rep,
    random_torus_points,
    random_upper_points,
)


def inner_residual(g, rng, n, tol):
    """Max of ||I* I - 1|| over n torus draws, skipping those within 0.2 of tau."""
    l1, l2 = random_torus_points(rng, n)
    kept = (abs(l1 - g.tau[0]) >= 0.2) & (abs(l2 - g.tau[1]) >= 0.2)
    if not kept.any():
        return 0.0
    I_lam = eval_I(g, (l1[kept], l2[kept]), tol)
    gap = np.swapaxes(I_lam.conj(), -1, -2) @ I_lam - np.eye(g.dim)
    return float(np.linalg.svd(gap, compute_uv=False)[:, 0].max())


def suite_colligations(rng, n, tol):
    worst_schur = 0.0
    worst_model = 0.0
    for _ in range(n):
        c = random_colligation(rng, int(rng.integers(2, 6)))
        lams = random_interior_points(rng, 4)
        worst_schur = max(worst_schur, float(np.abs(eval_phi(c, lams, tol)).max()) - 1.0)
        worst_model = max(worst_model, float(model_residual(c, *_pair_stacks(rng, 3), tol).max()))
    return {
        "schur_bound_excess_max": worst_schur,
        "model_residual_max": worst_model,
        "pass": bool(worst_schur <= SCHUR_EXCESS_MAX and worst_model < RESIDUAL_MAX),
    }


def suite_desingularization(rng, n, tol):
    worst = {"model_residual": 0.0, "inner": 0.0, "radial_inner": 0.0,
             "slope_liminf": 0.0}
    unconverged = 0
    for _ in range(n):
        tau = tuple(np.ravel(random_torus_points(rng, 1)))
        c = random_colligation_with_kernel(rng, int(rng.integers(2, 5)),
                                           int(rng.integers(1, 3)), tau)
        g = desingularize(c, tau, tol)
        worst["model_residual"] = max(worst["model_residual"],
                                      float(model_residual(g, *_pair_stacks(rng, 3), tol).max()))
        worst["inner"] = max(worst["inner"], inner_residual(g, rng, 3, tol))
        shrink = 1.0 - np.array([0.5, 0.125, 2.0 ** -6])
        I_lam = eval_I(g, (shrink * tau[0], shrink * tau[1]), tol)
        worst["radial_inner"] = max(worst["radial_inner"], float(
            np.abs(I_lam - shrink[:, None, None] * np.eye(g.dim)).max()))
        pair = slope_mod.SlopePair.from_realization(g)
        liminf = boundary.model_liminf(c, boundary.ApproachPath.radial(tau), tol)
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
    for _ in range(n):
        nu = random_measure(rng)
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
                     and worst_equiv < EQUIVALENCE_MAX and min_im >= -slope_mod.PICK_SLACK
                     and min_im_zh >= -slope_mod.PICK_SLACK),
    }
    if lost_atoms:
        suite["reason"] = (f"the round trip changed the number of atoms of "
                           f"{lost_atoms} of {n} measures")
    return suite


def suite_reps(rng, n, tol):
    min_im = np.inf
    worst_limit = 0.0
    no_limit = 0
    for _ in range(n):
        rep = random_nev_rep(rng, int(rng.integers(1, 5)))
        h = partial(nev2d.eval_h2, rep, tol=tol)
        zs = tuple(random_upper_points(rng, (10, 2)).T)
        min_im = min(min_im, float(h(zs).imag.min()))
        infinity = nev2d.carapoint_at_infinity(h)
        if not infinity.finite:
            no_limit += 1
        else:
            worst_limit = max(worst_limit, abs(
                infinity.limit - float(np.linalg.norm(rep.alpha) ** 2)))
    suite = {
        "min_im_h2": float(min_im),
        "infinity_limit_err_max": None if no_limit else worst_limit,
        "pass": bool(not no_limit and min_im >= -slope_mod.PICK_SLACK
                     and worst_limit < INFINITY_LIMIT_MAX),
    }
    if no_limit:
        suite["reason"] = (f"y Im h(iy, iy) found no finite limit for "
                           f"{no_limit} of {n} representations")
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
