"""Stacked evaluation: a stack of points gives what the points give one by one."""

from functools import partial

import numpy as np
import pytest

from bischur import (
    ApproachPath,
    DiscreteMeasure01,
    IllConditionedError,
    SynthesizedSchur,
    Tolerances,
    desingularize,
    eval_h2,
    eval_I,
    eval_phi,
    eval_phi_gen,
    julia_quotient,
    model_liminf,
    model_residual,
    radial_liminf,
    synth_eval,
)
from bischur._limits import refine_to_limit
from bischur.generate import (
    random_colligation,
    random_colligation_with_kernel,
    random_nev_rep,
    random_torus_point,
)

from conftest import CHI

N_POINTS = 64


def close(stacked, scalar):
    """Stacked values within 1e-13 (1 + |value|) of the scalar ones."""
    stacked, scalar = np.asarray(stacked), np.asarray(scalar)
    scale = 1.0 + np.abs(scalar).reshape(scalar.shape[0], -1).max(axis=1)
    gap = np.abs(stacked - scalar).reshape(scalar.shape[0], -1).max(axis=1)
    return bool(np.all(gap <= 1e-13 * scale))


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
    assert close(eval_phi(c, lam), [eval_phi(c, p) for p in points_of(lam)])
    assert close(model_residual(c, lam, mu),
                 [model_residual(c, p, q) for p, q in zip(points_of(lam), points_of(mu))])


def test_generalized_stack_matches_points():
    rng = np.random.default_rng(710)
    for _ in range(6):
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(rng, int(rng.integers(1, 5)),
                                           int(rng.integers(1, 3)), tau)
        g = desingularize(c, tau)
        lam = bidisc_stack(rng)
        points = points_of(lam)
        assert close(eval_phi_gen(g, lam), [eval_phi_gen(g, p) for p in points])
        assert close(eval_I(g, lam), [eval_I(g, p) for p in points])


def test_h2_stack_matches_points():
    rng = np.random.default_rng(720)
    for dim in range(1, 6):
        rep = random_nev_rep(rng, dim)
        z = rng.uniform(-3, 3, size=(2, N_POINTS)) + 1j * rng.uniform(0.05, 3, size=(2, N_POINTS))
        z[:, ::4] = z[:, ::4].real + 1e-8j
        assert close(eval_h2(rep, (z[0], z[1])), [eval_h2(rep, p) for p in zip(*z)])


@pytest.mark.parametrize("atoms", [1, 2, 5, 12, 30])
def test_synth_stack_matches_points(atoms):
    rng = np.random.default_rng(730 + atoms)
    nu = DiscreteMeasure01(tuple(zip(rng.uniform(size=atoms), rng.uniform(0.1, 2.0, atoms))))
    syn = SynthesizedSchur(nu, tau=random_torus_point(rng), omega=np.exp(1j * rng.uniform(0, 6)))
    lam = bidisc_stack(rng)
    assert close(synth_eval(syn, lam), [synth_eval(syn, p) for p in points_of(lam)])


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


def test_unreached_ill_conditioned_tail_falls_back_to_points(favourite_colligation):
    # the resolvent of the favourite at (1 - t)(1, 1) has condition about 1/t,
    # so a ceiling of 1e3 breaks the path's tail, which the limit never reaches
    phi = partial(eval_phi, favourite_colligation, tol=Tolerances(solve_cond_max=1e3))
    path = ApproachPath.radial(CHI)
    with pytest.raises(IllConditionedError):
        phi(path.point(np.array(path.steps)))
    lazy = refine_to_limit(lambda t: julia_quotient(phi, path.point(t)),
                           path.steps, path.steps, tol=1e-9)
    assert lazy.converged
    assert radial_liminf(phi, path) == lazy


def test_model_liminf_falls_back_on_an_unreached_tail(favourite_colligation):
    path = ApproachPath.radial(CHI)
    tight = model_liminf(favourite_colligation, path, Tolerances(solve_cond_max=1e3))
    loose = model_liminf(favourite_colligation, path)
    assert tight.converged
    assert len(tight.samples) == len(loose.samples)
    assert tight.estimate == pytest.approx(loose.estimate, abs=1e-12)


def test_path_function_is_called_once(favourite_colligation):
    calls = []

    def counted(lam):
        calls.append(np.shape(lam[0]))
        return eval_phi(favourite_colligation, lam)

    path = ApproachPath.radial(CHI)
    report = radial_liminf(counted, path)
    assert calls == [(len(path.steps),)]
    assert report.estimate == pytest.approx(1.0, abs=1e-8)
