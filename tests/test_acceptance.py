"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with the measured figure of merit (shown
with ``pytest -s`` or on failure), then asserts the stated bound.
"""

import json
import math
from functools import partial

import numpy as np
import pytest

from bischur import (
    DiscreteMeasure01,
    NevanlinnaData,
    ObstructionError,
    SlopePair,
    SynthesizedSchur,
    TwoVarNevRep,
    carapoint_at_infinity,
    desingularize,
    directional_derivative_numeric,
    eval_I,
    eval_h2,
    eval_phi,
    eval_phi_gen,
    fit_colligation,
    h_from_measure,
    h_from_nevanlinna,
    measure_from_nevanlinna,
    nevanlinna_from_measure,
    pick_check,
    quadrature_log_check,
    radial_liminf,
    rep_from_schur,
    slope_eval,
    stieltjes_recover,
    u_vector,
)
from bischur.cli import main
from bischur.generate import (
    random_colligation_with_kernel,
    random_interior_point,
    random_measure,
    random_nev_rep,
    random_torus_point,
)
from bischur.nev2d import VERIFICATION_GRID
from bischur.serialization import colligation_from_json

from conftest import CHI, favourite_formula


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_favourite_chain_through_cli(tmp_path, capsys):
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"atoms": [{"s": 0.5, "w": 1.0}]}))
    out = tmp_path / "colligation.json"
    code = main(["synth", str(measure), "--out", str(out), "--no-timestamp"])
    capsys.readouterr()
    assert code == 0
    fitted = colligation_from_json(json.loads(out.read_text()))
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        lam = random_interior_point(rng, 0.95)
        worst = max(worst, abs(eval_phi(fitted, lam) - favourite_formula(lam)))
    report("01 favourite-chain", f"max |phi_fit - phi| = {worst:.3e} over 1000 points")
    assert worst < 1e-10


def test_criterion_02_directional_derivatives():
    rng = np.random.default_rng(102)
    deltas = [(complex(rng.uniform(0.1, 2.0), rng.uniform(-1.5, 1.5)),
               complex(rng.uniform(0.1, 2.0), rng.uniform(-1.5, 1.5))) for _ in range(20)]
    worst = 0.0
    # the favourite formula tends to 1 at CHI
    results = directional_derivative_numeric(favourite_formula, CHI, deltas, phi_tau=1.0)
    for delta, numeric in zip(deltas, results):
        exact = -2.0 * delta[0] * delta[1] / (delta[0] + delta[1])
        worst = max(worst, abs(numeric.estimate - exact) / abs(exact))
    report("02 directional-derivatives", f"max rel err = {worst:.3e} over 20 directions")
    assert worst < 1e-5


def test_criterion_03_slope_identity(fitted_favourite):
    g = desingularize(fitted_favourite, CHI)
    pair = SlopePair.from_realization(g)
    worst = max(abs(slope_eval(pair, z) + 2.0 / (1.0 + z))
                for z in (1.0, 1j, 2.0 + 1j, 0.1, 10.0))
    h1 = slope_eval(pair, 1.0).real
    liminf = radial_liminf(lambda lam: eval_phi(fitted_favourite, lam),
                           CHI).estimate.real
    gap = abs(h1 + liminf)
    report("03 slope-identity",
           f"max |h(z)+2/(1+z)| = {worst:.3e}, |h(1)+liminf| = {gap:.3e}")
    assert worst < 1e-6
    assert abs(h1 + 1.0) < 1e-6
    assert gap < 1e-6


def test_criterion_04_representation_round_trip():
    nu = DiscreteMeasure01(((0.5, 1.0),))
    nd = nevanlinna_from_measure(nu)
    assert nd.d == 0.0
    assert abs(nd.c + 1.0) < 1e-12
    assert len(nd.atoms) == 1
    assert abs(nd.atoms[0][0] + 1.0) < 1e-12
    assert abs(nd.atoms[0][1] - math.pi) < 1e-12
    back = measure_from_nevanlinna(NevanlinnaData(c=-1.0, d=0.0, atoms=((-1.0, math.pi),)))
    assert len(back.atoms) == 1
    assert abs(back.atoms[0][0] - 0.5) < 1e-12
    assert abs(back.atoms[0][1] - 1.0) < 1e-12
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
        worst = max(worst, abs(h_from_measure(nu, z) - h_from_nevanlinna(nd, z)))
    report("04 representation-round-trip",
           f"conversions exact to 1e-12, eval equivalence max = {worst:.3e}")
    assert worst < 1e-10


def test_criterion_05_stieltjes_inversion():
    nd = NevanlinnaData(c=-1.0, d=0.0, atoms=((-1.0, math.pi),))
    ys = [0.1 * 2.0 ** -k for k in range(11)]  # down to ~1e-4
    assert ys[-1] < 1.2e-4
    mass = stieltjes_recover(lambda z: h_from_nevanlinna(nd, z), -2.0, 0.0, ys)
    rel = abs(mass - 2.0 * math.pi) / (2.0 * math.pi)
    report("05 stieltjes-inversion", f"window mass {mass:.6f}, rel err {rel:.3e}")
    assert rel < 0.01


def test_criterion_06_desingularization_properties():
    rng = np.random.default_rng(106)
    worst_model = worst_inner = worst_radial = 0.0
    for _ in range(50):
        tau = random_torus_point(rng)
        c = random_colligation_with_kernel(
            rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)), tau)
        g = desingularize(c, tau)
        assert g.kernel_dim >= 1
        eye = np.eye(g.dim)
        # 20 pairs (lam, mu), drawn lam first, as one stack: lams, then mus
        pairs = [random_interior_point(rng, 0.85) for _ in range(40)]
        points = tuple(np.array(pairs[0::2] + pairs[1::2]).T)
        p, u, I = eval_phi_gen(g, points), u_vector(g, points), eval_I(g, points)
        Iu = (I @ u[..., None])[..., 0]
        lhs = 1.0 - np.conj(p[20:]) * p[:20]
        rhs = (u[20:].conj() * u[:20]).sum(-1) - (Iu[20:].conj() * Iu[:20]).sum(-1)
        worst_model = max(worst_model, float(np.abs(lhs - rhs).max()))
        torus = []
        while len(torus) < 20:
            lam = (np.exp(1j * rng.uniform(0, 2 * np.pi)),
                   np.exp(1j * rng.uniform(0, 2 * np.pi)))
            if abs(lam[0] - tau[0]) < 0.15 or abs(lam[1] - tau[1]) < 0.15:
                continue
            torus.append(lam)
        I = eval_I(g, tuple(np.array(torus).T))
        worst_inner = max(worst_inner, float(np.linalg.svd(
            np.swapaxes(I.conj(), -1, -2) @ I - eye, compute_uv=False)[:, 0].max()))
        # I((1-t)tau) = (1-t): the division by the denominator ~ t floors the
        # attainable accuracy at eps/t, so the 1e-12 check uses t >= 2^-8
        t = 2.0 ** -np.arange(1, 9)
        I = eval_I(g, ((1 - t) * tau[0], (1 - t) * tau[1]))
        worst_radial = max(worst_radial, float(
            np.abs(I - (1 - t)[:, None, None] * eye).max()))
        t = 2.0 ** -np.arange(1, 21)
        diffs = np.linalg.norm(
            u_vector(g, ((1 - t) * tau[0], (1 - t) * tau[1])) - g.u_tau, axis=-1).tolist()
        assert all(b <= a * (1 + 1e-9) + 1e-13 for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] <= 1e-4 * max(diffs[0], 1e-6)
    report("06 desingularization",
           f"model {worst_model:.3e}, inner {worst_inner:.3e}, radial {worst_radial:.3e}, "
           "u-continuity monotone on 50 colligations")
    assert worst_model < 1e-9
    assert worst_inner < 1e-9
    assert worst_radial < 1e-12


def test_criterion_07_two_variable_nevanlinna():
    rep0 = TwoVarNevRep(b=0.0, alpha=[1.0], B=[[0.0]], Y=[[0.5]])
    rng = np.random.default_rng(107)
    worst_eval = 0.0
    for _ in range(100):
        z = (complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)),
             complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)))
        worst_eval = max(worst_eval, abs(eval_h2(rep0, z) + 2.0 / (z[0] + z[1])))
    infinity = carapoint_at_infinity(partial(eval_h2, rep0))
    assert infinity.finite
    limit_gap = abs(infinity.limit - 1.0)
    syn = SynthesizedSchur(DiscreteMeasure01(((0.5, 1.0),)), tau=CHI, omega=-1.0)
    g = desingularize(fit_colligation(syn), CHI)
    rep1 = rep_from_schur(g)
    worst_round = max(abs(eval_h2(rep1, z) - eval_h2(rep0, z)) for z in VERIFICATION_GRID)
    for _ in range(25):
        z = (complex(rng.uniform(-2, 2), rng.uniform(0.2, 3)),
             complex(rng.uniform(-2, 2), rng.uniform(0.2, 3)))
        worst_round = max(worst_round, abs(eval_h2(rep1, z) - eval_h2(rep0, z)))
    report("07 two-variable-nevanlinna",
           f"eval {worst_eval:.3e}, limit gap {limit_gap:.3e}, round trip {worst_round:.3e}")
    assert worst_eval < 1e-12
    assert limit_gap < 1e-6
    assert worst_round < 1e-7


def test_criterion_08_obstruction(fitted_favourite):
    g = desingularize(fitted_favourite, CHI)
    with pytest.raises(ObstructionError):
        rep_from_schur(g)
    infinity = carapoint_at_infinity(lambda z: (z[0] + z[1]) / 2.0)
    report("08 obstruction",
           f"boundary value 1 rejected; mean-function finite={infinity.finite}")
    assert infinity.finite is False


def test_criterion_09_pick_positivity_suites():
    rng = np.random.default_rng(109)
    grid = [complex(rng.uniform(-4, 4), rng.uniform(0.02, 4)) for _ in range(1000)]
    min_h = min_zh = np.inf
    for _ in range(100):
        nu = random_measure(rng)
        result = pick_check(lambda z: h_from_measure(nu, z), grid)
        min_h = min(min_h, result["min_im_h"])
        min_zh = min(min_zh, result["min_im_neg_zh"])
    min_h2 = np.inf
    for _ in range(100):
        rep = random_nev_rep(rng, int(rng.integers(1, 5)))
        x = rng.uniform([-4, 0.05, -4, 0.05], [4, 4, 4, 4], size=(1000, 4))
        h2 = eval_h2(rep, (x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]))
        min_h2 = min(min_h2, float(h2.imag.min()))
    report("09 pick-positivity",
           f"min Im h {min_h:.3e}, min Im(-zh) {min_zh:.3e}, min Im h2 {min_h2:.3e}")
    assert min_h >= -1e-12
    assert min_zh >= -1e-12
    assert min_h2 >= -1e-12


def test_criterion_10_quadrature_example():
    _, _, err4 = quadrature_log_check(10 ** 4, (0.5, -0.5))
    _, _, err3 = quadrature_log_check(10 ** 3, (0.5, -0.5))
    ratio = err3 / err4
    report("10 quadrature", f"err@1e4 = {err4:.3e}, decay ratio 1e3->1e4 = {ratio:.1f}")
    assert err4 < 1e-3
    assert ratio >= 8.0  # at least first-order convergence in node count
