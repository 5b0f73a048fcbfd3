"""Error contracts named by the operation signatures."""

import dataclasses

import numpy as np
import pytest

from bischur import (
    BoundarySingularityError,
    DiscreteMeasure01,
    DivergenceError,
    IllConditionedError,
    NoLimitError,
    PoleError,
    Tolerances,
    TwoVarNevRep,
    desingularize,
    directional_derivative_numeric,
    eval_I,
    eval_h2,
    eval_phi,
    herglotz_component,
    stieltjes_recover,
)
from bischur import boundary, nev2d, representations
from bischur.nev2d import InfinityCarapoint

from conftest import CHI


def test_eval_phi_ill_conditioned_near_singularity(favourite_colligation):
    lam = (1.0 - 1e-15, 1.0 - 1e-15)
    with pytest.raises(IllConditionedError) as err:
        eval_phi(favourite_colligation, lam)
    assert err.value.cond > 1e14


def test_eval_phi_tight_ceiling_triggers_earlier(favourite_colligation):
    tol = Tolerances(solve_cond_max=1e3)
    with pytest.raises(IllConditionedError):
        eval_phi(favourite_colligation, (1.0 - 1e-5, 1.0 - 1e-5), tol)


def test_difference_quotient_divergence_signal():
    # a cusp of exponent 0.1 has an unbounded difference quotient
    phi = lambda lam: (1.0 - lam[0]) ** 0.1
    with pytest.raises(DivergenceError):
        directional_derivative_numeric(phi, CHI, [(1.0, 1.0)], phi_tau=0.0)


def test_stieltjes_no_limit_with_starved_sequence():
    from bischur import NevanlinnaData, h_from_nevanlinna
    nd = NevanlinnaData(c=0.0, d=0.0, atoms=((-1.0, 1.0),))
    with pytest.raises(NoLimitError):
        stieltjes_recover(lambda z: h_from_nevanlinna(nd, z), -2.0, 0.0, [0.2, 0.1])


def test_inner_function_singular_at_the_carapoint(favourite_colligation):
    g = desingularize(favourite_colligation, CHI)
    with pytest.raises(BoundarySingularityError):
        eval_I(g, CHI)


def test_herglotz_pole_on_the_distinguished_boundary():
    with pytest.raises(PoleError):
        herglotz_component(0.5, (1.0, 0.0))


def test_eval_h2_near_real_boundary_is_ill_conditioned():
    rep = TwoVarNevRep(b=0.0, alpha=[1.0, 1.0], B=np.diag([0.0, 1.0]),
                       Y=np.diag([1.0, 0.0]))
    with pytest.raises(IllConditionedError):
        eval_h2(rep, (1e-20j, 1e-20j))


def test_synthesis_agreement_gate_exits_4(monkeypatch, capsys, tmp_path):
    import json
    from bischur import synthesis
    from bischur.cli import main
    exact_eval = synthesis.synth_eval
    monkeypatch.setattr(synthesis, "synth_eval",
                        lambda syn, lam: exact_eval(syn, lam) + 1e-6)
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"atoms": [{"s": 0.5, "w": 1.0}]}))
    code = main(["synth", str(measure), "--out", str(tmp_path / "c.json"),
                 "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    assert code == report["exit_code"] == 4
    assert "disagrees" in report["error"]["message"]


@pytest.mark.parametrize("suite, owner, target, stub, figure, reason", [
    ("reps", nev2d, "carapoint_at_infinity",
     lambda h, *args, **kwargs: InfinityCarapoint(False, None, None),
     "infinity_limit_err_max", "no finite limit"),
    ("measures", representations, "measure_from_nevanlinna",
     lambda nd: DiscreteMeasure01(()), "round_trip_max", "number of atoms"),
    ("desingularization", boundary, "model_liminf",
     lambda *args, real=boundary.model_liminf: dataclasses.replace(real(*args), converged=False),
     "slope_liminf", "Julia liminf did not converge for 1 of 1"),
])
def test_verify_reports_a_failed_suite_as_null_and_exits_5(
        monkeypatch, capsys, suite, owner, target, stub, figure, reason):
    import json
    from bischur.cli import main
    monkeypatch.setattr(owner, target, stub)
    code = main(["verify", "--random", "2", "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    failed = report["suites"][suite]
    assert code == report["exit_code"] == 5
    assert failed["pass"] is False and failed[figure] is None
    assert reason in failed["reason"]
    assert all(s["pass"] for name, s in report["suites"].items() if name != suite)


@pytest.mark.parametrize("command, flag", [
    ("synth", "--out"),
    ("analyze", "--out"),
    ("analyze", "--csv"),
    ("nevrep", "--out"),
])
def test_unwritable_output_path_exits_2(capsys, tmp_path, favourite_colligation,
                                        command, flag):
    import json
    from bischur.cli import main
    from bischur.serialization import colligation_to_json
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"atoms": [{"s": 0.5, "w": 1.0}]}))
    colligation = tmp_path / "favourite.json"
    colligation.write_text(json.dumps(colligation_to_json(favourite_colligation)))
    source = colligation if command == "analyze" else measure
    extra = {"analyze": ["--tau", "1,1"], "nevrep": ["--omega=-1"]}.get(command, [])
    target = tmp_path / "missing" / "output.json"
    code = main([command, str(source), *extra, flag, str(target), "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)  # exactly one JSON document
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert not target.exists()
