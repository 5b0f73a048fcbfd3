"""Error contracts named by the operation signatures."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from bischur import (
    BoundarySingularityError,
    DiscreteMeasure01,
    DivergenceError,
    IllConditionedError,
    InvalidInputError,
    NevanlinnaData,
    NoLimitError,
    PoleError,
    SlopePair,
    Tolerances,
    TwoVarNevRep,
    desingularize,
    directional_derivative_numeric,
    eval_I,
    eval_h2,
    eval_phi,
    h_from_measure,
    h_from_nevanlinna,
    herglotz_component,
    pick_value_from_schur,
    schur_value_from_pick,
    slope_eval,
    stieltjes_recover,
    to_bidisc,
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


@pytest.mark.parametrize("returned, message", [
    (lambda z: np.zeros(3), r"float64 values of shape \(3,\) where numbers of shape \(\d+,\)"),
    (lambda z: np.zeros((2, z.size)),
     r"float64 values of shape \(2, (\d+)\) where numbers of shape \(\1,\)"),
    (lambda z: None, r"object values of shape \(\) where numbers of shape \(\d+,\)"),
], ids=["too-few", "two-rows", "none"])
def test_stieltjes_integrand_of_another_shape_is_refused(returned, message):
    # an input error naming both shapes, not the bare error of np.broadcast_to
    with pytest.raises(InvalidInputError, match="^h returned " + message):
        stieltjes_recover(returned, -2.0, 0.0, [0.2, 0.1])


def test_inner_function_singular_at_the_carapoint(favourite_colligation):
    g = desingularize(favourite_colligation, CHI)
    with pytest.raises(BoundarySingularityError):
        eval_I(g, CHI)


def test_herglotz_pole_on_the_distinguished_boundary():
    with pytest.raises(PoleError):
        herglotz_component(0.5, (1.0, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.5, -np.inf)], ids=str)
@pytest.mark.parametrize("evaluate", [
    partial(slope_eval, SlopePair(Y=[[0.5]], u_tau=[1.0])),
    partial(h_from_measure, DiscreteMeasure01(((0.5, 1.0),))),
    partial(h_from_nevanlinna, NevanlinnaData(c=-1.0, d=0.0, atoms=((-1.0, 1.0),))),
    pick_value_from_schur,
    schur_value_from_pick,
], ids=["slope_eval", "h_from_measure", "h_from_nevanlinna", "pick_value_from_schur",
        "schur_value_from_pick"])
def test_one_variable_evaluator_refuses_a_value_that_is_not_finite(evaluate, bad):
    # as the two-variable evaluators refuse such a point, alone or in a stack
    with pytest.raises(InvalidInputError, match=r"^value .* is not finite$"):
        evaluate(bad)
    with pytest.raises(InvalidInputError, match=r"^value .* is not finite$"):
        evaluate(np.array([1j, 2.0, bad]))


@pytest.mark.parametrize("evaluate, message", [
    (lambda c: eval_phi(c, ("a", 0.1)), "coordinate of a point is not a number"),
    (lambda c: slope_eval(SlopePair(Y=[[0.5]], u_tau=[1.0]), "x"), "'x' is not a number"),
    (lambda c: h_from_measure(DiscreteMeasure01(((0.5, 1.0),)), "x"), "'x' is not a number"),
    (lambda c: to_bidisc(("x", 1j)), "coordinate of a point is not a number"),
], ids=["eval_phi", "slope_eval", "h_from_measure", "to_bidisc"])
def test_a_coordinate_that_is_not_a_number_is_refused(favourite_colligation, evaluate,
                                                      message):
    # an input error, not the bare ValueError of complex() or np.asarray
    with pytest.raises(InvalidInputError, match=message):
        evaluate(favourite_colligation)


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


# The suites take every limit of one dimension group in one call: a stub of
# carapoint_at_infinity gets the family and its size, and one of model_liminf
# the sequences of colligations and paths, and each returns a list.
@pytest.mark.parametrize("suite, owner, target, stub, figure, reason", [
    ("reps", nev2d, "carapoint_at_infinity",
     lambda h, count: [InfinityCarapoint(False, None, None)] * count,
     "infinity_limit_err_max", "no finite limit"),
    # a finite limit whose value did not converge counts as missing
    ("reps", nev2d, "carapoint_at_infinity",
     lambda h, count: [InfinityCarapoint(True, 0.0, 0j)] * count,
     "infinity_limit_err_max", "no converged value"),
    ("measures", representations, "measure_from_nevanlinna",
     lambda nd: DiscreteMeasure01(()), "round_trip_max", "number of atoms"),
    ("desingularization", boundary, "model_liminf",
     lambda *args, real=boundary.model_liminf: [
         dataclasses.replace(report, converged=False) for report in real(*args)],
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


def test_a_suite_that_raises_leaves_the_stream_to_the_next(monkeypatch, capsys):
    import json
    from bischur.cli import main
    from bischur.errors import NoLimitError
    main(["verify", "--random", "4", "--no-timestamp"])
    passed = json.loads(capsys.readouterr().out)["suites"]
    convert = representations.nevanlinna_from_measure
    calls = []

    def refuses_the_second(nu):
        calls.append(nu)
        if len(calls) == 2:
            raise NoLimitError("the second measure is refused")
        return convert(nu)

    monkeypatch.setattr(representations, "nevanlinna_from_measure", refuses_the_second)
    code = main(["verify", "--random", "4", "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    assert code == report["exit_code"] == 5 and "error" not in report
    assert report["suites"]["measures"] == {
        "round_trip_max": None, "evaluation_equivalence_max": None, "min_im_h": None,
        "min_im_neg_zh": None, "pass": False,
        "reason": "numeric error: the second measure is refused"}
    # every measure was drawn before the second raised, so the reps suite
    # draws what it draws after a pass
    assert report["suites"]["reps"] == passed["reps"]
    assert report["suites"]["colligations"] == passed["colligations"]


def test_verify_looks_its_suites_up_on_each_call(monkeypatch, capsys):
    # a rebound suite (a test stub, the benchmark tracer) is the one that runs
    import json
    from bischur import cli
    monkeypatch.setattr(cli, "_suite_reps", lambda rng, n, tol: {"pass": True, "size": n})
    assert cli.main(["verify", "--random", "5", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["suites"]["reps"] == {"pass": True, "size": 2}


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
