"""Error contracts named by the operation signatures."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from bischur import (
    BoundarySingularityError,
    Colligation,
    DiscreteMeasure01,
    DivergenceError,
    IllConditionedError,
    InvalidInputError,
    NevanlinnaData,
    NoLimitError,
    SlopePair,
    SynthesizedSchur,
    Tolerances,
    TwoVarNevRep,
    desingularize,
    directional_derivative_numeric,
    eval_I,
    eval_h2,
    eval_phi,
    h_from_measure,
    h_from_nevanlinna,
    pick_value_from_schur,
    schur_value_from_pick,
    slope_eval,
    stieltjes_recover,
    synth_eval,
    to_bidisc,
)
from bischur import boundary, nev2d, representations
from bischur._limits import refine_to_limit
from bischur.points import require_interior
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


# |z|^2 is exactly 1 + 6.6e-17 for the first and 1 - 2.8e-17 for the second,
# while numpy's modulus reads 0.9999999999999999 or 1.0 for the first, as the
# array's layout goes, and 1.0 for the second
JUST_OUTSIDE = complex(0.9682458365518543, 0.25)
JUST_INSIDE = complex(-0.6535532567274639, -0.7568805325947587)
NEAR_TORUS_POINTS = [(JUST_OUTSIDE, 0.0), (0.5j, JUST_OUTSIDE),
                     (np.array([0.5, JUST_OUTSIDE]), np.zeros(2)),
                     (np.full(9, JUST_OUTSIDE), np.zeros(9))]


@pytest.mark.parametrize("lam", NEAR_TORUS_POINTS)
@pytest.mark.parametrize("evaluate", [
    require_interior,
    partial(eval_phi, Colligation(a=0.0, beta=[1.0], gamma=[1.0], D=[[0.0]], P1=[[1.0]])),
    partial(synth_eval, SynthesizedSchur(DiscreteMeasure01(((0.3, 1.0),)),
                                         tau=(JUST_OUTSIDE, 1.0), omega=1.0)),
], ids=["require_interior", "eval_phi", "synth_eval"])
def test_a_point_just_outside_the_bidisc_is_refused(evaluate, lam):
    with pytest.raises(InvalidInputError, match="is not in the open bidisc"):
        evaluate(lam)


def test_a_point_just_inside_the_bidisc_is_interior():
    l1, l2, single = require_interior((np.full(9, JUST_INSIDE), np.full(9, 0.5)))
    assert not single and (l1 == JUST_INSIDE).all()
    assert require_interior((0.5, JUST_INSIDE))[1][0] == JUST_INSIDE
    # the realized function, phi(lam) = lam_1 here, keeps its value there
    c = Colligation(a=0.0, beta=[1.0], gamma=[1.0], D=[[0.0]], P1=[[1.0]])
    assert eval_phi(c, (JUST_INSIDE, 0.0)) == JUST_INSIDE


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


@pytest.mark.parametrize("build, message", [
    (lambda c, bad: dataclasses.replace(c, a=bad), "a must be a finite number"),
    (lambda c, bad: TwoVarNevRep(b=bad, alpha=[1.0], B=[[0.0]], Y=[[1.0]]),
     "b must be a finite real number"),
    (lambda c, bad: SynthesizedSchur(DiscreteMeasure01(((0.5, 1.0),)), CHI, bad),
     "omega must be unimodular"),
    (lambda c, bad: DiscreteMeasure01(((bad, 1.0),)), "measure data must be finite real numbers"),
    (lambda c, bad: NevanlinnaData(c=bad, d=0.0, atoms=()), "c and d must be finite real numbers"),
    (lambda c, bad: Tolerances(rank_rel=bad), "tolerance rank_rel must be finite and positive"),
], ids=["Colligation.a", "TwoVarNevRep.b", "SynthesizedSchur.omega", "measure atom",
        "NevanlinnaData.c", "Tolerances"])
@pytest.mark.parametrize("bad", ["x", "0.5", None, float("nan"), float("inf"), 10 ** 400,
                                 True, np.True_],
                         ids=["text", "numeric text", "None", "nan", "inf", "huge", "True",
                              "np.True_"])
def test_a_scalar_that_is_not_a_finite_number_is_refused(favourite_colligation, build,
                                                         message, bad):
    # an input error, not the bare ValueError or TypeError of float() or complex()
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        build(favourite_colligation, bad)


@pytest.mark.parametrize("build, what", [
    (lambda: DiscreteMeasure01((1.0,)), "measure"),
    (lambda: DiscreteMeasure01(None), "measure"),
    (lambda: DiscreteMeasure01(((0.5, 1.0, 2.0),)), "measure"),
    (lambda: NevanlinnaData(c=0.0, d=0.0, atoms=((1.0,),)), "Nevanlinna"),
], ids=["a number", "None", "a triple", "a Nevanlinna single"])
def test_an_atom_that_is_not_a_pair_is_refused(build, what):
    # an input error, not the bare TypeError or ValueError of unpacking
    message = rf"^{what} atoms must be \(location, weight\) pairs$"
    with pytest.raises(InvalidInputError, match=message):
        build()


def test_an_extrapolation_of_no_steps_is_refused():
    with pytest.raises(InvalidInputError, match="xs must be a nonempty sequence"):
        refine_to_limit(lambda k: 0.0, [], tol=1e-9)


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
# the sequences of colligations and carapoints, and each returns a list.
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


@pytest.mark.parametrize("suite, bound, figure, words", [
    ("colligations", "SCHUR_EXCESS_MAX", "schur_bound_excess_max", "is above"),
    ("desingularization", "RADIAL_INNER_MAX", "radial_inner", "is not below"),
    ("measures", "EQUIVALENCE_MAX", "evaluation_equivalence_max", "is not below"),
    ("reps", "INFINITY_LIMIT_MAX", "infinity_limit_err_max", "is not below"),
])
def test_verify_names_the_figure_that_misses_its_bound(monkeypatch, capsys, suite, bound,
                                                       figure, words):
    # a bound no figure meets fails its suite alone, and the reason names
    # the first figure that missed it
    import json
    from bischur import gates
    from bischur.cli import main
    monkeypatch.setattr(gates, bound, -np.inf)
    code = main(["verify", "--random", "2", "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    failed = report["suites"][suite]
    assert code == report["exit_code"] == 5
    assert failed["pass"] is False
    assert failed["reason"] == f"{figure} {failed[figure]:.3e} {words} -inf"
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


@pytest.mark.parametrize("command, code", [("analyze", 4), ("synth --verify", 5)])
def test_a_nan_figure_prints_as_null_and_fails_with_its_exit_code(monkeypatch, capsys, tmp_path,
                                                                 command, code):
    # a NaN analytic derivative in the second direction: Python's max would
    # pass over it, and json refuses it unless it is null
    import json
    from bischur import slope
    from bischur.cli import main
    measure, c = tmp_path / "m.json", tmp_path / "c.json"
    measure.write_text(json.dumps({"atoms": [{"s": 0.2, "w": 0.7}, {"s": 0.5, "w": 1.1},
                                             {"s": 0.9, "w": 0.4}]}))
    point = ["--tau=-1,1j", "--no-timestamp"]
    assert main(["synth", str(measure), "--omega=-1", "--out", str(c), *point]) == 0
    capsys.readouterr()
    real = slope._analytic

    def nan_second(*args):
        values = real(*args)
        values[1] = np.nan
        return values

    monkeypatch.setattr(slope, "_analytic", nan_second)
    argv = {"analyze": ["analyze", str(c)],
            "synth --verify": ["synth", str(measure), "--omega=-1", "--verify"]}[command]
    assert main([*argv, *point]) == code
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["exit_code"] == code and "NaN" not in out
    if command == "analyze":
        check, verification = report["derivative_checks"][1], report["verification"]
        assert check["analytic"] is None and check["abs_err"] is None and check["rel_err"] is None
        assert verification["derivative_rel_err_max"] is None
        assert verification["reason"] == "derivative_checks[1].rel_err nan is not below 1e-07"
    else:
        check = report["verification"]["slope"]
        assert check["max_rel_err"] is None
        assert check["reason"] == "rel_err along delta 1 nan is not below 1e-07"
