import argparse
import dataclasses
import json
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bischur import (DiscreteMeasure01, boundary, cli, desingularize, eval_phi, gates, nev2d,
                     representations, slope, synthesis)
from bischur.cli import main, parse_complex, parse_point
from bischur.generate import (
    random_colligation,
    random_colligation_with_kernel,
    random_interior_point,
    random_interior_points,
    random_torus_points,
)
from bischur.serialization import colligation_from_json, colligation_to_json

from conftest import favourite_formula


@pytest.fixture()
def measure_file(tmp_path):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"atoms": [{"s": 0.5, "w": 1.0}]}))
    return path


@pytest.fixture()
def favourite_file(tmp_path, favourite_colligation):
    path = tmp_path / "favourite.json"
    path.write_text(json.dumps(colligation_to_json(favourite_colligation)))
    return path


@pytest.fixture()
def random_file(tmp_path):
    path = tmp_path / "random.json"
    c = random_colligation(np.random.default_rng(0), 4)
    path.write_text(json.dumps(colligation_to_json(c)))
    return path


@pytest.fixture()
def three_atom_file(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"atoms": [{"s": 0.2, "w": 1.0}, {"s": 0.5, "w": 0.5},
                                          {"s": 0.9, "w": 2.0}]}))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("1") == 1.0
        assert parse_complex("-1") == -1.0
        assert parse_complex("i") == 1j
        assert parse_complex("-i") == -1j
        assert parse_complex("0.5+0.5i") == 0.5 + 0.5j
        assert parse_complex("2j") == 2j

    def test_point(self):
        assert parse_point("1,-i") == (1.0, -1j)

    def test_infinity_and_nan_keep_their_i(self):
        inf = float("inf")
        assert parse_complex("inf") == inf
        assert parse_complex("-inf") == -inf
        assert parse_complex(" Infinity") == inf
        assert np.isnan(parse_complex("nan").real)
        assert parse_point("inf,-i") == (inf, -1j)


class TestAnalyze:
    def test_favourite_at_chi(self, capsys, favourite_file, tmp_path):
        out_csv = tmp_path / "slope.csv"
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1",
                           "--no-timestamp", "--csv", out_csv)
        assert code == 0
        atom = report["slope_measure"]["atoms"][0]
        assert atom["s"] == pytest.approx(0.5, abs=1e-9)
        assert atom["w"] == pytest.approx(1.0, abs=1e-9)
        assert report["julia_liminf"]["estimate"] == pytest.approx(1.0, abs=1e-8)
        assert report["carapoint"]["kernel_dim"] == 1
        assert report["verification"]["pass"] is True
        header = out_csv.read_text().splitlines()[0]
        assert header == "z_re,z_im,h_re,h_im"

    def test_favourite_at_regular_torus_point(self, capsys, favourite_file):
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,-1",
                           "--no-timestamp")
        assert code == 0
        assert report["carapoint"]["regular_point"] is True
        assert report["carapoint"]["kernel_dim"] == 0

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, report = run(capsys, "analyze", bad, "--tau", "1,1", "--no-timestamp")
        assert code == 2
        assert report["error"]["kind"] == "input"

    @pytest.mark.parametrize("seed, n_atoms", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 8)])
    def test_relocated_derivative_checks_converge(self, capsys, tmp_path, seed, n_atoms):
        # phi(tau) from the model converges every difference quotient; a
        # radially extrapolated phi(tau) left them unconverged
        rng = np.random.default_rng(seed)
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps({"atoms": [
            {"s": s, "w": w} for s, w in zip(rng.uniform(size=n_atoms),
                                             rng.uniform(0.1, 2.0, size=n_atoms))]}))
        coll = tmp_path / "c.json"
        code, _ = run(capsys, "synth", measure, "--tau=-1,1j", "--omega=-1",
                      "--out", coll, "--no-timestamp")
        assert code == 0
        code, report = run(capsys, "analyze", coll, "--tau=-1,1j", "--no-timestamp")
        assert code == 0
        assert abs(complex(*report["boundary_value"]) + 1.0) < 1e-13
        checks = report["derivative_checks"]
        assert len(checks) == 4
        assert all(check["converged"] for check in checks)
        assert max(check["rel_err"] for check in checks) <= 1e-9

    def test_non_unitary_colligation_exits_2(self, capsys, tmp_path,
                                             favourite_colligation):
        payload = colligation_to_json(favourite_colligation)
        payload["a"] = [0.5, 0.0]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        code, report = run(capsys, "analyze", path, "--tau", "1,1", "--no-timestamp")
        assert code == 2


class TestSynth:
    def test_fitted_colligation_matches_favourite(self, capsys, measure_file, tmp_path):
        out = tmp_path / "coll.json"
        code, report = run(capsys, "synth", measure_file, "--out", out,
                           "--verify", "--no-timestamp")
        assert code == 0
        assert report["verification"]["slope"]["pass"] is True
        assert report["verification"]["carapoint"]["pass"] is True
        fitted = colligation_from_json(json.loads(out.read_text()))
        rng = np.random.default_rng(80)
        for _ in range(100):
            lam = random_interior_point(rng, 0.9)
            assert abs(eval_phi(fitted, lam) - favourite_formula(lam)) < 1e-8

    def test_relocated_verification(self, capsys, measure_file):
        code, report = run(capsys, "synth", measure_file, "--tau=-1,-1",
                           "--omega=-1", "--verify", "--no-timestamp")
        assert code == 0
        assert report["verification"]["carapoint"]["pass"] is True

    def test_csv_output(self, capsys, measure_file, tmp_path):
        out = tmp_path / "samples.csv"
        code, _ = run(capsys, "synth", measure_file, "--out", out, "--no-timestamp")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "l1_re,l1_im,l2_re,l2_im,phi_re,phi_im"
        assert len(lines) > 100

    def test_thirty_atom_synth_then_analyze(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        s, w = rng.uniform(size=30), rng.uniform(0.1, 2.0, size=30)
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps(
            {"atoms": [{"s": a, "w": b} for a, b in zip(s, w)]}))
        coll = tmp_path / "c.json"
        code, report = run(capsys, "synth", measure, "--out", coll, "--no-timestamp")
        assert code == 0
        assert report["output"]["model_dim"] == 60
        code, report = run(capsys, "analyze", coll, "--tau", "1,1", "--no-timestamp")
        assert code == 0
        back = report["slope_measure"]["atoms"]
        assert len(back) == 30
        for (s0, w0), atom in zip(sorted(zip(s, w)), back):
            assert abs(atom["s"] - s0) < 1e-9
            assert abs(atom["w"] - w0) < 1e-9

    def test_negative_weight_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad_measure.json"
        path.write_text(json.dumps({"atoms": [{"s": 0.5, "w": -1.0}]}))
        code, report = run(capsys, "synth", path, "--no-timestamp")
        assert code == 2


class TestNevrep:
    def test_measure_with_omega_minus_one(self, capsys, measure_file, tmp_path):
        out = tmp_path / "rep.json"
        code, report = run(capsys, "nevrep", measure_file, "--omega=-1",
                           "--out", out, "--no-timestamp")
        assert code == 0
        info = report["carapoint_at_infinity"]
        assert info["finite"] is True and info["converged"] is True
        assert "reason" not in info
        assert info["limit"] == pytest.approx(info["alpha_norm_sq"], abs=1e-6)
        rep_payload = json.loads(out.read_text())
        assert rep_payload["b"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("fields, reason", [
        ({"converged": False}, "the extrapolation of h(iy, iy) did not converge"),
        ({"finite": False, "limit": None, "value": None},
         "y Im h(iy, iy) has no finite limit"),
    ], ids=["unconverged", "infinite"])
    def test_no_converged_limit_at_infinity_exits_4(self, capsys, measure_file, tmp_path,
                                                    monkeypatch, fields, reason):
        out = tmp_path / "rep.json"
        real = nev2d.carapoint_at_infinity
        monkeypatch.setattr(nev2d, "carapoint_at_infinity",
                            lambda h: real(h)._replace(**fields))
        code, report = run(capsys, "nevrep", measure_file, "--omega=-1",
                           "--out", out, "--no-timestamp")
        assert code == report["exit_code"] == 4
        assert "error" not in report
        info = report["carapoint_at_infinity"]
        assert info["reason"] == reason
        assert {name: info[name] for name in fields} == fields
        assert not out.exists()

    @pytest.mark.parametrize("rank_rel, noted", [(1e-10, False), (1e-3, True)])
    def test_generalized_notes_only_a_rank_gap(self, capsys, three_atom_file, rank_rel,
                                               noted):
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            code, report = run(capsys, "nevrep", three_atom_file, "--omega=-1", "--tolerances",
                               json.dumps({"rank_rel": rank_rel}), "--no-timestamp")
        assert code == 0 and not warned
        notes = report["generalized"].get("notes", [])
        assert ("notes" in report["generalized"]) == noted
        assert all("sit just above the rank cutoff" in note for note in notes)

    def test_favourite_obstruction_exits_6(self, capsys, favourite_file):
        code, report = run(capsys, "nevrep", favourite_file, "--no-timestamp")
        assert code == 6
        assert report["error"]["kind"] == "obstruction"


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["synth"], ["synth", "--verify"], ["synth", "--out", "c.json"], ["nevrep"],
    ], ids=["synth", "synth-verify", "synth-out", "nevrep"])
    def test_nan_omega_exits_2(self, capsys, measure_file, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        command, *extra = argv
        code, report = run(capsys, command, measure_file, "--omega=nan", *extra,
                           "--no-timestamp")
        assert code == report["exit_code"] == 2
        assert report["error"] == {"kind": "input", "message": "omega must be unimodular"}
        assert not Path("c.json").exists()

    @pytest.mark.parametrize("argv", [
        ["synth"], ["synth", "--verify"], ["synth", "--out", "c.json"], ["nevrep"],
    ], ids=["synth", "synth-verify", "synth-out", "nevrep"])
    def test_infinite_omega_exits_2(self, capsys, measure_file, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        command, *extra = argv
        code, report = run(capsys, command, measure_file, "--omega=inf", *extra,
                           "--no-timestamp")
        assert code == report["exit_code"] == 2
        assert report["error"] == {"kind": "input", "message": "omega must be unimodular"}
        assert not Path("c.json").exists()

    @pytest.mark.parametrize("tau, point", [
        ("inf,1", "((inf+0j), (1+0j))"), ("1,-infinity", "((1+0j), (-inf+0j))"),
    ], ids=["inf-first", "minus-infinity-second"])
    def test_infinite_tau_exits_2_naming_the_point(self, capsys, favourite_file, tau, point):
        code, report = run(capsys, "analyze", favourite_file, f"--tau={tau}",
                           "--no-timestamp")
        assert code == report["exit_code"] == 2
        assert report["error"] == {
            "kind": "input", "message": f"point {point} has a coordinate that is not finite"}

    def test_negative_seed_fails_analyze_as_input(self, capsys, favourite_file, tmp_path):
        out, samples = tmp_path / "r.json", tmp_path / "s.csv"
        code, report = run(capsys, "analyze", favourite_file, "--tau=1,1", "--seed=-5",
                           "--out", out, "--csv", samples, "--no-timestamp")
        assert code == report["exit_code"] == 2
        assert report["error"] == {"kind": "input",
                                   "message": "--seed must be non-negative, got -5"}
        assert json.loads(out.read_text()) == report
        assert samples.read_text().splitlines() == ["z_re,z_im,h_re,h_im"]

    @pytest.mark.parametrize("command, field", [
        ("synth", "atoms[0].s"), ("nevrep", "atoms[0].s"), ("verify", "tolerances.rank_rel"),
        ("verify-env", "tolerances.rank_rel"),
    ])
    def test_an_integer_too_large_for_a_float_exits_2(self, capsys, tmp_path, monkeypatch,
                                                      command, field):
        # a SchemaError naming the field, not the bare OverflowError of float()
        huge = "1" + "0" * 400
        measure = tmp_path / "huge.json"
        measure.write_text('{"atoms": [{"s": %s, "w": 1.0}]}' % huge)
        argv = {"synth": ["synth", measure], "nevrep": ["nevrep", measure],
                "verify": ["verify", "--tolerances", '{"rank_rel": %s}' % huge],
                "verify-env": ["verify"]}[command]
        if command == "verify-env":
            monkeypatch.setenv("BISCHUR_TOLERANCES", '{"rank_rel": %s}' % huge)
        code, report = run(capsys, *argv, "--no-timestamp")
        assert code == report.get("exit_code", 2) == 2
        assert report["error"] == {
            "kind": "input", "message": f"{field}: the integer is too large for a float"}

    def test_nevrep_rejects_a_representation(self, capsys, measure_file, tmp_path):
        rep_file = tmp_path / "rep.json"
        code, _ = run(capsys, "nevrep", measure_file, "--omega=-1", "--out", rep_file,
                      "--no-timestamp")
        assert code == 0
        code, report = run(capsys, "nevrep", rep_file, "--no-timestamp")
        assert code == report["exit_code"] == 2
        assert report["error"]["kind"] == "input"
        assert report["error"]["message"].endswith("got rep")


class TestVerify:
    def test_seeded_run_passes_and_is_deterministic(self, capsys):
        code1, report1 = run(capsys, "verify", "--random", "6", "--seed", "7",
                             "--no-timestamp")
        code2, report2 = run(capsys, "verify", "--random", "6", "--seed", "7",
                             "--no-timestamp")
        assert code1 == code2 == 0
        assert report1 == report2
        assert all(s["pass"] for s in report1["suites"].values())

    @pytest.mark.parametrize("seed", [2073717989, 142777980])
    def test_seeds_once_failing_slope_liminf_pass(self, seed):
        # 1 - |phi|^2 cancelled on a colligation that verify --random 50
        # drew at these seeds when it drew instance by instance; the Julia
        # quotient from u_lam does not.  Those colligations are drawn here as
        # verify drew them then: the colligations suite's 50 instances, then
        # the desingularization suite's 25, each with its points, through
        # the public draws.
        rng = np.random.default_rng(seed)
        for _ in range(50):
            random_colligation(rng, int(rng.integers(2, 6)))
            random_interior_points(rng, 4)
            cli._pair_stacks(rng, 3)
        worst = 0.0
        for _ in range(25):
            tau = tuple(np.ravel(random_torus_points(rng, 1)))
            c = random_colligation_with_kernel(rng, int(rng.integers(2, 5)),
                                               int(rng.integers(1, 3)), tau)
            cli._pair_stacks(rng, 3)
            random_torus_points(rng, 3)
            liminf = boundary.model_liminf(c, tau)
            h1 = slope.slope_eval(slope.SlopePair.from_realization(desingularize(c, tau)), 1.0)
            assert liminf.converged
            worst = max(worst, abs(liminf.estimate.real + h1.real))
        assert worst < 1e-7

    def test_rank_gap_notes_name_their_colligation(self, capsys):
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            code, report = run(capsys, "verify", "--random", "5", "--seed", "1", "--tolerances",
                               '{"rank_rel": 0.01}', "--no-timestamp")
        assert code == 0 and not warned
        notes = report["suites"]["desingularization"]["notes"]
        assert [note.split(":")[0] for note in notes] == ["colligation 0", "colligation 1"]
        assert all("sit just above the rank cutoff" in note for note in notes)
        # at default tolerances no model has a note, and the suite no notes key
        code, report = run(capsys, "verify", "--random", "5", "--seed", "1", "--no-timestamp")
        assert code == 0 and "notes" not in report["suites"]["desingularization"]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_exits_2(self, capsys, count):
        code, report = run(capsys, "verify", "--random", count, "--no-timestamp")
        assert code == report["exit_code"] == 2
        assert report["error"]["kind"] == "input"


    def test_negative_seed_exits_2(self, capsys):
        code, report = run(capsys, "verify", "--random", "1", "--seed=-1", "--no-timestamp")
        assert code == report["exit_code"] == 2
        assert report["error"] == {"kind": "input",
                                   "message": "--seed must be non-negative, got -1"}


class TestMinusValues:
    """A separate value with a leading minus parses like --option=value."""

    def same(self, capsys, *argv):
        *head, option, value = argv
        code1, report1 = run(capsys, *head, option, value, "--no-timestamp")
        code2, report2 = run(capsys, *head, f"{option}={value}", "--no-timestamp")
        assert code1 == code2 == 0
        assert report1 == report2

    def test_analyze_tau(self, capsys, favourite_file):
        self.same(capsys, "analyze", favourite_file, "--tau", "-1,1j")

    def test_synth_omega(self, capsys, measure_file):
        self.same(capsys, "synth", measure_file, "--verify", "--omega", "-i")

    def test_nevrep_omega(self, capsys, measure_file):
        self.same(capsys, "nevrep", measure_file, "--omega", "-i")


RANK = ("--tolerances", '{"rank_rel": 0.9}')
COND = ("--tolerances", '{"solve_cond_max": 1.5}')
HEADER = {"tool", "tolerances", "tolerances_source"}


class TestFailureReports:
    # command, its arguments, a patch, the exit code, the error kind (None for
    # a failed verification, which prints a full report) and whether the input
    # stage passed, so that the report echoes the input and seed
    @pytest.mark.parametrize("command, argv, patch, exit_code, kind, echoed", [
        ("analyze", ["missing.json", "--tau=1,1"], None, 2, "input", False),
        ("synth", ["missing.json"], None, 2, "input", False),
        ("nevrep", ["empty.json"], None, 2, "input", False),
        ("verify", ["--random", "0"], None, 2, "input", False),
        ("analyze", ["random.json", "--tau=1,1", *RANK], None, 3, "precondition", True),
        ("nevrep", ["random.json", *RANK], None, 3, "precondition", True),
        ("analyze", ["random.json", "--tau=1,1", *COND], None, 4, "numeric", True),
        ("synth", ["measure.json", "--out", "c.json", *COND], None, 4, "numeric", True),
        ("nevrep", ["random.json", *COND], None, 4, "numeric", True),
        # a drawn instance that raises fails its suite, not the whole of verify
        ("verify", ["--random", "3", *COND], None, 5, None, True),
        ("verify", ["--random", "2", *RANK], None, 5, None, True),
        ("nevrep", ["measure.json"], None, 6, "obstruction", True),
        ("analyze", ["favourite.json", "--tau=1,1"], "residual", 4, None, True),
        ("synth", ["measure.json", "--verify"], "unconverged", 5, None, True),
        ("verify", ["--random", "2"], "residual", 5, None, True),
    ], ids=["analyze-input", "synth-input", "nevrep-input", "verify-input",
            "analyze-precondition", "nevrep-precondition", "analyze-numeric",
            "synth-numeric", "nevrep-numeric", "verify-numeric", "verify-drawn-precondition",
            "nevrep-obstruction", "analyze-verification", "synth-verification",
            "verify-verification"])
    def test_report_as_far_as_the_command_got(self, capsys, monkeypatch, tmp_path,
                                              measure_file, random_file, favourite_file,
                                              command, argv, patch, exit_code, kind, echoed):
        monkeypatch.chdir(tmp_path)
        Path("empty.json").write_text('{"atoms": []}')
        if patch == "residual":
            monkeypatch.setattr(gates, "RESIDUAL_MAX", 1e-30)
        elif patch == "unconverged":
            unconverged(monkeypatch, slope)
        code, report = run(capsys, command, *argv, "--no-timestamp")
        assert code == report["exit_code"] == exit_code
        assert report["tool"] == {"name": "bischur", "version": cli.__version__}
        assert report["tolerances_source"][0] == "default"
        echo = set()
        if echoed:
            echo = {"seed"} if command == "verify" else {"seed", "input"}
        assert set(report) & {"seed", "input"} == echo
        if kind is None:
            assert "error" not in report
            return
        extra = {"carapoint"} if (command, kind) == ("analyze", "precondition") else set()
        assert set(report) == HEADER | echo | extra | {"error", "exit_code"}
        assert report["error"]["kind"] == kind and report["error"]["message"]

    @pytest.mark.parametrize("command", ["analyze", "nevrep"])
    def test_not_a_carapoint_exits_3(self, capsys, random_file, command):
        extra = ["--tau", "1,1"] if command == "analyze" else []
        code, report = run(capsys, command, random_file, *extra,
                           "--tolerances", '{"rank_rel": 0.9}', "--no-timestamp")
        assert code == report["exit_code"] == 3
        assert report["error"]["kind"] == "precondition"
        if command == "analyze":
            assert report["carapoint"] == {"is_carapoint": False}
            assert report["error"]["message"] == (
                "no carapoint evidence: gamma is outside ran(1 - D tau)")
        else:
            assert report["error"]["message"].startswith(
                "((1+0j), (1+0j)) is not a carapoint: system inconsistent: residual ")

    @pytest.mark.parametrize("command", ["analyze", "nevrep", "verify"])
    def test_numeric_failure_prints_the_full_report(self, capsys, random_file, command):
        argv = {"analyze": [random_file, "--tau", "1,1"], "nevrep": [random_file],
                "verify": ["--random", "3"]}[command]
        code, report = run(capsys, command, *argv, "--tolerances",
                           '{"solve_cond_max": 1.5}', "--no-timestamp")
        if command == "verify":
            # each suite that raises fails alone, with its figures null
            assert code == report["exit_code"] == 5 and "error" not in report
            suites = report["suites"]
            failed = suites["colligations"]
            assert failed["pass"] is False and failed["schur_bound_excess_max"] is None
            assert failed["reason"].startswith("numeric error: resolvent condition number")
            assert suites["measures"]["pass"] is True
        else:
            assert code == report["exit_code"] == 4
            assert report["error"]["kind"] == "numeric"
        assert report["tool"]["name"] == "bischur"
        assert report["tolerances"]["solve_cond_max"] == 1.5
        assert report["tolerances_source"] == ["default", "flag"]

    @pytest.mark.parametrize("extra, code", [
        (["--tau", "1,1", "--tolerances", '{"solve_cond_max": 10}'], 4),
        (["--tau", "2,1"], 2),
    ], ids=["numeric", "input"])
    def test_failed_analyze_overwrites_its_out_report(self, capsys, favourite_file,
                                                      tmp_path, extra, code):
        out = tmp_path / "r.json"
        assert run(capsys, "analyze", favourite_file, "--tau", "1,1", "--out", out,
                   "--no-timestamp")[0] == 0
        assert json.loads(out.read_text())["verification"]["pass"] is True
        got, report = run(capsys, "analyze", favourite_file, *extra, "--out", out,
                          "--no-timestamp")
        assert got == report["exit_code"] == code
        assert json.loads(out.read_text()) == report

    @pytest.mark.parametrize("extra, code", [
        (["--tau", "1,1", "--tolerances", '{"solve_cond_max": 10}'], 4),
        (["--tau", "2,1"], 2),
    ], ids=["numeric", "input"])
    def test_failed_analyze_overwrites_its_csv_samples(self, capsys, favourite_file,
                                                       tmp_path, extra, code):
        samples = tmp_path / "s.csv"
        got, report = run(capsys, "analyze", favourite_file, "--tau", "1,1", "--csv", samples,
                          "--no-timestamp")
        header, *rows = samples.read_text().splitlines()
        assert got == 0 and header == "z_re,z_im,h_re,h_im"
        assert [[float(x) for x in row.split(",")] for row in rows] == [
            [*sample["z"], *sample["h"]] for sample in report["slope_samples"]]
        got, report = run(capsys, "analyze", favourite_file, *extra, "--csv", samples,
                          "--no-timestamp")
        assert got == report["exit_code"] == code and "slope_samples" not in report
        assert samples.read_text().splitlines() == [header]


class TestNearTheCircle:
    """A tau or omega that passes the torus check is put on the circle, so it
    gives the report of the point it is near."""

    @pytest.mark.parametrize("tau", [
        "1.0000000000009,1", "0.9999999999991,1", "1.0000000000005,1",
        "0.9999999999995,1", "1,1.0000000000009", "1,0.9999999999991"])
    def test_analyze_tau(self, capsys, three_atom_file, tmp_path, tau):
        c = tmp_path / "c.json"
        assert run(capsys, "synth", three_atom_file, "--tau=1,1", "--omega=-1", "--out", c,
                   "--no-timestamp")[0] == 0
        exact = run(capsys, "analyze", c, "--tau=1,1", "--no-timestamp")
        assert exact[0] == 0
        assert run(capsys, "analyze", c, f"--tau={tau}", "--no-timestamp") == exact

    def test_synth_omega(self, capsys, three_atom_file):
        argv = ["synth", three_atom_file, "--tau=-1,1j", "--verify", "--no-timestamp"]
        exact = run(capsys, *argv, "--omega=-1")
        assert exact[0] == 0
        assert run(capsys, *argv, "--omega=-1.0000000000005") == exact


def unconverged(monkeypatch, module):
    """Make every limit that ``module`` extrapolates report no convergence."""
    real = module.refine_to_limit
    monkeypatch.setattr(module, "refine_to_limit", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), converged=False))


class TestConvergenceGate:
    def test_analyze_passes_when_every_limit_converges(self, capsys, favourite_file):
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1", "--no-timestamp")
        assert code == 0 and report["verification"]["pass"] is True
        assert "reason" not in report["verification"]

    def test_unconverged_derivative_checks_exit_4(self, capsys, favourite_file, monkeypatch):
        unconverged(monkeypatch, slope)
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1", "--no-timestamp")
        assert code == report["exit_code"] == 4
        assert report["julia_liminf"]["converged"] is True
        assert report["verification"]["pass"] is False
        assert report["verification"]["reason"] == "derivative_checks[0] did not converge"

    def test_unconverged_julia_liminf_exits_4(self, capsys, favourite_file, monkeypatch):
        unconverged(monkeypatch, boundary)
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1", "--no-timestamp")
        assert code == report["exit_code"] == 4
        assert all(check["converged"] for check in report["derivative_checks"])
        assert report["verification"]["pass"] is False
        assert report["verification"]["reason"] == "julia_liminf did not converge"

    def test_residual_above_the_bound_exits_4(self, capsys, favourite_file, monkeypatch):
        monkeypatch.setattr(gates, "RESIDUAL_MAX", 1e-30)
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1", "--no-timestamp")
        verification = report["verification"]
        assert code == report["exit_code"] == 4
        assert verification["pass"] is False
        assert verification["reason"] == (
            f"model_residual_max {verification['model_residual_max']:.3e} is not below 1e-30")

    def test_synth_passes_when_every_limit_converges(self, capsys, measure_file):
        code, report = run(capsys, "synth", measure_file, "--tau=-1,1j", "--omega=-1",
                           "--verify", "--no-timestamp")
        assert code == 0
        for check in report["verification"].values():
            assert check["pass"] is True and "reason" not in check

    def test_unconverged_slope_check_exits_5(self, capsys, measure_file, monkeypatch):
        unconverged(monkeypatch, slope)
        code, report = run(capsys, "synth", measure_file, "--verify", "--no-timestamp")
        assert code == report["exit_code"] == 5
        checks = report["verification"]
        assert checks["slope"]["pass"] is False
        assert checks["slope"]["reason"] == (
            "the difference quotient along delta 0 did not converge")
        assert checks["carapoint"]["pass"] is True and "reason" not in checks["carapoint"]

    def test_unconverged_carapoint_check_exits_5(self, capsys, measure_file, monkeypatch):
        unconverged(monkeypatch, boundary)
        code, report = run(capsys, "synth", measure_file, "--verify", "--no-timestamp")
        assert code == report["exit_code"] == 5
        checks = report["verification"]
        assert checks["slope"]["pass"] is True
        assert checks["carapoint"]["pass"] is False
        assert checks["carapoint"]["reason"] == "the radial Julia liminf did not converge"


def scaled(module, name, factor):
    """A mutation: ``module.name`` with its results multiplied by factor."""
    def mutate(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: real(*args, **kwargs) * factor)
    return mutate


def replaced(module, name, change):
    """A mutation: ``module.name`` with its result passed through change."""
    def mutate(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: change(real(*args, **kwargs)))
    return mutate


def nan_at(values, k):
    """An array of complex values with the one at k put NaN."""
    values = np.array(values, dtype=complex)
    values[k] = np.nan
    return values


def perturbed_infinity(field):
    """A mutation: carapoint_at_infinity with its ``field`` moved by 1e-3
    relative to 1 + its size."""
    def mutate(monkeypatch):
        real = nev2d.carapoint_at_infinity

        def wrong(h):
            result = real(h)
            value = getattr(result, field)
            return result._replace(**{field: value + 1e-3 * (1.0 + abs(value))})
        monkeypatch.setattr(nev2d, "carapoint_at_infinity", wrong)
    return mutate


def flipped_beta(monkeypatch):
    """A mutation: desingularize with the sign of its model's beta flipped."""
    real = cli.desingularize

    def wrong(*args):
        g = real(*args)
        return dataclasses.replace(g, beta=-g.beta)
    monkeypatch.setattr(cli, "desingularize", wrong)


class TestMutations:
    """A wrong formula fails every command it reaches, with a reason."""

    @pytest.mark.parametrize("mutate, codes", [
        (scaled(slope, "slope_eval", 1.0 + 1e-3), {"analyze": 4}),
        (scaled(slope, "_analytic", 2.0), {"analyze": 4, "synth --verify": 5}),
        # synth --verify holds the slope formula to analyze's bound
        (scaled(slope, "_analytic", 1.0 + 2e-6), {"analyze": 4, "synth --verify": 5}),
        # and the Julia liminf too; fit_colligation's own check stops nevrep
        (scaled(synthesis, "_herglotz_sum", 1.0 + 1e-6), {"synth --verify": 5, "nevrep": 4}),
        (perturbed_infinity("limit"), {"nevrep": 4}),
        (perturbed_infinity("value"), {"nevrep": 4}),
        (flipped_beta, {"analyze": 4, "nevrep": 4}),
        # a NaN figure fails its gate and its maximum, and prints as null
        (replaced(slope, "_analytic", lambda values: nan_at(values, 1)),
         {"analyze": 4, "synth --verify": 5}),
        # analyze holds the slope function to its measure and Nevanlinna data
        (replaced(slope, "slope_measure", lambda nu: DiscreteMeasure01(
            tuple((s, w * (1.0 + 1e-3)) for s, w in nu.atoms))), {"analyze": 4}),
        (replaced(representations, "nevanlinna_from_measure",
                  lambda nd: dataclasses.replace(nd, c=nd.c + 1e-3)), {"analyze": 4}),
        # nevrep holds its representation to the input's function at infinity
        (replaced(nev2d, "rep_from_schur",
                  lambda rep: dataclasses.replace(rep, alpha=rep.alpha * (1.0 + 1e-3))),
         {"nevrep": 4}),
        (replaced(nev2d, "rep_from_schur", lambda rep: dataclasses.replace(rep, b=rep.b + 1e-3)),
         {"nevrep": 4}),
    ], ids=["slope_eval", "directional_derivative_analytic", "directional_derivative_2e-6",
            "herglotz_sum_1e-6", "infinity_limit", "infinity_value", "desingularize_beta",
            "directional_derivative_nan", "slope_measure_weights_1e-3",
            "nevanlinna_c_1e-3", "rep_alpha_1e-3", "rep_b_1e-3"])
    def test_every_reached_command_fails(self, capsys, three_atom_file, tmp_path,
                                         monkeypatch, mutate, codes):
        c, out = tmp_path / "c.json", tmp_path / "rep.json"
        assert run(capsys, "synth", three_atom_file, "--tau=-1,1j", "--omega=-1", "--out", c,
                   "--no-timestamp")[0] == 0
        mutate(monkeypatch)
        commands = {
            "analyze": ["analyze", c, "--tau=-1,1j"],
            "synth --verify": ["synth", three_atom_file, "--tau=-1,1j", "--omega=-1",
                               "--verify"],
            "nevrep": ["nevrep", three_atom_file, "--omega=-1", "--out", out],
        }
        for name, argv in commands.items():
            code, report = run(capsys, *argv, "--no-timestamp")
            assert code == report["exit_code"] == codes.get(name, 0), name
            if name == "nevrep":
                assert out.exists() == (code == 0)
            if "error" in report:
                # the command failed before it wrote its verification
                reason = report["error"]["message"]
            elif name == "analyze":
                reason = report["verification"].get("reason")
            elif name == "nevrep":
                reason = report["carapoint_at_infinity"].get("reason")
            else:
                failed = [check for check in report["verification"].values() if not check["pass"]]
                assert all("reason" in check for check in failed)
                reason = failed[0]["reason"] if failed else None
            assert bool(reason) == (code != 0), (name, reason)


class TestAccuracyGates:
    def test_analyze_reports_its_bounds_next_to_its_figures(self, capsys, three_atom_file,
                                                            tmp_path):
        c = tmp_path / "c.json"
        run(capsys, "synth", three_atom_file, "--tau=-1,1j", "--omega=-1", "--out", c,
            "--no-timestamp")
        code, report = run(capsys, "analyze", c, "--tau=-1,1j", "--no-timestamp")
        verification, julia = report["verification"], report["julia_liminf"]
        assert code == 0 and verification["pass"] is True
        assert verification["derivative_rel_err_bound"] == gates.DERIVATIVE_REL_ERR_MAX
        assert verification["derivative_rel_err_max"] == max(
            check["rel_err"] for check in report["derivative_checks"])
        assert verification["liminf_match_bound"] == gates.LIMINF_MATCH_MAX * (
            1.0 + report["carapoint"]["witness_norm_sq"])
        assert verification["liminf_match_max"] == max(
            julia["matches_witness_norm_sq"], julia["matches_minus_h1"])
        assert verification["derivative_rel_err_max"] < verification["derivative_rel_err_bound"]
        assert verification["liminf_match_max"] < verification["liminf_match_bound"]
        assert verification["encoding_bound"] == gates.ENCODING_MATCH_MAX
        assert verification["measure_encoding_max"] < verification["encoding_bound"]
        assert verification["nevanlinna_encoding_max"] < verification["encoding_bound"]

    def test_analyze_fails_an_encoding_gap_above_its_bound(self, capsys, three_atom_file,
                                                          tmp_path, monkeypatch):
        # after the derivative checks, before the Julia liminf matches
        c = tmp_path / "c.json"
        run(capsys, "synth", three_atom_file, "--tau=-1,1j", "--omega=-1", "--out", c,
            "--no-timestamp")
        monkeypatch.setattr(gates, "ENCODING_MATCH_MAX", -1.0)
        monkeypatch.setattr(gates, "LIMINF_MATCH_MAX", -1.0)
        code, report = run(capsys, "analyze", c, "--tau=-1,1j", "--no-timestamp")
        verification = report["verification"]
        assert code == report["exit_code"] == 4 and verification["encoding_bound"] == -1.0
        assert verification["reason"] == (
            f"measure_encoding_max {verification['measure_encoding_max']:.3e} is not below -1")

    @pytest.mark.parametrize("bound, name, figure, limit", [
        ("DERIVATIVE_REL_ERR_MAX", "derivative_checks[0].rel_err",
         lambda report: report["derivative_checks"][0]["rel_err"], "derivative_rel_err_bound"),
        ("LIMINF_MATCH_MAX", "julia_liminf.matches_witness_norm_sq",
         lambda report: report["julia_liminf"]["matches_witness_norm_sq"], "liminf_match_bound"),
    ], ids=["DERIVATIVE_REL_ERR_MAX-derivative_checks[0].rel_err",
            "LIMINF_MATCH_MAX-julia_liminf.matches_witness_norm_sq"])
    def test_analyze_fails_a_figure_above_its_bound(self, capsys, favourite_file, monkeypatch,
                                                   bound, name, figure, limit):
        # the reason names the first figure that misses its bound
        monkeypatch.setattr(gates, bound, 1e-30)
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1", "--no-timestamp")
        verification = report["verification"]
        assert code == report["exit_code"] == 4
        assert verification["pass"] is False
        assert verification["reason"] == (
            f"{name} {figure(report):.3e} is not below {verification[limit]:.3g}")

    def test_nevrep_value_matches_b(self, capsys, three_atom_file):
        code, report = run(capsys, "nevrep", three_atom_file, "--omega=-1", "--no-timestamp")
        info, b = report["carapoint_at_infinity"], report["rep"]["b"]
        assert code == 0 and "reason" not in info
        assert info["value_matches_b"] == abs(complex(*info["value"]) - b)
        assert info["value_matches_b"] <= gates.VALUE_MATCH_MAX * (1.0 + abs(b))

    @pytest.mark.parametrize("bound, gap, scale", [
        ("INFINITY_LIMIT_MAX", "limit_matches_alpha", lambda report: 1.0 + report[
            "carapoint_at_infinity"]["alpha_norm_sq"]),
        ("VALUE_MATCH_MAX", "value_matches_b", lambda report: 1.0 + abs(report["rep"]["b"])),
    ], ids=["INFINITY_LIMIT_MAX-the limit of y Im h(iy, iy) against ||alpha||^2",
            "VALUE_MATCH_MAX-h(iy, iy) against b"])
    def test_nevrep_fails_a_gap_above_its_bound(self, capsys, three_atom_file, tmp_path,
                                               monkeypatch, bound, gap, scale):
        out = tmp_path / "rep.json"
        # a bound no gap meets, not even a gap of exactly 0
        monkeypatch.setattr(gates, bound, -1.0)
        code, report = run(capsys, "nevrep", three_atom_file, "--omega=-1", "--out", out,
                           "--no-timestamp")
        info = report["carapoint_at_infinity"]
        assert code == report["exit_code"] == 4
        assert info["reason"] == f"{gap} {info[gap]:.3e} is above {-scale(report):.3g}"
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, favourite_file):
        main(["analyze", str(favourite_file), "--tau", "1,1", "--no-timestamp"])
        out1 = capsys.readouterr().out
        main(["analyze", str(favourite_file), "--tau", "1,1", "--no-timestamp"])
        out2 = capsys.readouterr().out
        assert out1 == out2


class TestOutputFormat:
    """Every JSON output is one line with sorted keys, as json.dumps writes it."""

    @staticmethod
    def assert_one_sorted_line(text):
        assert text.endswith("\n") and text.count("\n") == 1, text[:200]
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_every_report_and_file(self, capsys, measure_file, random_file, tmp_path,
                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        runs = [
            (["synth", measure_file, "--tau=-1,1j", "--omega=-1", "--out", "c.json"], 0),
            (["synth", measure_file, "--tau=-1,1j", "--omega=-1", "--verify"], 0),
            (["analyze", "c.json", "--tau=-1,1j", "--out", "a.json"], 0),
            (["analyze", random_file, "--tau=1,1", "--tolerances", '{"rank_rel": 0.9}',
              "--out", "p.json"], 3),
            (["nevrep", measure_file, "--omega=-1", "--out", "rep.json"], 0),
            (["nevrep", measure_file, "--omega=1"], 6),
            (["verify", "--random", "2"], 0),
            (["synth", measure_file, "--omega=nan"], 2),
            (["analyze", "missing.json", "--tau=1,1"], 2),
            (["verify", "--tolerances", "{bad"], 2),
        ]
        for argv, expected in runs:
            assert main([str(a) for a in argv]) == expected, argv
            self.assert_one_sorted_line(capsys.readouterr().out)
        for name in ("c.json", "a.json", "p.json", "rep.json"):
            self.assert_one_sorted_line(Path(name).read_text())

    def test_bare_input_error_print(self, capsys):
        assert main(["verify", "--tolerances", "[1"]) == 2
        out = capsys.readouterr().out
        self.assert_one_sorted_line(out)
        assert set(json.loads(out)) == {"error"}


class TestToleranceEnv:
    def test_env_override_is_echoed(self, capsys, favourite_file, monkeypatch):
        monkeypatch.setenv("BISCHUR_TOLERANCES", '{"structural": 1e-8}')
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1",
                           "--no-timestamp")
        assert code == 0
        assert report["tolerances"]["structural"] == 1e-8
        assert "env" in report["tolerances_source"]

    def test_malformed_env_exits_2(self, capsys, favourite_file, monkeypatch):
        monkeypatch.setenv("BISCHUR_TOLERANCES", "{bad")
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1",
                           "--no-timestamp")
        assert code == 2
        assert report["error"]["kind"] == "input"


class TestRepeatedCalls:
    """main(argv) builds its parser once per process and dispatches per call."""

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        run(capsys, "verify", "--random", "1", "--no-timestamp")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        code, _ = run(capsys, "verify", "--random", "1", "--no-timestamp")
        assert code == 0
        assert built == []

    def test_rebound_handler_runs(self, capsys, monkeypatch):
        run(capsys, "verify", "--random", "1", "--no-timestamp")
        seen = []

        def stub(args):
            seen.append(args.random)
            return 17

        monkeypatch.setattr(cli, "cmd_verify", stub)
        assert main(["verify", "--random", "3"]) == 17
        assert seen == [3]

    def test_usage_error_leaves_later_calls_alone(self, capsys, favourite_file):
        argv = ["analyze", str(favourite_file), "--tau", "1,1", "--no-timestamp"]
        assert main(argv) == 0
        before = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(favourite_file), "--no-timestamp"])
        assert exc.value.code == 2
        assert "--tau" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == before

    def test_module_entry_point_reads_sys_argv(self, capsys, monkeypatch):
        # run afresh as __main__: a module already imported would make runpy
        # warn that it is executed a second time
        monkeypatch.delitem(sys.modules, "bischur.cli")
        monkeypatch.setattr(sys, "argv", ["bischur.cli", "verify", "--random", "2",
                                          "--seed", "1", "--no-timestamp"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("bischur.cli", run_name="__main__")
        assert exc.value.code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 1
        assert report["random"] == 2
