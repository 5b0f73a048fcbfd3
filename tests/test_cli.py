import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bischur import boundary, cli, eval_phi, slope
from bischur.cli import main, parse_complex, parse_point
from bischur.generate import random_colligation, random_interior_point
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
        assert info["finite"] is True
        assert info["limit"] == pytest.approx(info["alpha_norm_sq"], abs=1e-6)
        rep_payload = json.loads(out.read_text())
        assert rep_payload["b"] == pytest.approx(0.0, abs=1e-9)

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

    @pytest.mark.parametrize("seed", ["2073717989", "142777980"])
    def test_seeds_once_failing_slope_liminf_pass(self, capsys, seed):
        # 1 - |phi|^2 cancelled here; the Julia quotient from u_lam does not
        code, report = run(capsys, "verify", "--random", "50", "--seed", seed,
                           "--no-timestamp")
        assert code == 0
        assert report["suites"]["desingularization"]["slope_liminf"] < 1e-7

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_exits_2(self, capsys, count):
        code, report = run(capsys, "verify", "--random", count, "--no-timestamp")
        assert code == report["exit_code"] == 2
        assert report["error"]["kind"] == "input"


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


class TestFailureReports:
    @pytest.mark.parametrize("command", ["analyze", "nevrep"])
    def test_not_a_carapoint_exits_3(self, capsys, random_file, command):
        extra = ["--tau", "1,1"] if command == "analyze" else []
        code, report = run(capsys, command, random_file, *extra,
                           "--tolerances", '{"rank_rel": 0.9}', "--no-timestamp")
        assert code == report["exit_code"] == 3
        assert report["error"]["kind"] == "precondition"
        if command == "analyze":
            assert report["carapoint"] == {"is_carapoint": False}

    @pytest.mark.parametrize("command", ["analyze", "nevrep", "verify"])
    def test_numeric_failure_prints_the_full_report(self, capsys, random_file, command):
        argv = {"analyze": [random_file, "--tau", "1,1"], "nevrep": [random_file],
                "verify": ["--random", "3"]}[command]
        code, report = run(capsys, command, *argv, "--tolerances",
                           '{"solve_cond_max": 1.5}', "--no-timestamp")
        assert code == report["exit_code"] == 4
        assert report["error"]["kind"] == "numeric"
        assert report["tool"]["name"] == "bischur"
        assert report["tolerances"]["solve_cond_max"] == 1.5
        assert report["tolerances_source"] == ["default", "flag"]


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
        assert report["verification"]["reason"] == (
            "derivative_checks[0], derivative_checks[1], derivative_checks[2], "
            "derivative_checks[3] did not converge")

    def test_unconverged_julia_liminf_exits_4(self, capsys, favourite_file, monkeypatch):
        unconverged(monkeypatch, boundary)
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1", "--no-timestamp")
        assert code == report["exit_code"] == 4
        assert all(check["converged"] for check in report["derivative_checks"])
        assert report["verification"]["pass"] is False
        assert report["verification"]["reason"] == "julia_liminf did not converge"

    def test_residual_above_the_bound_exits_4(self, capsys, favourite_file, monkeypatch):
        monkeypatch.setattr(cli, "RESIDUAL_MAX", 1e-30)
        code, report = run(capsys, "analyze", favourite_file, "--tau", "1,1", "--no-timestamp")
        assert code == report["exit_code"] == 4
        assert report["verification"]["pass"] is False
        assert report["verification"]["reason"] == "a residual maximum is not below 1e-30"

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
            "the difference quotients along deltas [0, 1, 2, 3, 4, 5] did not converge")
        assert checks["carapoint"]["pass"] is True and "reason" not in checks["carapoint"]

    def test_unconverged_carapoint_check_exits_5(self, capsys, measure_file, monkeypatch):
        unconverged(monkeypatch, boundary)
        code, report = run(capsys, "synth", measure_file, "--verify", "--no-timestamp")
        assert code == report["exit_code"] == 5
        checks = report["verification"]
        assert checks["slope"]["pass"] is True
        assert checks["carapoint"]["pass"] is False
        assert checks["carapoint"]["reason"] == (
            "the radial Julia liminf did not converge; "
            "the radial boundary value did not converge")


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

    def test_module_entry_point_reads_sys_argv(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "bischur.cli", "verify", "--random", "2",
             "--seed", "1", "--no-timestamp"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["seed"] == 1
        assert report["random"] == 2
