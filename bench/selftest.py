"""Self-test of the benchmark.

    python3 bench/selftest.py

1. The checker passes its own sanity check on closed-form outputs.
2. The checker accepts a real output of the running example and rejects the
   same output with one atom weight, or the representation's b, off by 1e-3.
3. A short run of every workload, untraced and traced, ends with a result
   line that holds every metric named in BENCHMARK.json and reads
   ``correct: true``.
4. In a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKDIR = ROOT / ".bench_work" / "selftest"


def bench(cwd, workload, trace, seconds="0.5"):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_corruption(failures):
    sys.path.insert(0, str(ROOT / "src"))
    import bischur.cli as cli
    WORKDIR.mkdir(parents=True, exist_ok=True)
    job = workloads.pipeline_job(None, WORKDIR, "example", workloads.RUNNING_EXAMPLE,
                                  relocate=False)
    m, c = job.measure_path, job.colligation_path
    omega = f"--omega={workloads.complex_arg(job.omega)}"
    workloads.call_cli(cli, ["synth", m, "--tau=1,1", omega, "--out", c, "--no-timestamp"])
    _, analyzed, _, problem = workloads.call_cli(
        cli, ["analyze", c, "--tau=1,1", "--no-timestamp"])
    _, rep, _, problem2 = workloads.call_cli(cli, ["nevrep", m, omega, "--no-timestamp"])
    if problem or problem2:
        failures.append(f"running example failed: {problem or problem2}")
        return
    if checker.check_analyze(analyzed, job.atoms, job.omega)[0]:
        failures.append("checker rejects the running example's analyze report")
    if checker.check_nevrep(rep, job.atoms, job.omega)[0]:
        failures.append("checker rejects the running example's nevrep report")
    bad = copy.deepcopy(analyzed)
    bad["slope_measure"]["atoms"][0]["w"] += 1e-3
    if not checker.check_analyze(bad, job.atoms, job.omega)[0]:
        failures.append("checker accepts an analyze report with a weight off by 1e-3")
    bad = copy.deepcopy(rep)
    bad["rep"]["b"] += 1e-3
    if not checker.check_nevrep(bad, job.atoms, job.omega)[0]:
        failures.append("checker accepts a nevrep report with b off by 1e-3")


def main():
    failures = [f"selfcheck: {p}" for p in checker.selfcheck()]
    check_corruption(failures)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in SPEC[key]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            done = bench(ROOT, workload, trace)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{workload} --trace {trace}: no result line "
                                f"(exit {done.returncode}): {done.stderr[-300:]}")
                continue
            missing = names - set(result["metrics"])
            if done.returncode or missing or not result["correct"] or result["attempted"] < 1:
                failures.append(f"{workload} --trace {trace}: exit {done.returncode}, "
                                f"missing {sorted(missing)}, correct {result['correct']}")
            print(f"{workload} --trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['failed']} / {result['attempted']} jobs failed")
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(bare, SPEC["workloads"][0]["name"], 0)
    if done.returncode == 0 or '"correct"' in done.stdout:
        failures.append("benchmark runs without the program's sources")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
