"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --workloads cli-small,verify --seeds 1-10 --seconds 20
    python3 bench/collect.py --seeds 1-10 --baseline bench/baseline.json

Each run is a fresh `bench/run.py` process, started from the checkout root.  For
every workload and end-to-end metric this prints the median, the quartiles
and the spread (q3 - q1) / median of the runs.  ``--baseline`` also makes one
traced run per workload with the first seed and writes the environment, the
end-to-end figures and the per-layer metrics to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "OPENBLAS_NUM_THREADS=1, set by bench/run.py",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--baseline", default=None, help="write environment and figures here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    figures = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        figures[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {name: spread([r["metrics"][name]["value"] for r in runs])
                        for name in bounds},
        }
        print(f"{workload}: {figures[workload]['failed']} / "
              f"{figures[workload]['attempted']} jobs failed, "
              f"correct={figures[workload]['correct']}")
        for name, fig in figures[workload]["metrics"].items():
            flag = "" if fig["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"  {name:<14} median {fig['median']:<12.6g} q1 {fig['q1']:<12.6g} "
                  f"q3 {fig['q3']:<12.6g} spread {fig['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}")
    if args.baseline:
        for workload in figures:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            figures[workload]["per_layer"] = {
                name: value["value"] for name, value in traced["metrics"].items()}
        Path(args.baseline).write_text(json.dumps(
            {"environment": environment(), "seeds": seeds, "seconds": args.seconds,
             "workloads": figures}, indent=2) + "\n")


if __name__ == "__main__":
    main()
