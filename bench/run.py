"""bischur benchmark: one workload, one process, a closed loop of jobs.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run repeats whole rounds of the workload
until ``--seconds`` have passed and every round of its pool has run, and
reports the end-to-end metrics.  With ``--trace 1`` it runs a fixed set of
rounds twice each, untraced and traced in alternating order, and reports the
per-layer metrics of the traced pass, the tracing overhead, and the outcome of
the workload's known-defect probes.  Every output is checked against closed
forms outside the timed calls.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts the
measured jobs with a failed call or a rejected output; ``correct`` is true
only when no measured job failed and the checker passed its own sanity check.
"""

from __future__ import annotations

import argparse
import json
import os

# One BLAS thread.  The measured jobs work on models of dimension at most 8,
# where a second thread does no useful work, and on a shared VM its
# spin-waits make CPU time follow the neighbours' load.  Set before numpy is
# first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
TRACE_PAIRS = 4      # rounds run once untraced and once traced
CALLS = ("synth", "synth_verify", "analyze", "nevrep")

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.process_time(); import bischur.cli; "
                 "print(time.process_time() - t)")


def measure_setup(repeats):
    """CPU times of `repeats` cold `import bischur.cli`, each in a fresh
    interpreter."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    11th-largest value.  With fewer than 11 samples, the largest."""
    ordered = sorted(values, reverse=True)
    n = len(ordered)
    if n < 11:
        return ordered[0], f"max (only {n} samples, fewer than 11)"
    return ordered[10], f"p{100.0 * (n - 10) / n:.1f} (11th largest of {n}, 10 beyond)"


def run_round(bischur, jobs, tracer=None):
    return [workloads.run_job(bischur, job, tracer) for job in jobs]


# The reference: a fixed computation of the kind the program does (small
# complex factorizations and solves, Python loops, JSON), whose CPU time
# measures how fast the host runs such code at the moment.
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((8, 8)) + 1j * _REF_RNG.standard_normal((8, 8))
REF_REPEATS = 200


def reference():
    """CPU time of one run of the reference computation."""
    start = process_time()
    for _ in range(REF_REPEATS):
        _, s, _ = np.linalg.svd(_REF_MATRIX)
        x = np.linalg.solve(_REF_MATRIX, _REF_MATRIX[:, 0])
        acc = 0.0
        for k, v in enumerate(s):
            acc += k * float(v) + abs(complex(x[k]))
        json.dumps({"s": [float(v) for v in s], "acc": acc})
    return process_time() - start


def run_rounds(bischur, rounds, seconds):
    """Run whole rounds, cycling through the pool, until `seconds` of wall
    time have passed and every round of the pool has run at least once.  The
    reference runs before each round.  Returns the rounds' results and the
    reference's CPU times."""
    done, ref_s = [], []
    start = perf_counter()
    while len(done) < len(rounds) or perf_counter() - start < seconds:
        ref_s.append(reference())
        done.append(run_round(bischur, rounds[len(done) % len(rounds)]))
    return done, ref_s


def end_to_end(done, ref_s, pool, setup_s):
    """`done` cycles through a pool of `pool` rounds, and `ref_s[i]` is the
    reference's CPU time just before round i.

    Other tenants of a shared host slow the CPU by up to half, for tens of
    seconds at a time, and a run cannot outlast that.  The bounded round
    cost is therefore the rounds' CPU time over the reference's, which the
    same slowdown stretches alike.  Each round of the pool counts once,
    however many times it ran: the figure is the mean over the pool of each
    round's CPU time over the reference's CPU time beside it."""
    results = [r for results in done for r in results]
    cpu_s = [sum(r.cpu for r in results) for results in done]
    rel = statistics.fmean(sum(cpu_s[i::pool]) / sum(ref_s[i::pool]) for i in range(pool))
    job_s = [r.cpu for r in results]
    wall_s = sum(r.seconds for r in results)
    n, k = len(cpu_s), len(job_s)
    round_tail, round_note = tail(cpu_s)
    job_tail, job_note = tail(job_s)
    failed = sum(bool(r.errors) for r in results)
    rows = [
        ("setup_s", setup_s, "s",
         f"median CPU time of {SETUP_REPEATS} cold imports of bischur.cli, "
         "half before and half after the timed rounds"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "peak resident memory of this process"),
        ("round_cpu_rel", rel, "ratio",
         f"round CPU time over reference CPU time, mean over the {pool} rounds of the pool, "
         f"{n} rounds run"),
    ]
    extra = [
        ("ref_cpu_s.mean", statistics.fmean(ref_s), "s",
         f"mean CPU time of {n} runs of the reference; it rises when other tenants load the host"),
        ("round_cpu_s.mean", statistics.fmean(cpu_s), "s", f"mean CPU time of {n} rounds"),
        ("round_cpu_s.p50", statistics.median(cpu_s), "s", f"median CPU time of {n} rounds"),
        ("round_cpu_s.tail", round_tail, "s", f"CPU time, {round_note}"),
        ("round_wall_s.p50", statistics.median(sum(r.seconds for r in rs) for rs in done), "s",
         f"median wall time of {n} rounds"),
        ("cpu_share", sum(cpu_s) / wall_s, "ratio",
         "CPU over wall time of the timed calls; below 1 when other tenants hold the CPU"),
        ("jobs_per_s", k / wall_s, "1/s", f"{k} jobs over {wall_s:.3f} s of wall time"),
        ("job_cpu_s.p50", statistics.median(job_s), "s", f"median CPU time of {k} jobs"),
        ("job_cpu_s.tail", job_tail, "s", f"CPU time, {job_note}"),
        ("fail_rate", failed / k, "ratio", f"{failed} / {k} jobs failed"),
    ] + [(f"{name}_cpu_s.p50", value, "s", f"median CPU time of {k} calls")
         for name, value in per_call(results).items()]
    return rows, extra


def per_call(results):
    return {name: statistics.median(r.calls[name] for r in results)
            for name in CALLS if all(name in r.calls for r in results)}


# the per-layer metrics and their units, as BENCHMARK.json names them
LAYER_METRICS = [(m["name"], m["unit"])
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def per_layer(tracer, pairs, probes):
    """Per-layer metrics of the traced rounds, the tracing overhead, the
    untraced figures that have no bound, and the defect probes' outcome."""
    traced = [r for _, results in pairs for r in results]
    untraced = [r for results, _ in pairs for r in results]
    values = Counter()
    for name, (calls, busy) in tracer.self_times().items():
        layer = name.split(".")[0]
        values[f"{name}.calls"] += calls
        values[f"{name}.busy_s"] += busy
        values[f"{layer}.busy_s"] += busy
    values["cli.self_s"] = values["cli.busy_s"]
    for key, count in tracer.counts.items():
        values[key] = count
    refine = tracer.counts.get("limits.refine_to_limit.calls", 0)
    values["limits.converged_ratio"] = (
        (refine - tracer.counts.get("limits.unconverged", 0)) / refine if refine else 0.0)
    values["desingularize.rank_gap_warnings"] = sum(r.rank_gap_warnings for r in traced)
    values["serialization.bytes"] = sum(r.bytes for r in traced)
    for key in ("measure_err", "liminf_err", "boundary_value_err", "rep_err",
                "stieltjes_rel_err"):
        values[f"check.{key}_max"] = max((r.figures.get(key, 0.0) for r in traced), default=0.0)
    values["check.measure_count_mismatch"] = sum(
        r.figures.get("measure_count_mismatch", 0) for r in traced)
    values["trace.overhead"] = statistics.median(
        sum(r.cpu for r in on) / sum(r.cpu for r in off) for off, on in pairs) - 1
    values["fail_rate"] = sum(bool(r.errors) for r in untraced) / len(untraced)
    for name, value in per_call(untraced).items():
        values[f"{name}_cpu_s.p50"] = value
    values["defects.attempted"] = len(probes)
    values["defects.failed"] = sum(bool(r.errors) for r in probes)
    notes = {"trace.overhead": f"median over {len(pairs)} pairs of rounds, "
                               "traced / untraced CPU time - 1, order alternating",
             "fail_rate": f"{sum(bool(r.errors) for r in untraced)} / {len(untraced)} "
                          "untraced jobs failed",
             "defects.failed": f"of {len(probes)} inputs known to fail at the seed commit"}
    return [(name, float(values.get(name, 0.0)), unit, notes.get(name, ""))
            for name, unit in LAYER_METRICS]


def run_traced(bischur, rounds, tracer):
    """TRACE_PAIRS rounds, each run untraced and traced; the order alternates,
    so a drift in the machine's speed favours neither pass.  Returns
    (untraced, traced) result lists, one pair per round."""
    pairs = []
    for r in range(TRACE_PAIRS):
        jobs = rounds[r % len(rounds)]
        pair = {}
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    pair[traced] = run_round(bischur, jobs, tracer)
                finally:
                    tracer.uninstall()
            else:
                pair[traced] = run_round(bischur, jobs)
        pairs.append((pair[False], pair[True]))
    return pairs


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<46} {value:>14.6g} {unit:<6} {note}")


def report_failures(results, label):
    reasons = Counter(e[:120] for r in results for e in r.errors)
    for reason, count in reasons.most_common(10):
        print(f"  {label} x{count}: {reason}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bischur" / "cli.py").is_file():
        print(f"bench: no bischur sources under {SRC}", file=sys.stderr)
        return 2
    # On a shared host, other tenants slow the CPU in bursts of seconds.
    # Half the set-up samples before the timed passes and half after them
    # span more of those bursts than one block would.
    setup_times = measure_setup(SETUP_REPEATS // 2 + 1)
    sys.path.insert(0, str(SRC))
    import bischur
    import bischur.cli  # noqa: F401  (the CLI entry point the jobs call)
    if Path(bischur.__file__).resolve().parent != SRC / "bischur":
        print(f"bench: imported bischur from {bischur.__file__}, not {SRC}", file=sys.stderr)
        return 2

    problems = checker.selfcheck()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = np.random.default_rng([args.seed, sorted(workloads.WORKLOADS).index(args.workload)])
        rounds = workloads.WORKLOADS[args.workload](rng, workdir)
        workloads.run_job(bischur, rounds[0][0])  # warm-up: lazy set-up, not measured
        title = f"workload {args.workload}  seed {args.seed}  closed loop, 1 client"
        if args.trace == 0:
            done, ref_s = run_rounds(bischur, rounds, args.seconds)
            setup_times += measure_setup(SETUP_REPEATS // 2)
            rows, extra = end_to_end(done, ref_s, len(rounds), statistics.median(setup_times))
            print_table(f"{title}  untraced  {len(done)} rounds", rows + extra)
        else:
            tracer = Tracer()
            pairs = run_traced(bischur, rounds, tracer)
            tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json")
            # not measured, and not counted in attempted/failed: they show the
            # known defects without making every run fail
            probes = [workloads.run_job(bischur, job)
                      for job in workloads.defect_probes(args.workload, rng, workdir)]
            rows = per_layer(tracer, pairs, probes)
            print_table(f"{title}  traced  {len(pairs)} pairs of rounds", rows)
            report_failures(probes, "known defect")
            done = [results for pair in pairs for results in pair]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = [r for results in done for r in results]
    failed = sum(bool(r.errors) for r in measured)
    report_failures(measured, "failed")
    for problem in problems:
        print(f"  checker unsound: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
