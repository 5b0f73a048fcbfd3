"""Seeded inputs and one-job runners for the three workloads.

Inputs are generated from the workload seed and written to disk before any
timing starts; the program sees only those files and its argv.  A workload is
a pool of rounds, each round a fixed list of jobs with the same mix of sizes,
so every run measures whole rounds of the same mix.

Every job here passes at the seed commit of the benchmark, so a measured run
fails no job unless the program regresses.  The inputs on which the program
is known to fail are kept apart in ``defect_probes``.
"""

from __future__ import annotations

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import checker

RUNNING_EXAMPLE = ((0.5, 1.0),)     # the slope measure of the running example
STIELTJES_YS = tuple(0.1 * 2.0 ** -k for k in range(11))   # acceptance criterion 05
STIELTJES_HALF_WIDTH = 12.5 * STIELTJES_YS[0]  # at least ten times ys[0]
VERIFY_RANDOM = 50
# Rounds in each workload's pool.  The cost of a round depends on its seeded
# inputs (coefficient of variation about 0.2), so the pool is as large as a
# 25 s run allows, and its mean moves little from seed to seed.  One pass
# takes 7 to 22 CPU seconds, as the host's load varies.
POOL_ROUNDS = {"cli-small": 32, "verify": 16, "stieltjes": 24}
# `verify --random 50` passes every suite with each of these seeds at the seed
# commit.  About one seed in 150 does not (the slope_liminf defect); those
# found are in VERIFY_FAILING_SEEDS.
VERIFY_SEEDS = np.arange(200)
VERIFY_FAILING_SEEDS = (2073717989, 142777980)
RANK_GAP_TEXT = "sit just above the rank cutoff"
# Least distance between the s of two atoms of a measured pipeline.  At the
# seed commit, synthesis returns a wrong measure when atoms crowd together:
# four atoms 0.003 apart failed 25 of 25 pipelines, 0.007 apart 6 of 30, and
# 0.01 apart none of 40.  Crowded measures are kept in `defect_probes`.
MIN_GAP = 0.03
CROWD_GAP = 0.003


def complex_arg(z: complex) -> str:
    """A complex number as the CLI parses it, with every digit."""
    return f"{float(z.real)!r}{float(z.imag):+.17g}j"


@dataclass
class Job:
    kind: str                 # "pipeline", "verify" or "stieltjes"
    atoms: tuple = ()         # prescribed measure, sorted (s, w) pairs
    tau: str = "1,1"          # --tau= argument
    omega: complex = -1.0     # prescribed boundary value, never 1
    measure_path: str = ""
    colligation_path: str = ""
    seed: int = 0             # verify --seed=
    windows: tuple = ()       # stieltjes: (lo, hi, s, w) per atom


@dataclass
class Result:
    seconds: float = 0.0                      # wall time: the sum of the call times
    cpu: float = 0.0                          # process CPU time of the same calls
    calls: dict = field(default_factory=dict)  # call name -> seconds
    errors: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    bytes: int = 0                             # JSON read, written and printed
    rank_gap_warnings: int = 0


# ----------------------------------------------------------------- inputs


def _measure(rng, n, gap=MIN_GAP):
    """n atoms: s uniform on [0, 1) given that neighbours are at least `gap`
    apart, w uniform on [0.1, 2)."""
    s = np.sort(rng.uniform(size=n)) * (1.0 - (n - 1) * gap) + gap * np.arange(n)
    w = rng.uniform(0.1, 2.0, size=n)
    return tuple(zip(map(float, s), map(float, w)))


def _unimodular(rng):
    # keep omega away from 1, where nevrep reports the obstruction
    return complex(np.exp(1j * rng.uniform(0.5, 2.0 * np.pi - 0.5)))


def pipeline_job(rng, workdir, name, atoms, relocate=True):
    path = Path(workdir) / f"{name}.m.json"
    path.write_text(json.dumps({"atoms": [{"s": s, "w": w} for s, w in atoms]}))
    if relocate:
        tau = ",".join(complex_arg(np.exp(1j * a)) for a in rng.uniform(0, 2 * np.pi, 2))
        omega = _unimodular(rng)
    else:
        tau, omega = "1,1", -1.0 + 0j
    return Job("pipeline", atoms, tau, omega, str(path),
               str(Path(workdir) / f"{name}.c.json"))


def cli_small(rng, workdir):
    """Each round: the running example, then seeded measures of 1, 2, 3 and 4
    atoms, at least MIN_GAP apart, at seeded torus points."""
    return [[pipeline_job(rng, workdir, f"r{r}n0", RUNNING_EXAMPLE, relocate=False)]
            + [pipeline_job(rng, workdir, f"r{r}n{n}", _measure(rng, n)) for n in (1, 2, 3, 4)]
            for r in range(POOL_ROUNDS["cli-small"])]


def verify(rng, workdir):
    """Each round: `verify --random 50` with two seeds drawn from
    VERIFY_SEEDS."""
    seeds = rng.choice(VERIFY_SEEDS, size=2 * POOL_ROUNDS["verify"], replace=False)
    return [[Job("verify", seed=int(seed)) for seed in pair] for pair in seeds.reshape(-1, 2)]


def _stieltjes_job(rng, n):
    """A measure of n atoms whose Nevanlinna locations t = 1 - 1/s are spaced
    so that every window between neighbours keeps a half-width of at least
    ten times ys[0]."""
    gaps = rng.uniform(2.0, 3.5, size=n) * STIELTJES_HALF_WIDTH
    ts = sorted(-(rng.uniform(0.2, 2.0) + np.cumsum(gaps) - gaps[0]))
    ws = rng.uniform(0.1, 2.0, size=n)
    windows = []
    for i, t in enumerate(ts):
        lo = 0.5 * (ts[i - 1] + t) if i else t - STIELTJES_HALF_WIDTH
        hi = 0.5 * (ts[i + 1] + t) if i + 1 < n else t + STIELTJES_HALF_WIDTH
        windows.append((lo, hi, 1.0 / (1.0 - t), float(ws[i])))
    return Job("stieltjes", atoms=tuple((s, w) for _, _, s, w in windows),
               windows=tuple(windows))


def stieltjes(rng, workdir):
    """Each round: two measures of n and 6 - n atoms, n cycling through 1..5,
    so every round recovers six atoms."""
    return [[_stieltjes_job(rng, n), _stieltjes_job(rng, 6 - n)]
            for n in (1 + r % 5 for r in range(POOL_ROUNDS["stieltjes"]))]


WORKLOADS = {"cli-small": cli_small, "verify": verify, "stieltjes": stieltjes}


def defect_probes(workload, rng, workdir):
    """Inputs on which the program is known to fail, run once per traced run
    and reported apart from the measured jobs.  cli-small: pipelines of 12 and
    30 atoms, where the fit returns a wrong measure and nevrep exits 4, and of
    four atoms CROWD_GAP apart, where analyze returns a wrong measure.
    verify: seeds whose desingularization suite misses its slope_liminf bound."""
    if workload == "cli-small":
        crowd = rng.uniform(0.0, 1.0 - 3 * CROWD_GAP) + CROWD_GAP * np.arange(4)
        crowd = tuple(zip(map(float, crowd), map(float, rng.uniform(0.1, 2.0, size=4))))
        return ([pipeline_job(rng, workdir, f"defect{n}", _measure(rng, n, gap=0.0))
                 for n in (12, 30)]
                + [pipeline_job(rng, workdir, "defect-crowded", crowd)])
    if workload == "verify":
        return [Job("verify", seed=seed) for seed in VERIFY_FAILING_SEEDS]
    return []


# ----------------------------------------------------------------- running


def _elapsed(start):
    """(wall, CPU) seconds since `start`, a (perf_counter, process_time) pair."""
    return perf_counter() - start[0], process_time() - start[1]


def call_cli(cli, argv):
    """One in-process CLI call: ((wall, CPU) seconds, parsed report, stdout,
    problem)."""
    out, err = io.StringIO(), io.StringIO()
    problem = None
    start = perf_counter(), process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code, problem = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:
        code, problem = None, f"{type(exc).__name__}: {exc}"
    seconds = _elapsed(start)
    text = out.getvalue()
    report = None
    if problem is None:
        try:
            report = json.loads(text)
        except ValueError as exc:
            problem = f"unparseable report: {exc}"
        else:
            if report.get("exit_code", code) != code:
                problem = f"returned {code} but reported exit_code {report.get('exit_code')}"
    return seconds, report, text, problem


def _record(result, name, call, check, *check_args):
    (wall, cpu), report, text, problem = call
    result.calls[name] = result.calls.get(name, 0.0) + cpu
    result.seconds += wall
    result.cpu += cpu
    result.bytes += len(text)
    if problem is not None:
        result.errors.append(f"{name}: {problem}")
        return
    try:
        errors, figures = check(report, *check_args)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        errors, figures = [f"output not in the documented schema: {exc!r}"], {}
    result.errors.extend(f"{name}: {e}" for e in errors)
    for key, value in figures.items():
        result.figures[key] = max(result.figures.get(key, 0.0), value)


def _size(path):
    p = Path(path)
    return p.stat().st_size if p.exists() else 0


def run_pipeline(cli, job, result):
    Path(job.colligation_path).unlink(missing_ok=True)
    m, c = job.measure_path, job.colligation_path
    tau, omega = f"--tau={job.tau}", f"--omega={complex_arg(job.omega)}"
    # collect every call first, check afterwards: checking is not timed
    calls = [
        ("synth", call_cli(cli, ["synth", m, tau, omega, "--out", c, "--no-timestamp"]),
         checker.check_synth_out, job.atoms),
        ("synth_verify", call_cli(cli, ["synth", m, tau, omega, "--verify", "--no-timestamp"]),
         checker.check_synth_verify, job.atoms, job.omega),
        ("analyze", call_cli(cli, ["analyze", c, tau, "--no-timestamp"]),
         checker.check_analyze, job.atoms, job.omega),
        ("nevrep", call_cli(cli, ["nevrep", m, omega, "--no-timestamp"]),
         checker.check_nevrep, job.atoms, job.omega),
    ]
    result.bytes += 3 * _size(m) + 2 * _size(c)
    return calls


def run_verify(cli, job, result):
    return [("verify", call_cli(cli, ["verify", "--random", str(VERIFY_RANDOM),
                                   f"--seed={job.seed}", "--no-timestamp"]),
             checker.check_verify, VERIFY_RANDOM, job.seed)]


def run_stieltjes(bischur, job, result):
    """Library job: recover each atom's (1 + t^2) m over its window."""
    reps = bischur.representations
    start = perf_counter(), process_time()
    try:
        nd = reps.nevanlinna_from_measure(bischur.DiscreteMeasure01(job.atoms))
    except Exception as exc:
        result.errors.append(f"nevanlinna_from_measure: {type(exc).__name__}: {exc}")
        return []
    finally:
        wall, cpu = _elapsed(start)
        result.seconds += wall
        result.cpu += cpu
    calls = []
    for lo, hi, s, w in job.windows:
        problem, mass = None, None
        start = perf_counter(), process_time()
        try:
            mass = reps.stieltjes_recover(lambda z: reps.h_from_nevanlinna(nd, z),
                                          lo, hi, STIELTJES_YS)
        except Exception as exc:
            problem = f"window ({lo:.3f}, {hi:.3f}): {type(exc).__name__}: {exc}"
        calls.append(("stieltjes", (_elapsed(start), mass, "", problem),
                      checker.check_stieltjes, s, w))
    return calls


RUNNERS = {"pipeline": run_pipeline, "verify": run_verify, "stieltjes": run_stieltjes}


def run_job(bischur, job, tracer=None):
    """Run one job, then check its outputs outside the timed calls."""
    result = Result()
    target = bischur if job.kind == "stieltjes" else bischur.cli
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.start_job()
        try:
            calls = RUNNERS[job.kind](target, job, result)
        finally:
            if tracer is not None:
                tracer.job = None
    result.rank_gap_warnings = sum(RANK_GAP_TEXT in str(w.message) for w in caught)
    for name, call, check, *args in calls:
        _record(result, name, call, check, *args)
    return result
