"""The regression corpus: three sets of CLI reports, each with
``--no-timestamp`` and run in process.

    python3 tools/corpus.py [--seeds 0-199] [--measures 30] [--against REV]

The ``verify`` set is ``verify --random 50`` and ``verify --random 7`` on a
range of seeds.  The pipeline set draws measures from
``generate.random_measure`` of ``default_rng(5)``, each followed by a torus
point tau from the same generator, and runs on each ``synth --tau=tau
--omega=-1 --verify --out``, then ``analyze`` of the written colligation at
tau and ``nevrep --omega=-1`` of the measure.  Seeds 0-39 with 30 measures
give the 170-report corpus.  The measures are drawn by the package under
``src`` of this checkout, and each side writes them under relative names in a
fresh temporary directory and runs there, so the paths its reports name
agree.  The ``cli-small`` set is the benchmark's: the pools of seeds 1-3
that ``bench/workloads.py`` draws with ``cli_small(default_rng([seed, 0]),
".")``, 32 rounds of 5 jobs each, and on every job the four calls of its
``run_pipeline`` (``synth --out``, ``synth --verify``, ``analyze`` and
``nevrep``), 1 920 reports; it always runs, with this checkout's ``bench``
for both sides.

Prints one line per report: its set, its key, its exit code and the sha256 of
its stdout; after each set, one digest over that set's lines.  ``--against
REV`` runs the same corpus on the ``src`` of a ``git archive`` export of REV
and lists the reports whose stdout differs, each with every field that moved:
a number with its largest absolute move over the entries that field names
(array indices are folded into ``[*]``), anything else as ``changed``, and a
field on one side only as ``added`` or ``removed``.  The
exit status is then 1 when any report differs.  The tolerances are the CLI's,
so ``BISCHUR_TOLERANCES`` applies to both sides.  No digest is fixed
anywhere: the last digits depend on numpy and its BLAS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

RANDOM = (50, 7)
PIPELINE_SEED = 5
CLI_SMALL_SEEDS = (1, 2, 3)
OMEGA = "--omega=-1"
REPO = Path(__file__).resolve().parent.parent


def _seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _import_cli(src):
    """``bischur.cli`` imported afresh from the package under ``src``."""
    for name in [m for m in sys.modules if m == "bischur" or m.startswith("bischur.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("bischur.cli")
    finally:
        sys.path.remove(str(src))


def pipeline_inputs(count):
    """[(measure JSON text, --tau value)] of the first ``count`` pipelines,
    drawn by the package under this checkout's ``src``."""
    _import_cli(REPO / "src")
    generate = sys.modules["bischur.generate"]
    rng = np.random.default_rng(PIPELINE_SEED)
    inputs = []
    for _ in range(count):
        nu = generate.random_measure(rng)
        tau = generate.random_torus_point(rng)
        measure = {"atoms": [{"s": float(s), "w": float(w)} for s, w in nu.atoms]}
        tau_arg = ",".join(f"{z.real!r}{z.imag:+.17g}j" for z in map(complex, tau))
        inputs.append((json.dumps(measure), tau_arg))
    return inputs


def _call(cli, argv):
    """(exit code, stdout) of one in-process CLI call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--no-timestamp"])
    return code, stdout.getvalue()


@contextlib.contextmanager
def _inside(directory):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def reports(src, seeds, inputs):
    """{key: (exit code, stdout)} of the package under ``src``: keys
    ("verify", seed, random) and ("pipeline", index, command)."""
    cli = _import_cli(src)
    out = {}
    for seed in seeds:
        for n in RANDOM:
            out["verify", seed, n] = _call(cli, ["verify", "--random", str(n),
                                                 "--seed", str(seed)])
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        for i, (measure, tau) in enumerate(inputs):
            m, c = f"measure_{i:02d}.json", f"colligation_{i:02d}.json"
            Path(m).write_text(measure)
            out["pipeline", i, "synth"] = _call(cli, ["synth", m, f"--tau={tau}", OMEGA,
                                                      "--verify", "--out", c])
            out["pipeline", i, "analyze"] = _call(cli, ["analyze", c, f"--tau={tau}"])
            out["pipeline", i, "nevrep"] = _call(cli, ["nevrep", m, OMEGA])
    return out


def _workloads():
    """``bench/workloads.py`` of this checkout, imported with its ``bench``
    neighbours."""
    bench = str(REPO / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)


def cli_small_reports(src, rounds=None):
    """{key: (exit code, stdout)} of the package under ``src`` on the first
    ``rounds`` rounds (all by default) of each cli-small pool: keys
    ("cli-small", seed, job, call), the calls of ``run_pipeline``.  A call
    whose report cannot be read has its problem for an exit code."""
    cli, workloads = _import_cli(src), _workloads()
    out = {}
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        for seed in CLI_SMALL_SEEDS:
            pool = workloads.cli_small(np.random.default_rng([seed, 0]), ".")
            jobs = [job for round_ in pool[:rounds] for job in round_]
            for i, job in enumerate(jobs):
                for name, (_, report, text, problem), *_ in workloads.run_pipeline(
                        cli, job, workloads.Result()):
                    code = report.get("exit_code") if problem is None else problem
                    out["cli-small", seed, i, name] = code, text
    return out


def _leaves(node, path=""):
    """(field, value) for every scalar under a JSON node, in order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for value in node:
            yield from _leaves(value, f"{path}[*]")
    else:
        yield path, node


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fields(text):
    """{field: [its values, in order]} of a JSON text."""
    fields = {}
    for field, value in _leaves(json.loads(text)):
        fields.setdefault(field, []).append(value)
    return fields


def moves(old, new):
    """{field: largest absolute move, "changed", "added" or "removed"}
    between two reports' stdout; the field "stdout" when either is not JSON.
    A field on both sides is compared entry by entry, and is "changed" when
    it names another number of entries."""
    try:
        old, new = _fields(old), _fields(new)
    except ValueError:
        return {"stdout": "changed"}
    moved = {}
    for field, before in old.items():
        after = new.get(field)
        if after is None or len(after) != len(before):
            moved[field] = "removed" if after is None else "changed"
            continue
        for a, b in zip(before, after):
            if a == b or (a != a and b != b):   # equal, or both NaN
                continue
            if _is_number(a) and _is_number(b) and moved.get(field) != "changed":
                moved[field] = max(moved.get(field, 0.0), abs(a - b))
            else:
                moved[field] = "changed"
    moved.update((field, "added") for field in new if field not in old)
    return moved


def _export(rev, into):
    """The ``src`` directory of a ``git archive`` export of rev under into."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return Path(into) / "src"


def _name(key):
    return " ".join(map(str, key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-199"),
                        help="inclusive verify seed range, e.g. 0-199 (default) or 7")
    parser.add_argument("--measures", type=int, default=30,
                        help="measures of the pipeline set (default 30)")
    parser.add_argument("--against", metavar="REV",
                        help="also run REV's package and list the reports that differ")
    args = parser.parse_args(argv)
    inputs = pipeline_inputs(args.measures)
    ours = {**reports(REPO / "src", args.seeds, inputs), **cli_small_reports(REPO / "src")}
    for kind in ("verify", "pipeline", "cli-small"):
        lines = [f"{_name(key)} {code} {hashlib.sha256(text.encode()).hexdigest()}"
                 for key, (code, text) in ours.items() if key[0] == kind]
        print("\n".join(lines))
        print("digest", kind, hashlib.sha256("\n".join(lines).encode()).hexdigest())
    if not args.against:
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        src = _export(args.against, tmp)
        theirs = {**reports(src, args.seeds, inputs), **cli_small_reports(src)}
    differ = [key for key in ours if ours[key] != theirs[key]]
    for key in differ:
        print(f"differs: {_name(key)}: exit {theirs[key][0]} -> {ours[key][0]}")
        for field, move in moves(theirs[key][1], ours[key][1]).items():
            print(f"  {field} {move if isinstance(move, str) else f'{move:.3g}'}")
    print(f"{len(ours) - len(differ)} of {len(ours)} reports identical to {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
