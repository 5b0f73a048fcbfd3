"""tools/corpus.py on two seeds, two measures and one round of each cli-small
pool.  No digest is pinned: the last digits of a report depend on numpy and
its BLAS."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "tools" / "corpus.py"
# tools/corpus.py loaded in a fresh interpreter, whose cli-small set keeps
# one round of each pool: the corpus reimports bischur from the src it runs,
# which must not replace the modules of this test session
LOAD_ONE_ROUND = """
import functools, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("corpus", sys.argv[1])
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)
corpus.cli_small_reports = functools.partial(corpus.cli_small_reports, rounds=1)
"""
CALLS = ["synth", "synth_verify", "analyze", "nevrep"]


def run_corpus(code, *argv):
    return subprocess.run([sys.executable, "-c", LOAD_ONE_ROUND + code, str(CORPUS), *argv],
                          capture_output=True, text=True, check=True).stdout


def test_corpus_prints_one_line_per_report_and_a_digest():
    stdout = run_corpus("sys.exit(corpus.main(sys.argv[2:]))",
                        "--seeds", "3-4", "--measures", "2")
    lines = stdout.splitlines()
    assert [line.split()[:-1] for line in lines] == [
        ["verify", "3", "50", "0"], ["verify", "3", "7", "0"],
        ["verify", "4", "50", "0"], ["verify", "4", "7", "0"], ["digest", "verify"],
        ["pipeline", "0", "synth", "0"], ["pipeline", "0", "analyze", "0"],
        ["pipeline", "0", "nevrep", "0"], ["pipeline", "1", "synth", "0"],
        ["pipeline", "1", "analyze", "0"], ["pipeline", "1", "nevrep", "0"],
        ["digest", "pipeline"],
        *(["cli-small", str(seed), str(job), call, "0"]
          for seed in (1, 2, 3) for job in range(5) for call in CALLS),
        ["digest", "cli-small"]]
    digests = {tuple(line.split()[:-1]): line.split()[-1] for line in lines}
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in digests.values())
    # job 0 of every pool is the running example, the same four reports
    repeats = [key for key in digests if key[:3] in (("cli-small", "2", "0"),
                                                     ("cli-small", "3", "0"))]
    assert len(repeats) == 8 and all(
        digests[key] == digests[("cli-small", "1", *key[2:])] for key in repeats)
    unique = [digest for key, digest in digests.items() if key not in repeats]
    assert len(set(unique)) == len(unique)


def test_cli_small_set_runs_the_benchmark_calls_on_each_job():
    src = str(CORPUS.parent.parent / "src")
    stdout = run_corpus(f"print(json.dumps([[*key, code, json.loads(text)['exit_code']] for "
                        f"key, (code, text) in corpus.cli_small_reports({src!r}).items()]))")
    assert json.loads(stdout) == [["cli-small", seed, job, call, 0, 0]
                                  for seed in (1, 2, 3) for job in range(5) for call in CALLS]


def test_moves_name_each_field_with_its_largest_move():
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    old = {"a": {"x": 1.0, "y": [1.0, 2.0, 3.0]}, "flag": True, "note": "n", "z": None}
    new = {"a": {"x": 1.0, "y": [1.5, 2.0, 2.0]}, "flag": False, "note": "m", "z": None}
    assert corpus.moves(json.dumps(old), json.dumps(new)) == {
        "a.y[*]": 1.0, "flag": "changed", "note": "changed"}
    assert corpus.moves(json.dumps(old), json.dumps(old)) == {}
    assert corpus.moves(json.dumps(old), json.dumps({"a": 1})) == {
        "a.x": "removed", "a.y[*]": "removed", "flag": "removed", "note": "removed",
        "z": "removed", "a": "added"}
    # the fields both sides share are still compared when others come or go
    grown = {"a": {"x": 1.25, "y": [1.0, 2.0]}, "flag": True, "note": "n", "w": [0.5]}
    assert corpus.moves(json.dumps(old), json.dumps(grown)) == {
        "a.x": 0.25, "a.y[*]": "changed", "z": "removed", "w[*]": "added"}
    assert corpus.moves(json.dumps(old), "not json") == {"stdout": "changed"}
