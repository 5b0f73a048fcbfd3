"""tools/corpus.py on two seeds and two measures.  No digest is pinned: the
last digits of a report depend on numpy and its BLAS."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "tools" / "corpus.py"


def test_corpus_prints_one_line_per_report_and_a_digest():
    run = subprocess.run([sys.executable, str(CORPUS), "--seeds", "3-4", "--measures", "2"],
                         capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert [line.split()[:-1] for line in lines] == [
        ["verify", "3", "50", "0"], ["verify", "3", "7", "0"],
        ["verify", "4", "50", "0"], ["verify", "4", "7", "0"], ["digest", "verify"],
        ["pipeline", "0", "synth", "0"], ["pipeline", "0", "analyze", "0"],
        ["pipeline", "0", "nevrep", "0"], ["pipeline", "1", "synth", "0"],
        ["pipeline", "1", "analyze", "0"], ["pipeline", "1", "nevrep", "0"],
        ["digest", "pipeline"]]
    digests = [line.split()[-1] for line in lines]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in digests)
    assert len(set(digests)) == len(digests)


def test_moves_name_each_field_with_its_largest_move():
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    old = {"a": {"x": 1.0, "y": [1.0, 2.0, 3.0]}, "flag": True, "note": "n", "z": None}
    new = {"a": {"x": 1.0, "y": [1.5, 2.0, 2.0]}, "flag": False, "note": "m", "z": None}
    assert corpus.moves(json.dumps(old), json.dumps(new)) == {
        "a.y[*]": 1.0, "flag": "changed", "note": "changed"}
    assert corpus.moves(json.dumps(old), json.dumps(old)) == {}
    assert corpus.moves(json.dumps(old), json.dumps({"a": 1})) == {"stdout": "changed"}
    assert corpus.moves(json.dumps(old), "not json") == {"stdout": "changed"}
