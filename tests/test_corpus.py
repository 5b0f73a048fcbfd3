"""tools/corpus.py on two seeds.  No digest is pinned: the last digits of a
report depend on numpy and its BLAS."""

import re
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "tools" / "corpus.py"


def test_corpus_prints_one_line_per_report_and_a_digest():
    run = subprocess.run([sys.executable, str(CORPUS), "--seeds", "3-4"],
                         capture_output=True, text=True, check=True)
    *reports, digest = run.stdout.splitlines()
    assert [line.split()[:3] for line in reports] == [
        ["3", "50", "0"], ["3", "7", "0"], ["4", "50", "0"], ["4", "7", "0"]]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[3]) for line in reports)
    assert len({line.split()[3] for line in reports}) == 4
    assert re.fullmatch(r"digest [0-9a-f]{64}", digest)
