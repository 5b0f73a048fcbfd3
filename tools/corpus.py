"""The verify regression corpus: ``verify --random 50`` and ``verify --random 7``
with ``--no-timestamp`` on a range of seeds, run in process.

    python3 tools/corpus.py [--seeds 0-199] [--against REV]

Prints one line per report, ``seed random exit_code sha256`` of its stdout,
then one sha256 over those lines.  ``--against REV`` runs the same corpus on
the ``src`` of a ``git archive`` export of REV and lists the reports whose
stdout differs; the exit status is then 1 when any does.  The tolerances are
the CLI's, so ``BISCHUR_TOLERANCES`` applies to both sides.  No digest is
fixed anywhere: the last digits depend on numpy and its BLAS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

RANDOM = (50, 7)
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


def reports(src, seeds):
    """{(seed, random): (exit code, sha256 of stdout)} of the package under ``src``."""
    cli = _import_cli(src)
    out = {}
    for seed in seeds:
        for n in RANDOM:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["verify", "--random", str(n), "--seed", str(seed),
                                 "--no-timestamp"])
            out[seed, n] = code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return out


def _export(rev, into):
    """The ``src`` directory of a ``git archive`` export of rev under into."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return Path(into) / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-199"),
                        help="inclusive seed range, e.g. 0-199 (default) or 7")
    parser.add_argument("--against", metavar="REV",
                        help="also run REV's package and list the reports that differ")
    args = parser.parse_args(argv)
    ours = reports(REPO / "src", args.seeds)
    lines = [f"{seed} {n} {code} {digest}" for (seed, n), (code, digest) in ours.items()]
    print("\n".join(lines))
    print("digest", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    if not args.against:
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        theirs = reports(_export(args.against, tmp), args.seeds)
    differ = [key for key in ours if ours[key] != theirs[key]]
    for seed, n in differ:
        print(f"differs: seed {seed} --random {n}: exit {theirs[seed, n][0]} -> {ours[seed, n][0]}")
    print(f"{len(ours) - len(differ)} of {len(ours)} reports identical to {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
