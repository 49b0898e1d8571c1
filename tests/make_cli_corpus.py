"""Write tests/cli_corpus.json: what `bvis` prints for a fixed set of command lines.

    python tests/make_cli_corpus.py

Each command runs as ``python -m bvis.cli`` in a fresh process, with this
interpreter and the tree's ``src`` first on PYTHONPATH.  An entry holds the
argv, the exit code, stderr, and stdout: verbatim up to STDOUT_INLINE bytes,
above that as its sha256 and byte count.  `bvis verify` prints a time
column, which every entry stores masked.  tests/test_cli.py replays the
corpus in process, one test case per entry.  Regenerate it only to record
a change of output that is meant, and list each changed entry in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
CORPUS = TESTS / "cli_corpus.json"
STDOUT_INLINE = 2048
WORKLOADS_SEED = 1

_TIME_COLUMN = re.compile(r" +\d+\.\d\ds  ")


def masked(argv: list[str], stdout: str) -> str:
    """stdout with `bvis verify`'s time column cut out of every line."""
    if argv[:1] != ["verify"]:
        return stdout
    return "".join(_TIME_COLUMN.sub("  ", line, count=1) for line in stdout.splitlines(keepends=True))


def stdout_fields(stdout: str) -> dict:
    """The stdout part of an entry: the text itself, or its digest when long."""
    data = stdout.encode()
    if len(data) <= STDOUT_INLINE:
        return {"stdout": stdout}
    return {"stdout_sha256": hashlib.sha256(data).hexdigest(), "stdout_bytes": len(data)}


def _workload_commands() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [job.args for name in workloads.WORKLOADS for job in workloads.build(name, WORKLOADS_SEED)]


_USAGE_ERRORS = (
    # the choice of --N or --box is checked before the exponent spec
    "count --b 1,x",
    "sieve --b 1,x",
    "count --b 1,x --box 3",
    "count --b 1,1 --box 3",
    "count --b 1,1 --box 3,x",
    "count --b 1,1 --N 0",
    "density --b 1,1 --N 0",
    "density --b 1,x --N 0",
    "density --b 2/3,2/3 --N 0",  # a bad N is reported before the shared-gcd note
    "check --b 1,2 --point 1,2,3",
    "density --b 0,1/2 --N 10",
    "check --b 1/0,1 --point 4,6",
    "check --b 1,x --point 1,2",
    "check --b 2/3,1/2 --point 16,7 --expanded",
    "count --b 1,1 --N 5 --box 5,5",
    "sieve --b 1,1 --N 3 --limit 0",
    "sieve --b 1,1 --N 3 --limit -1",
    "zeta --s 1",
    "zeta --s 2 --tol inf --format json",  # the tail bound would be inf, which json.dumps writes as Infinity
)

# numerators with a common factor G: every family divides them by G
_SHARED_GCD = (
    "count --b 2/3,-2/3 --box 8,4",
    "density --b 2/3,-2/3 --N 100",
    "check --b 2/3,2/3 --point 2,3",
    "check --b 2,-2 --point 1,2",  # t = sqrt(2) maps (1, 2) to (2, 1): a witness for p = 2
    "density --b 2/3,2/3 --N 1000",  # the stderr note for a rational vector
    "count --b 6,-4,-2 --box 30,30,30",
)

_REFUSALS = (
    f"density --b 1,1 --N {10**30}",
    "zeta --s 2 --euler-limit 300000000",
    "zeta --s 5 --euler-limit 300000000",
    "sieve --N 4000 --b 1,1",
    "sieve --b 1,1 --N 30 --limit 100",
    f"check --b 1,1 --point {2**90 - 33},{2 * (2**90 - 33)}",
)

_OUTPUTS = (
    "sieve --b 1,1 --box 5,0",
    "sieve --b 1,1 --box 5,0 --format csv",
    "sieve --b 1,1 --box 5,0 --format json",
    "sieve --b 2/3,1/2 --box 4,4",
    "sieve --b 1,-2 --box 3,5 --format csv",
    "sieve --b 1,1 --N 3 --format json",
    "sieve --b 1,1 --N 30 --limit 1000 --format json",
    "count --b 1,1 --box 0,5",
    "count --b 1,-9 --N 10",  # 2**9 > 10: every point is visible
    "count --b 2/3,1/2 --box 8,4 --format csv",
    "density --b 2,4 --N 50 --format csv",
    "density --b 1 --N 10",
    "zeta --s 3 --format json",
    "check --b 2/3,1/2 --point 16,8 --expanded --format csv",
    "check --b 1,1 --point 4,6 --expanded --format json",  # --expanded takes every vector
    "check --b 1,-2 --point 4,6 --expanded",  # alpha = 1, so each point is its own base
    "check --b 1,2 --point 4,8 --expanded",  # as without --expanded
    "verify --profile quick",
)

# The option grammar: negative values, --opt=value, repeats, and malformed lines.
_PARSER = (
    "check --b -1,2 --point 4,6",
    "check --b=-1,2 --point 4,6",
    "check --b 1,1 --b 2,4,3,7 --point 4,16,40,128",
    "check --point=4,16,40,128 --format=json --b=2,4,3,7",
    "check --b 1,1 --point 4,6 --form json",
    "density --b 1,1 --N 1e4",
    "zeta --s 2 --tol x",
    "check --b 1,1 --point 4,6 --format xml",
    "verify --profile bad",
    "bogus",
    "",
    "--bogus",
    "check --b 1,1",
    "check",
    "check --b 1,1 --point 4,6 extra",
    "check --b 1,1 --point 4,6 --case",  # no such option: one rule reads every vector
    "check --b 1,1 --point 4,6 --expanded=1",
    "--version",
)

_FORMATS = ("plain", "json", "csv")

# check in every format: a visible and an invisible point of each family
_CHECK = tuple(
    f"check {args} --format {fmt}"
    for args in (
        "--b 2,4,3,7 --point 4,16,40,128",
        "--b 2,4,3,7 --point 1,1,5,1",
        # (16,8) = (4**2, 2**3) sits over the base (4,2), which 2 witnesses (2**2 | 4 and 2 | 2)
        "--b 2/3,1/2 --point 16,8 --expanded",
        "--b 2/3,1/2 --point 9,8 --expanded",
        "--b 1,-2 --point 5,4",  # t = 2 maps (5, 4) to (10, 1)
        "--b 1,-2 --point 5,6",
        "--b 3,-2,-3 --point 8,4,4",  # 2**2 | 4 but 2**3 does not divide 4
    )
    for fmt in _FORMATS
)

# small outputs of each command, with --format left out or given
_MORE_OUTPUTS = (
    "check --b 2,4,3,7 --point 1,1,5,1",
    "check --b 2,4,3,7 --point 4,16,40,128",
    "count --b 1,-2 --box 8,4 --format json",
    "count --b 2/3,1/2 --box 8,4 --format json",
    "count --b 1,1",  # neither --N nor --box
    "density --b 1/2,2/3 --N 50",
    "density --b 1/2,2/3 --N 50 --format csv",  # with it, every command has every format in every family
    "sieve --N 3 --b 1,1",
    "sieve --N 3 --b 1,1 --format json",
    "sieve --N 3 --b 1,1 --format csv",
    "sieve --b 2/3,1/2 --box 4,4 --format csv",  # numerators (2, 1): 2**2 | 4 and 2 | 2
    "sieve --b 1,-2 --box 3,5",  # only the second coordinate decides: 4 = 2**2 drops out
    "sieve --b 1,1 --box 5,0 --format plain",
    # --N before --b: the options may come in any order
    "sieve --N 30 --b 1,1 --limit 100",
    "sieve --N 30 --b 1,1 --limit 1000 --format json",
    "zeta --s 3 --euler-limit 10000000 --format json",
    "zeta --s 4 --euler-limit 10000000 --format json",
    "zeta --s 5 --euler-limit 10000000 --format json",
    "zeta --s 2 --euler-limit 1000000",
    "verify --profile full --seed 26",
)

# sieve writes SIEVE_CHUNK = 4096 points at a time: exactly one block, and one block and a point;
# 256,256 and 65537,1 are the same bounds for the 65536-point chunks of older writers.
# 2**9 passes every constrained edge, so every point of these boxes is visible.
_CHUNKS = tuple(
    f"sieve --b 1,-9 --box {box} --format {fmt}"
    for box in ("256,256", "65537,1", "64,64", "4097,1")
    for fmt in _FORMATS
)

# boxes whose shape the sieve's blocks must not feel: a last axis shorter than a
# block, a free first axis, a 1-D box, rows longer than a block, and 10**6 points
_SHAPES = (
    "sieve --b 1,2 --box 100000,3 --format csv",
    "sieve --b 1,-2 --box 50000,4 --format json",
    "sieve --b 2 --box 70000",  # reduced to b = (1): only the point 1
    "sieve --b 1,1 --box 3,10000 --format csv",  # rows longer than a block
    "sieve --b 1,1 --box 1000,1000 --format json",
)

# Moebius sums whose head reaches the depth, so there is no Mertens tail:
# a head past the sieve budget (refused), and heads of 5e5 and 6e5 values of mu
_HEADS = (
    "count --b 1,2 --N 10000000000000000",
    "count --b 1,2 --N 250000000000",
    "count --b 2,3 --N 216000000000000000",
)

# built from COMMANDS and the handlers' docstrings
_HELP = ("--help", *(f"{command} --help" for command in ("check", "count", "density", "sieve", "verify", "zeta")))


def commands() -> list[list[str]]:
    lines = (
        _USAGE_ERRORS + _SHARED_GCD + _REFUSALS + _OUTPUTS + _PARSER + _CHECK + _MORE_OUTPUTS + _CHUNKS + _SHAPES + _HEADS + _HELP
    )
    # dict.fromkeys drops a line that an earlier tuple already holds
    return _workload_commands() + [line.split() for line in dict.fromkeys(lines)]


def run(argv: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # bytes, not text: csv's "\r\n" line ends stay as written
    out = subprocess.run([sys.executable, "-m", "bvis.cli", *argv], capture_output=True, env=env, timeout=120)
    stdout = masked(argv, out.stdout.decode())
    return {"argv": argv, "exit": out.returncode, "stderr": out.stderr.decode(), **stdout_fields(stdout)}


def main() -> None:
    entries = [run(argv) for argv in commands()]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} entries written to {CORPUS}")


if __name__ == "__main__":
    main()
