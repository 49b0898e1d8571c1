"""Time `bvis` command lines: wall time, CPU time and peak RSS of fresh processes.

    python tests/time_commands.py [--src DIR] [--runs 3] "sieve --b 1,1 --box 1000,1000 --format json" ...
    python tests/time_commands.py --baseline OLD/src [--src DIR] [--runs 12] "count --b 1,1 --N 60000000" ...

Each command line runs ``--runs`` times as ``python -m bvis.cli`` with this
interpreter, ``DIR`` (default: this tree's ``src``) first on PYTHONPATH and
stdout sent to /dev/null.  ``DIR`` is byte-compiled first with ``python -m
compileall -q``: a tree without ``__pycache__``, run with
PYTHONDONTWRITEBYTECODE=1, compiles every module it imports in every run,
which adds 20-40 ms and a peak RSS that moves with the length of the module
source.  Wall time comes from ``time.perf_counter`` around the child, CPU
time (user plus system) and peak RSS from ``os.wait4``.  Prints one JSON
object per command line: the best wall time, the median CPU seconds, the
largest peak RSS in MB and the exit code.  On a small shared VM the CPU
time is the steadier of the two times.

``--baseline OLD`` compares two trees: each command line runs ``--runs``
times in ``OLD`` and in ``DIR`` alternately, with the side that goes first
swapped from one pair to the next, and its JSON object gives each side's
median and quartiles (``statistics.quantiles``, inclusive) of CPU seconds
and peak RSS in MB, and the number of pairs where ``DIR`` read lower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(src: str, argv: list[str]) -> tuple[float, float, int, float]:
    """Wall seconds, peak RSS in MB, exit code and CPU seconds of one run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "bvis.cli", *argv], stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # already reaped; keep Popen from waiting again
    return wall, usage.ru_maxrss / 1024, child.returncode, usage.ru_utime + usage.ru_stime


def spread(values: list[float], digits: int) -> dict[str, float]:
    """Median and quartiles of values, rounded."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def compare(baseline: str, src: str, argv: list[str], runs: int) -> dict:
    """``runs`` alternating pairs of one command line in the baseline tree and in src."""
    sides: dict[str, list] = {"baseline": [], "src": []}
    for i in range(runs):
        order = [("baseline", baseline), ("src", src)]
        for side, tree in order[:: 1 if i % 2 == 0 else -1]:
            sides[side].append(measure(tree, argv))
    row: dict = {}
    for side, results in sides.items():
        row[side] = {
            "cpu_s": spread([r[3] for r in results], 3),
            "peak_rss_mb": spread([r[1] for r in results], 1),
            "exit": results[-1][2],
        }
    for name, index in (("cpu_s", 3), ("peak_rss_mb", 1)):
        row[f"pairs_src_lower_{name}"] = sum(s[index] < b[index] for b, s in zip(sides["baseline"], sides["src"]))
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(SRC))
    parser.add_argument("--baseline", metavar="DIR", help="a second tree's src, run alternately with --src")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("commands", nargs="+")
    args = parser.parse_args()
    for tree in filter(None, [args.baseline, args.src]):
        subprocess.run([sys.executable, "-m", "compileall", "-q", tree], check=True)
    for line in args.commands:
        if args.baseline:
            row = compare(args.baseline, args.src, line.split(), args.runs)
            print(json.dumps({"command": line, **row}), flush=True)
            continue
        runs = [measure(args.src, line.split()) for _ in range(args.runs)]
        print(
            json.dumps(
                {
                    "command": line,
                    "wall_s": round(min(r[0] for r in runs), 3),
                    "cpu_s": round(statistics.median(r[3] for r in runs), 3),
                    "peak_rss_mb": round(max(r[1] for r in runs), 1),
                    "exit": runs[-1][2],
                }
            ),
            flush=True,
        )


if __name__ == "__main__":
    main()
