"""Compare two benchmark result files metric by metric.

    python3 perfbench/compare.py perfbench/results/A.json perfbench/results/B.json

Prints each metric of A and B and the ratio B/A.  Refuses (exit 2) when
the two results come from different workloads, trace modes or kernel
backends: a compiled and a numpy kernel backend are different programs.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} {a[key]!r} vs {b[key]!r}", file=sys.stderr)
            return 2
    backends = a["env"].get("kernel_backend"), b["env"].get("kernel_backend")
    if backends[0] != backends[1]:
        print(f"refusing to compare: kernel backend {backends[0]!r} vs {backends[1]!r}", file=sys.stderr)
        return 2
    print(f"{a['workload']}: seed {a['seed']} vs {b['seed']}, commit {a['env'].get('commit')} vs {b['env'].get('commit')}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"  {name:<40} {ma['value']:>14.6g} {mb['value']:>14.6g} {ma['unit']:<6} x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
