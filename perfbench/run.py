"""The bvis benchmark: CLI jobs in fresh processes, end to end and per layer.

    python3 perfbench/run.py --workload density-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each job is one `bvis` command run as ``python -m bvis.cli`` in a fresh
child process, with this interpreter and ``PYTHONPATH=src``, from the root
of the checkout.  One closed-loop client runs the workload's job list (a
pass) one job at a time, never more than one child at once, for
ceil(``--seconds`` / nominal pass time) passes.  Wall time, CPU time and
peak RSS of each job come from ``os.wait4`` on the child.  After each pass,
outside the timed region, every output is checked by ``checks.py``; a wrong
output, a refusal (exit 4) or any other unexpected exit is a failed job.
The two planted probes of the known factorization defect are the exception:
their refusal is counted against ``ok_frac`` but not in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose jobs run through ``tracing.py`` and
reports the per-layer metrics of the traced passes; no end-to-end number
comes from a traced pass.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
]
SETUP_PROBES = 7
JOB_TIMEOUT_S = 150.0
# No pass starts after this many seconds of a run, and every job is killed
# by RUN_LIMIT_S, so a run ends within the three minutes it may take.
RUN_BUDGET_S = 120.0
RUN_LIMIT_S = 170.0
REFUSED = 4

ENV_PROBE = """
import importlib.metadata, json, sys
import numpy, bvis
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "click": importlib.metadata.version("click"),
    "kernel_backend": getattr(bvis, "KERNEL_BACKEND", None),
}))
"""


@dataclass
class JobRun:
    job: int
    exit: int
    wall: float
    cpu: float
    rss_kb: int
    outcome: str = "ok"
    detail: str = ""
    output_bytes: int = 0


@dataclass
class Pass:
    traced: bool
    runs: list[JobRun] = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.runs)


class Launcher:
    """The small process that spawns and times every job; see launcher.py."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )

    def run(self, argv: list[str], out: Path, err: Path, timeout: float = JOB_TIMEOUT_S, job: int = -1) -> JobRun:
        """Run ``python argv`` in a fresh process with this interpreter and PYTHONPATH=src."""
        request = {"argv": argv, "out": str(out), "err": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("the job launcher exited")
        reply = json.loads(line)
        return JobRun(job, reply["exit"], reply["wall"], reply["cpu"], reply["rss_kb"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=JOB_TIMEOUT_S)


def run_pass(launcher: Launcher, jobs: list[workloads.Job], traced: bool, deadline: float) -> Pass:
    result = Pass(traced)
    for i, job in enumerate(jobs):
        out, err = WORK / f"{i}.out", WORK / f"{i}.err"
        if traced:
            spans = WORK / f"{i}.spans"
            spans.unlink(missing_ok=True)
            argv = [str(BENCH / "tracing.py"), str(spans), str(i), *job.args]
        else:
            argv = ["-m", "bvis.cli", *job.args]
        timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
        result.runs.append(launcher.run(argv, out, err, timeout, job=i))
    return result


def check_pass(jobs: list[workloads.Job], p: Pass, ref: checks.Reference) -> None:
    """Classify every job of the pass: ok, wrong, refused or crashed."""
    for run in p.runs:
        job = jobs[run.job]
        out = (WORK / f"{run.job}.out").read_text()
        run.output_bytes = len(out.encode())
        if run.exit == 0:
            why = checks.check(job, out, ref)
            if why:
                run.outcome, run.detail = "wrong", why
        else:
            lines = (WORK / f"{run.job}.err").read_text().strip().splitlines()
            run.outcome = "refused" if run.exit == REFUSED else "crashed"
            run.detail = f"exit {run.exit}: {lines[-1] if lines else ''}"


def is_failure(job: workloads.Job, run: JobRun) -> bool:
    return run.outcome != "ok" and not (job.probe and run.outcome == "refused")


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    pct = max(0, (100 * (n - 10)) // n)
    rank = max(1, -(-pct * n // 100))
    return pct, ordered[rank - 1]


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git inside it; None when it is not a git tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(launcher: Launcher) -> dict:
    """Versions and backend of the code under test; also warms the bytecode cache."""
    run = launcher.run(["-c", ENV_PROBE], WORK / "env.out", WORK / "env.err")
    if run.exit != 0:
        raise SystemExit(f"cannot import bvis from src/: {(WORK / 'env.err').read_text().strip()}")
    env = json.loads((WORK / "env.out").read_text())
    env.update(nproc=os.cpu_count(), machine=platform.machine(), commit=_git_commit())
    return env


def setup_time(launcher: Launcher) -> tuple[float, list[float]]:
    walls = []
    for _ in range(SETUP_PROBES):
        run = launcher.run(["-c", "import bvis.cli"], WORK / "setup.out", WORK / "setup.err")
        if run.exit != 0:
            raise SystemExit("setup probe failed: " + (WORK / "setup.err").read_text().strip())
        walls.append(run.wall)
    return statistics.median(walls), walls


def run_workload(launcher: Launcher, name: str, seed: int, seconds: int, trace: bool) -> dict:
    jobs = workloads.build(name, seed)
    ref = checks.Reference()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = environment(launcher)
    setup, setup_walls = (None, []) if trace else setup_time(launcher)
    passes: list[Pass] = []
    for i in range(max(1 + trace, math.ceil(seconds / workloads.PASS_SECONDS[name]))):
        if len(passes) > trace and time.monotonic() - started > RUN_BUDGET_S:
            break
        p = run_pass(launcher, jobs, traced=trace and i % 2 == 1, deadline=deadline)
        check_pass(jobs, p, ref)
        if p.traced:
            files = [WORK / f"{r.job}.spans" for r in p.runs]
            p.layers = tracing.aggregate(json.loads(f.read_text()) for f in files if f.exists())
            p.layers["cli.output_bytes"] = sum(r.output_bytes for r in p.runs)
        passes.append(p)

    runs = [(jobs[r.job], r) for p in passes for r in p.runs]
    failed = sum(is_failure(job, r) for job, r in runs)
    plain = [p for p in passes if not p.traced]
    job_walls = [r.wall for p in plain for r in p.runs]
    pct, tail_value = tail(job_walls)
    wall = statistics.median(p.wall for p in plain)
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = {
            metric: statistics.median(p.layers[metric] for p in traced)
            for metric, _unit, _better in tracing.PER_LAYER
            if metric != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = (statistics.median(p.wall for p in traced) - wall) / wall
        units = {metric: unit for metric, unit, _better in tracing.PER_LAYER}
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(p.cpu for p in plain),
            "job_p50_s": statistics.median(job_walls),
            "job_tail_s": tail_value,
            "peak_rss_mb": max(r.rss_kb for p in plain for r in p.runs) / 1024,
            "ok_frac": sum(r.outcome == "ok" for _job, r in runs) / len(runs),
            "setup_s": setup,
        }
        units = dict(END_TO_END)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall, "runs": [dict(vars(r), args=jobs[r.job].args) for r in p.runs]}
            for p in passes
        ],
        "tail_percentile": pct,
        "tail_samples": len(job_walls),
        "setup_walls": setup_walls,
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "outcomes": {o: sum(r.outcome == o for _j, r in runs) for o in ("ok", "wrong", "refused", "crashed")},
        "problems": sorted({f"{r.outcome}: bvis {' '.join(job.args)[:160]} ({r.detail})" for job, r in runs if r.outcome != "ok"}),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def report(result: dict) -> None:
    env = result["env"]
    print(f"== {result['workload']} seed {result['seed']}, trace {result['trace']}: "
          f"{len(result['passes'])} passes of {len(result['passes'][0]['runs'])} jobs")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if not result["trace"]:
        print(f"  job_tail_s is p{result['tail_percentile']} of {result['tail_samples']} jobs")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, outcomes {result['outcomes']}")
    for line in result["problems"]:
        print(f"  {line}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bvis" / "cli.py").is_file():
        sys.exit(f"no bvis sources under {ROOT / 'src'}; run from a checkout of the repository")
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    launcher = Launcher()
    try:
        for name in names:
            result = run_workload(launcher, name, args.seed, args.seconds, bool(args.trace))
            out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(result, indent=1) + "\n")
            report(result)
            results[name] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    finally:
        launcher.close()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))


if __name__ == "__main__":
    main()
