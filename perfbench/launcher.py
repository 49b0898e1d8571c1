"""Start and reap the benchmark's job processes from a small process.

A child's ``ru_maxrss`` includes the high-water RSS of the process it was
spawned from (Linux copies it at exec), so jobs are not spawned from the
benchmark itself, which holds numpy reference tables, but from this
process, which imports nothing large.  It reads one JSON request per line
on stdin -- ``{"argv", "out", "err", "timeout"}`` -- runs
``python argv`` to completion with stdout and stderr sent to the two files,
and answers with one JSON line ``{"exit", "wall", "cpu", "rss_kb"}``.  It
exits at end of input.
"""

import json
import os
import select
import signal
import sys
import time


def run(argv, out_path, err_path, timeout):
    """Wall time, CPU time and peak RSS of one child, from wait4."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd, err_fd = os.open(out_path, flags, 0o644), os.open(err_path, flags, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *argv],
            os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)],
        )
    finally:
        os.close(out_fd)
        os.close(err_fd)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["out"], req["err"], req["timeout"])), flush=True)


if __name__ == "__main__":
    main()
