"""The ``runner`` fixture: run the `bvis` command line in this process."""

import contextlib
import io

import pytest


class Result:
    """What one command line did: its exit code and what it wrote to each stream.

    ``stdout`` is kept as written, csv's "\\r\\n" line ends included;
    ``output`` is stdout, then stderr.
    """

    def __init__(self, exit_code: int, stdout: str, stderr: str):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = stdout + stderr


class Runner:
    def invoke(self, main, args) -> Result:
        """Run ``main(args)`` with stdout and stderr kept apart."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
        return Result(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def runner():
    return Runner()
