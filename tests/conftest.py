"""The ``runner`` fixture: run the `bvis` command line in this process."""

import contextlib
import io
import os

import pytest


class Result:
    """What one command line did: its exit code and what it wrote to each stream.

    ``stdout_bytes`` holds stdout as written; ``stdout`` and ``output``
    (stdout, then stderr) read csv's "\\r\\n" line ends as "\\n", as the
    tests' frozen texts do.
    """

    def __init__(self, exit_code: int, stdout: str, stderr: str):
        self.exit_code = exit_code
        self.stdout_bytes = stdout.encode()
        self.stdout = stdout.replace("\r\n", "\n")
        self.stderr = stderr
        self.output = self.stdout + self.stderr


class Runner:
    def invoke(self, main, args, env=None) -> Result:
        """Run ``main(args)`` with ``env`` added to the environment, stdout and stderr kept apart."""
        saved = {key: os.environ.get(key) for key in env or {}}
        out, err = io.StringIO(), io.StringIO()
        try:
            os.environ.update(env or {})
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    main(list(args))
                    code = 0
                except SystemExit as exc:
                    code = exc.code or 0
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return Result(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def runner():
    return Runner()
