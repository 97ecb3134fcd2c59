"""Run ``votedim`` commands in process and capture what they write.

``invoke`` points ``sys.stdout`` and ``sys.stderr`` at string buffers, runs
``votedim.cli.main`` and turns the ``SystemExit`` it may raise into an exit
code.  Any other exception is kept, with exit code 1, as an uncaught one
would end a process.
"""

import contextlib
import io
from dataclasses import dataclass
from typing import Iterable, Optional

from votedim.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: Optional[BaseException]

    @property
    def output(self) -> str:
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode("utf-8")


def invoke(args: Iterable[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as e:
            exit_code = e.code or 0
            exception = e if exit_code else None
        except Exception as e:
            exit_code, exception = 1, e
    return Result(exit_code, out.getvalue(), err.getvalue(), exception)
