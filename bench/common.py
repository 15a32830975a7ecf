"""Helpers shared by the workload modules."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

from spin7 import cli


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``spin7 <argv>`` in process; return (exit code, stdout, stderr).

    ``cli.main`` is looked up at call time so that a traced run sees the
    wrapped entry point.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()
