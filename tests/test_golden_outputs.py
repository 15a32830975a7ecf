"""Byte-identity gate: every CLI run below must reproduce its recorded
stdout, stderr and exit code exactly.

The goldens live in ``golden_outputs.json``, keyed by case id.  Outputs
longer than ``INLINE_LIMIT`` characters (the scans) are stored as a
sha256 digest and a length.  ``verify-forms --with-newton`` is left out,
because its output contains floating-point text.

After a deliberate output change, re-record with

    PYTHONPATH=src python tests/test_golden_outputs.py --record

and review the diff of ``golden_outputs.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from spin7 import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden_outputs.json"
INLINE_LIMIT = 4096

CONFIGS = ("m1", "m2", "m2_via_double_blowup", "non_isolated",
           "not_well_formed", "wrong_parity")
FORMATS = ("table", "structured")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in CONFIGS:
        for fmt in FORMATS:
            cases[f"analyze {name} {fmt}"] = [
                "analyze", str(ROOT / "configs" / f"{name}.cfg"),
                "--format", fmt]
    for fmt in FORMATS:
        cases[f"verify-forms {fmt}"] = ["verify-forms", "--format", fmt]
    cases["verify-forms table inject-sign-flip"] = [
        "verify-forms", "--inject-sign-flip"]
    for max_weight in range(6, 13):
        for dim in (4, 5):
            for fmt in FORMATS:
                cases[f"scan {max_weight} {dim} {fmt}"] = [
                    "scan", "--max-weight", str(max_weight),
                    "--ambient-dim", str(dim), "--format", fmt]
    return cases


CASES = _cases()


def _text(value: str) -> str | dict:
    if len(value) <= INLINE_LIMIT:
        return value
    return {"sha256": hashlib.sha256(value.encode()).hexdigest(),
            "length": len(value)}


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return {"code": code, "stdout": _text(out.getvalue()),
            "stderr": _text(err.getvalue())}


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_exactly_the_cases(goldens):
    assert sorted(goldens) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_golden(case, goldens):
    assert _run(CASES[case]) == goldens[case]


def test_reused_parser_carries_no_state(goldens):
    """``cli.main`` builds its parser once per process.  Consecutive calls
    that switch command and format, or follow a rejected argv, each print
    what a fresh process prints."""
    scan = ["scan", "--max-weight", "6", "--ambient-dim", "4"]
    rejected = ["scan", "--ambient-dim", "4"]  # --max-weight is required
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "spin7.cli", *rejected],
                           capture_output=True, text=True, env=env,
                           check=False)
    assert fresh.returncode == 2 and "--max-weight" in fresh.stderr
    sequence = [
        (scan + ["--format", "structured"], goldens["scan 6 4 structured"]),
        (scan, goldens["scan 6 4 table"]),
        (CASES["analyze m1 table"], goldens["analyze m1 table"]),
        (["verify-forms"], goldens["verify-forms table"]),
        (rejected, {"code": 2, "stdout": fresh.stdout,
                    "stderr": fresh.stderr}),
        (CASES["analyze m2 structured"], goldens["analyze m2 structured"]),
    ]
    for argv, want in sequence:
        assert _run(argv) == want, argv


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(
        {case: _run(argv) for case, argv in CASES.items()},
        indent=2, sort_keys=True) + "\n")
