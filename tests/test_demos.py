"""Smoke test: every narrative script in demo/ runs to completion, and
demo 02 prints the same bytes as before."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demo").glob("*.py"))

# demo 02 is the one caller of TypeSplit.project outside the tests: its
# output, projections included, is pinned byte for byte
DEMO_02_STDOUT = (
    "2-forms: ranks (7, 21)  (labels ('7', '21'))\n"
    "3-forms: ranks (8, 48)  (labels ('8', '48'))\n"
    "4-forms: ranks (1, 7, 27, 35)  (labels ('1', '7', '27', '35'))\n"
    'unitary refinement of the 2-form split: ranks (1, 6, 6, 15)\n'
    '\n'
    'stabilizer dimensions (exact kernels of the derivation action):\n'
    '  4-form on R^8 : 21\n'
    '  3-form on R^7 : 14\n'
    '  volume on R^8 : 63\n'
    '\n'
    'projecting +1 dx[1,2] -2/3 dx[3,7] :\n'
    '  rank-7 part: +1/4 dx[1,2] +1/6 dx[1,5] -1/6 dx[2,6] +1/4 dx[3,4]'
    ' -1/6 dx[3,7] +1/6 dx[4,8] +1/4 dx[5,6] +1/4 dx[7,8]\n'
    '  rank-21 part: +3/4 dx[1,2] -1/6 dx[1,5] +1/6 dx[2,6] -1/4 dx[3,4]'
    ' -1/2 dx[3,7] -1/6 dx[4,8] -1/4 dx[5,6] -1/4 dx[7,8]\n'
    '  parts sum back to the input -> True\n'
    '\n'
    'cylinder parameterizations of the same split: ranks (7, 21) -'
    ' contraction isometry scale 3\n'
)


def test_all_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    result = _run(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_demo_02_output_is_pinned():
    result = _run(ROOT / "demo" / "02_type_decompositions.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEMO_02_STDOUT


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
