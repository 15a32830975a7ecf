"""Relabelling the coordinates of a configuration changes nothing that
``analyze`` reports: the golden configurations keep their intermediate
values and invariants, and the negative fixtures fail the same check."""

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7 import cli

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
GOLDEN = ("m1", "m2", "m2_via_double_blowup")
NEGATIVE = ("non_isolated", "not_well_formed", "wrong_parity")
DOCS = {name: json.loads((CONFIG_DIR / f"{name}.cfg").read_text())
        for name in GOLDEN + NEGATIVE}


def relabel(doc: dict, perm: list[int]) -> dict:
    """The configuration whose coordinate k is coordinate perm[k] of doc,
    carried through every field that indexes coordinates."""
    position = {old: new for new, old in enumerate(perm)}

    def permuted(values):
        return [values[old] for old in perm]

    out = json.loads(json.dumps(doc))
    out["ambient_weights"] = permuted(doc["ambient_weights"])
    if doc["variety"].get("exponents") is not None:
        out["variety"]["exponents"] = permuted(doc["variety"]["exponents"])
    involution = doc["involution"]
    out["involution"] = {
        "permutation": [position[involution["permutation"][old]]
                        for old in perm],
        "phase_powers": permuted(involution["phase_powers"]),
    }
    for poly in out.get("polynomials", []):
        for term in poly["terms"]:
            term["exponents"] = permuted(term["exponents"])
    return out


def analyze(doc: dict, path: pathlib.Path) -> tuple[int, str, str]:
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", str(path)])
    return code, out.getvalue(), err.getvalue()


def summary(name: str, result: tuple[int, str, str]):
    """Exit code plus the relabelling-invariant part of the output: the
    intermediate values and invariants of a golden configuration, the
    names of the failed checks of a negative fixture."""
    code, out, err = result
    if name in GOLDEN:
        return code, out[out.find("intermediate values:"):]
    return code, [reason.split(":")[0].strip()
                  for reason in err.splitlines()[1:]]


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("relabelled") / "config.cfg"


@pytest.fixture(scope="module")
def expected(cfg_path):
    return {name: summary(name, analyze(doc, cfg_path))
            for name, doc in DOCS.items()}


def test_unrelabelled_outcomes(expected):
    for name in GOLDEN:
        assert expected[name][0] == cli.EXIT_OK
        assert "invariants:" in expected[name][1]
    assert {name: expected[name] for name in NEGATIVE} == {
        "non_isolated": (cli.EXIT_MATH, ["singularities"]),
        "not_well_formed": (cli.EXIT_MATH, ["well-formedness"]),
        "wrong_parity": (cli.EXIT_MATH, ["parity violation"]),
    }


@st.composite
def relabellings(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    n1 = len(DOCS[name]["ambient_weights"])
    return name, draw(st.permutations(range(n1)))


@settings(max_examples=100, deadline=None)
@given(case=relabellings())
def test_relabelling_keeps_the_analysis(case, cfg_path, expected):
    name, perm = case
    result = analyze(relabel(DOCS[name], perm), cfg_path)
    assert summary(name, result) == expected[name]
