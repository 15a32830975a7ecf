"""Configuration schema, canonical serialization, and CLI behaviour."""

import contextlib
import dataclasses
import io
import json
import pathlib

import pytest

from spin7 import charnum, cli, config, invariants, wps

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def test_load_dump_round_trip_is_canonical():
    for name in ("m1", "m2", "m2_via_double_blowup"):
        text = (CONFIG_DIR / f"{name}.cfg").read_text()
        cfg = config.load_config(text)
        dumped = config.dump_config(cfg)
        assert config.dump_config(config.load_config(dumped)) == dumped


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.__setitem__("extra", 1), "unknown"),
    (lambda d: d.pop("name"), "missing"),
    (lambda d: d.__setitem__("ambient_weights", [1, "x"]), "integers"),
    (lambda d: d["divisor"].__setitem__("degrees", []), "extend"),
    (lambda d: d.__setitem__("sigma", []), "nonempty"),
    (lambda d: d["sigma"][0].__setitem__("degrees", [8]), "surface"),
    (lambda d: d["involution"].__setitem__("permutation", [0, 1]), "match"),
    (lambda d: d["polynomials"][0]["terms"][0].__setitem__("coeff", "?"),
     "literal"),
    # booleans must be JSON booleans, and JSON booleans are not integers
    pytest.param(
        lambda d: d.__setitem__("assume_simply_connected", "false"),
        "assume_simply_connected must be true or false",
        id="simply-connected-string-false"),
    pytest.param(
        lambda d: d.__setitem__("assume_simply_connected", "no"),
        "assume_simply_connected must be true or false",
        id="simply-connected-string-no"),
    pytest.param(lambda d: d["divisor"].__setitem__("h11", True),
                 "h11", id="h11-true"),
    pytest.param(lambda d: d["sigma"][0].__setitem__("multiplicity", True),
                 "multiplicity", id="multiplicity-true"),
    # out-of-range numbers are schema errors, not crashes or late failures
    pytest.param(lambda d: d["sigma"][0].__setitem__("degrees", [8, -8]),
                 "sigma\\[0\\].degrees must be a list of positive",
                 id="sigma-degree-negative"),
    pytest.param(lambda d: d["ambient_weights"].__setitem__(0, True),
                 "ambient_weights must be a list of integers",
                 id="weight-true"),
    pytest.param(lambda d: d["divisor"].__setitem__("degrees", [False]),
                 "divisor.degrees must be a list of positive",
                 id="divisor-degree-false"),
    pytest.param(lambda d: d["polynomials"][0]["terms"][0].__setitem__(
                     "coeff", "1/0"),
                 "bad complex rational literal: '1/0'",
                 id="coeff-zero-denominator"),
    pytest.param(lambda d: d["divisor"].__setitem__("degrees", [0]),
                 "divisor.degrees must be a list of positive",
                 id="divisor-degree-zero"),
    pytest.param(lambda d: d["polynomials"][0]["terms"].append(
                     {"exponents": [0, 0, 0, 0, -3], "coeff": "1"}),
                 "term exponents must be nonnegative",
                 id="term-exponent-negative"),
    # D is one hypersurface section of V: [4, 2, 2] would make D a curve
    pytest.param(lambda d: d["divisor"].__setitem__("degrees", [4, 2, 2]),
                 "extend variety.degrees by exactly one degree",
                 id="divisor-three-degrees"),
    # every object rejects keys the schema does not list
    pytest.param(lambda d: d.__setitem__("overrides", {"chi_V": 6}),
                 "top level: unknown fields \\['overrides'\\]",
                 id="overrides-unknown"),
    pytest.param(lambda d: d["sigma"][0].__setitem__("weights",
                                                     [1, 1, 1, 1, 4]),
                 "sigma\\[0\\]: unknown fields \\['weights'\\]",
                 id="sigma-weights-unknown"),
    pytest.param(
        lambda d: d["variety"].__setitem__("certified_quasismooth", True),
        "variety: unknown fields \\['certified_quasismooth'\\]",
        id="variety-leftover-certificate"),
    pytest.param(lambda d: d["variety"].__setitem__("exponent",
                                                    [8, 8, 8, 8, 2]),
                 "variety: unknown fields \\['exponent'\\]",
                 id="variety-typo"),
    pytest.param(lambda d: d["divisor"].__setitem__("H11", 1000),
                 "divisor: unknown fields \\['H11'\\]", id="divisor-typo"),
    pytest.param(lambda d: d["sigma"][0].__setitem__("multiplicty", 2),
                 "sigma\\[0\\]: unknown fields \\['multiplicty'\\]",
                 id="sigma-typo"),
    pytest.param(lambda d: d["involution"].__setitem__("phases", [0] * 5),
                 "involution: unknown fields \\['phases'\\]",
                 id="involution-typo"),
    pytest.param(lambda d: d["polynomials"][1].__setitem__("term", []),
                 "polynomials\\[1\\]: unknown fields \\['term'\\]",
                 id="polynomial-typo"),
    pytest.param(lambda d: d["polynomials"][0]["terms"][2].__setitem__(
                     "coef", "2"),
                 "polynomials\\[0\\].terms\\[2\\]: unknown fields "
                 "\\['coef'\\]", id="term-typo"),
])
def test_schema_violations(mutate, message):
    doc = json.loads((CONFIG_DIR / "m1.cfg").read_text())
    mutate(doc)
    with pytest.raises(config.SchemaError, match=message):
        config.load_config(json.dumps(doc))


def test_not_json_is_a_schema_error():
    with pytest.raises(config.SchemaError):
        config.load_config("{nope")


def test_analyze_the_first_configuration():
    cfg = config.load_config((CONFIG_DIR / "m1.cfg").read_text())
    result = config.analyze(cfg)
    data = result.data
    assert result.chi_V.chi_top == data.chi_V == 5
    assert data.h31_V == 0
    assert data.chi_D == -296
    assert data.h21_D == 149
    assert data.k == 1
    assert data.sigma == (invariants.SigmaComponent(1376, 199, 1),)
    assert result.report.b4 == 839


@pytest.mark.parametrize("name, chi", [("m1", 5), ("m2", 306),
                                       ("m2_via_double_blowup", 5)])
def test_analyze_chi_v_agrees_with_the_betti_numbers(name, chi):
    # 4 + the sum of the Steenbrink row for a diagonal 4-fold, and n + 1
    # for the ambient space
    cfg = config.load_config((CONFIG_DIR / f"{name}.cfg").read_text())
    assert config.analyze(cfg).chi_V.chi_top == chi


@pytest.mark.parametrize("name", ["m1", "m2"])
def test_analyze_rejects_a_chi_v_that_the_betti_numbers_contradict(
        name, monkeypatch):
    cfg = config.load_config((CONFIG_DIR / f"{name}.cfg").read_text())
    chi = config.analyze(cfg).chi_V.chi_top
    original = charnum.euler_characteristics

    def off_by_one(weights, degrees, singular_orders=()):
        result = original(weights, degrees, singular_orders)
        if tuple(degrees) != tuple(cfg.variety_degrees):
            return result
        return dataclasses.replace(result, chi_top=result.chi_top + 1)

    monkeypatch.setattr(charnum, "euler_characteristics", off_by_one)
    with pytest.raises(config.AdmissibilityFailure) as error:
        config.analyze(cfg)
    assert error.value.reasons == [
        f"chi(V) = {chi + 1} from the Chern classes and the singular "
        f"points, but {chi} from the Betti numbers"]


# ---------------------------------------------------------------------------
# CLI: verify-forms
# ---------------------------------------------------------------------------

def test_verify_forms_passes():
    code, out, _ = run_cli("verify-forms")
    assert code == cli.EXIT_OK
    assert "[pass]" in out and "FAIL" not in out


def test_verify_forms_structured_format():
    code, out, _ = run_cli("verify-forms", "--format", "structured")
    assert code == cli.EXIT_OK
    assert all(line.startswith("identity.pass = ")
               for line in out.strip().splitlines())


def test_verify_forms_detects_a_broken_form():
    code, out, err = run_cli("verify-forms", "--inject-sign-flip")
    assert code == cli.EXIT_MATH
    assert "FAIL" in out
    assert "failed" in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_verify_forms_rejects_a_bad_tolerance(value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-forms", "--with-newton", "--tolerance", value])
    assert exc.value.code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "--tolerance: must be a positive finite number" in err


def test_verify_forms_reports_a_probe_that_does_not_converge():
    # below the rounding floor no probe converges: each one fails with
    # its ProjectionError, and no traceback reaches the command line
    code, out, err = run_cli("verify-forms", "--with-newton",
                             "--tolerance", "1e-300")
    assert code == cli.EXIT_MATH
    probes = [line for line in out.splitlines() if "direction" in line]
    assert len(probes) == 9
    assert all(line.startswith("  [FAIL] ") and "ProjectionError: no "
               "convergence after 50 iterations" in line for line in probes)
    assert err == "1 check(s) failed\n"


def test_verify_forms_computes_the_two_form_split_once(monkeypatch):
    from spin7 import splits
    two_form_split, calls = splits.two_form_split, []
    monkeypatch.setattr(splits, "two_form_split",
                        lambda phi: calls.append(phi) or two_form_split(phi))
    for flags in ((), ("--inject-sign-flip",)):
        calls.clear()
        run_cli("verify-forms", *flags)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# CLI: analyze
# ---------------------------------------------------------------------------

def test_analyze_golden_configurations_exit_zero():
    for name, b4 in (("m1", 839), ("m2", 455),
                     ("m2_via_double_blowup", 455)):
        code, out, err = run_cli("analyze", str(CONFIG_DIR / f"{name}.cfg"))
        assert code == cli.EXIT_OK, err
        assert f"b4(M) = {b4}" in out


def test_analyze_invariant_blocks_agree_between_routes():
    def block(name):
        _, out, _ = run_cli("analyze", str(CONFIG_DIR / f"{name}.cfg"))
        return out[out.index("invariants:"):]
    assert block("m2") == block("m2_via_double_blowup")


@pytest.mark.parametrize("name,needle", [
    ("not_well_formed", "well-formed"),
    ("non_isolated", "singular"),
    ("wrong_parity", "parity"),
])
def test_analyze_rejects_inadmissible_configurations(name, needle):
    code, out, err = run_cli("analyze", str(CONFIG_DIR / f"{name}.cfg"))
    assert code == cli.EXIT_MATH
    assert needle in err or needle in out


def _m1_mutation(mutate, tmp_path):
    doc = json.loads((CONFIG_DIR / "m1.cfg").read_text())
    mutate(doc)
    path = tmp_path / "m1_mutated.cfg"
    path.write_text(json.dumps(doc))
    return str(path)


def _with_weights_and_divisor(weights, degrees):
    def mutate(doc):
        doc["ambient_weights"] = weights
        doc["divisor"]["degrees"] = degrees
    return mutate


@pytest.mark.parametrize("mutate,reason", [
    pytest.param(lambda d: d["divisor"].__setitem__("degrees", [6]),
                 "divisor degree 6 does not match the anticanonical "
                 "degree 8", id="anticanonical-mismatch"),
    pytest.param(lambda d: d["involution"].__setitem__(
                     "phase_powers", [0, 1, 0, 2, 0]),
                 "involution: map squared is not a projective identity",
                 id="not-projectively-involutive"),
    pytest.param(_with_weights_and_divisor([1, 1, 1, 1, 1], [5]),
                 "singularities: the singular locus is empty",
                 id="empty-singular-locus"),
    # Noether's formula fails on sigma[0], not on V: the plane P(1, 1, 4)
    # cut by two linear forms keeps the order-4 point, so chi is not an
    # integer
    pytest.param(lambda d: d["sigma"][0].__setitem__("degrees", [1, 1]),
                 "sigma[0]: topological Euler characteristic 9/4 is not an "
                 "integer; singular point data is inconsistent with the "
                 "variety", id="sigma-euler-characteristic"),
    # [Sigma] = [D]^2: on m1 the degrees of Sigma must multiply to 8^2
    *(pytest.param(lambda d, s=sigma: d.__setitem__("sigma", s),
                   f"sigma: [Sigma] = {total} from its degrees and "
                   "multiplicities, but [D]^2 = 64; Sigma must be the "
                   "self-intersection of D", id=f"sigma-class-{total}")
      for sigma, total in (
          ([{"degrees": [8, 4], "multiplicity": 1}], 32),
          ([{"degrees": [8, 8], "multiplicity": 3}], 192),
          ([{"degrees": [4, 4], "multiplicity": 1}], 16))),
])
def test_analyze_rejection_paths(mutate, reason, tmp_path):
    code, out, err = run_cli("analyze", _m1_mutation(mutate, tmp_path))
    assert code == cli.EXIT_MATH
    assert out == ""
    assert err == f"configuration rejected (m1):\n  {reason}\n"


def test_analyze_input_errors_exit_two(tmp_path):
    code, _, err = run_cli("analyze", str(tmp_path / "missing.cfg"))
    assert code == cli.EXIT_INPUT and "cannot read" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("{not json")
    code, _, err = run_cli("analyze", str(bad))
    assert code == cli.EXIT_INPUT and "schema error" in err


def test_analyze_a_file_that_is_not_utf8_exits_two(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes('{"name": "m\xe9"}'.encode("latin-1"))
    code, out, err = run_cli("analyze", str(path))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("cannot read configuration: ")


def test_analyze_string_boolean_exits_two(tmp_path):
    doc = json.loads((CONFIG_DIR / "m1.cfg").read_text())
    doc["assume_simply_connected"] = "false"
    path = tmp_path / "string_boolean.cfg"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(path))
    assert code == cli.EXIT_INPUT
    assert "schema error" in err and "assume_simply_connected" in err
    assert "holonomy" not in out


UNSUPPORTED_V = ("unsupported input: unsupported: isolated-singularity "
                 "check needs the ambient space or a single diagonal "
                 "hypersurface\n")


def test_analyze_non_diagonal_variety_is_unsupported(tmp_path):
    doc = json.loads((CONFIG_DIR / "m2.cfg").read_text())
    doc["variety"]["exponents"] = None
    path = tmp_path / "m2_general_member.cfg"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(path))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == UNSUPPORTED_V


def test_analyze_two_equation_variety_is_unsupported(tmp_path):
    # V is rejected before D, whose three equations well_formed cannot
    # handle, so the message names V's shape
    doc = json.loads((CONFIG_DIR / "m2.cfg").read_text())
    doc["variety"] = {"degrees": [8, 4], "exponents": None}
    doc["divisor"]["degrees"] = [8, 4, 4]
    path = tmp_path / "m2_two_equations.cfg"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(path))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == UNSUPPORTED_V


@pytest.mark.parametrize("mutate,needle", [
    pytest.param(lambda d: d["divisor"].__setitem__("degrees", [4, 2, 2]),
                 "divisor.degrees must extend", id="divisor-is-a-curve"),
    pytest.param(lambda d: d["divisor"].__setitem__("H11", 1000),
                 "divisor: unknown fields", id="nested-typo"),
    # a value that is not a list must not pass as no polynomials
    *(pytest.param(lambda d, v=value: d.__setitem__("polynomials", v),
                   "polynomials must be a list", id=f"polynomials-{name}")
      for name, value in (("int", 5), ("null", None), ("object", {}))),
])
def test_analyze_schema_errors_exit_two(mutate, needle, tmp_path):
    code, out, err = run_cli("analyze", _m1_mutation(mutate, tmp_path))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("schema error: ") and needle in err


def test_analyze_structured_format():
    code, out, _ = run_cli("analyze", str(CONFIG_DIR / "m1.cfg"),
                           "--format", "structured")
    assert code == cli.EXIT_OK
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert values["b4"] == "839"
    assert values["moduli_dimension"] == "352"
    assert values["holonomy"] == "Spin(7)"


# ---------------------------------------------------------------------------
# CLI: scan
# ---------------------------------------------------------------------------

def test_scan_is_deterministic_and_accepts_the_known_weights():
    code1, out1, _ = run_cli("scan", "--max-weight", "4")
    code2, out2, _ = run_cli("scan", "--max-weight", "4")
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2
    assert "(1, 1, 1, 1, 4): accepted" in out1
    assert "1 candidate(s) accepted" in out1


def test_scan_structured_format():
    code, out, _ = run_cli("scan", "--max-weight", "4",
                           "--format", "structured")
    assert code == cli.EXIT_OK
    assert "candidate.accepted = 1,1,1,1,4" in out


@pytest.mark.parametrize("ambient_dim", [3, 6])
def test_scan_lines_spell_each_weight_tuple(ambient_dim):
    candidates = wps.scan_admissible(11, ambient_dim)
    assert any(max(c.weights) >= 10 for c in candidates)
    code, table, _ = run_cli("scan", "--max-weight", "11", "--ambient-dim",
                             str(ambient_dim))
    assert code == cli.EXIT_OK
    accepted = sum(c.accepted for c in candidates)
    assert table.splitlines() == [
        f"scan: ambient dimension {ambient_dim}, max weight 11",
        *(f"  {c.weights}: accepted" if c.accepted
          else f"  {c.weights}: rejected: {'; '.join(c.reasons)}"
          for c in candidates),
        f"{accepted} candidate(s) accepted of {len(candidates)}"]
    code, structured, _ = run_cli("scan", "--max-weight", "11",
                                  "--ambient-dim", str(ambient_dim),
                                  "--format", "structured")
    assert code == cli.EXIT_OK
    assert structured.splitlines() == [
        f"candidate.{'accepted' if c.accepted else 'rejected'} = "
        f"{','.join(map(str, c.weights))}" for c in candidates]


@pytest.mark.parametrize("argv", [
    ["--max-weight", "-2"], ["--max-weight", "0"], ["--max-weight", "x"],
    ["--max-weight", "4", "--ambient-dim", "-1"],
    ["--max-weight", "4", "--ambient-dim", "0"]])
def test_scan_rejects_a_size_below_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", *argv])
    assert exc.value.code == cli.EXIT_INPUT
    assert "must be a positive integer" in capsys.readouterr().err
