"""Configuration schema for orbifold configurations, and the pipeline
that turns a parsed configuration into an invariant report.

Configurations are JSON documents.  Schema (all coordinates 0-based):

{
  "name": str,
  "ambient_weights": [int, ...],
  "variety": {                       # V inside the ambient space
    "degrees": [int, ...],           # [] means V is the ambient space
    "exponents": [int, ...] | null   # diagonal member, one per coordinate
  },
  "divisor": {                       # D, one hypersurface section of V
    "degrees": [int, ...],           # V's degrees, then the cut of D
    "h11": int                       # h^{1,1}(D), default 1 (Lefschetz)
  },
  "sigma": [                         # components of the self-intersection
    {"degrees": [int, ...], "multiplicity": int}, ...
  ],
  "involution": {
    "permutation": [int, ...],
    "phase_powers": [int, ...]       # eps_i = i ** phase_powers[i]
  },
  "polynomials": [                   # forms that the involution preserves
    {"name": str,
     "terms": [{"exponents": [int, ...], "coeff": str}, ...]}, ...
  ],
  "assume_simply_connected": bool    # smooth locus etc.; not machine-checked
}

Every object rejects a key the schema does not list.
``dump_config(load_config(text))`` is canonical and idempotent, giving a
bit-exact round-trip of the schema.

``analyze`` runs six admissibility checks in this order and records one
``(name, "pass")`` entry per check in ``AnalysisResult.checks``.  The
first failing check raises ``AdmissibilityFailure`` with its reasons:

1. ``well-formed (V)``;
2. ``well-formed (D)``;
3. ``quasismooth (V)``: the ambient space or a diagonal member;
4. ``isolated Z4 singularities``;
5. ``involution``;
6. ``anticanonical divisor degree``.

It raises it too when chi(V) disagrees with the Betti numbers, and when
[Sigma] = [D]^2 fails: sum(multiplicity * prod(degrees)) over sigma must
be prod(V's degrees) times the square of D's cut.  V must
be the ambient space or a single diagonal hypersurface.
``wps.isolated_z4_check`` decides this once, right after
``well-formed (V)`` and before D is looked at, and raises
``wps.UnsupportedError`` for any other V.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from spin7 import charnum, invariants, wps


class SchemaError(ValueError):
    """The configuration document does not match the schema."""


class AdmissibilityFailure(ValueError):
    """A mathematical admissibility check failed; reasons attached."""

    def __init__(self, reasons: list[str]):
        super().__init__("; ".join(reasons))
        self.reasons = list(reasons)


@dataclass(frozen=True)
class SigmaSpec:
    degrees: tuple[int, ...]
    multiplicity: int


@dataclass(frozen=True)
class Configuration:
    """A parsed configuration document."""

    name: str
    ambient_weights: tuple[int, ...]
    variety_degrees: tuple[int, ...]
    variety_exponents: tuple[int, ...] | None
    divisor_degrees: tuple[int, ...]
    divisor_h11: int
    sigma: tuple[SigmaSpec, ...]
    involution: wps.InvolutionDatum
    polynomials: tuple[tuple[str, wps.Polynomial], ...]
    assume_simply_connected: bool

    def variety_datum(self) -> wps.CompleteIntersectionDatum:
        return wps.CompleteIntersectionDatum(
            wps.WeightedSpace(self.ambient_weights),
            self.variety_degrees,
            self.variety_exponents)

    def divisor_datum(self) -> wps.CompleteIntersectionDatum:
        return wps.CompleteIntersectionDatum(
            wps.WeightedSpace(self.ambient_weights), self.divisor_degrees)


def _require(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


def _object(value: Any, where: str, fields: set[str]) -> dict:
    """A JSON object whose keys all belong to ``fields``."""
    _require(isinstance(value, dict), f"{where} must be an object")
    unknown = value.keys() - fields
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    return value


def _int_list(value: Any, where: str) -> tuple[int, ...]:
    # JSON integers only: ``true``/``false`` are bools, not the ints 1/0
    _require(isinstance(value, list) and set(map(type, value)) <= {int},
             f"{where} must be a list of integers")
    return tuple(value)


def _positive_list(value: Any, where: str) -> tuple[int, ...]:
    _require(isinstance(value, list) and set(map(type, value)) <= {int}
             and min(value, default=1) >= 1,
             f"{where} must be a list of positive integers")
    return tuple(value)


def load_config(text: str) -> Configuration:
    """Parse and validate a configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    _object(doc, "top level", {
        "name", "ambient_weights", "variety", "divisor", "sigma",
        "involution", "polynomials", "assume_simply_connected"})
    for field in ("name", "ambient_weights", "variety", "divisor", "sigma",
                  "involution"):
        _require(field in doc, f"missing field: {field}")

    name = doc["name"]
    _require(isinstance(name, str) and name, "name must be a nonempty string")
    weights = _int_list(doc["ambient_weights"], "ambient_weights")
    n1 = len(weights)

    variety = _object(doc["variety"], "variety", {"degrees", "exponents"})
    vdeg = _int_list(variety.get("degrees", []), "variety.degrees")
    vexp_raw = variety.get("exponents")
    vexp = (None if vexp_raw is None
            else _int_list(vexp_raw, "variety.exponents"))

    divisor = _object(doc["divisor"], "divisor", {"degrees", "h11"})
    ddeg = _positive_list(divisor.get("degrees", []), "divisor.degrees")
    _require(len(ddeg) == len(vdeg) + 1 and ddeg[:len(vdeg)] == vdeg,
             "divisor.degrees must extend variety.degrees by exactly one "
             "degree, the cut of D")
    h11 = divisor.get("h11", 1)
    _require(type(h11) is int and h11 >= 1, "divisor.h11 must be >= 1")

    sigma_docs = doc["sigma"]
    _require(isinstance(sigma_docs, list) and sigma_docs,
             "sigma must be a nonempty list")
    sigma = []
    for i, s in enumerate(sigma_docs):
        _object(s, f"sigma[{i}]", {"degrees", "multiplicity"})
        s_degrees = _positive_list(s.get("degrees", []),
                                   f"sigma[{i}].degrees")
        mult = s.get("multiplicity", 1)
        _require(type(mult) is int and mult >= 1,
                 f"sigma[{i}].multiplicity must be a positive integer")
        _require(n1 - 1 - len(s_degrees) == 2,
                 f"sigma[{i}] must describe a surface")
        sigma.append(SigmaSpec(s_degrees, mult))

    inv_doc = _object(doc["involution"], "involution",
                      {"permutation", "phase_powers"})
    perm = _int_list(inv_doc.get("permutation", []),
                     "involution.permutation")
    phases = _int_list(inv_doc.get("phase_powers", []),
                       "involution.phase_powers")
    _require(len(perm) == n1 and len(phases) == n1,
             "involution entries must match the number of coordinates")
    try:
        involution = wps.InvolutionDatum(perm, phases)
    except ValueError as exc:
        raise SchemaError(f"involution: {exc}") from None

    poly_docs = doc.get("polynomials", [])
    _require(isinstance(poly_docs, list), "polynomials must be a list")
    polys = []
    for i, p in enumerate(poly_docs):
        _object(p, f"polynomials[{i}]", {"name", "terms"})
        _require(isinstance(p.get("name"), str),
                 f"polynomials[{i}].name must be a string")
        terms = p.get("terms", [])
        _require(isinstance(terms, list) and terms,
                 f"polynomials[{i}].terms must be a nonempty list")
        entries = []
        for j, t in enumerate(terms):
            _object(t, f"polynomials[{i}].terms[{j}]", {"exponents", "coeff"})
            exps = _int_list(t.get("exponents", []), "term exponents")
            _require(len(exps) == n1, "term exponents must cover all "
                     "coordinates")
            _require(min(exps, default=0) >= 0,
                     "term exponents must be nonnegative")
            coeff = t.get("coeff", "1")
            _require(isinstance(coeff, str), "term coeff must be a string")
            try:
                entries.append((exps, wps.GaussianRational.parse(coeff)))
            except ValueError as exc:
                raise SchemaError(str(exc)) from None
        polys.append((p["name"], wps.parse_polynomial(entries)))

    simply_connected = doc.get("assume_simply_connected", True)
    _require(isinstance(simply_connected, bool),
             "assume_simply_connected must be true or false")

    try:
        config = Configuration(
            name=name,
            ambient_weights=weights,
            variety_degrees=vdeg,
            variety_exponents=vexp,
            divisor_degrees=ddeg,
            divisor_h11=h11,
            sigma=tuple(sigma),
            involution=involution,
            polynomials=tuple(polys),
            assume_simply_connected=simply_connected,
        )
        config.variety_datum()  # validates weights/degrees/exponents
        config.divisor_datum()
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    return config


def dump_config(config: Configuration) -> str:
    """Serialize a configuration canonically (stable key order, 2-space
    indentation, trailing newline)."""
    doc: dict[str, Any] = {
        "name": config.name,
        "ambient_weights": list(config.ambient_weights),
        "variety": {
            "degrees": list(config.variety_degrees),
            "exponents": (None if config.variety_exponents is None
                          else list(config.variety_exponents)),
        },
        "divisor": {
            "degrees": list(config.divisor_degrees),
            "h11": config.divisor_h11,
        },
        "sigma": [
            {"degrees": list(s.degrees), "multiplicity": s.multiplicity}
            for s in config.sigma
        ],
        "involution": {
            "permutation": list(config.involution.permutation),
            "phase_powers": list(config.involution.phase_powers),
        },
        "polynomials": [
            {"name": name,
             "terms": [{"exponents": list(exps), "coeff": str(coeff)}
                       for exps, coeff in sorted(poly.items())]}
            for name, poly in config.polynomials
        ],
        "assume_simply_connected": config.assume_simply_connected,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# analysis pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisResult:
    """Everything computed while analyzing a configuration."""

    config: Configuration
    checks: tuple[tuple[str, str], ...]   # (check name, outcome note)
    chi_V: charnum.ChiResult               # orbifold and topological chi(V)
    data: invariants.OrbifoldConfiguration
    report: invariants.InvariantReport


def analyze(config: Configuration) -> AnalysisResult:
    """Run all admissibility checks and compute the invariant report.

    Raises ``AdmissibilityFailure`` when a mathematical check fails and
    ``wps.UnsupportedError`` when V is not the ambient space or a single
    diagonal hypersurface.
    """
    checks: list[tuple[str, str]] = []

    def check(name: str, failures, note: str = "pass"):
        failures = list(failures)
        if failures:
            raise AdmissibilityFailure(failures)
        checks.append((name, note))

    variety = config.variety_datum()
    space = variety.space

    check("well-formed (V)", (f"well-formedness: {v}"
                              for v in wps.well_formed(variety)[1]))
    iso = wps.isolated_z4_check(variety)  # the only check of V's shape
    divisor = config.divisor_datum()
    check("well-formed (D)", (f"well-formedness of D: {v}"
                              for v in wps.well_formed(divisor)[1]))

    wps.diagonal_quasismooth(variety)
    check("quasismooth (V)", ())
    empty = () if iso.k else ("the singular locus is empty",)
    check("isolated Z4 singularities",
          (f"singularities: {r}" for r in iso.reasons or empty))

    involution = wps.involution_check(
        variety, config.involution,
        [poly for _, poly in config.polynomials], iso)
    check("involution", (f"involution: {r}" for r in involution.reasons))

    anticanonical = wps.anticanonical_degree(variety)
    divisor_cut = config.divisor_degrees[-1]
    check("anticanonical divisor degree",
          [f"divisor degree {divisor_cut} does not match the "
           f"anticanonical degree {anticanonical}"]
          if divisor_cut != anticanonical else [])

    orders = []
    for group in iso.points:
        orders.extend([group.stratum.order] * group.count)

    chi_v = charnum.euler_characteristics(
        space.weights, config.variety_degrees, orders)
    if config.variety_degrees:
        hodge_row = charnum.steenbrink_hodge(space.weights,
                                             config.variety_degrees[0])
        h31 = hodge_row[1]  # h^{n-2, 1} = h^{3,1} for a 4-fold
        # by Lefschetz b0 = b2 = b6 = b8 = 1, b4 is the middle row's sum
        # and the odd Betti numbers vanish
        betti_chi = 4 + sum(hodge_row)
    else:
        h31 = 0  # the ambient space has rational cohomology generated
        # in degree 2, so no (3,1)-classes
        betti_chi = len(space.weights)  # that of CP^n
    if chi_v.chi_top != betti_chi:
        raise AdmissibilityFailure([
            f"chi(V) = {chi_v.chi_top} from the Chern classes and the "
            f"singular points, but {betti_chi} from the Betti numbers"])

    chi_d = charnum.euler_characteristics(
        space.weights, config.divisor_degrees).chi_top
    sigma = []
    for i, s in enumerate(config.sigma):
        try:
            chi_s, _, pg_s = charnum.noether_pg(space.weights, s.degrees)
        except ValueError as exc:
            raise AdmissibilityFailure([f"sigma[{i}]: {exc}"]) from None
        sigma.append(invariants.SigmaComponent(chi_s, pg_s, s.multiplicity))

    data = invariants.OrbifoldConfiguration(
        chi_V=chi_v.chi_top,
        h31_V=h31,
        chi_D=chi_d,
        h21_D=charnum.cy3_hodge_from_chi(chi_d, config.divisor_h11),
        k=iso.k,
        orders=tuple(orders),
        sigma=tuple(sigma),
        simply_connected=config.assume_simply_connected,
    )
    try:
        report = invariants.compute_report(data)
    except ValueError as exc:
        raise AdmissibilityFailure([str(exc)]) from None
    # [Sigma] = [D]^2 in degrees, after compute_report names a wrong parity
    lhs = sum(s.multiplicity * math.prod(s.degrees) for s in config.sigma)
    rhs = math.prod(config.variety_degrees) * divisor_cut ** 2
    if lhs != rhs:
        raise AdmissibilityFailure([
            f"sigma: [Sigma] = {lhs} from its degrees and multiplicities, "
            f"but [D]^2 = {rhs}; Sigma must be the self-intersection of D"])
    return AnalysisResult(config=config, checks=tuple(checks), chi_V=chi_v,
                          data=data, report=report)
