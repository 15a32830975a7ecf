"""Workload ``orbifold``: global invariants of weighted-projective orbifolds.

Three request kinds, shuffled together in seeded blocks:

- ``analyze``: ``spin7 analyze`` in process, in table or structured
  format, on a seeded coordinate relabeling of one of the six files in
  ``configs/`` (three golden configurations, three negative fixtures);
- ``scan``: ``spin7 scan`` at every max weight 6-12 and ambient
  dimension 4-5 once per block, in a seeded format;
- ``hodge``: ``charnum.steenbrink_hodge`` of an anticanonical diagonal
  member admitted by a seeded scan range, plus two anchor rings.

``wps``, ``charnum``, ``config``, ``invariants`` and the CLI rendering do
all the work.  The block is sized so that each kind takes about a third
of the request time, so a change in any of the three shows in
``ops_per_s``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

from common import run_cli
# ``config`` is imported so that set-up, not the first request, pays for it
from spin7 import charnum, config  # noqa: F401

KINDS = ("analyze", "scan", "hodge")
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCAN_RANGES = [(mw, dim) for mw in range(6, 13) for dim in (4, 5)]
FORMATS = ("table", "structured")
ANALYZE_PER_CONFIG = 22   # per block, for each of the six configurations
HODGE_PER_BLOCK = 720

# golden invariant blocks, recorded from the unrelabeled configurations
_M1 = dict(b1_Y=0, b2_Y=0, b3_Y=151, b1_M=0, b2_M=0, b3_M=0, b4_0=688,
           b4=839, b4_plus=488, b4_minus=200, moduli_dimension=352,
           holonomy="Spin(7)")
_M2 = dict(_M1, b4_0=304, b4=455, b4_plus=232, b4_minus=72,
           moduli_dimension=224)
GOLDEN = {"m1": _M1, "m2": _M2, "m2_via_double_blowup": _M2}
# negative fixtures: the word the rejection must name
NEGATIVE = {"non_isolated": "singular", "not_well_formed": "well-formed",
            "wrong_parity": "parity"}
_TABLE_LABELS = (("b1_Y", "b1(Y)"), ("b2_Y", "b2(Y)"), ("b3_Y", "b3(Y)"),
                 ("b1_M", "b1(M)"), ("b2_M", "b2(M)"), ("b3_M", "b3(M)"),
                 ("b4_0", "b4_0(M)"), ("b4", "b4(M)"),
                 ("b4_plus", "b4_plus(M)"), ("b4_minus", "b4_minus(M)"),
                 ("moduli_dimension", "moduli dimension"),
                 ("holonomy", "holonomy"))
_STRUCTURED_KEYS = ("b1_Y", "b2_Y", "b3_Y", "b4_0", "b4", "b4_plus",
                    "b4_minus", "moduli_dimension", "holonomy")

# sha256 of the scan output at the commit that defined this benchmark
SCAN_DIGESTS = {
    (6, 4, "table"): "0cfaf128b39302e0ab4466cbfe09c04134e2f0a7ee15d6aa80aaccdcde7ddfea",
    (6, 4, "structured"): "cb1e4655db1d5d0c3f93fa6ad2869dbdf96148c8fbffbe0e6695e8a78757aaa6",
    (6, 5, "table"): "9e0d9d5fda4d7cd3f6f234c11446d7bd6d1ee0e146263b8436531a83b18dec32",
    (6, 5, "structured"): "c5fa4258ee8fea9deb23b661bc3405186c00ccda6b5473407952aeeab3082909",
    (7, 4, "table"): "a561fa50065ca029fbc88f1ff0f5c740c7f94e47db1195056d9ec759a5a782a7",
    (7, 4, "structured"): "cf26848cefadd1ec55b41ec696ff86dff901424acc48b85a824a194bdc077f83",
    (7, 5, "table"): "385d25c57e7d0a43988c9f155c761dc57adbfe79700f0454731793d62f987355",
    (7, 5, "structured"): "700524775888717e8ac0128c5e8ff493c73ff947d55171a5a8e5544226c5c7f6",
    (8, 4, "table"): "d62e1d3fc75d2ac5f3798a6cfdc69ef985e02b4eaf33a9a90acfd0f48b590528",
    (8, 4, "structured"): "e7b50defbf4bc9274f77c1df7491c1304e3276bcff8511ed4d024a796c88906c",
    (8, 5, "table"): "32d7dd304218a88756dabda4d5a42da647f89850146d34c16eb2a3f1b1f93760",
    (8, 5, "structured"): "90c5ceae6bc9c41f477ba5e371e0ee2d118cce8a50e834da29ea227de3e77be8",
    (9, 4, "table"): "584c9c297044a08bbaebc04d91c2a5d3314c8592df920445cc3e651a0b637291",
    (9, 4, "structured"): "89f2922a689a4675bdbf7cb9168c7a60828231d593c36ab3a5e43ff44ba730ac",
    (9, 5, "table"): "12029743e1a25257ba6d4ec738affd99d41e5cebcf9bf6a45ef5ca6fa9575efa",
    (9, 5, "structured"): "5fa41fb5f4499be42911aea25996f4423d0118648baf6f556f7c34c4bd09f265",
    (10, 4, "table"): "1daeffff2ee50d2886ae4c6bd93ab195a39b7b32406eff4bdb1eba43adb1680f",
    (10, 4, "structured"): "2cd80ceac6f9621814fb71eeebf3b61b397991cf59461d9680cf78278e4b93c0",
    (10, 5, "table"): "4e8c3e0116aa799e0a9eb06b9a048b89ba01c905300a40a46731d2b20c8dd9b2",
    (10, 5, "structured"): "0073354224bca57ed25e5badcc277de9f500c95ab246cfc3cfd40906dd51a055",
    (11, 4, "table"): "0d1fd2db7e59196a59e0caeecabe734da52694fc2e0f7f59b6483b83367dd781",
    (11, 4, "structured"): "1d9b092e8bd6e5a5f1b257d9702c4ebd270f349ebc7b1eec89c42f1523e6c177",
    (11, 5, "table"): "33cee7ea3e72d1d0b8d5712cad69a9404566b450ce143674119626142f9d77ca",
    (11, 5, "structured"): "d9af156946bfad33b75cd44940f86bb0de2e0627a09b5943fa53edded0234e75",
    (12, 4, "table"): "96132df0eab9130c01b9c19880c01bd206f76437fe3ce9852a12523b8ce42e31",
    (12, 4, "structured"): "63507cd7ad974fd40455dd6c4ffb8e1fd45a569ba0d8e08317f3c2b5ebaa21fa",
    (12, 5, "table"): "0d834a67a622cdf74a9216c237a4e938b99ef8afaa6dd11ce418815c2a1c4ef3",
    (12, 5, "structured"): "2342780f1ae413c1fccc7d5ffc0ec060f08a551b851b88b777fc8db81cc2df86",
}
# Hodge rows fixed by hand: (weights, degree) -> row
HODGE_ANCHORS = {((1, 1, 1, 1, 4), 8): [1, 149, 149, 1],
                 ((1, 1, 1, 1, 4, 4), 8): [0, 35, 232, 35, 0]}


def setup():
    """Nothing beyond importing the orbifold modules."""


def relabel(doc: dict, perm: list[int]) -> dict:
    """The configuration with coordinate k of the result being coordinate
    perm[k] of ``doc``."""
    inverse = {old: new for new, old in enumerate(perm)}

    def permuted(values):
        return [values[p] for p in perm]

    out = json.loads(json.dumps(doc))
    out["ambient_weights"] = permuted(doc["ambient_weights"])
    if doc["variety"].get("exponents") is not None:
        out["variety"]["exponents"] = permuted(doc["variety"]["exponents"])
    sigma_perm = doc["involution"]["permutation"]
    out["involution"]["permutation"] = [inverse[sigma_perm[p]] for p in perm]
    out["involution"]["phase_powers"] = permuted(
        doc["involution"]["phase_powers"])
    for poly in out["polynomials"]:
        for term in poly["terms"]:
            term["exponents"] = permuted(term["exponents"])
    for s in out["sigma"]:
        if "weights" in s and len(s["weights"]) == len(perm):
            s["weights"] = permuted(s["weights"])
    return out


def _invariants(out: str, fmt: str) -> dict:
    """The invariant block of an ``analyze`` report, as label -> text."""
    if fmt == "table":
        lines = out.split("invariants:\n", 1)[-1].splitlines()
        labels = [label for _, label in _TABLE_LABELS]
    else:
        lines = out.splitlines()
        labels = list(_STRUCTURED_KEYS)
    got = dict(line.strip().split(" = ", 1) for line in lines
               if " = " in line)
    return {label: got.get(label) for label in labels}


def analyze_ok(name: str, fmt: str):
    """Check of an ``analyze`` result against configuration ``name``."""
    if name in NEGATIVE:
        needle = NEGATIVE[name]
        return lambda r: r[0] == 1 and needle in r[2].lower()
    golden = GOLDEN[name]
    if fmt == "table":
        want = {label: str(golden[key]) for key, label in _TABLE_LABELS}
    else:
        want = {key: str(golden[key]) for key in _STRUCTURED_KEYS}
    return lambda r: r[0] == 0 and _invariants(r[1], fmt) == want


def anticanonical_rings(max_weight: int, ambient_dim: int):
    """Weight tuples with an anticanonical diagonal member (every weight
    divides their sum), as a scan of that range enumerates them."""
    return [w for w in itertools.combinations_with_replacement(
                range(1, max_weight + 1), ambient_dim + 1)
            if math.gcd(*w) == 1 and not any(sum(w) % a for a in w)]


def _hodge_ok(weights, degree):
    anchor = HODGE_ANCHORS.get((weights, degree))
    if anchor is not None:
        return lambda row: row == anchor
    return lambda row: row == row[::-1] and row[0] == 1


def requests(seed: int, workdir: Path):
    """Endless seeded stream of (kind, run, check) requests.

    The configuration of an ``analyze`` request is written to a file in
    ``workdir`` when the request is drawn, outside the timed interval.
    """
    rng = random.Random(seed)
    docs = {p.stem: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(CONFIG_DIR.glob("*.cfg"))}
    rings = {r: anticanonical_rings(*r) for r in SCAN_RANGES}
    cfg_path = workdir / "request.cfg"
    while True:
        block = [("scan", r) for r in SCAN_RANGES]
        block += [("analyze", name) for name in docs] * ANALYZE_PER_CONFIG
        block += [("hodge", ring) for ring in HODGE_ANCHORS]
        block += [("hodge", (w, sum(w))) for w in (
            rng.choice(rings[rng.choice(SCAN_RANGES)])
            for _ in range(HODGE_PER_BLOCK))]
        rng.shuffle(block)
        for kind, arg in block:
            if kind == "scan":
                fmt = rng.choice(FORMATS)
                mw, dim = arg
                argv = ["scan", "--max-weight", str(mw), "--ambient-dim",
                        str(dim), "--format", fmt]
                digest = SCAN_DIGESTS[(mw, dim, fmt)]
                yield ("scan", lambda argv=argv: run_cli(argv),
                       lambda r, digest=digest: r[0] == 0 and hashlib.sha256(
                           r[1].encode()).hexdigest() == digest)
            elif kind == "analyze":
                doc = docs[arg]
                perm = list(range(len(doc["ambient_weights"])))
                rng.shuffle(perm)
                fmt = rng.choice(FORMATS)
                cfg_path.write_text(json.dumps(relabel(doc, perm)),
                                    encoding="utf-8")
                argv = ["analyze", str(cfg_path), "--format", fmt]
                yield ("analyze", lambda argv=argv: run_cli(argv),
                       analyze_ok(arg, fmt))
            else:
                weights, degree = arg
                yield ("hodge",
                       lambda w=weights, d=degree: charnum.steenbrink_hodge(
                           w, d),
                       _hodge_ok(weights, degree))
