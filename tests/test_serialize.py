"""JSON schema round trips and strictness."""

import json
from fractions import Fraction

import pytest

from lieaffine import serialize
from lieaffine.affine import synthesize
from lieaffine.catalog import make_cn, make_ln, make_qn
from lieaffine.derivations import CharNilpVerdict, char_nilpotent_verdict
from lieaffine.errors import SchemaError
from lieaffine.liealg import TwoForm, algebra_hash
from lieaffine.linalg import Matrix
from lieaffine.serialize import (
    MAX_DIM,
    affine_from_json,
    affine_to_json,
    algebra_from_json,
    algebra_to_json,
    certificate_from_json,
    certificate_to_json,
    format_rational,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
    twoform_from_json,
    twoform_to_json,
    verdict_from_json,
    verdict_to_json,
)

from dense import unit_vector

F = Fraction


def test_rational_formatting():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 3)) == "-1/3"
    assert format_rational(F(0)) == "0"


def test_rational_parsing_recanonicalizes():
    assert parse_rational("2/4") == F(1, 2)
    assert parse_rational("-6/4") == F(-3, 2)
    assert parse_rational("+7") == F(7)


@pytest.mark.parametrize("bad", ["1.5", "a", "1/0", "1/-2", "", "1/2/3", None, 3,
                                 "\u0661", "1\n"])
def test_rational_parsing_rejects_malformed(bad):
    with pytest.raises(SchemaError):
        parse_rational(bad)


def test_algebra_round_trip():
    for alg in (make_ln(4), make_qn(6), make_cn(8, [1, F(1, 2)])[0]):
        doc = algebra_to_json(alg)
        text = json.dumps(doc)
        back = algebra_from_json(json.loads(text))
        assert back.dim == alg.dim
        assert back.name == alg.name
        assert back.basis_names == alg.basis_names
        assert back.structure == alg.structure
        assert algebra_hash(back) == algebra_hash(alg)


def test_algebra_json_uses_one_based_indices():
    doc = algebra_to_json(make_ln(3))
    assert doc["brackets"] == [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]


def test_algebra_rejects_unknown_fields():
    doc = algebra_to_json(make_ln(3))
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        algebra_from_json(doc)


def test_algebra_tolerates_generated_at():
    doc = algebra_to_json(make_ln(3))
    doc["generated_at"] = "2026-01-01T00:00:00+00:00"
    assert algebra_from_json(doc).dim == 3


def test_algebra_rejects_bad_pairs():
    base = algebra_to_json(make_ln(3))
    bad = json.loads(json.dumps(base))
    bad["brackets"][0]["j"] = 1
    with pytest.raises(SchemaError):
        algebra_from_json(bad)
    dup = json.loads(json.dumps(base))
    dup["brackets"].append(dict(dup["brackets"][0]))
    with pytest.raises(SchemaError):
        algebra_from_json(dup)


def test_algebra_recanonicalizes_noncanonical_rationals():
    doc = {
        "name": "g",
        "dim": 3,
        "basis": ["a", "b", "c"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "2/4"}}],
    }
    alg = algebra_from_json(doc)
    assert alg.structure[(0, 1)][2] == F(1, 2)


def test_algebra_drops_zero_coefficients():
    doc = {
        "name": "g",
        "dim": 3,
        "basis": ["a", "b", "c"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "0"}}],
    }
    assert algebra_from_json(doc).structure == {}


def test_twoform_round_trip():
    th = TwoForm.from_entries(4, {(0, 3): F(1, 2), (1, 2): -3})
    back = twoform_from_json(twoform_to_json(th))
    assert back == th


def test_twoform_rejects_bad_entries():
    with pytest.raises(SchemaError):
        twoform_from_json({"dim": 3, "entries": [{"i": 2, "j": 2, "value": "1"}]})
    with pytest.raises(SchemaError):
        twoform_from_json({"dim": 3, "entries": [{"i": 1, "j": 4, "value": "1"}]})


def test_matrix_round_trip():
    m = Matrix([[1, F(1, 2)], [0, -3]])
    back = matrix_from_json(matrix_to_json(m))
    assert back == m


def test_matrix_rejects_ragged():
    with pytest.raises(SchemaError):
        matrix_from_json([["1", "2"], ["3"]])


@pytest.mark.parametrize("build", [
    lambda: synthesize(make_ln(4), seed=0, trials=32)[0],
    lambda: synthesize(make_ln(6), strategy="regular")[0],
    lambda: synthesize(make_cn(6, [1])[0], strategy="derived-regular")[0],
    lambda: synthesize(make_ln(4), strategy="symplectic")[0],
    # explicit zero coefficients and an all-zero pair are dropped on input
    lambda: affine_from_json({"dim": 3, "gamma": [
        {"i": 1, "j": 2, "coeffs": {"1": "0", "3": "2/4"}},
        {"i": 2, "j": 2, "coeffs": {"1": "0", "3": "0/5"}},
    ]}),
], ids=["auto-L4", "regular-L6", "derived-regular-C6", "symplectic-L4", "json-zeros"])
def test_affine_round_trip(build):
    structure = build()
    # canonical table: a stored zero would print as "0" and change the bytes
    assert all(coeffs and all(coeffs.values()) for coeffs in structure.gamma.values())
    doc = affine_to_json(structure)
    back = affine_from_json(json.loads(json.dumps(doc)))
    assert back.dim == structure.dim
    assert back.gamma == structure.gamma
    assert back.provenance == structure.provenance


def test_affine_gamma_allows_equal_indices():
    doc = {
        "dim": 2,
        "gamma": [{"i": 1, "j": 1, "coeffs": {"2": "5"}}],
        "provenance": {},
    }
    ns = affine_from_json(doc)
    assert ns.product(unit_vector(2, 0), unit_vector(2, 0)) == (F(0), F(5))


def _algebra_doc(dim, coeffs):
    return {"name": "g", "dim": dim, "basis": [f"e{k}" for k in range(dim)],
            "brackets": [{"i": 1, "j": 2, "coeffs": coeffs}]}


def _affine_doc(dim, coeffs):
    return {"dim": dim, "gamma": [{"i": 2, "j": 1, "coeffs": coeffs}]}


@pytest.mark.parametrize("parse,make_doc", [
    (algebra_from_json, _algebra_doc),
    (affine_from_json, _affine_doc),
], ids=["brackets", "gamma"])
def test_coefficient_keys_are_ascii_indices_in_range(parse, make_doc):
    # superscript two, Arabic-Indic one, a 5000-digit key, zero, past dim
    for key in ("\u00b2", "\u0661", "1" * 5000, "0", "00", "4", "x"):
        with pytest.raises(SchemaError) as info:
            parse(make_doc(3, {key: "1"}))
        assert len(str(info.value)) < 100
    # a leading zero names the same index, so it cannot hide a duplicate
    with pytest.raises(SchemaError, match="duplicate coefficient index 1"):
        parse(make_doc(10, {"1": "2", "01": "3"}))


def test_affine_leading_zero_key_names_the_index():
    assert affine_from_json(_affine_doc(3, {"003": "7"})).gamma == {(1, 0): {2: F(7)}}


def test_dim_header_is_bounded():
    docs = [
        (algebra_from_json, {"name": "g", "dim": MAX_DIM + 1, "basis": [], "brackets": []}),
        (twoform_from_json, {"dim": MAX_DIM + 1, "entries": []}),
        (affine_from_json, {"dim": MAX_DIM + 1, "gamma": []}),
        (affine_from_json, {"dim": 0, "gamma": []}),
    ]
    for parse, doc in docs:
        with pytest.raises(SchemaError, match=f"dim must lie between 1 and {MAX_DIM}"):
            parse(doc)
    assert affine_from_json({"dim": MAX_DIM, "gamma": []}).gamma == {}


LONG = "x" * 5000


def _certificate_doc(strategy="regular", witnesses=None):
    return {"algebra_hash": "0", "strategy": strategy, "seed": 0, "trials": 1,
            "version": "0", "checks": [], "witnesses": witnesses or {}}


@pytest.mark.parametrize("parse, doc, what", [
    (parse_rational, LONG, "malformed rational"),
    (parse_rational, "0" * 2500 + "/" + "0" * 2499, "zero denominator"),
    (algebra_from_json, {"name": "g", "dim": 1, "basis": ["e1"], "brackets": [], LONG: 1},
     "unknown field"),
    (certificate_from_json, _certificate_doc(witnesses={LONG: []}), "unknown witness kind"),
    (certificate_from_json, _certificate_doc(strategy=LONG), "unknown strategy"),
    (verdict_from_json, {"kind": LONG, "witness": None, "seed": 0, "trials": 1},
     "unknown verdict kind"),
], ids=["malformed", "zero-denominator", "field", "witness", "strategy", "verdict"])
def test_diagnostics_cut_long_document_strings(parse, doc, what):
    with pytest.raises(SchemaError, match=what) as info:
        parse(doc)
    assert len(str(info.value)) < 120


def test_certificate_round_trip():
    l6 = make_ln(6)
    _, cert = synthesize(l6, seed=0, trials=32)
    doc = certificate_to_json(cert)
    back = certificate_from_json(json.loads(json.dumps(doc)))
    assert back.algebra_hash == cert.algebra_hash
    assert back.strategy == cert.strategy
    assert back.seed == cert.seed and back.trials == cert.trials
    assert back.checks == cert.checks
    assert back.witnesses["derivation"] == cert.witnesses["derivation"]
    assert back.witnesses["affine_structure"].gamma == cert.witnesses[
        "affine_structure"
    ].gamma


def test_certificate_rejects_unknown_witness():
    l6 = make_ln(6)
    _, cert = synthesize(l6, seed=0, trials=32)
    doc = certificate_to_json(cert)
    doc["witnesses"]["mystery"] = [["1"]]
    with pytest.raises(SchemaError):
        certificate_from_json(doc)


def test_verdict_round_trip():
    verdict = char_nilpotent_verdict(make_ln(5), seed=0, trials=32)
    back = verdict_from_json(verdict_to_json(verdict))
    assert back.kind == verdict.kind
    assert back.witness == verdict.witness
    assert back.seed == verdict.seed and back.trials == verdict.trials


def test_verdict_schema_consistency():
    with pytest.raises(SchemaError):
        verdict_from_json(
            {"kind": "NotCharNilpotent", "witness": None, "seed": 0, "trials": 1}
        )
    with pytest.raises(SchemaError):
        verdict_from_json(
            {
                "kind": "CharNilpotentLikely",
                "witness": [["1"]],
                "seed": 0,
                "trials": 1,
            }
        )
    with pytest.raises(SchemaError):
        verdict_from_json({"kind": "Maybe", "witness": None, "seed": 0, "trials": 1})


def test_square_witness_shape_is_checked_before_any_entry_is_parsed(monkeypatch):
    parsed = []
    monkeypatch.setattr(serialize, "parse_rational", parsed.append)
    for rows in ([["1"] * 1000], [["1", "0"], ["0"]], [["x"] * 3, ["0"] * 3]):
        doc = {"kind": "NotCharNilpotent", "witness": rows, "seed": 0, "trials": 1}
        with pytest.raises(SchemaError, match="^witness must be square$"):
            verdict_from_json(doc)
    assert parsed == []


def test_hash_is_stable_across_runs():
    # Pure function of dim and brackets: byte-for-byte reproducible.
    a = algebra_hash(make_ln(9))
    b = algebra_hash(make_ln(9))
    assert a == b
    assert len(a) == 64
