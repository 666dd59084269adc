"""JSON schema round trips and strictness."""

import json
import random
from fractions import Fraction

import pytest

from lieaffine import serialize
from lieaffine.affine import (
    AffineStructure,
    Certificate,
    find_symplectic,
    reverify_certificate,
    synthesize,
)
from lieaffine.catalog import make_abelian, make_ank, make_benoist, make_cn, make_ln, make_qn
from lieaffine.cli import main
from lieaffine.derivations import (
    CharNilpVerdict,
    char_nilpotent_verdict,
    find_derived_regular_derivation,
    find_regular_derivation,
)
from lieaffine.errors import DimensionMismatch, SchemaError
from lieaffine.liealg import LieAlgebra, TwoForm, algebra_hash
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
    json_text,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
    twoform_from_json,
    twoform_to_json,
    verdict_from_json,
    verdict_to_json,
)

from dense import product, unit_vector

F = Fraction


def test_rational_formatting():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 3)) == "-1/3"
    assert format_rational(F(0)) == "0"
    # an int over a den is put in lowest terms with no Fraction, as str(Fraction) writes it
    for x in range(-12, 13):
        for den in (1, 2, 3, 4, 6, 12):
            assert format_rational(x, den) == str(F(x, den))


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
    assert (alg.structure, alg.den) == ({(0, 1): {2: 1}}, 2)


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
    assert back == structure


def test_affine_gamma_allows_equal_indices():
    doc = {
        "dim": 2,
        "gamma": [{"i": 1, "j": 1, "coeffs": {"2": "5"}}],
        "provenance": {},
    }
    ns = affine_from_json(doc)
    assert product(ns, unit_vector(2, 0), unit_vector(2, 0)) == (F(0), F(5))


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
    # read back from its JSON, each strategy's certificate equals it field
    # for field: every witness, the affine structure too, compares by value
    cases = [(make_ln(6), "auto"), (make_cn(8, [F(2, 3), F(1, 2)])[0], "derived-regular"),
             (make_ln(6), "symplectic")]
    for alg, strategy in cases:
        _, cert = synthesize(alg, strategy=strategy, seed=0, trials=32)
        doc = certificate_to_json(cert)
        back = certificate_from_json(json.loads(json.dumps(doc)))
        assert back == cert, strategy
        structure = cert.witnesses["affine_structure"]
        assert back.witnesses["affine_structure"] is not structure
        assert hash(back.witnesses["affine_structure"]) == hash(structure)


# one `affine synth` certificate per strategy: (algebra, family arguments, strategy arguments)
_SYNTH = {
    "auto-L8": (lambda: make_ln(8), ["--family", "Ln", "--n", "8"], []),
    "derived-regular-C8": (lambda: make_cn(8, [1, 1])[0],
                           ["--family", "Cn", "--n", "8", "--lambda=1", "--lambda=1"],
                           ["--strategy", "derived-regular"]),
    "symplectic-L8": (lambda: make_ln(8), ["--family", "Ln", "--n", "8"],
                      ["--strategy", "symplectic"]),
}


def _synth_stdout(capsys, name):
    _, family, strategy = _SYNTH[name]
    assert main(["affine", "synth", *family, *strategy, "--reproducible"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", list(_SYNTH))
def test_certificate_bytes_survive_a_round_trip(capsys, name):
    out = _synth_stdout(capsys, name)
    doc = json.loads(out)
    label = doc.pop("name")
    back = certificate_to_json(certificate_from_json(doc))
    assert json_text({**back, "name": label}) + "\n" == out


@pytest.mark.parametrize("name", list(_SYNTH))
def test_certificate_with_a_legacy_provenance_verifies(capsys, tmp_path, name):
    # earlier versions also wrote the witness under the product tensor's
    # "provenance"; such a certificate still parses and verifies
    doc = json.loads(_synth_stdout(capsys, name))
    witnesses = doc["witnesses"]
    if "two_form" in witnesses:
        inputs = {"two_form": matrix_to_json(twoform_from_json(witnesses["two_form"]).gram)}
    else:
        inputs = {"derivation": witnesses["derivation"]}
    witnesses["affine_structure"]["provenance"] = {
        "strategy": doc["strategy"], "inputs": inputs, "seed": None}
    build, family, _ = _SYNTH[name]
    assert reverify_certificate(build(), certificate_from_json(doc)).ok
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc, indent=2))
    assert main(["affine", "verify", *family, "--cert", str(path), "--reproducible"]) == 0
    assert main(["io", "validate", "--kind", "certificate", "--in", str(path),
                 "--reproducible"]) == 0


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


def _read_back(to_json, from_json, value):
    """What a reader makes of the document the library writes for value, as the CLI prints it."""
    return from_json(json.loads(json_text(to_json(value))))


def _algebra_fields(alg):
    return alg.dim, alg.name, alg.basis_names, alg.structure, alg.den


def _seeded_pairs(rng, dim, ordered):
    """Up to a dozen seeded basis pairs (i, j) of dim, with i < j when ``ordered``."""
    pairs = {(rng.randrange(dim), rng.randrange(dim)) for _ in range(12)}
    return sorted((min(p), max(p)) for p in pairs if p[0] != p[1]) if ordered else sorted(pairs)


def _seeded_coeffs(rng, dim):
    return {rng.randrange(dim): F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(3)}


def test_seeded_values_read_back_as_the_library_built_them():
    # whatever the library builds, with 1 <= dim <= MAX_DIM, is written and
    # read back unchanged: names of any string, any rationals, any budget
    rng = random.Random(59)
    names = ["", "3", "x\u2081", 'q"uo\\te', " spaced ", "\u00e9t\u00e9"]
    for dim in (1, 2, 3, 7, 16, rng.randint(17, MAX_DIM - 1), MAX_DIM):
        table = {p: _seeded_coeffs(rng, dim) for p in _seeded_pairs(rng, dim, True)}
        alg = LieAlgebra(dim, table, name=rng.choice(names),
                         basis_names=[rng.choice(names) + str(k) for k in range(dim)])
        assert _algebra_fields(_read_back(algebra_to_json, algebra_from_json, alg)) \
            == _algebra_fields(alg), dim
        form = TwoForm.from_entries(dim, {p: F(rng.randint(-9, 9), rng.randint(1, 5))
                                          for p in _seeded_pairs(rng, dim, True)})
        assert _read_back(twoform_to_json, twoform_from_json, form) == form, dim
        structure = AffineStructure(dim, {p: _seeded_coeffs(rng, dim)
                                          for p in _seeded_pairs(rng, dim, False)})
        assert _read_back(affine_to_json, affine_from_json, structure) == structure, dim
    for alg in (make_abelian(1), make_ln(3), make_qn(8, adapted=True), make_benoist(F(7, 5)),
                make_ank(7, 2, [1, F(1, 2)])[0], make_cn(10, [F(2, 3), -1, F(1, 2)])[0]):
        assert _algebra_fields(_read_back(algebra_to_json, algebra_from_json, alg)) \
            == _algebra_fields(alg), alg.name
    cases = [(make_ln(6), "regular", -5, 10 ** 9),
             (make_cn(8, [F(2, 3), F(1, 2)])[0], "derived-regular", 2 ** 70, 1),
             (make_ln(8), "symplectic", -(10 ** 30), 10 ** 9)]
    for alg, strategy, seed, trials in cases:
        _, cert = synthesize(alg, strategy=strategy, seed=seed, trials=trials)
        back = _read_back(certificate_to_json, certificate_from_json, cert)
        for field in Certificate._fields:
            assert getattr(back, field) == getattr(cert, field), (strategy, field)
        assert reverify_certificate(alg, back).ok, strategy
    for alg, seed in ((make_ln(5), -3), (make_benoist(1), 10 ** 20)):
        verdict = char_nilpotent_verdict(alg, seed=seed, trials=10 ** 9)
        back = _read_back(verdict_to_json, verdict_from_json, verdict)
        for field in CharNilpVerdict._fields:
            assert getattr(back, field) == getattr(verdict, field), (alg.name, field)


_L4 = make_ln(4)
_L4_DOCS = {kind: json.loads(json_text(doc)) for kind, doc in (
    ("algebra", algebra_to_json(_L4)),
    ("certificate", certificate_to_json(synthesize(_L4)[1])),
    ("verdict", verdict_to_json(char_nilpotent_verdict(_L4))),
    ("twoform", twoform_to_json(TwoForm.from_entries(4, {(0, 3): 1}))),
    ("affine", affine_to_json(AffineStructure(4, {(0, 1): {2: 1}}))),
)}


def _with(kind, **fields):
    return dict(_L4_DOCS[kind], **fields)


# value -> (the library entry points, the document readers) that read it
_ENTRY_POINTS = {
    "dim": ([lambda v: LieAlgebra(v, {}), lambda v: AffineStructure(v, {}),
             lambda v: TwoForm.from_entries(v, {})],
            [lambda v: algebra_from_json(_with("algebra", dim=v)),
             lambda v: affine_from_json(_with("affine", dim=v)),
             lambda v: twoform_from_json(_with("twoform", dim=v))]),
    "seed": ([lambda v: find_regular_derivation(_L4, seed=v),
              lambda v: find_derived_regular_derivation(_L4, seed=v),
              lambda v: find_symplectic(_L4, seed=v), lambda v: char_nilpotent_verdict(_L4, seed=v),
              lambda v: synthesize(_L4, seed=v)],
             [lambda v: certificate_from_json(_with("certificate", seed=v)),
              lambda v: verdict_from_json(_with("verdict", seed=v))]),
    "trials": ([lambda v: find_regular_derivation(_L4, trials=v),
                lambda v: find_derived_regular_derivation(_L4, trials=v),
                lambda v: find_symplectic(_L4, trials=v),
                lambda v: char_nilpotent_verdict(_L4, trials=v),
                lambda v: synthesize(_L4, trials=v)],
               [lambda v: certificate_from_json(_with("certificate", trials=v)),
                lambda v: verdict_from_json(_with("verdict", trials=v))]),
    "name": ([lambda v: LieAlgebra(2, {}, name=v)],
             [lambda v: algebra_from_json(_with("algebra", name=v)),
              lambda v: certificate_from_json(_with("certificate", name=v)),
              lambda v: verdict_from_json(_with("verdict", name=v))]),
    "basis name": ([lambda v: LieAlgebra(2, {}, basis_names=[v, "b"])],
                   [lambda v: algebra_from_json(_with("algebra", basis=[v, "b", "c", "d"]))]),
}

_WRONG = [True, 2.5, "3", None]
# (value, what is read, the one message that refuses it, or None where it is accepted)
_REFUSALS = [
    *(("dim", v, "dim must be an integer") for v in _WRONG),
    *(("seed", v, "seed must be an integer") for v in _WRONG),
    *(("trials", v, "trials must be an integer") for v in _WRONG),
    ("trials", 0, "trials must be at least 1"), ("trials", -1, "trials must be at least 1"),
    *((what, v, None if v == "3" else f"{what} must be a string")
      for what in ("name", "basis name") for v in [*_WRONG, 5]),
]


@pytest.mark.parametrize("what, value, message", _REFUSALS)
def test_library_and_documents_refuse_a_value_alike(what, value, message):
    # each value has one rule: the library entry point and the document
    # reader refuse the same values with the same text, and accept the rest
    library, readers = _ENTRY_POINTS[what]
    for call in library:
        if message is None:
            call(value)
            continue
        with pytest.raises((TypeError, ValueError)) as info:
            call(value)
        assert str(info.value) == message
        assert isinstance(info.value, ValueError) == message.endswith("at least 1")
    for read in readers:
        if message is None:
            read(value)
            continue
        with pytest.raises(SchemaError) as info:
            read(value)
        assert str(info.value) == message


@pytest.mark.parametrize("dim", [0, -2])
def test_every_value_type_refuses_a_dimension_below_one(dim):
    # the value types share LieAlgebra's rule, so none of them builds a value
    # whose document every reader refuses
    library, readers = _ENTRY_POINTS["dim"]
    for call in library:
        with pytest.raises(DimensionMismatch, match="^algebra dimension must be at least 1$"):
            call(dim)
    for read in readers:
        with pytest.raises(SchemaError, match=f"^dim must lie between 1 and {MAX_DIM}$"):
            read(dim)
