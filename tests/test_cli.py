"""CLI surface: exit codes, JSON payloads, piping, determinism."""

import collections
import functools
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import pytest

from lieaffine import affine, catalog, cli, derivations, liealg, linalg
from lieaffine.cli import MAX_TRIALS, main
from lieaffine.derivations import is_derivation
from lieaffine.errors import DimensionMismatch, NotInvariantError
from lieaffine.linalg import Matrix, nonsingular
from lieaffine.serialize import (
    MAX_DIM,
    algebra_from_json,
    algebra_to_json,
    certificate_from_json,
    json_text,
)

from dense import kernel_routes


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_catalog_show_ln4(capsys):
    code, payload, _ = run_cli(
        capsys, ["catalog", "show", "--family", "Ln", "--n", "4", "--reproducible"]
    )
    assert code == 0
    alg = algebra_from_json(payload)
    assert alg.dim == 4
    assert alg.structure == {(0, 1): {2: 1}, (0, 2): {3: 1}}


def test_catalog_show_requires_family(capsys):
    code, _, err = run_cli(capsys, ["catalog", "show"])
    assert code == 2
    assert "family" in err


@pytest.mark.parametrize("command", [("catalog", "show"), ("der", "torus")])
def test_family_only_commands_take_no_in(capsys, command):
    # both read --family alone, so an --in document is refused, not ignored
    code, payload, err = run_cli(capsys, [*command, "--family", "Ln", "--n", "4",
                                          "--in", "alg.json"])
    assert code == 2 and payload is None
    assert "unrecognized arguments: '--in alg.json'" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [("affine", "synth"), ("der", "char-nilp")])
def test_in_with_family_is_a_usage_error(capsys, command):
    # the document would go unread behind the family, so the pair is refused
    code, payload, err = run_cli(capsys, [*command, "--family", "Ln", "--n", "4",
                                          "--in", "alg.json"])
    assert code == 2 and payload is None
    assert "argument --in: not allowed with argument --family" in err
    assert err.count("\n") == 1


def test_catalog_list(capsys):
    code, payload, _ = run_cli(capsys, ["catalog", "list", "--reproducible"])
    assert code == 0
    ids = {f["id"] for f in payload["families"]}
    assert ids == {"Ln", "Qn", "QnZ", "Ank", "Bnk", "Cn", "Benoist"}


def test_pipe_catalog_show_into_verify_jacobi(capsys, monkeypatch):
    families = [
        ["--family", "Ln", "--n", "9"],
        ["--family", "Qn", "--n", "8"],
        ["--family", "QnZ", "--n", "10"],
        ["--family", "Ank", "--n", "5", "--k", "2", "--lambda", "1"],
        ["--family", "Bnk", "--n", "6", "--k", "2", "--lambda", "1"],
        ["--family", "Cn", "--n", "6", "--lambda", "1"],
        ["--family", "Benoist", "--t", "1"],
    ]
    for extra in families:
        code, payload, _ = run_cli(
            capsys, ["catalog", "show", "--reproducible"] + extra
        )
        assert code == 0
        shown = json.dumps(payload)
        code, verdict, _ = run_cli(
            capsys, ["verify", "jacobi", "--reproducible"],
            stdin_text=shown, monkeypatch=monkeypatch,
        )
        assert code == 0, extra
        assert verdict["jacobi_ok"] is True


def test_verify_jacobi_flags_violations(capsys, monkeypatch):
    bad = {
        "name": "broken",
        "dim": 4,
        "basis": ["Y1", "Y2", "Y3", "Y4"],
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"3": "1"}},
            {"i": 1, "j": 3, "coeffs": {"4": "1"}},
            {"i": 2, "j": 4, "coeffs": {"3": "1"}},
        ],
    }
    code, payload, _ = run_cli(
        capsys, ["verify", "jacobi", "--reproducible"],
        stdin_text=json.dumps(bad), monkeypatch=monkeypatch,
    )
    assert code == 1
    assert payload["jacobi_ok"] is False
    triples = {(v["i"], v["j"], v["k"]) for v in payload["violations"]}
    assert (1, 2, 4) in triples


def test_verify_jacobi_rejects_rational_past_digit_limit(capsys, tmp_path):
    # Python refuses int strings past 4300 digits; that is an input error
    doc = {
        "name": "huge",
        "dim": 3,
        "basis": ["Y1", "Y2", "Y3"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1" + "0" * 5000}}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run_cli(
        capsys, ["verify", "jacobi", "--in", str(path), "--reproducible"]
    )
    assert code == 2
    assert payload is None
    assert "digit limit" in err


def test_verify_jacobi_reports_residual_past_digit_limit(capsys, tmp_path):
    # every coefficient is within the input limit, but the Jacobi residual
    # is X^2, about 6000 digits: a diagnostic with exit 2, not a traceback
    x = "1" + "0" * 3000
    doc = {
        "name": "huge-residual",
        "dim": 4,
        "basis": ["Y1", "Y2", "Y3", "Y4"],
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"3": x}},
            {"i": 1, "j": 3, "coeffs": {"4": x}},
            {"i": 2, "j": 4, "coeffs": {"1": x}},
        ],
    }
    path = tmp_path / "huge-residual.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run_cli(
        capsys, ["verify", "jacobi", "--in", str(path), "--reproducible"]
    )
    assert code == 2
    assert payload is None
    assert "digit limit" in err


def _assert_one_line_input_error(code, payload, err):
    assert code == 2 and payload is None
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert "digit limit" in err


@pytest.mark.parametrize("command", ["io validate", "affine verify"])
def test_integer_literal_past_digit_limit_is_an_input_error(capsys, tmp_path, command):
    # json.load refuses an int literal past 4300 digits with a bare ValueError
    huge = "1" + "0" * 4999
    path = tmp_path / "huge.json"
    if command == "io validate":
        path.write_text('{"name": "g", "dim": %s, "basis": [], "brackets": []}' % huge)
        argv = ["io", "validate", "--kind", "algebra", "--in", str(path)]
    else:
        doc = json.dumps(dict(_ln6_certificate(capsys), seed="SEED"))
        path.write_text(doc.replace('"SEED"', huge))
        argv = ["affine", "verify", "--family", "Ln", "--n", "6", "--cert", str(path)]
    _assert_one_line_input_error(*run_cli(capsys, argv + ["--reproducible"]))


@pytest.mark.parametrize("argv", [
    # Lie for any λ; a_ij = λ1 - λ2 has 4301 digits
    ["affine", "synth", "--family", "Ank", "--n", "8", "--k", "2",
     "--lambda=" + "9" * 4300, "--lambda=-" + "9" * 4300],
    ["affine", "verify", "--family", "Benoist", "--t=" + "9" * 4300, "--cert", "CERT"],
], ids=["Ank-synth", "Benoist-verify"])
def test_algebra_hash_past_digit_limit_is_an_input_error(capsys, tmp_path, argv):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(_ln6_certificate(capsys)))
    argv = [str(cert_path) if a == "CERT" else a for a in argv]
    _assert_one_line_input_error(*run_cli(capsys, argv + ["--reproducible"]))


def test_verify_filiform_and_nilpotent(capsys):
    code, payload, _ = run_cli(
        capsys,
        ["verify", "filiform", "--family", "Cn", "--n", "6", "--lambda", "1",
         "--reproducible"],
    )
    assert code == 0
    assert payload["filiform"] is True
    assert payload["series_dims"] == [6, 4, 3, 2, 1, 0]

    code, payload, _ = run_cli(
        capsys,
        ["verify", "nilpotent", "--family", "Ln", "--n", "5", "--reproducible"],
    )
    assert code == 0
    assert payload["nilpotent"] is True


def test_der_space_and_diag(capsys):
    code, payload, _ = run_cli(
        capsys, ["der", "space", "--family", "Ln", "--n", "4", "--reproducible"]
    )
    assert code == 0
    assert payload["dim"] == 7
    assert len(payload["basis"]) == 7

    code, payload, _ = run_cli(
        capsys, ["der", "diag", "--family", "Cn", "--n", "6", "--lambda", "1",
                 "--reproducible"]
    )
    assert code == 0
    assert payload["dim"] == 1
    assert payload["weights"] == [["0", "1", "1", "1", "1", "2"]]


def test_der_regular_found_and_not_found(capsys):
    code, payload, _ = run_cli(
        capsys, ["der", "regular", "--family", "Ln", "--n", "6", "--reproducible"]
    )
    assert code == 0
    assert payload["found"] is True
    assert payload["seed"] == 0 and payload["trials"] == 32

    code, payload, _ = run_cli(
        capsys,
        ["der", "regular", "--family", "Benoist", "--t", "1", "--trials", "16",
         "--reproducible"],
    )
    assert code == 1
    assert payload["found"] is False
    assert payload["trials"] == 16


def test_der_derived_regular_binds_its_own_search(capsys):
    # Cn as tabulated has an invertible derivation, so both searches hit,
    # but the diagonal first pass makes the derived-regular witness diagonal.
    code, payload, _ = run_cli(
        capsys,
        ["der", "derived-regular", "--family", "Cn", "--n", "6", "--lambda", "1",
         "--reproducible"],
    )
    assert code == 0
    assert payload["found"] is True
    witness = payload["witness"]
    assert all(witness[i][j] == "0" for i in range(6) for j in range(6) if i != j)


def test_der_torus(capsys):
    code, payload, _ = run_cli(
        capsys, ["der", "torus", "--family", "QnZ", "--n", "8", "--reproducible"]
    )
    assert code == 0
    assert payload["passed"] is True
    code, _, err = run_cli(
        capsys, ["der", "torus", "--family", "Qn", "--n", "8", "--reproducible"]
    )
    assert code == 2
    assert "torus" in err


def test_der_char_nilp_and_verify_witness(capsys, tmp_path):
    cert_path = tmp_path / "verdict.json"
    code, payload, _ = run_cli(
        capsys,
        ["der", "char-nilp", "--family", "Ln", "--n", "9", "--reproducible",
         "--out", str(cert_path)],
    )
    assert code == 0
    assert payload["kind"] == "NotCharNilpotent"
    assert cert_path.exists()

    code, payload, _ = run_cli(
        capsys,
        ["der", "verify-witness", "--family", "Ln", "--n", "9",
         "--cert", str(cert_path), "--reproducible"],
    )
    assert code == 0
    assert payload["sound"] is True


def test_der_char_nilp_likely_on_benoist(capsys, tmp_path):
    verdict_path = tmp_path / "verdict.json"
    code, payload, _ = run_cli(
        capsys,
        ["der", "char-nilp", "--family", "Benoist", "--t", "0", "--trials", "8",
         "--reproducible", "--out", str(verdict_path)],
    )
    assert code == 1
    assert payload["kind"] == "CharNilpotentLikely"
    assert payload["witness"] is None
    assert "note" in payload
    # a one-sided verdict has no witness to re-check: an input error
    code, payload, err = run_cli(
        capsys,
        ["der", "verify-witness", "--family", "Benoist", "--t", "0",
         "--cert", str(verdict_path), "--reproducible"],
    )
    assert code == 2 and payload is None
    assert err == "error: the verdict carries no witness to verify\n"


def test_affine_synth_and_verify_round_trip(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, payload, _ = run_cli(
        capsys,
        ["affine", "synth", "--family", "Ln", "--n", "6", "--reproducible",
         "--out", str(cert_path)],
    )
    assert code == 0
    assert payload["strategy"] == "regular"
    cert = certificate_from_json(json.loads(cert_path.read_text()))
    assert cert.strategy == "regular"

    code, payload, _ = run_cli(
        capsys,
        ["affine", "verify", "--family", "Ln", "--n", "6",
         "--cert", str(cert_path), "--reproducible"],
    )
    assert code == 0
    assert payload["ok"] is True
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_affine_verify_rejects_wrong_algebra(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        ["affine", "synth", "--family", "Ln", "--n", "6", "--reproducible",
         "--out", str(cert_path)],
    )
    assert code == 0
    code, _, err = run_cli(
        capsys,
        ["affine", "verify", "--family", "Ln", "--n", "7",
         "--cert", str(cert_path), "--reproducible"],
    )
    assert code == 2
    assert "hash" in err


def test_affine_verify_compares_the_hash_before_any_check(capsys, monkeypatch, tmp_path):
    # Benoist(1) and L11 share their dimension: the L11 certificate is
    # refused on its hash, before a single check is re-run
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, ["affine", "synth", "--family", "Ln", "--n", "11",
                                  "--reproducible", "--out", str(cert_path)])
    assert code == 0
    calls = []
    verify = affine.verify_affine
    monkeypatch.setattr(affine, "verify_affine",
                        lambda alg, structure: calls.append(alg.name) or verify(alg, structure))
    for family, expected_code in ((["Benoist", "--t", "1"], 2), (["Ln", "--n", "11"], 0)):
        code, payload, err = run_cli(capsys, ["affine", "verify", "--family", *family,
                                              "--cert", str(cert_path), "--reproducible"])
        assert code == expected_code
        if code == 2:
            assert payload is None and calls == []
            assert err == "error: certificate algebra hash does not match the supplied algebra\n"
    assert calls == ["L11"]


def _ln6_certificate(capsys):
    code, payload, _ = run_cli(
        capsys, ["affine", "synth", "--family", "Ln", "--n", "6", "--reproducible"]
    )
    assert code == 0
    return payload


def _verify_ln6(capsys, cert_path, doc):
    cert_path.write_text(json.dumps(doc))
    return run_cli(
        capsys,
        ["affine", "verify", "--family", "Ln", "--n", "6",
         "--cert", str(cert_path), "--reproducible"],
    )


def test_affine_verify_rejects_vacuous_certificate(capsys, tmp_path):
    doc = dict(_ln6_certificate(capsys), checks=[], witnesses={})
    code, payload, _ = _verify_ln6(capsys, tmp_path / "cert.json", doc)
    assert code == 1
    assert payload["ok"] is False
    assert [c["name"] for c in payload["checks"]] == [
        "is_derivation", "invertible", "torsion", "left_symmetry"
    ]
    assert all(c["status"] == "unknown" for c in payload["checks"])


def test_affine_verify_rejects_an_empty_derivation_witness(capsys, tmp_path):
    # the empty matrix is invertible, but it is no map on any algebra: the
    # document is refused before any check, not reported "invertible: pass"
    doc = _ln6_certificate(capsys)
    doc["witnesses"]["derivation"] = []
    code, payload, err = _verify_ln6(capsys, tmp_path / "cert.json", doc)
    assert code == 2 and payload is None
    assert err == "error: derivation witness must have at least one row\n"


def test_affine_verify_bounds_matrix_witnesses_by_max_dim(capsys, tmp_path):
    doc = _ln6_certificate(capsys)
    doc["witnesses"]["derivation"] = [[]] * (MAX_DIM + 1)
    code, _, err = _verify_ln6(capsys, tmp_path / "cert.json", doc)
    assert code == 2
    assert f"at most {MAX_DIM} rows" in err


def test_affine_verify_rejects_a_non_square_witness_before_parsing_it(capsys, tmp_path):
    # one row of 100 000 entries that are not rationals: the shape is
    # rejected first, with no entry parsed
    doc = _ln6_certificate(capsys)
    doc["witnesses"]["derivation"] = [["not a rational"] * 100_000]
    code, payload, err = _verify_ln6(capsys, tmp_path / "cert.json", doc)
    assert code == 2 and payload is None
    assert err == "error: derivation witness must be square\n"


def test_affine_verify_rejects_tampered_derived_regular_witness(capsys, tmp_path):
    cn6 = ["--family", "Cn", "--n", "6", "--lambda", "1"]
    code, doc, _ = run_cli(
        capsys,
        ["affine", "synth", *cn6, "--strategy", "derived-regular", "--reproducible"],
    )
    assert code == 0
    doc["witnesses"]["derivation"] = [
        ["1" if i == j else "0" for j in range(6)] for i in range(6)
    ]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    code, payload, _ = run_cli(
        capsys, ["affine", "verify", *cn6, "--cert", str(cert_path), "--reproducible"]
    )
    assert code == 1
    status = {c["name"]: c["status"] for c in payload["checks"]}
    assert status["is_derivation"] == "fail"
    assert status["restriction_invertible"] == "fail"


def test_affine_verify_runs_the_derivation_test_once_per_certificate(capsys, tmp_path,
                                                                     monkeypatch):
    # is_derivation and restriction_invertible read one is_derivation run
    cn6 = ["--family", "Cn", "--n", "6", "--lambda", "1"]
    code, doc, _ = run_cli(
        capsys,
        ["affine", "synth", *cn6, "--strategy", "derived-regular", "--reproducible"],
    )
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    calls = []

    def counted(alg, m):
        calls.append(1)
        return is_derivation(alg, m)

    monkeypatch.setattr(affine, "is_derivation", counted)
    code, payload, _ = run_cli(
        capsys, ["affine", "verify", *cn6, "--cert", str(cert_path), "--reproducible"]
    )
    assert code == 0
    assert [c["name"] for c in payload["checks"]] == [
        "is_derivation", "restriction_invertible", "torsion", "left_symmetry"]
    assert len(calls) == 1


@pytest.mark.parametrize("family, strategy, patched, check, error", [
    (["--family", "Cn", "--n", "6", "--lambda", "1"], "derived-regular",
     "_restriction_invertible", "restriction_invertible", NotInvariantError),
    (["--family", "Ln", "--n", "6"], "symplectic", "nondegenerate", "nondegenerate",
     DimensionMismatch),
], ids=["restriction_invertible", "nondegenerate"])
def test_affine_verify_fails_a_check_whose_recheck_raises(capsys, tmp_path, monkeypatch,
                                                          family, strategy, patched, check,
                                                          error):
    # a re-check that raises a LieToolError fails its own check with
    # residual 1, every other check still runs, and the verdict is exit 1,
    # a failed certificate, not exit 2, an input error
    code, doc, _ = run_cli(
        capsys, ["affine", "synth", *family, "--strategy", strategy, "--reproducible"])
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))

    def raises(*args):
        raise error("raised by the re-check")

    monkeypatch.setattr(affine, patched, raises)
    code, payload, _ = run_cli(
        capsys, ["affine", "verify", *family, "--cert", str(cert_path), "--reproducible"])
    assert code == 1 and payload["ok"] is False
    assert [(c["name"], c["status"], c["residuals"]) for c in payload["checks"]] == [
        (name, "fail", 1) if name == check else (name, "pass", 0)
        for name in affine.STRATEGIES[strategy].checks]


def test_affine_verify_fails_left_symmetry_when_both_orders_shift(capsys, tmp_path):
    # adding the same vector to e1.e2 and e2.e1 keeps their difference,
    # so torsion still holds and only left-symmetry can catch it
    doc = _ln6_certificate(capsys)
    gamma = doc["witnesses"]["affine_structure"]["gamma"]
    for i, j in ((1, 2), (2, 1)):
        entry = next((e for e in gamma if (e["i"], e["j"]) == (i, j)), None)
        if entry is None:
            entry = {"i": i, "j": j, "coeffs": {}}
            gamma.append(entry)
        entry["coeffs"]["5"] = str(Fraction(entry["coeffs"].get("5", "0")) + 1)
    code, payload, _ = _verify_ln6(capsys, tmp_path / "cert.json", doc)
    assert code == 1
    assert payload["ok"] is False
    status = {c["name"]: c["status"] for c in payload["checks"]}
    assert status == {"is_derivation": "pass", "invertible": "pass",
                      "torsion": "pass", "left_symmetry": "fail"}


def test_affine_verify_rejects_unknown_strategy(capsys, tmp_path):
    doc = dict(_ln6_certificate(capsys), strategy="bogus")
    code, payload, err = _verify_ln6(capsys, tmp_path / "cert.json", doc)
    assert code == 2
    assert payload is None
    assert "strategy" in err


def test_affine_verify_accepts_note(capsys, tmp_path):
    doc = dict(_ln6_certificate(capsys), note="reviewed by hand")
    code, payload, _ = _verify_ln6(capsys, tmp_path / "cert.json", doc)
    assert code == 0
    assert payload["ok"] is True


def test_affine_synth_reports_jacobi_violations(capsys):
    code, payload, err = run_cli(
        capsys,
        ["affine", "synth", "--family", "Ank", "--n", "9", "--k", "2",
         "--lambda=1", "--lambda=2", "--lambda=1", "--reproducible"],
    )
    assert code == 1
    assert payload["jacobi_ok"] is False
    assert payload["violations"]
    assert err == ""


def test_trials_must_be_positive(capsys):
    for value in ("0", "-1"):
        code, payload, err = run_cli(
            capsys,
            ["affine", "synth", "--family", "Ln", "--n", "5", f"--trials={value}",
             "--reproducible"],
        )
        assert code == 2
        assert payload is None
        assert "--trials" in err


def test_affine_synth_cn_succeeds(capsys):
    # Auto picks the regular strategy here because the family admits an
    # invertible derivation (it is isomorphic to Qn); the derived-regular
    # pathway is exercised explicitly below.
    code, payload, _ = run_cli(
        capsys,
        ["affine", "synth", "--family", "Cn", "--n", "6", "--lambda", "1",
         "--strategy", "auto", "--reproducible"],
    )
    assert code == 0
    assert payload["strategy"] == "regular"

    code, payload, _ = run_cli(
        capsys,
        ["affine", "synth", "--family", "Cn", "--n", "6", "--lambda", "1",
         "--strategy", "derived-regular", "--reproducible"],
    )
    assert code == 0
    assert payload["strategy"] == "derived-regular"
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_affine_synth_benoist_fails_with_reasons(capsys):
    code, payload, _ = run_cli(
        capsys,
        ["affine", "synth", "--family", "Benoist", "--t", "1", "--seed", "0",
         "--trials", "64", "--reproducible"],
    )
    assert code == 1
    assert payload["error"] == "NoStrategySucceeded"
    assert set(payload["reasons"]) == {"regular", "derived-regular", "symplectic"}
    assert payload["note"] == "search failure only; not a proof of non-existence"


def test_affine_symplectic_find(capsys):
    code, payload, _ = run_cli(
        capsys,
        ["affine", "symplectic-find", "--family", "Ln", "--n", "4",
         "--reproducible"],
    )
    assert code == 0
    assert payload["found"] is True
    assert payload["two_form"]["dim"] == 4

    code, payload, _ = run_cli(
        capsys,
        ["affine", "symplectic-find", "--family", "Benoist", "--t", "0",
         "--reproducible"],
    )
    assert code == 1
    assert payload["found"] is False


def test_io_validate(capsys, tmp_path):
    good = tmp_path / "alg.json"
    code, payload, _ = run_cli(
        capsys,
        ["catalog", "show", "--family", "Qn", "--n", "6", "--reproducible",
         "--out", str(good)],
    )
    assert code == 0
    code, payload, _ = run_cli(
        capsys,
        ["io", "validate", "--kind", "algebra", "--in", str(good),
         "--reproducible"],
    )
    assert code == 0
    assert payload == {"kind": "algebra", "valid": True}

    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "dim": 2, "basis": ["a", "b"], "brackets": [], "junk": 1}')
    code, payload, err = run_cli(
        capsys,
        ["io", "validate", "--kind", "algebra", "--in", str(bad),
         "--reproducible"],
    )
    assert code == 2
    assert payload is None
    assert "junk" in err


@pytest.mark.parametrize("key", ["\u00b2", "1" * 5000], ids=["superscript", "5000-digits"])
def test_io_validate_rejects_bad_coefficient_key(capsys, tmp_path, key):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"dim": 2, "gamma": [{"i": 1, "j": 1, "coeffs": {key: "1"}}]}))
    code, payload, err = run_cli(
        capsys, ["io", "validate", "--kind", "affine", "--in", str(path), "--reproducible"]
    )
    assert code == 2
    assert payload is None
    assert "coefficient key" in err and len(err) < 200


@pytest.mark.parametrize("kind, doc", [
    ("algebra", {"name": "g", "dim": 2, "basis": ["a", "b"],
                 "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "x" * 5000}}]}),
    ("certificate", {"algebra_hash": "0", "strategy": "x" * 5000, "seed": 0, "trials": 1,
                     "version": "0", "checks": [], "witnesses": {}}),
], ids=["rational", "strategy"])
def test_io_validate_cuts_long_strings(capsys, tmp_path, kind, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run_cli(
        capsys, ["io", "validate", "--kind", kind, "--in", str(path), "--reproducible"]
    )
    assert code == 2
    assert payload is None
    assert len(err) < 200


_CERTIFICATE = {"algebra_hash": "0", "strategy": "regular", "seed": 0, "trials": 1,
                "version": "0", "checks": [], "witnesses": {}}
_ALGEBRA = {"name": "g", "dim": 2, "basis": ["a", "b"], "brackets": []}
_VERDICT = {"kind": "NotCharNilpotent", "witness": [["1"]], "seed": 0, "trials": 1}


@pytest.mark.parametrize("kind, doc, message", [
    ("algebra", [_ALGEBRA], "expected a JSON object"),
    ("certificate", {**_CERTIFICATE, "checks": {}}, "checks must be a list"),
    ("certificate", {**_CERTIFICATE, "witnesses": []}, "witnesses must be an object"),
    ("affine", {"dim": 2, "gamma": [], "provenance": []}, "provenance must be an object"),
    ("algebra", {**_ALGEBRA, "brackets": {}}, "brackets must be a list"),
    ("twoform", {"dim": 2, "entries": {}}, "entries must be a list"),
    ("algebra", {**_ALGEBRA, "brackets": [{"i": 1, "j": 2, "coeffs": ["1"]}]},
     "coeffs must be an object"),
    ("certificate", {**_CERTIFICATE, "witnesses": {"derivation": ["1", "0"]}},
     "derivation witness must be an array of row arrays"),
    ("twoform", {"dim": 2, "entries": [1]}, "expected a JSON object"),
    ("twoform", {"dim": 2, "entries": [{"i": 1, "j": 2}]}, "missing field(s): ['value']"),
    ("twoform", {"dim": 2, "entries": [{"i": True, "j": 2, "value": "1"}]},
     "entry index i must be an integer"),
    ("twoform", {"dim": 2, "entries": [{"i": 2, "j": 1, "value": "1"}]},
     "entry pair (2, 1) must satisfy 1 <= i < j <= dim"),
    ("twoform", {"dim": 2, "entries": [{"i": 1, "j": 2, "value": "1"}] * 2},
     "duplicate entry pair (1, 2)"),
    ("twoform", {"dim": 2, "entries": [{"i": 1, "j": 2, "value": "1.5"}]},
     "malformed rational '1.5'; expected 'p' or 'p/q'"),
    ("affine", {"dim": 2, "gamma": [{"i": 1, "j": 1, "coeffs": {"2": "1"}}] * 2},
     "duplicate gamma pair (1, 1)"),
    ("certificate", {**_CERTIFICATE, "witnesses": {"derivation": [["1", "0"]]}},
     "derivation witness must be square"),
    ("certificate", {**_CERTIFICATE, "witnesses": {"derivation": [[]] * (MAX_DIM + 1)}},
     f"derivation witness must have at most {MAX_DIM} rows"),
    ("verdict", {**_VERDICT, "witness": [["1", "0"]]}, "witness must be square"),
    ("verdict", {**_VERDICT, "witness": [[]] * (MAX_DIM + 1)},
     f"witness must have at most {MAX_DIM} rows"),
    # a 0 x 0 map would pass as a nilpotent witness or an empty derivation
    ("verdict", {**_VERDICT, "witness": []}, "witness must have at least one row"),
    ("certificate", {**_CERTIFICATE, "witnesses": {"derivation": []}},
     "derivation witness must have at least one row"),
    ("verdict", {**_VERDICT, "witness": [1, 2]}, "witness must be an array of row arrays"),
], ids=["not-an-object", "checks", "witnesses", "provenance", "brackets", "entries", "coeffs",
        "witness-rows", "entry-object", "entry-value", "entry-index", "entry-pair",
        "entry-duplicate", "entry-rational", "gamma-duplicate", "witness-square",
        "witness-row-cap", "verdict-square", "verdict-row-cap", "verdict-empty",
        "witness-empty", "verdict-rows"])
def test_io_validate_rejects_malformed_documents(capsys, tmp_path, kind, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run_cli(
        capsys, ["io", "validate", "--kind", kind, "--in", str(path), "--reproducible"]
    )
    assert code == 2 and payload is None
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("witness, message", [
    ([["1", "0"]], "witness must be square"),
    ([[]] * (MAX_DIM + 1), f"witness must have at most {MAX_DIM} rows"),
], ids=["square", "row-cap"])
def test_der_verify_witness_rejects_malformed_verdicts(capsys, tmp_path, witness, message):
    path = tmp_path / "verdict.json"
    path.write_text(json.dumps({"kind": "NotCharNilpotent", "witness": witness,
                                "seed": 0, "trials": 1}))
    code, payload, err = run_cli(
        capsys, ["der", "verify-witness", "--family", "Ln", "--n", "4", "--cert", str(path)]
    )
    assert code == 2 and payload is None
    assert err == f"error: {message}\n"


# a key repeated in one object: a parser keeping the first value would read another document
_REPEATED_KEYS = {
    "dim": ("algebra", '{"name": "g", "dim": 3, "dim": 2, "basis": ["a", "b"], "brackets": []}',
            "dim"),
    "coeffs-key": ("algebra", '{"name": "g", "dim": 2, "basis": ["a", "b"], "brackets": '
                   '[{"i": 1, "j": 2, "coeffs": {"2": "1", "2": "0"}}]}', "2"),
    "strategy": ("certificate", '{"algebra_hash": "0", "strategy": "regular", "strategy": '
                 '"symplectic", "seed": 0, "trials": 1, "version": "0", "checks": [], '
                 '"witnesses": {}}', "strategy"),
    "witness": ("certificate", '{"algebra_hash": "0", "strategy": "symplectic", "seed": 0, '
                '"trials": 1, "version": "0", "checks": [], "witnesses": {"two_form": '
                '{"dim": 2, "entries": [{"i": 1, "j": 2, "value": "1", "value": "0"}]}}}',
                "value"),
}


@pytest.mark.parametrize("kind, text, key", _REPEATED_KEYS.values(), ids=_REPEATED_KEYS.keys())
def test_repeated_json_keys_are_an_input_error(capsys, tmp_path, kind, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    argvs = [["io", "validate", "--kind", kind, "--in", str(path)]]
    if kind == "algebra":
        argvs.append(["verify", "jacobi", "--in", str(path)])
    for argv in argvs:
        code, payload, err = run_cli(capsys, [*argv, "--reproducible"])
        assert code == 2 and payload is None
        assert err == f"error: repeated JSON key '{key}'\n"


def test_family_dimension_is_bounded(capsys):
    # rejected while parsing, before any algebra is built
    for argv in (["catalog", "show"], ["der", "space"]):
        code, payload, err = run_cli(
            capsys, [*argv, "--family", "Ln", "--n", str(MAX_DIM + 1)]
        )
        assert code == 2
        assert payload is None
        assert f"must lie between 1 and {MAX_DIM}" in err


_LONG = "x" * 5000


_CUT_CASES = [
    (["catalog", "show", "--family", "Ln", "--n", _LONG], "argument --n"),
    (["catalog", "show", "--family", "Ln", "--n", "9" * 4000], "argument --n"),
    (["der", "regular", "--family", "Ln", "--n", "4", "--trials", _LONG], "argument --trials"),
    (["der", "regular", "--family", "Ln", "--n", "4", "--seed", _LONG], "argument --seed"),
    (["catalog", "show", "--family", "Ank", "--n", "5", "--k", _LONG, "--lambda", "1"],
     "argument --k"),
    (["catalog", "show", "--family", _LONG], "unknown family"),
    (["affine", "synth", "--family", "Ln", "--n", "4", "--strategy", _LONG],
     "argument --strategy"),
    (["io", "validate", "--kind", _LONG], "argument --kind"),
    (["der", "regular", "--family", "Ln", "--n", "4", "--trials", str(MAX_TRIALS + 1)],
     f"must lie between 1 and {MAX_TRIALS}"),
    (["der", "regular", "--family", "Ln", "--n", "4", "--trials", "9" * 4000],
     f"must lie between 1 and {MAX_TRIALS}"),
    (["catalog", "list", _LONG], "unrecognized arguments"),
    ([_LONG], "invalid choice"),
    (["catalog", _LONG], "invalid choice"),
    (["catalog", "show", f"--reproducible={_LONG}"], "ignored explicit argument"),
    (["catalog", "show", f"--={_LONG}"], "ambiguous option"),
]


@pytest.mark.parametrize("argv, expected", _CUT_CASES, ids=[
    "n", "n-digits", "trials", "seed", "k", "family", "strategy", "kind", "trials-max",
    "trials-digits", "extra-argument", "command", "subcommand", "flag-value", "ambiguous"])
def test_cli_cuts_long_argument_values(capsys, argv, expected):
    code, payload, err = run_cli(capsys, argv)
    assert code == 2
    assert payload is None
    assert expected in err
    assert len(err.encode()) < 300


def test_io_validate_other_kinds(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        ["affine", "synth", "--family", "Ln", "--n", "4", "--reproducible",
         "--out", str(cert_path)],
    )
    assert code == 0
    code, payload, _ = run_cli(
        capsys,
        ["io", "validate", "--kind", "certificate", "--in", str(cert_path),
         "--reproducible"],
    )
    assert code == 0 and payload["valid"] is True

    form_path = tmp_path / "form.json"
    code, _, _ = run_cli(
        capsys,
        ["affine", "symplectic-find", "--family", "Ln", "--n", "4",
         "--reproducible", "--out", str(form_path)],
    )
    assert code == 0
    form_doc = json.loads(form_path.read_text())["two_form"]
    form_path.write_text(json.dumps(form_doc))
    code, payload, _ = run_cli(
        capsys,
        ["io", "validate", "--kind", "twoform", "--in", str(form_path),
         "--reproducible"],
    )
    assert code == 0 and payload["valid"] is True


def test_reproducible_outputs_are_byte_identical(capsys):
    argv = ["affine", "synth", "--family", "Ln", "--n", "5", "--seed", "3",
            "--reproducible"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


# (argv, exit code, sha256 of stdout) for --reproducible runs; the first
# three were recorded before the sparse rewrite of verify_affine,
# is_derivation and the constructions, the rest before the nonsingularity
# and nilpotency tests moved onto the elimination kernel. Certificates
# carry the package version, so a version bump needs a re-pin. Entries 0,
# 3, 17, 19, 38 and 40 were re-recorded when the regular search began
# with the diagonal weights: their witness is a torus element. Entries 1,
# 6 and 39 were re-recorded when the symplectic search began with the
# forms homogeneous for a diagonal derivation: their witness is the +-1
# form on the pairs (i, n + 1 - i).
# T: [e1, e3] = e4, [e3, e4] = e2 (1-based), whose diagonal derivation
# weights (1, 0, -1/2, 1/2), (0, 1, 1/2, 1/2) are not integers; S: a table
# whose symplectic weight pass solves a class space with denominator 2
_HALF_WEIGHTS = str(Path(__file__).with_name("half_weights.json"))
_HALF_FORM = str(Path(__file__).with_name("half_form.json"))
PINNED_STDOUT = [
    (("affine", "synth", "--family", "Ln", "--n", "12"), 0,
     "73c77f9d60489f6a3214c384dcb73dd63414962154ebd7178213fbb9fe02a7c3"),
    (("affine", "synth", "--family", "Ln", "--n", "12", "--strategy", "symplectic"), 0,
     "5eaaf20062b82b3829f4a90b2d0cb2da16cabade6e98b446af34fe01eb846581"),
    (("affine", "synth", "--family", "Cn", "--n", "8", "--lambda=1", "--lambda=1",
      "--strategy", "derived-regular"), 0,
     "225850d53bc5bc88f6562497fd508e8b126e24e350f5cd7a3f6c355c84778f73"),
    (("der", "regular", "--family", "Ln", "--n", "12"), 0,
     "3501bb571dd40ae8a352662143e57c92b5cca39bf313e04e35090b72d8e90b75"),
    (("der", "derived-regular", "--family", "Cn", "--n", "8", "--lambda=1",
      "--lambda=1"), 0,
     "582458e044eae2d8a64024648093e137cd22d5c1d323311c7b31ee7568bcd80f"),
    (("der", "char-nilp", "--family", "Qn", "--n", "8"), 0,
     "9cffd03e26797b41e3221ed4bd4f6121245a6eec51f661f7a559c82af252a74f"),
    (("affine", "symplectic-find", "--family", "Ln", "--n", "12"), 0,
     "37558da892f40cde5e69c3ecfcd3d0979bcc6f588200b9616c71a785bc12487b"),
    (("affine", "synth", "--family", "Benoist", "--t", "1"), 1,
     "17707f3e3c7c53f945de6ab95631803431e58428a8bc9c00903a0cdd37a51069"),
    # Der(Benoist) is nil, so these searches are settled without drawing;
    # their output must stay that of the exhausted search
    (("der", "char-nilp", "--family", "Benoist", "--t", "1"), 1,
     "1614f74d701ed8f2a10feeb8c31a092066b3294352ca2a0caf97805ac73b17f5"),
    (("der", "char-nilp", "--family", "Benoist", "--t=1/3", "--seed", "7", "--trials", "5"), 1,
     "b0921a89cd77cfcef5623f4df7074204fe2e8472439b13d9819407b27d5ce15b"),
    (("der", "regular", "--family", "Benoist", "--t", "1", "--trials", "64"), 1,
     "34cbf6bd80d4ba665f8923caa9f9686d843e36268934a8ad6b03eec6e98ff229"),
    (("der", "derived-regular", "--family", "Benoist", "--t=-1/2"), 1,
     "5bc11ceb014d7b6f02d58a9b1f2d86dc4565d2cb96838ec1b094e7ed3cecdcba"),
    # Der(g), weight spaces and the lower central series, all read from
    # the kernel's RREF rows
    (("der", "space", "--family", "Ln", "--n", "8"), 0,
     "05fb78155254baba610c7920944b31210cb1aa7aabebbf638f4b8feb2b07d8b5"),
    (("der", "space", "--family", "Benoist", "--t", "1"), 0,
     "1261b0f7969d3413e7b3f4fbcf6e2ef28407e7a75a8c7e47852b46a9460afc5c"),
    (("der", "diag", "--family", "Cn", "--n", "8", "--lambda=1", "--lambda=1"), 0,
     "328ce3c4da2568ca00b818eb63495d389eb65cd36d75fcdfa5aaf07bfbd51e6f"),
    (("verify", "filiform", "--family", "Benoist", "--t", "1"), 0,
     "5a3c66601a7af2008394dc1741c5ccae88bd290193b8702552f3e1c8372f1af2"),
    (("verify", "nilpotent", "--family", "QnZ", "--n", "10"), 0,
     "675b5cc1f02ca3946684496ea0e3ec479c5a7ca8660746997776a51afebad9a2"),
    # the regular (conjugation) product beyond Ln
    (("affine", "synth", "--family", "QnZ", "--n", "10", "--strategy", "regular"), 0,
     "c4d065b307aded7cb0d8b47f895d39f404c54f9f00f592bb6dfa296af5dc40c8"),
    (("affine", "synth", "--family", "Cn", "--n", "6", "--lambda=1"), 0,
     "4415771ea8c609f86b352015f1b2b27a888d5206757fcd5d60881025e20cf5e8"),
    (("affine", "synth", "--family", "Qn", "--n", "12", "--seed", "5"), 0,
     "1b3565948a80783f485b801bc853f1bc3637f704a10cdb3f20a8457d748dd52e"),
    (("affine", "synth", "--family", "Cn", "--n", "8", "--lambda=1", "--lambda=-1",
      "--strategy", "regular", "--seed", "3"), 0,
     "df111aa4bfdbc095a5f9431cd6d78faa92489292bff63edb1a4f83281301cc6d"),
    # the standard tori: derivation, commutation and rational diagonalizability
    (("der", "torus", "--family", "Ln", "--n", "12"), 0,
     "4546480f6c69734b094be0c1fc400ccc1a921ba8f9abfba80b501644b71719c8"),
    (("der", "torus", "--family", "QnZ", "--n", "10"), 0,
     "72534884df58f818f9674c387166b543fb30faad8092df39af28701d9c4ec0f2"),
    (("der", "torus", "--family", "Cn", "--n", "8", "--lambda=1", "--lambda=1"), 0,
     "a0194517d3bd4208148255fd388511096136ab988641e779db7fcc3e746d5d2b"),
    # Matrix kept as sparse columns: inverses, restrictions, minimal
    # polynomials and the flat Der(g) basis all travel in it
    (("der", "torus", "--family", "Ln", "--n", "24"), 0,
     "76bb40324b5cca19375bdbc39f8512a910545bb4a6c141ad098a3bf48946f726"),
    (("der", "char-nilp", "--family", "Ln", "--n", "9"), 0,
     "e321e6a7533b5657a947b9ff09956efca9ce98c6ba3a863541f759f055c7847c"),
    (("affine", "symplectic-find", "--family", "Qn", "--n", "8", "--trials", "3"), 1,
     "2256fdc6d503078c6dc7b055fcfdd921fe5eafd46df13d9be2ff0c192ff18860"),
    (("der", "regular", "--family", "Cn", "--n", "10", "--lambda=1", "--lambda=-1",
      "--lambda=1", "--seed", "9"), 0,
     "87e17dcd74574fd8832e087be815cfd57922d1fd5971fcf8be0d4b6d017f3817"),
    (("affine", "synth", "--family", "Ln", "--n", "9", "--strategy", "derived-regular",
      "--seed", "2"), 0,
     "33e5e3b6c45d3133056eb186e5f55f5f6c2fd62794bbafce22f097287a46ca52"),
    (("der", "space", "--family", "QnZ", "--n", "10"), 0,
     "b0e316d1e5f8b8dddc930cd0b7ed27923e01e4cfb858502b2a2dab6229a4ea3f"),
    # Der(g) from the nonzero structure constants on the sparse kernel, and
    # the Sturm chain evaluated in integers
    (("der", "space", "--family", "Ln", "--n", "40"), 0,
     "45754729488575684b0eaf9ff6c16e228fc6f0d8901fd5cfcd6fee1688903643"),
    (("der", "space", "--family", "Cn", "--n", "12", "--lambda=1", "--lambda=-1",
      "--lambda=1", "--lambda=1"), 0,
     "aea2d6c62b4d3158c20affe8e070a2fe537bdc673f03fb23f7c7acd8d70d9e5b"),
    (("der", "space", "--family", "Benoist", "--t=7/5"), 0,
     "1014cb0d2c889946e568c09fd6decf4571a652733182dbf54647757435e85823"),
    # Der(g) of plain Qn, whose full chain [Y1, Yj] reaches Y_n
    (("der", "space", "--family", "Qn", "--n", "14"), 0,
     "3e3da7f456bc165c46ee163d47924f6f3347b28e27e43408354eb631d27e8bc5"),
    (("der", "torus", "--family", "Ln", "--n", "64"), 0,
     "9bf802aafcb0c71e4794568494a39e8482e8d4fcce2e8ba168e7607039977553"),
    # recorded before products, residuals and Der(g) equations moved to
    # integers over a common denominator: brackets with denominators 2 and
    # 3, and synths above n = 12
    (("affine", "synth", "--family", "Cn", "--n", "8", "--lambda=2/3", "--lambda=1/2"), 0,
     "099603646d1be8b375b935820816ca81097c52951448c1a0add43ddbf2501496"),
    (("affine", "synth", "--family", "Cn", "--n", "8", "--lambda=2/3", "--lambda=1/2",
      "--strategy", "derived-regular"), 0,
     "77e7982cf669438b79d3b7cc92e13c6d660a601d86598335a707b9a7131abd9c"),
    (("der", "space", "--family", "Cn", "--n", "8", "--lambda=2/3", "--lambda=1/2"), 0,
     "abb620e381758b09b150dc9438854e698f27e17802f97197c8abdb6610d3439d"),
    (("affine", "synth", "--family", "Ln", "--n", "24"), 0,
     "e5f93cbf1330dc772826657cba2d8768992f7a486a9b1c548c8a6f5a2a27c197"),
    (("affine", "synth", "--family", "Ln", "--n", "24", "--strategy", "symplectic"), 0,
     "6ec2f0f48b1ec18b09f132b32b80bb0398d38e006b7fbe8fde0ded07c0757089"),
    (("affine", "synth", "--family", "QnZ", "--n", "16"), 0,
     "95bb85e5d1f490dad5cf4b7adc99e9010256e4acca325aad482bb14ba7cc32bb"),
    # the family list and one member of each family as algebra JSON: the
    # bracket order and basis names of every catalog table
    (("catalog", "list"), 0,
     "b8ae03395eb97ddd86088cb3289155568a79a2b1e9ce7553e15c82144b99b792"),
    (("catalog", "show", "--family", "Ln", "--n", "6"), 0,
     "b9febb667a8b57a3322ed916d2843f5b526850155dee95e47931117446331555"),
    (("catalog", "show", "--family", "Qn", "--n", "8"), 0,
     "5180a74bd36e409659aee82a1b10d6c3651d5ef55141b41ece4c48c15df08427"),
    (("catalog", "show", "--family", "QnZ", "--n", "8"), 0,
     "4992a21a701a6388a6dc391b7dc633b65b647f5eaca6b542091f5a6fb87a9824"),
    (("catalog", "show", "--family", "Ank", "--n", "9", "--k", "2", "--lambda=1",
      "--lambda=1", "--lambda=2"), 0,
     "e2ac762ea232bccf4eb5afc7eb5d25b6d810c277f020c515e98f12c2151da858"),
    (("catalog", "show", "--family", "Bnk", "--n", "10", "--k", "3", "--lambda=1",
      "--lambda=2"), 0,
     "8fc362f392fc94b0bf76aeb0864184996dd30c072bf8554a6272e554f0c4e6ac"),
    (("catalog", "show", "--family", "Cn", "--n", "8", "--lambda=1", "--lambda=0"), 0,
     "8e8667d9544439957beb0051e286b5986dd755352aace6774db5093c947c0aee"),
    (("catalog", "show", "--family", "Benoist", "--t=7/5"), 0,
     "2d2833003f94fcf8eaea51118f98bb371915f6978fd978f0dc7838aeb517ce11"),
    # the Jacobi residuals of non-Lie members, one with fractional lambda,
    # recorded while jacobi_report still summed Fractions per term
    (("verify", "jacobi", "--family", "Ank", "--n", "9", "--k", "2", "--lambda=1",
      "--lambda=1", "--lambda=2"), 1,
     "65718a76f59ff60ef3e35882d7417e5bbf41f2494d04a859702296d342a8388a"),
    (("verify", "jacobi", "--family", "Bnk", "--n", "10", "--k", "3", "--lambda=1/2",
      "--lambda=3/4"), 1,
     "333b671f7277a28a4004da416b4a1e0ba0eaa0c0dc1541e947d0b7e9139f0f39"),
    # recorded before diagonal and matching witnesses took closed forms:
    # `auto` on C8 certifies a dense regular witness, which keeps the
    # kernel route (the diagonal QnZ16 and matching Ln24 symplectic pins
    # are above)
    (("affine", "synth", "--family", "Cn", "--n", "8", "--lambda=1", "--lambda=1"), 0,
     "d21031d6dd87105a5c3df02274c9ee6d6c0d66bc366448662c63fb3bb295a357"),
    # recorded while the weight candidates were still Fractions: the weight
    # basis of _HALF_WEIGHTS has denominator 2. Its regular witness
    # diag(1, 2, 1/2, 3/2) is a curve point, its derived-regular witness
    # diag(0, 1, 1/2, 1/2) a basis row, and its symplectic form comes from
    # the weight pass: the basis weight passes the class test and its class
    # is ruled out, then the curve point hits
    (("affine", "synth", "--in", _HALF_WEIGHTS), 0,
     "ae51984ee4ad82b0571a5d6431e28deb112a3d5b4fa98a413979bc49c7da4522"),
    (("affine", "synth", "--in", _HALF_WEIGHTS, "--strategy", "derived-regular"), 0,
     "5c2c82fd82fd79b3d5d7e4d45d513aa82c3c1bb347ef5631e0e1406a3a37a25f"),
    (("affine", "synth", "--in", _HALF_WEIGHTS, "--strategy", "symplectic"), 0,
     "9674f2c0bc082b7ca3d0d60429d62a7965580eba4351ecac39d5a7830767aeb7"),
    (("der", "regular", "--in", _HALF_WEIGHTS), 0,
     "0e975cd05e77e4cd651a7c8d8ce44c4624fc8baefaa36224cfd99e3b5317e445"),
    # the same weight pass on S, whose form th(e1, e2) = 1, th(e3, e4) = 3/2
    # is built over the class space's denominator 2
    (("affine", "synth", "--in", _HALF_FORM, "--strategy", "symplectic"), 0,
     "5d4f792339e9686a8f4c32ac9a1a3b01dd5e4902ebdec4e046bd255b82a3c06d"),
]


@pytest.mark.parametrize("args", PINNED_STDOUT)
def test_affine_synth_stdout_matches_pinned_hash(capsys, args):
    argv, expected_code, digest = args
    code = main([*argv, "--reproducible"])
    out = capsys.readouterr().out
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_benoist_nil_verdicts_never_read_the_der_g_basis(capsys, monkeypatch):
    # the nil gate reads the kernel rows of Der(Benoist(1)), whose maps are
    # all strictly lower triangular, so the failing synth and char-nilp
    # keep their pinned bytes without the basis being read off those rows
    def no_basis(*args):
        raise AssertionError("the Der(g) basis was built")

    monkeypatch.setattr(derivations, "_solution_basis", no_basis)
    wanted = {("affine", "synth", "--family", "Benoist", "--t", "1"),
              ("der", "char-nilp", "--family", "Benoist", "--t", "1")}
    pins = [pin for pin in PINNED_STDOUT if pin[0] in wanted]
    assert len(pins) == 2
    for argv, expected_code, digest in pins:
        code = main([*argv, "--reproducible"])
        out = capsys.readouterr().out
        assert code == expected_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# (family arguments, sha256 of `verify filiform`, of `verify nilpotent`),
# recorded while both still ran the image chain on the kernel
_SERIES_PINS = [
    (("--family", "Ln", "--n", "64"),
     "73a9013da62d8185bcb1dce083e20407d7b7658c4d5be043602da79283ff5f97",
     "096144bf67c8ec6175c9f34d44bf83796563931b84653eac0a5a98aa4f8b1d57"),
    (("--family", "QnZ", "--n", "16"),
     "e03520b242de3004561e497731b96101505de17b2ef39d459aaf809fe7c3a508",
     "5e49bd5113d6e4fa2be890b8689388aacd02396fceda4c58f3f36b1b866167ab"),
    (("--family", "Cn", "--n", "14", "--lambda=1", "--lambda=-1", "--lambda=1",
      "--lambda=-1", "--lambda=1"),
     "92c50c892a106da41ea954791c8aa14ca3e748540adb37eefe92941eacfe911b",
     "214bcabc1f956f1d3890022c5f27dfc77416ecd52397ff2ebb551a879fe825de"),
    (("--family", "Benoist", "--t", "1"),
     "5a3c66601a7af2008394dc1741c5ccae88bd290193b8702552f3e1c8372f1af2",
     "78679b90aeeedf1700256cf2563b9a6281c34f542791773fdd7ce34a9eb260bd"),
]


@pytest.mark.parametrize("family, filiform, nilpotent", _SERIES_PINS,
                         ids=["L64", "QnZ16", "C14", "Benoist1"])
def test_series_verdicts_on_catalog_tables_run_no_elimination(capsys, monkeypatch, family,
                                                              filiform, nilpotent):
    # a catalog table is tail-filtered, so its series is the unit-row chain
    def no_kernel(rows):
        raise AssertionError("the elimination kernel ran")

    monkeypatch.setattr(linalg, "_gauss_jordan", no_kernel)
    for command, digest in (("filiform", filiform), ("nilpotent", nilpotent)):
        code = main(["verify", command, *family, "--reproducible"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("index", [0, 3, 17, 19, 38, 40])
def test_diagonal_regular_pins_are_certified(capsys, tmp_path, index):
    # the regular witness of these pins is diagonal: each certificate passes
    # `affine verify`, and the `der regular` witness is an invertible derivation
    argv = list(PINNED_STDOUT[index][0])
    family = argv[2:6]
    code, doc, _ = run_cli(capsys, [*argv, "--reproducible"])
    assert code == 0
    if argv[0] == "der":
        _, shown, _ = run_cli(capsys, ["catalog", "show", *family, "--reproducible"])
        witness = Matrix(doc["witness"])
        assert is_derivation(algebra_from_json(shown), witness) == []
        assert nonsingular(witness)
    else:
        assert doc["strategy"] == "regular"
        witness = Matrix(doc["witnesses"]["derivation"])
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, report, _ = run_cli(capsys, ["affine", "verify", *family, "--cert", str(cert),
                                           "--reproducible"])
        assert code == 0, report
    assert all(set(col) == {j} for j, col in enumerate(witness.columns))


@pytest.mark.parametrize("n", range(4, 25, 2))
def test_ln_symplectic_witness_is_the_matching_form_at_every_seed(capsys, tmp_path, n):
    # the weight pass finds the form with one +-1 entry on each pair
    # (i, n + 1 - i): n Gram entries, the same at two seeds, closed and
    # nondegenerate, and its certificate passes `affine verify`
    alg = catalog.make_ln(n)
    form = affine.find_symplectic(alg, seed=0)
    assert form == affine.find_symplectic(alg, seed=7)
    entries = [(i, j, x) for i, row in enumerate(form.gram.data) for j, x in enumerate(row) if x]
    assert len(entries) == n
    assert all(i + j == n - 1 and x in (1, -1) for i, j, x in entries)
    assert liealg.dtheta_residual(alg, form) == []
    assert liealg.nondegenerate(form)
    family = ["--family", "Ln", "--n", str(n)]
    witnesses = []
    for seed in ("0", "7"):
        code, doc, _ = run_cli(capsys, ["affine", "synth", *family, "--strategy", "symplectic",
                                        "--seed", seed, "--reproducible"])
        assert code == 0 and doc["strategy"] == "symplectic"
        witnesses.append(doc["witnesses"]["two_form"])
    assert witnesses[0] == witnesses[1]
    assert len(witnesses[0]["entries"]) == n // 2
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, report, _ = run_cli(capsys, ["affine", "verify", *family, "--cert", str(cert),
                                       "--reproducible"])
    assert code == 0, report


def test_der_verify_witness_stdout_matches_pinned_hash(capsys, tmp_path):
    # the re-check of the verdict that `der char-nilp --out` writes
    cert = tmp_path / "verdict.json"
    assert main(["der", "char-nilp", "--family", "Ln", "--n", "9", "--reproducible",
                 "--out", str(cert)]) == 0
    capsys.readouterr()
    code = main(["der", "verify-witness", "--family", "Ln", "--n", "9", "--cert", str(cert),
                 "--reproducible"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "90d6247782d100b8cd9b5914dddba9c5e95a3a66dfe058338151e4d679f0cad2")
    # the same document passes the schema check alone, without an algebra
    code, payload, _ = run_cli(capsys, ["io", "validate", "--kind", "verdict", "--in", str(cert),
                                        "--reproducible"])
    assert code == 0 and payload == {"kind": "verdict", "valid": True}


# two Heisenberg algebras and sl2 + Q, given to the commands as --in documents
_H3_H3 = liealg.LieAlgebra(6, {(0, 1): {2: 1}, (3, 4): {5: 1}}, name="h3+h3")
_SL2_Q = liealg.LieAlgebra(4, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}, name="sl2+Q")


# h3 + h3 with one shared centre vector: [g, g] = span(e3 + e6), a non-unit RREF row
_H3_H3_SHARED = liealg.LieAlgebra(6, {(0, 1): {2: 1, 5: 1}, (3, 4): {2: 1, 5: 1}},
                                  name="h3+h3 shared")


@pytest.mark.parametrize("alg", [_H3_H3, _H3_H3_SHARED], ids=["h3+h3", "h3+h3-shared"])
@pytest.mark.parametrize("strategy", ["auto", *affine.STRATEGIES])
def test_closed_forms_print_the_kernel_route_bytes_from_in(capsys, monkeypatch, tmp_path,
                                                          alg, strategy):
    # the same synth with the monomial tests of the constructions patched
    # off, so every witness takes the kernel route: the oracle of the bytes
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_to_json(alg)))
    argv = ["affine", "synth", "--in", str(path), "--strategy", strategy, "--reproducible"]
    closed = main(argv), capsys.readouterr()
    kernel_routes(monkeypatch)
    assert (main(argv), capsys.readouterr()) == closed
    # every derivation witness found here is diagonal, so the closed form ran
    derivation = json.loads(closed[1].out).get("witnesses", {}).get("derivation")
    assert strategy == "symplectic" or derivation is not None
    if derivation is not None:
        assert all(x == "0" for i, row in enumerate(derivation) for j, x in enumerate(row)
                   if i != j)


@pytest.mark.parametrize("argv, stdin_alg, code", [
    (["affine", "synth", "--family", "Cn", "--n", "8", "--lambda=1", "--lambda=1"], None, 0),
    (["verify", "jacobi", "--family", "Cn", "--n", "8", "--lambda=1", "--lambda=1"], None, 0),
    (["verify", "nilpotent", "--family", "Ank", "--n", "5", "--k", "2", "--lambda=1"], None, 0),
    (["verify", "nilpotent", "--family", "Bnk", "--n", "6", "--k", "2", "--lambda=1"], None, 0),
    (["affine", "synth", "--family", "Ln", "--n", "8"], None, 0),
    (["verify", "filiform", "--family", "Ln", "--n", "8"], None, 0),
    (["affine", "synth", "--family", "Qn", "--n", "10"], None, 0),
    (["der", "char-nilp", "--family", "QnZ", "--n", "10"], None, 0),
    (["affine", "synth", "--family", "Benoist", "--t", "1"], None, 1),
    (["der", "char-nilp", "--family", "Benoist", "--t", "1"], None, 1),
    (["verify", "jacobi", "--family", "Benoist", "--t", "7/5"], None, 0),
    (["affine", "synth", "--family", "Ank", "--n", "9", "--k", "2", "--lambda=1", "--lambda=1",
      "--lambda=2"], None, 1),
    (["verify", "jacobi", "--family", "Bnk", "--n", "10", "--k", "3", "--lambda=1",
      "--lambda=2"], None, 1),
    (["affine", "synth", "--strategy", "derived-regular"], _H3_H3, 0),
    (["affine", "synth"], _SL2_Q, 1),
    (["verify", "jacobi"], _SL2_Q, 0),
], ids=[f"argv{i}" for i in range(16)])
def test_one_jacobi_report_per_command(capsys, monkeypatch, argv, stdin_alg, code):
    # every family and every --in document is checked through the report
    # kept on the algebra, computed once: the report make_ank, make_bnk and
    # make_cn return, the CLI's Lie check, the payload and the Der(g) and
    # weight solves all read it; the weights and Der(g), kept on the
    # algebra too, are solved at most once each
    computed = []
    compute = liealg.LieAlgebra._jacobi_report.func

    def counted(alg):
        computed.append(alg)
        return compute(alg)

    kept = functools.cached_property(counted)
    kept.__set_name__(liealg.LieAlgebra, "_jacobi_report")
    monkeypatch.setattr(liealg.LieAlgebra, "_jacobi_report", kept)
    solves = []
    for name in ("_nullspace", "_generator_system"):
        monkeypatch.setattr(derivations, name, functools.partial(
            lambda name, solve, *args: solves.append(name) or solve(*args),
            name, getattr(derivations, name)))
    stdin_text = None if stdin_alg is None else json_text(algebra_to_json(stdin_alg))
    assert run_cli(capsys, argv, stdin_text, monkeypatch)[0] == code
    assert len(computed) == 1
    assert max(map(solves.count, set(solves)), default=0) <= 1


# Ank(9, 2) at lambda = (1, 1, 2) violates Jacobi on (2, 3, 4) with residual 3 Y9
_NOT_LIE = ["--family", "Ank", "--n", "9", "--k", "2", "--lambda=1", "--lambda=1",
            "--lambda=2"]


@pytest.mark.parametrize("command", [
    ["der", "space"], ["der", "diag"], ["der", "regular"], ["der", "derived-regular"],
    ["der", "char-nilp"], ["der", "verify-witness"], ["affine", "symplectic-find"],
], ids=lambda c: " ".join(c))
@pytest.mark.parametrize("source", ["family", "in"])
def test_non_lie_algebra_is_refused_with_its_jacobi_payload(capsys, tmp_path, command, source):
    argv = _NOT_LIE
    if source == "in":
        shown = tmp_path / "alg.json"
        assert main(["catalog", "show", "--reproducible", "--out", str(shown), *_NOT_LIE]) == 0
        capsys.readouterr()
        argv = ["--in", str(shown)]
    code, expected, _ = run_cli(capsys, ["verify", "jacobi", "--reproducible", *argv])
    assert code == 1 and len(expected["violations"]) == 1
    if command[-1] == "verify-witness":
        cert = tmp_path / "verdict.json"
        assert main(["der", "char-nilp", "--family", "Ln", "--n", "9", "--reproducible",
                     "--out", str(cert)]) == 0
        capsys.readouterr()
        argv = [*argv, "--cert", str(cert)]
    code, payload, err = run_cli(capsys, [*command, "--reproducible", *argv])
    assert (code, payload, err) == (1, expected, "")


def test_der_torus_refuses_a_non_lie_family_member(capsys, monkeypatch):
    # every Ln, QnZ and Cn member is Lie, so a Cn maker returning a non-Lie
    # algebra and its report stands in for one that is not
    monkeypatch.setattr(catalog, "make_cn", lambda n, lams: catalog.make_ank(9, 2, [1, 1, 2]))
    code, expected, _ = run_cli(capsys, ["verify", "jacobi", "--reproducible", *_NOT_LIE])
    code, payload, _ = run_cli(capsys, ["der", "torus", "--family", "Cn", "--n", "8",
                                        "--lambda=1", "--lambda=1", "--reproducible"])
    assert (code, payload) == (1, expected)


def test_unwritable_out_path_prints_no_verdict(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code = main(["der", "char-nilp", "--family", "Ln", "--n", "9", "--reproducible",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not target.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _module_run(monkeypatch, argv, stdout):
    """``python -m lieaffine argv`` with stdout on ``stdout``, stderr captured as text.

    stdout is block-buffered, as in a shell by default, so a short document
    still sits in the buffer when the interpreter flushes it at exit.
    """
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    return subprocess.run([sys.executable, "-m", "lieaffine", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def _one_error_line(done):
    return (done.returncode == 2 and done.stderr.startswith("error: ")
            and done.stderr.count("\n") == 1 and "Traceback" not in done.stderr)


@pytest.mark.parametrize("argv", [
    ["catalog", "list"],
    ["affine", "synth", "--family", "Ln", "--n", "12"],
], ids=["short", "long"])
def test_stdout_write_to_a_closed_pipe_exits_2(monkeypatch, argv):
    # the read end is closed before the child starts, so its write meets
    # EPIPE whatever the timing; the flush at exit must not report again
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _module_run(monkeypatch, argv, write_end)
    finally:
        os.close(write_end)
    assert _one_error_line(done), done.stderr
    assert "Broken pipe" in done.stderr


def test_stdout_write_to_a_full_device_exits_2(monkeypatch):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        done = _module_run(monkeypatch, ["catalog", "list"], full)
    assert _one_error_line(done), done.stderr
    assert "No space left on device" in done.stderr


def test_failed_stdout_write_in_process_exits_2(capsys, monkeypatch):
    # a stream without a file descriptor is left in place after the failure
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["catalog", "list"]) == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 28] No space left on device\n"


def test_out_file_bytes_equal_stdout_bytes(monkeypatch, tmp_path):
    target = tmp_path / "cert.json"
    done = _module_run(monkeypatch, ["affine", "synth", "--family", "Cn", "--n", "8",
                                     "--lambda=2/3", "--lambda=1/2", "--reproducible",
                                     "--out", str(target)], subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    assert target.read_text(encoding="utf-8") == done.stdout
    assert target.read_bytes() == done.stdout.encode("ascii")


def test_json_text_matches_json_dumps_on_every_pinned_payload(capsys, monkeypatch):
    payloads = []

    def recorded(payload):
        payloads.append(payload)
        return json_text(payload)

    monkeypatch.setattr(cli, "json_text", recorded)
    for argv, expected_code, _ in PINNED_STDOUT:
        assert main([*argv, "--reproducible"]) == expected_code
        out = capsys.readouterr().out
        assert out == json.dumps(payloads[-1], indent=2) + "\n"
    assert len(payloads) == len(PINNED_STDOUT)


# characters json.dumps escapes in every way it knows: quote, backslash,
# control characters, DEL, non-ASCII, line separators and astral code points
_AWKWARD = "a\"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u20ac\u2028\U0001f600 "
_INTS = (0, 1, -1, 2 ** 63, -(10 ** 40), 7 ** 300)


def _random_document(rng, depth):
    roll = rng.randrange(8 if depth < 5 else 4)
    if roll == 0:
        return "".join(rng.choice(_AWKWARD) for _ in range(rng.randrange(6)))
    if roll == 1:
        return rng.choice(_INTS + (rng.randint(-10 ** 6, 10 ** 6),))
    if roll == 2:
        return rng.choice((True, False, None))
    if roll == 3:
        return str(rng.randint(-99, 99))
    if roll == 4:  # a list of strings only, written with one join
        return [str(rng.randint(-9, 9)) for _ in range(rng.randrange(4))]
    if roll < 7:
        return [_random_document(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {"".join(rng.choice(_AWKWARD) for _ in range(rng.randrange(4))):
            _random_document(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_json_text_matches_json_dumps_on_seeded_documents():
    rng = random.Random(22)
    documents = [[], {}, [[]], [{}], {"": {}}, _AWKWARD, list(_AWKWARD), *_INTS,
                 True, False, None, [True, None, "x"], {"k": [1, "1"]}]
    documents += [_random_document(rng, 0) for _ in range(400)]
    for doc in documents:
        assert json_text(doc) == json.dumps(doc, indent=2), doc


@pytest.mark.parametrize("doc", [
    1.5, [1, 2.0], {"a": {"b": [float("nan")]}}, {1: "a"}, {"a": {None: 1}}, (1, 2),
    Fraction(1, 2), {"a": b"bytes"},
], ids=["float", "nested-float", "nan", "int-key", "none-key", "tuple", "Fraction", "bytes"])
def test_json_text_refuses_other_types(doc):
    with pytest.raises(TypeError):
        json_text(doc)


def test_timestamp_present_without_reproducible(capsys):
    code, payload, _ = run_cli(capsys, ["catalog", "show", "--family", "Ln", "--n", "3"])
    assert code == 0
    assert "generated_at" in payload
    # the timestamped document still validates against the algebra schema
    assert algebra_from_json(payload).dim == 3


def test_usage_error_exit_codes(capsys):
    code, _, _ = run_cli(capsys, ["catalog", "show", "--family", "Nope", "--n", "4"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["catalog", "show", "--family", "Ln", "--n", "1"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["no-such-group"])
    assert code == 2
    code, _, _ = run_cli(
        capsys, ["catalog", "show", "--family", "Cn", "--n", "6", "--lambda", "0"]
    )
    assert code == 2
    code, payload, err = run_cli(capsys, ["catalog", "show", "--family", "Ln"])
    assert code == 2 and payload is None
    assert err == "error: --n is required for family Ln\n"


def test_family_table_lists_helps_and_dispatches_the_same_ids(capsys, monkeypatch):
    _, payload, _ = run_cli(capsys, ["catalog", "list", "--reproducible"])
    listed = [family["id"] for family in payload["families"]]
    monkeypatch.setenv("COLUMNS", "1000")
    assert main(["catalog", "show", "--help"]) == 0
    helped = re.search(r"family id: ([^;]*);", " ".join(capsys.readouterr().out.split()))
    assert helped.group(1).split(", ") == listed
    assert list(cli._FAMILIES) == listed


# the parameter each family reports missing first, with none given
_FIRST_MISSING = {"Ln": "n", "Qn": "n", "QnZ": "n", "Ank": "lambda", "Bnk": "n",
                  "Cn": "lambda", "Benoist": None}


@pytest.mark.parametrize("family", list(_FIRST_MISSING))
def test_family_without_parameters_names_the_missing_one(capsys, family):
    code, payload, err = run_cli(capsys, ["catalog", "show", "--family", family])
    missing = _FIRST_MISSING[family]
    if missing is None:  # Benoist's t defaults to 0
        assert code == 0 and payload["dim"] == 11
    else:
        assert (code, payload) == (2, None)
        assert err == f"error: --{missing} is required for family {family}\n"


@pytest.mark.parametrize("argv, expected", [
    (["--family", "Ank", "--lambda=1"], "--n is required for family Ank"),
    (["--family", "Ank", "--lambda=1", "--n", "5"], "--k is required for family Ank"),
    (["--family", "Ank", "--lambda=x"], "malformed rational 'x'"),
    (["--family", "Bnk", "--k", "2"], "--n is required for family Bnk"),
    (["--family", "Bnk", "--n", "6"], "--k is required for family Bnk"),
    (["--family", "Bnk", "--lambda=x"], "malformed rational 'x'"),
    (["--family", "Cn", "--lambda=1"], "--n is required for family Cn"),
    (["--family", "Cn", "--lambda=x"], "malformed rational 'x'"),
    (["--family", "Nope", "--n", "4"], "unknown family 'Nope'"),
], ids=["ank-n", "ank-k", "ank-lambda", "bnk-n", "bnk-k", "bnk-lambda", "cn-n", "cn-lambda",
        "unknown"])
def test_family_parameters_are_checked_in_a_fixed_order(capsys, argv, expected):
    # --lambda is parsed before --n for Ank, Bnk and Cn; --n before --k
    code, payload, err = run_cli(capsys, ["catalog", "show", *argv])
    assert (code, payload) == (2, None)
    assert err.startswith(f"error: {expected}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, option, family", [
    (["catalog", "show", "--family", "Benoist", "--n", "5"], "n", "Benoist"),
    (["affine", "synth", "--family", "QnZ", "--n", "8", "--lambda", "1"], "lambda", "QnZ"),
    (["verify", "jacobi", "--family", "Ln", "--n", "5", "--k", "3"], "k", "Ln"),
    (["catalog", "show", "--family", "Cn", "--n", "6", "--lambda", "1", "--t", "2"], "t", "Cn"),
    (["der", "torus", "--family", "Ln", "--n", "4", "--lambda", "1"], "lambda", "Ln"),
], ids=["benoist-n", "qnz-lambda", "ln-k", "cn-t", "torus-ln-lambda"])
def test_family_refuses_a_parameter_it_does_not_take(capsys, argv, option, family):
    # each of these once built the family, dropped the option and exited 0
    code, payload, err = run_cli(capsys, [*argv, "--reproducible"])
    assert (code, payload) == (2, None)
    assert err == f"error: --{option} is not a parameter of family {family}\n"


_OPTION_ARGV = {"n": ["--n", "6"], "k": ["--k", "1"], "lambda": ["--lambda=1"], "t": ["--t=1"]}


@pytest.mark.parametrize("family", list(cli._FAMILIES))
def test_family_takes_exactly_the_parameters_catalog_list_names(capsys, family):
    # the one table decides: an option named in the family's `catalog list`
    # entry is read, every other one is refused before anything is built
    params = cli._FAMILIES[family][0]
    taken = {name for name in _OPTION_ARGV if f"--{name} " in params}
    assert taken == set(re.findall(r"--(\w+)", params))
    for name, option in _OPTION_ARGV.items():
        code, _, err = run_cli(capsys, ["catalog", "show", "--family", family, *option])
        refused = f"error: --{name} is not a parameter of family {family}\n"
        assert (err == refused) == (name not in taken), (name, err)
        assert name in taken or code == 2


@pytest.mark.parametrize("argv, option, allowed", [
    (["affine", "synth", "--family", "Ln", "--n", "4", "--strategy"], "--strategy",
     ["auto", "regular", "derived-regular", "symplectic"]),
    (["io", "validate", "--kind"], "--kind",
     ["algebra", "twoform", "affine", "certificate", "verdict"]),
], ids=["strategy", "kind"])
@pytest.mark.parametrize("value", ["nope", "x" * 5000], ids=["short", "long"])
def test_bad_choice_names_the_option_and_every_allowed_value(capsys, argv, option, allowed,
                                                             value):
    code, payload, err = run_cli(capsys, [*argv, value])
    assert (code, payload) == (2, None)
    assert err.endswith("\n") and err.count("\n") == 1
    assert len(err.encode()) < 300
    assert f"argument {option}: invalid choice" in err
    named = re.search(r"choose from (.*?)\)", err).group(1)
    assert [choice.strip("'") for choice in named.split(", ")] == allowed


# an input that is not UTF-8, or nested past the recursion limit, is an input error
_UNREADABLE = {"not-utf8": b"\xff\xfe", "deep": b"[" * 200_000}


@pytest.mark.parametrize("data", _UNREADABLE.values(), ids=_UNREADABLE.keys())
@pytest.mark.parametrize("argv", [
    ["io", "validate", "--kind", "algebra", "--in", "{doc}"],
    ["io", "validate", "--kind", "algebra"],
    ["verify", "jacobi", "--in", "{doc}"],
    ["verify", "jacobi"],
    ["affine", "verify", "--family", "Ln", "--n", "4", "--cert", "{doc}"],
    ["der", "verify-witness", "--family", "Ln", "--n", "4", "--cert", "{doc}"],
], ids=["validate-in", "validate-stdin", "jacobi-in", "jacobi-stdin", "affine-cert",
        "witness-cert"])
def test_unreadable_input_is_an_input_error(capsys, monkeypatch, tmp_path, argv, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    # a stdin that decodes strictly, as it does under a UTF-8 locale
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = main([arg.format(doc=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_main_reuses_one_parser_and_matches_fresh_processes(capsys, monkeypatch):
    # help text wraps at the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))
    bnk = ["catalog", "show", "--family", "Bnk", "--n", "6", "--k", "2", "--reproducible"]
    pinned_argv, _, pinned_digest = PINNED_STDOUT[0]
    sequence = [
        (["catalog", "show", "--family", "Ln", "--n", "0"], 2),
        (["--help"], 0),
        (["affine", "synth", "--reproducible", *_NOT_LIE], 1),
        ([*bnk, "--lambda", "1"], 0),
        (bnk, 2),  # an --lambda left over from the call before would make this pass
        ([*pinned_argv, "--reproducible"], 0),
    ]
    cli.build_parser.cache_clear()
    cli._leaf_parser.cache_clear()
    for argv, expected_code in sequence:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "lieaffine.cli", *argv],
                               capture_output=True, text=True, timeout=60)
        assert code == expected_code, argv
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert hashlib.sha256(captured.out.encode()).hexdigest() == pinned_digest
    # each command's parser is built once, and the whole tree only for --help
    commands = [tuple(argv[:2]) for argv, _ in sequence if tuple(argv[:2]) in cli._COMMANDS]
    info = cli._leaf_parser.cache_info()
    assert (info.misses, info.hits) == (len(set(commands)), len(commands) - len(set(commands)))
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def _no_tree():
    raise AssertionError("the whole parser tree was built")


# one well-formed argv per command, before --reproducible; parsed, never run
_COMMAND_ARGV = {
    ("catalog", "list"): ["--out", "list.json"],
    ("catalog", "show"): ["--family", "Ank", "--n", "7", "--k", "2", "--lambda", "1",
                          "--lambda=1/2"],
    ("verify", "jacobi"): ["--in", "alg.json"],
    ("verify", "filiform"): ["--family", "Ln", "--n", "5"],
    ("verify", "nilpotent"): ["--family", "Benoist", "--t=7/5"],
    ("der", "space"): [],
    ("der", "diag"): ["--family", "Cn", "--n", "8", "--lambda=1", "--lambda=-1"],
    ("der", "regular"): ["--family", "Ln", "--n", "6", "--seed", "5", "--trials", "3"],
    ("der", "derived-regular"): ["--in", "-", "--seed", "-2"],
    ("der", "char-nilp"): ["--family", "Benoist", "--t=1", "--trials", "7"],
    ("der", "torus"): ["--family", "QnZ", "--n", "8"],
    ("der", "verify-witness"): ["--family", "Benoist", "--t=1", "--cert", "verdict.json"],
    ("affine", "synth"): ["--family", "Ln", "--n", "12", "--strategy", "symplectic"],
    ("affine", "verify"): ["--in", "alg.json", "--cert", "cert.json", "--out", "v.json"],
    ("affine", "symplectic-find"): ["--family", "Qn", "--n", "8", "--seed", "3"],
    ("io", "validate"): ["--kind", "certificate", "--in", "cert.json"],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS), ids="-".join)
def test_command_parser_gives_the_tree_namespace(monkeypatch, command):
    argv = [*command, *_COMMAND_ARGV[command], "--reproducible"]
    tree = cli.build_parser().parse_args(argv)
    monkeypatch.setattr(cli, "build_parser", _no_tree)
    assert vars(cli._parse(argv)) == vars(tree)


@pytest.mark.parametrize("argv, expected_code", [
    (["affine", "synth", "--family", "Ln", "--n", "6", "--reproducible"], 0),
    (["der", "char-nilp", "--family", "Benoist", "--t=1", "--reproducible"], 1),
], ids=["synth", "char-nilp"])
def test_a_command_runs_without_the_parser_tree(capsys, monkeypatch, argv, expected_code):
    with monkeypatch.context() as tree_only:
        tree_only.setattr(cli, "_command_parser", lambda argv: None)
        usual = main(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", _no_tree)
    assert (main(argv), capsys.readouterr()) == usual
    assert usual[0] == expected_code


def test_command_parsers_print_the_bytes_of_the_tree(capsys, monkeypatch):
    # help at every level and usage errors, once as shipped and once through
    # the whole tree alone: a command's own parser must print the same bytes
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [["--help"], *([group, "--help"] for group in cli._GROUPS),
             *([*command, "--help"] for command in cli._COMMANDS),
             *(argv for argv, _ in _CUT_CASES),
             ["catalog", "list", "extra"], ["catalog", "list", "--"],
             ["affine", "synth", "--family", "Ln", "--n", "5", "--bogus"],
             ["affine", "synth", "--fam", "Ln", "--n", "5", "--reproducible"],
             ["affine", "verify", "--family", "Ln", "--n", "4"],
             ["--reproducible", "catalog", "list"], ["--", "catalog", "list"]]

    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    shipped = [run(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_command_parser", lambda argv: None)
    for argv, expected in zip(argvs, shipped):
        assert run(argv) == expected, argv


def test_no_run_imports_datetime_and_the_stamp_reads_back(monkeypatch):
    # importing the command line, a --reproducible run and a stamped run all
    # leave datetime unloaded; the stamp reads back as the UTC instant of the run
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))
    script = ("import json, sys\n"
              "from lieaffine import cli\n"
              "loaded = ['datetime' in sys.modules]\n"
              "cli.main(['catalog', 'list', '--reproducible'])\n"
              "loaded.append('datetime' in sys.modules)\n"
              "cli.main(['catalog', 'list'])\n"
              "loaded.append('datetime' in sys.modules)\n"
              "print(json.dumps(loaded), file=sys.stderr)\n")
    before = datetime.now(timezone.utc)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    after = datetime.now(timezone.utc)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr) == [False, False, False]
    decoder = json.JSONDecoder()
    plain, end = decoder.raw_decode(done.stdout)
    stamped, _ = decoder.raw_decode(done.stdout[end:].lstrip())
    assert "generated_at" not in plain
    assert stamped == {**plain, "generated_at": stamped["generated_at"]}
    instant = datetime.fromisoformat(stamped["generated_at"])
    assert instant.utcoffset() == timedelta(0)
    assert before - timedelta(seconds=2) <= instant <= after + timedelta(seconds=2)


@pytest.mark.parametrize("us", [0, 1, 999_999, 1_761_168_000_000_000, 1_761_168_000_123_456,
                                253_402_300_799_999_999, -1])
def test_the_stamp_has_the_shape_of_isoformat(us):
    # the fraction is left out exactly when the microseconds are 0
    expected = (datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=us)).isoformat()
    assert cli._utc_stamp(us * 1000 + 999) == expected


def test_package_runs_as_a_module(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "lieaffine", "catalog", "list"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert isinstance(json.loads(done.stdout), dict)


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """One seeded byte-level mutation of ``data``."""
    at = rng.randrange(len(data))
    op = rng.randrange(7)
    if op == 0:  # overwrite one byte, often with one that is not UTF-8
        return data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
    if op == 1:  # insert one byte
        return data[:at] + bytes([rng.randrange(256)]) + data[at:]
    if op == 2:  # delete a short run
        return data[:at] + data[at + rng.randrange(1, 16):]
    if op == 3:  # repeat a chunk
        chunk = data[at:at + rng.randrange(1, 64)]
        return data[:at] + chunk * rng.randrange(2, 8) + data[at:]
    if op == 4:  # truncate
        return data[:at]
    if op == 5:  # change one digit, which mostly keeps the document well-formed
        at = rng.choice([i for i, b in enumerate(data) if chr(b).isdigit()])
        return data[:at] + bytes([rng.choice(b"0123456789-")]) + data[at + 1:]
    # insert a run of "[", up to far past the recursion limit
    return data[:at] + b"[" * rng.choice((10, 1_000, 200_000)) + data[at:]


def test_fuzzed_documents_exit_0_1_or_2(capsys, tmp_path):
    assert main(["catalog", "show", "--family", "Ln", "--n", "4", "--reproducible"]) == 0
    algebra = capsys.readouterr().out.encode()
    assert main(["affine", "synth", "--family", "Ln", "--n", "4", "--reproducible"]) == 0
    certificate = capsys.readouterr().out.encode()
    assert main(["der", "char-nilp", "--family", "Ln", "--n", "4", "--reproducible"]) == 0
    verdict = capsys.readouterr().out.encode()
    assert main(["affine", "symplectic-find", "--family", "Ln", "--n", "4", "--reproducible"]) == 0
    form = json.dumps(json.loads(capsys.readouterr().out)["two_form"], indent=2).encode()
    structure = json.loads(certificate)["witnesses"]["affine_structure"]
    structure = json.dumps(structure, indent=2).encode()
    path = tmp_path / "doc.json"
    commands = {
        algebra: (["io", "validate", "--kind", "algebra", "--in", str(path)],
                  ["verify", "jacobi", "--in", str(path)]),
        certificate: (["io", "validate", "--kind", "certificate", "--in", str(path)],
                      ["affine", "verify", "--family", "Ln", "--n", "4", "--cert", str(path)]),
        verdict: (["der", "verify-witness", "--family", "Ln", "--n", "4", "--cert", str(path)],),
        form: (["io", "validate", "--kind", "twoform", "--in", str(path)],),
        structure: (["io", "validate", "--kind", "affine", "--in", str(path)],),
    }
    for base, argvs in commands.items():  # every unmutated document passes
        path.write_bytes(base)
        assert [main([*argv, "--reproducible"]) for argv in argvs] == [0] * len(argvs)
    capsys.readouterr()
    bases = list(commands)
    rng = random.Random(20_001)
    for trial in range(100 * len(bases)):
        base = bases[trial % len(bases)]
        data = _mutate(rng, base)
        path.write_bytes(data)
        for argv in commands[base]:
            code = main([*argv, "--reproducible"])
            captured = capsys.readouterr()
            assert code in (0, 1, 2), (argv, data[:200])
            if code == 2:
                assert captured.out == "" and captured.err.count("\n") == 1, (argv, data[:200])


@pytest.mark.parametrize("argv, expected", [
    (["catalog", "show", "--family", "Ln", "--n", " 8 "], "argument --n: must lie between"),
    (["catalog", "show", "--family", "Ln", "--n", "٨"], "argument --n: must lie between"),
    (["der", "regular", "--family", "Ln", "--n", "8", "--seed", "1_0"],
     "argument --seed: must be an integer, got '1_0'"),
    (["catalog", "show", "--family", "Ln", "--n", "8/1"], "argument --n: must lie between"),
    (["catalog", "show", "--family", "Ank", "--n", "9", "--k", "3.0", "--lambda", "1"],
     "argument --k: must be an integer"),
], ids=["n-spaces", "n-arabic-indic", "seed-underscore", "n-slash", "k-decimal"])
def test_integer_options_read_ascii_digits_alone(capsys, argv, expected):
    # an integer option is spelled as the rational grammar's integer part,
    # 'p' in ASCII digits, as --lambda, --t and every document spell theirs
    code, payload, err = run_cli(capsys, argv)
    assert code == 2 and payload is None
    assert expected in err and err.count("\n") == 1


def test_integer_options_take_a_sign_and_leading_zeros(capsys):
    code, payload, _ = run_cli(capsys, ["catalog", "show", "--family", "Ln", "--n", "+08",
                                        "--reproducible"])
    assert code == 0 and payload["dim"] == 8
    code, _, _ = run_cli(capsys, ["der", "regular", "--family", "Ln", "--n", "4",
                                  "--seed=-3", "--trials", "0002", "--reproducible"])
    assert code == 0


# values of every JSON type, and ints out of every range, that the
# structured fuzz puts in place of a field or a nested entry
_WRONG_VALUES = [None, True, False, 0, -1, -(10 ** 30), 2 ** 64, 10 ** 300, 0.5, -1e308,
                 "", "9" * 5000, [], [[]], [None, {}], {}, {"1": {"1": []}}]


def _json_paths(doc, path=()):
    """The path of every field and nested entry of a JSON value, depth first."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from _json_paths(value, (*path, key))


def _replaced(doc, path, value):
    """A copy of the JSON value doc with the entry at ``path`` replaced by value."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def _refused(field, value):
    """Whether a certificate's or verdict's ``field`` refuses value: the rule of each, restated.

    A name or note is a string; a seed is an int, never a bool; trials is
    such an int of at least 1, with no cap.
    """
    if field in ("name", "note"):
        return not isinstance(value, str)
    return isinstance(value, bool) or not isinstance(value, int) or (
        field == "trials" and value < 1)


def test_structurally_fuzzed_documents_exit_0_1_or_2(capsys, tmp_path):
    # each field and nested entry of a valid algebra, 2-form, affine
    # structure, two certificates and a verdict takes a value of a wrong
    # type or range; io validate and the command that reads the document
    # must each exit 0, 1 or 2, with no exception leaving cli.main. A
    # certificate's or verdict's seed, trials, name and note take every
    # value, and each reader exits 2 exactly on those their rule refuses
    def output(argv):
        assert main([*argv, "--reproducible"]) == 0
        return json.loads(capsys.readouterr().out)

    ln4 = ["--family", "Ln", "--n", "4"]
    path = str(tmp_path / "doc.json")
    certificate = output(["affine", "synth", *ln4])
    verify = ["affine", "verify", *ln4, "--cert"]
    docs = [  # (document, kind, the commands that read it beside io validate)
        (output(["catalog", "show", *ln4]), "algebra",
         (["verify", "jacobi", "--in"], ["affine", "synth", "--in"])),
        (output(["affine", "symplectic-find", *ln4])["two_form"], "twoform", ()),
        (certificate["witnesses"]["affine_structure"], "affine", ()),
        (dict(certificate, note="n"), "certificate", (verify,)),
        (dict(output(["affine", "synth", *ln4, "--strategy", "symplectic"]), note="n"),
         "certificate", (verify,)),
        (dict(output(["der", "char-nilp", *ln4]), note="n"), "verdict",
         (["der", "verify-witness", *ln4, "--cert"],)),
    ]
    rng = random.Random(58)
    codes = collections.Counter()
    for doc, kind, readers in docs:
        argvs = [["io", "validate", "--kind", kind, "--in"], *readers]
        for entry in _json_paths(doc):
            ruled = kind in ("certificate", "verdict") and entry in (
                ("seed",), ("trials",), ("name",), ("note",))
            for value in _WRONG_VALUES if ruled else rng.sample(_WRONG_VALUES, 6):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(_replaced(doc, entry, value), fh)
                for argv in argvs:
                    code = main([*argv, path, "--reproducible"])
                    capsys.readouterr()
                    assert code in (0, 1, 2), (argv, entry, value)
                    assert not ruled or (code == 2) == _refused(entry[0], value), (
                        argv, entry, value, code)
                    codes[code] += 1
    # the values reach the readers (2) and the checks behind them (0 and 1)
    assert set(codes) == {0, 1, 2} and sum(codes.values()) > 2000
