"""JSON schemas for algebras, 2-forms, affine structures and certificates.

All payloads use 1-based basis indices and rational strings "p/q" (or "p"
when the denominator is 1). ``parse_rational`` reads them in the
package's one grammar, 'p' or 'p/q' in ASCII digits, through
``linalg._read_rational``, the reader behind ``rat`` and the command
line's options too, so this module holds no pattern of its own. Every
other value is read by the library's own rule too, its TypeError or
ValueError re-raised by ``_schema`` as a SchemaError with the same text:
an integer field by ``linalg._integer`` (an int, never a bool), a string
field by ``linalg._string``, and a certificate's or verdict's "seed" and
"trials" by ``derivations.check_budget``, the rule of every search (an
int seed and an int trials >= 1, with no cap: a document's trials drives
no search, and only the command line's --trials caps the work). So
whatever the library writes reads back, and a value one of these rules
refuses is refused in a library call and in a document with the same
message. Parsers recanonicalize non-canonical fractions like "2/4"
silently but reject anything that is not an integer fraction, along
with unknown fields, bad index ranges and duplicate entries. A "dim" header outside
1..MAX_DIM is rejected before anything is allocated.
Brackets, affine products and 2-form entries share one {"i", "j", value}
pair-entry codec; matrices have their one square reader and one writer
here. A JSON object that repeats a key is rejected. Every document may
carry one optional metadata field "generated_at" (emitted by the CLI
unless --reproducible is set); certificates and verdicts also admit an
informational "name"/"note", which must be strings. Metadata, and an
affine structure's legacy "provenance" once checked to be an object, are
ignored on input.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from .affine import STRATEGIES, AffineStructure, Certificate, CheckResult
from .derivations import CHAR_NILPOTENT_LIKELY, NOT_CHAR_NILPOTENT, CharNilpVerdict, check_budget
from .errors import SchemaError
from .liealg import LieAlgebra, TwoForm, jacobi_report
from .linalg import Matrix, _echo, _integer, _read_rational, _string, format_rational

_META_FIELDS = {"generated_at"}

# Largest document "dim"; a 2-form parser allocates dim x dim from the header.
MAX_DIM = 256


def _schema(rule, *args):
    """``rule(*args)``, a library rule, with its TypeError or ValueError re-raised as a SchemaError.

    The message is kept, so a document and a library call refused by one
    rule say the same; no reader here restates a rule of its own.
    """
    try:
        return rule(*args)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def parse_rational(text) -> Fraction:
    """The Fraction of a document's rational string, 'p' or 'p/q' in ASCII digits.

    ``linalg._read_rational`` reads it, in the one grammar that ``rat`` and
    every option read too; its ValueError on a non-string or any other
    spelling becomes a SchemaError with the same message.
    """
    return _schema(_read_rational, text)


def _require_object(doc, required, optional=frozenset()):
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object")
    keys = set(doc)
    unknown = keys - set(required) - set(optional) - _META_FIELDS
    if unknown:
        raise SchemaError(f"unknown field(s): {_echo(', '.join(sorted(unknown)))}")
    missing = set(required) - keys
    if missing:
        raise SchemaError(f"missing field(s): {sorted(missing)}")


def _require_int(value, what: str) -> int:
    return _schema(_integer, value, what)


def _require_str(value, what: str) -> str:
    return _schema(_string, value, what)


def _require_dim(value) -> int:
    dim = _require_int(value, "dim")
    if not 1 <= dim <= MAX_DIM:
        raise SchemaError(f"dim must lie between 1 and {MAX_DIM}")
    return dim


def _index_key(key, dim: int) -> int:
    """The 0-based index named by a 1-based coefficient key such as "3"."""
    digits = key.lstrip("0") if isinstance(key, str) and key.isascii() and key.isdigit() else ""
    # the length test keeps int() away from keys of thousands of digits
    if not digits or len(digits) > len(str(dim)) or int(digits) > dim:
        raise SchemaError(f"coefficient key {_echo(key)} is not an index in 1..{dim}")
    return int(digits) - 1


# --- matrices -------------------------------------------------------------

def matrix_to_json(m: Matrix) -> list:
    """The rows of m as rational strings; only the stored nonzeros are formatted, the rest is "0"."""
    rows = [["0"] * m.dim for _ in range(m.dim)]
    for j, col in enumerate(m.columns):
        for i, x in col.items():
            rows[i][j] = format_rational(x, m.den)
    return rows


def matrix_from_json(doc, what: str = "matrix") -> Matrix:
    """A square matrix of 1 to MAX_DIM rows; the shape is checked before any entry is parsed."""
    if isinstance(doc, list):
        if not doc:
            raise SchemaError(f"{what} must have at least one row")
        if len(doc) > MAX_DIM:
            raise SchemaError(f"{what} must have at most {MAX_DIM} rows")
        if any(isinstance(row, list) and len(row) != len(doc) for row in doc):
            raise SchemaError(f"{what} must be square")
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise SchemaError(f"{what} must be an array of row arrays")
    return Matrix([[parse_rational(x) for x in row] for row in doc])


# --- pair entries and coefficient maps --------------------------------------

def _coeffs_to_json(coeffs, den: int) -> dict:
    """The 1-based map {"k": "p/q"} of the nonzero coefficients {k: c / den}, in k order."""
    return {str(k + 1): format_rational(c, den) for k, c in sorted(coeffs.items()) if c}


def _coeffs_from_json(coeffs, dim: int) -> dict:
    """The 0-based coefficients {k: c} of a map {"k": "p/q"} with keys in 1..dim."""
    if not isinstance(coeffs, dict):
        raise SchemaError("coeffs must be an object")
    parsed = {}
    for key, val in coeffs.items():
        k = _index_key(key, dim)
        if k in parsed:
            raise SchemaError(f"duplicate coefficient index {k + 1}")
        parsed[k] = parse_rational(val)
    return parsed


def _pairs_to_json(pairs, field: str, encode, den: int) -> list:
    """Entries {"i", "j", field: encode(value, den)} of 0-based {(i, j): value}, in (i, j) order."""
    return [{"i": i + 1, "j": j + 1, field: encode(pairs[i, j], den)} for i, j in sorted(pairs)]


def _pairs_from_json(entries, dim: int, field: str, parse, *, ordered: bool,
                     listed: str, item: str) -> dict:
    """The 0-based {(i, j): parse(entry[field])} of a list of {"i", "j", field} entries.

    Pairs must satisfy 1 <= i, j <= dim, and i < j when ``ordered``.
    Diagnostics name the list ``listed`` and each entry ``item``.
    """
    if not isinstance(entries, list):
        raise SchemaError(f"{listed} must be a list")
    rule = "1 <= i < j <= dim" if ordered else "1 <= i, j <= dim"
    pairs = {}
    for entry in entries:
        _require_object(entry, required=("i", "j", field))
        i = _require_int(entry["i"], f"{item} index i")
        j = _require_int(entry["j"], f"{item} index j")
        if not (1 <= i <= dim and 1 <= j <= dim and (i < j or not ordered)):
            raise SchemaError(f"{item} pair ({i}, {j}) must satisfy {rule}")
        if (i - 1, j - 1) in pairs:
            raise SchemaError(f"duplicate {item} pair ({i}, {j})")
        pairs[(i - 1, j - 1)] = parse(entry[field])
    return pairs


# --- Lie algebras ---------------------------------------------------------

def algebra_to_json(alg: LieAlgebra) -> dict:
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "brackets": _pairs_to_json(alg.structure, "coeffs", _coeffs_to_json, alg.den),
    }


def algebra_from_json(doc) -> LieAlgebra:
    _require_object(doc, required=("name", "dim", "basis", "brackets"))
    name = _require_str(doc["name"], "name")
    dim = _require_dim(doc["dim"])
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != dim:
        raise SchemaError("basis must be a list of dim names")
    basis = [_require_str(b, "basis name") for b in basis]
    structure = _pairs_from_json(doc["brackets"], dim, "coeffs",
                                 partial(_coeffs_from_json, dim=dim), ordered=True,
                                 listed="brackets", item="brackets")
    return LieAlgebra(dim, structure, name=name, basis_names=basis)


def jacobi_to_json(alg: LieAlgebra) -> dict:
    """The ``verify jacobi`` document of alg, read off the report kept on it (``jacobi_report``)."""
    violations = jacobi_report(alg)
    return {
        "name": alg.name,
        "dim": alg.dim,
        "jacobi_ok": not violations,
        "violations": [{"i": i + 1, "j": j + 1, "k": k + 1,
                        "residual": _coeffs_to_json(dict(enumerate(res)), 1)}
                       for i, j, k, res in violations],
    }


# --- 2-forms ---------------------------------------------------------------

def twoform_to_json(form: TwoForm) -> dict:
    gram = form.gram
    upper = {(i, j): x for j, col in enumerate(gram.columns) for i, x in col.items() if i < j}
    return {"dim": form.dim, "entries": _pairs_to_json(upper, "value", format_rational, gram.den)}


def twoform_from_json(doc) -> TwoForm:
    _require_object(doc, required=("dim", "entries"))
    dim = _require_dim(doc["dim"])
    entries = _pairs_from_json(doc["entries"], dim, "value", parse_rational,
                               ordered=True, listed="entries", item="entry")
    return TwoForm.from_entries(dim, entries)


# --- affine structures ------------------------------------------------------

def affine_to_json(structure: AffineStructure) -> dict:
    gamma = _pairs_to_json(structure.gamma, "coeffs", _coeffs_to_json, structure.den)
    return {"dim": structure.dim, "gamma": gamma}


def affine_from_json(doc) -> AffineStructure:
    _require_object(doc, required=("dim", "gamma"), optional=("provenance",))
    dim = _require_dim(doc["dim"])
    gamma = _pairs_from_json(doc["gamma"], dim, "coeffs", partial(_coeffs_from_json, dim=dim),
                             ordered=False, listed="gamma", item="gamma")
    if not isinstance(doc.get("provenance", {}), dict):
        raise SchemaError("provenance must be an object")
    return AffineStructure(dim, gamma)


# --- certificates -----------------------------------------------------------

# witness kind -> (to_json, from_json)
_WITNESS_CODECS = {
    "derivation": (matrix_to_json, partial(matrix_from_json, what="derivation witness")),
    "two_form": (twoform_to_json, twoform_from_json),
    "affine_structure": (affine_to_json, affine_from_json),
}


def _witness_codec(key):
    codec = _WITNESS_CODECS.get(key)
    if codec is None:
        raise SchemaError(f"unknown witness kind {_echo(key)}")
    return codec


def _shared_fields(doc) -> tuple:
    """(seed, trials) of a certificate or a verdict, read by the searches' rule ``check_budget``.

    So a document takes exactly the budgets a search takes: an int seed and
    an int ``trials`` >= 1, bools refused, with no cap, since a document's
    ``trials`` drives no search. Its optional "name" and "note" must be
    strings.
    """
    for key in ("name", "note"):
        if key in doc:
            _require_str(doc[key], key)
    _schema(check_budget, doc["seed"], doc["trials"])
    return doc["seed"], doc["trials"]


def checks_to_json(checks) -> list:
    """The {"name", "status", "residuals"} entries of a list of CheckResult."""
    return [{"name": c.name, "status": c.status, "residuals": c.residuals} for c in checks]


def certificate_to_json(cert: Certificate) -> dict:
    witnesses = {key: _witness_codec(key)[0](value) for key, value in cert.witnesses.items()}
    return {
        "algebra_hash": cert.algebra_hash,
        "strategy": cert.strategy,
        "seed": cert.seed,
        "trials": cert.trials,
        "version": cert.version,
        "checks": checks_to_json(cert.checks),
        "witnesses": witnesses,
    }


def certificate_from_json(doc) -> Certificate:
    _require_object(
        doc,
        required=("algebra_hash", "strategy", "seed", "trials", "version",
                  "checks", "witnesses"),
        optional=("name", "note"),
    )
    strategy = _require_str(doc["strategy"], "strategy")
    if strategy not in STRATEGIES:
        raise SchemaError(f"unknown strategy {_echo(strategy)}")
    checks = []
    if not isinstance(doc["checks"], list):
        raise SchemaError("checks must be a list")
    for entry in doc["checks"]:
        _require_object(entry, required=("name", "status", "residuals"))
        checks.append(
            CheckResult(
                _require_str(entry["name"], "check name"),
                _require_str(entry["status"], "check status"),
                _require_int(entry["residuals"], "check residuals"),
            )
        )
    raw = doc["witnesses"]
    if not isinstance(raw, dict):
        raise SchemaError("witnesses must be an object")
    witnesses = {key: _witness_codec(key)[1](value) for key, value in raw.items()}
    algebra_hash = _require_str(doc["algebra_hash"], "algebra_hash")
    seed, trials = _shared_fields(doc)
    return Certificate(algebra_hash=algebra_hash, strategy=strategy, seed=seed, trials=trials,
                       version=_require_str(doc["version"], "version"), checks=checks,
                       witnesses=witnesses)


# --- characteristic-nilpotency verdicts --------------------------------------

def verdict_to_json(verdict: CharNilpVerdict) -> dict:
    return {
        "kind": verdict.kind,
        "witness": matrix_to_json(verdict.witness) if verdict.witness else None,
        "seed": verdict.seed,
        "trials": verdict.trials,
    }


def verdict_from_json(doc) -> CharNilpVerdict:
    _require_object(doc, required=("kind", "witness", "seed", "trials"),
                    optional=("name", "note"))
    kind = _require_str(doc["kind"], "kind")
    if kind not in (NOT_CHAR_NILPOTENT, CHAR_NILPOTENT_LIKELY):
        raise SchemaError(f"unknown verdict kind {_echo(kind)}")
    witness = doc["witness"]
    if witness is not None:
        witness = matrix_from_json(witness, "witness")
    if kind == NOT_CHAR_NILPOTENT and witness is None:
        raise SchemaError("NotCharNilpotent verdict requires a witness")
    if kind == CHAR_NILPOTENT_LIKELY and witness is not None:
        raise SchemaError("CharNilpotentLikely verdict must not carry a witness")
    seed, trials = _shared_fields(doc)
    return CharNilpVerdict(kind=kind, witness=witness, seed=seed, trials=trials)


def json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the types a payload holds.

    Those are dicts with str keys, lists, str, int, bool and None; any other
    value or key raises TypeError. The stdout and ``--out`` format: a
    2-space indent, ASCII escapes (the stdlib's C ``encode_basestring_ascii``)
    and keys in the order the dict was built. A list of strings only, such
    as a matrix row, is written with one join.
    """
    out: list = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list) -> None:
    """Append ``value`` to ``out``; ``newline`` is the line break and indent of its level."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(item) is str for item in value):
            out.append("[" + inner + ("," + inner).join(map(encode_basestring_ascii, value))
                       + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _unique_keys(members: list) -> dict:
    """The JSON object of ``members``, its (key, value) pairs; a repeated key is a SchemaError."""
    doc = dict(members)
    if len(doc) < len(members):
        seen = set()
        for key, _ in members:
            if key in seen:
                raise SchemaError(f"repeated JSON key {_echo(key)}")
            seen.add(key)
    return doc


def load_json(source):
    """The JSON document in the file at path ``source``, or read from the text stream ``source``.

    Text that is not UTF-8, not JSON, nested past the recursion limit,
    with a key repeated in one object or with an integer literal past
    Python's int-string digit limit is a SchemaError.
    """
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                return json.load(fh, object_pairs_hook=_unique_keys)
        return json.load(source, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8 text ({exc.reason})") from exc
    except ValueError as exc:  # an int literal past the digit limit
        raise SchemaError("invalid JSON: an integer exceeds the integer digit limit") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc
