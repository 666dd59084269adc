"""JSON schemas for algebras, 2-forms, affine structures and certificates.

All payloads use 1-based basis indices and rational strings "p/q" (or "p"
when the denominator is 1). Parsers recanonicalize non-canonical fractions
like "2/4" silently but reject anything that is not an integer fraction,
along with unknown fields, bad index ranges and duplicate entries. A
"dim" header outside 1..MAX_DIM is rejected before anything is allocated.
Brackets and affine products share one {"i", "j", "coeffs"} table codec
that differs only in the admitted pairs. Every document may carry one
optional metadata field "generated_at" (emitted by the CLI unless
--reproducible is set); certificates and verdicts also admit an
informational "name"/"note". Metadata is ignored on input.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from .affine import STRATEGIES, AffineStructure, Certificate, CheckResult
from .derivations import CHAR_NILPOTENT_LIKELY, NOT_CHAR_NILPOTENT, CharNilpVerdict
from .errors import SchemaError
from .liealg import LieAlgebra, TwoForm
from .linalg import Matrix, format_rational, matrix_to_json

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?", re.ASCII)

_META_FIELDS = {"generated_at"}

# Largest document "dim"; a 2-form parser allocates dim x dim from the header.
MAX_DIM = 256


def _echo(value) -> str:
    """The first 20 characters of a document value, quoted, for a diagnostic."""
    return repr(str(value)[:20])


def parse_rational(text) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"malformed rational {_echo(text)}; expected 'p' or 'p/q'")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # Python's limit on digits in an int string
        raise SchemaError(
            f"rational of {len(text)} characters exceeds the integer digit limit"
        ) from exc
    if den == 0:
        raise SchemaError(f"zero denominator in rational {_echo(text)}")
    return Fraction(num, den)


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
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer")
    return value


def _require_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string")
    return value


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

def matrix_from_json(doc) -> Matrix:
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise SchemaError("matrix must be an array of row arrays")
    grid = [[parse_rational(x) for x in row] for row in doc]
    if grid and any(len(r) != len(grid[0]) for r in grid):
        raise SchemaError("matrix rows have unequal lengths")
    return Matrix(grid, len(grid), len(grid[0]) if grid else 0)


# --- coefficient tables ------------------------------------------------------

def _table_to_json(table) -> list:
    """Entries {"i", "j", "coeffs"} of a canonical table, in (i, j) then k order."""
    return [{"i": i + 1, "j": j + 1,
             "coeffs": {str(k + 1): format_rational(c) for k, c in sorted(table[i, j].items())}}
            for (i, j) in sorted(table)]


def _table_from_json(entries, dim: int, what: str, ordered: bool) -> dict:
    """The 0-based table {(i, j): {k: c}} of a list of {"i", "j", "coeffs"}.

    Pairs must satisfy 1 <= i, j <= dim, and i < j when ``ordered``.
    """
    if not isinstance(entries, list):
        raise SchemaError(f"{what} must be a list")
    rule = "1 <= i < j <= dim" if ordered else "1 <= i, j <= dim"
    table = {}
    for entry in entries:
        _require_object(entry, required=("i", "j", "coeffs"))
        i = _require_int(entry["i"], f"{what} index i")
        j = _require_int(entry["j"], f"{what} index j")
        if not (1 <= i <= dim and 1 <= j <= dim and (i < j or not ordered)):
            raise SchemaError(f"{what} pair ({i}, {j}) must satisfy {rule}")
        if (i - 1, j - 1) in table:
            raise SchemaError(f"duplicate {what} pair ({i}, {j})")
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, dict):
            raise SchemaError("coeffs must be an object")
        parsed = {}
        for key, val in coeffs.items():
            k = _index_key(key, dim)
            if k in parsed:
                raise SchemaError(f"duplicate coefficient index {k + 1}")
            parsed[k] = parse_rational(val)
        table[(i - 1, j - 1)] = parsed
    return table


# --- Lie algebras ---------------------------------------------------------

def algebra_to_json(alg: LieAlgebra) -> dict:
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "brackets": _table_to_json(alg.structure),
    }


def algebra_from_json(doc) -> LieAlgebra:
    _require_object(doc, required=("name", "dim", "basis", "brackets"))
    name = _require_str(doc["name"], "name")
    dim = _require_dim(doc["dim"])
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != dim:
        raise SchemaError("basis must be a list of dim names")
    basis = [_require_str(b, "basis name") for b in basis]
    structure = _table_from_json(doc["brackets"], dim, "brackets", ordered=True)
    return LieAlgebra(dim, structure, name=name, basis_names=basis)


# --- 2-forms ---------------------------------------------------------------

def twoform_to_json(form: TwoForm) -> dict:
    upper = sorted((i, j, v) for j, col in enumerate(form.gram.columns)
                   for i, v in col.items() if i < j)
    entries = [{"i": i + 1, "j": j + 1, "value": format_rational(v)} for i, j, v in upper]
    return {"dim": form.dim, "entries": entries}


def twoform_from_json(doc) -> TwoForm:
    _require_object(doc, required=("dim", "entries"))
    dim = _require_dim(doc["dim"])
    if not isinstance(doc["entries"], list):
        raise SchemaError("entries must be a list")
    seen = {}
    for entry in doc["entries"]:
        _require_object(entry, required=("i", "j", "value"))
        i = _require_int(entry["i"], "entry index i")
        j = _require_int(entry["j"], "entry index j")
        if not 1 <= i < j <= dim:
            raise SchemaError(f"entry pair ({i}, {j}) must satisfy 1 <= i < j <= dim")
        if (i - 1, j - 1) in seen:
            raise SchemaError(f"duplicate entry pair ({i}, {j})")
        seen[(i - 1, j - 1)] = parse_rational(entry["value"])
    return TwoForm.from_entries(dim, seen)


# --- affine structures ------------------------------------------------------

def affine_to_json(structure: AffineStructure) -> dict:
    return {"dim": structure.dim, "gamma": _table_to_json(structure.gamma),
            "provenance": structure.provenance}


def affine_from_json(doc) -> AffineStructure:
    _require_object(doc, required=("dim", "gamma"), optional=("provenance",))
    dim = _require_dim(doc["dim"])
    gamma = _table_from_json(doc["gamma"], dim, "gamma", ordered=False)
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise SchemaError("provenance must be an object")
    return AffineStructure(dim, gamma, provenance)


# --- certificates -----------------------------------------------------------

def _square_matrix_from_json(doc, what: str) -> Matrix:
    """A square matrix of at most MAX_DIM rows; the shape is checked before any entry is parsed."""
    if isinstance(doc, list):
        if len(doc) > MAX_DIM:
            raise SchemaError(f"{what} must have at most {MAX_DIM} rows")
        if any(isinstance(row, list) and len(row) != len(doc) for row in doc):
            raise SchemaError(f"{what} must be square")
    return matrix_from_json(doc)


# witness kind -> (to_json, from_json)
_WITNESS_CODECS = {
    "derivation": (matrix_to_json,
                   lambda doc: _square_matrix_from_json(doc, "derivation witness")),
    "two_form": (twoform_to_json, twoform_from_json),
    "affine_structure": (affine_to_json, affine_from_json),
}


def _witness_codec(key):
    codec = _WITNESS_CODECS.get(key)
    if codec is None:
        raise SchemaError(f"unknown witness kind {_echo(key)}")
    return codec


def certificate_to_json(cert: Certificate) -> dict:
    witnesses = {key: _witness_codec(key)[0](value) for key, value in cert.witnesses.items()}
    return {
        "algebra_hash": cert.algebra_hash,
        "strategy": cert.strategy,
        "seed": cert.seed,
        "trials": cert.trials,
        "version": cert.version,
        "checks": [
            {"name": c.name, "status": c.status, "residuals": c.residuals}
            for c in cert.checks
        ],
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
    return Certificate(
        algebra_hash=_require_str(doc["algebra_hash"], "algebra_hash"),
        strategy=strategy,
        seed=_require_int(doc["seed"], "seed"),
        trials=_require_int(doc["trials"], "trials"),
        version=_require_str(doc["version"], "version"),
        checks=checks,
        witnesses=witnesses,
    )


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
        witness = _square_matrix_from_json(witness, "witness")
    if kind == NOT_CHAR_NILPOTENT and witness is None:
        raise SchemaError("NotCharNilpotent verdict requires a witness")
    if kind == CHAR_NILPOTENT_LIKELY and witness is not None:
        raise SchemaError("CharNilpotentLikely verdict must not carry a witness")
    return CharNilpVerdict(
        kind=kind,
        witness=witness,
        seed=_require_int(doc["seed"], "seed"),
        trials=_require_int(doc["trials"], "trials"),
    )


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


def load_json(source):
    """The JSON document in the file at path ``source``, or read from the text stream ``source``.

    Text that is not UTF-8, not JSON or nested past the recursion limit is
    a SchemaError.
    """
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(source)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8 text ({exc.reason})") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc
