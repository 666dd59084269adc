"""JSON schemas for algebras, 2-forms, affine structures and certificates.

All payloads use 1-based basis indices and rational strings "p/q" (or "p"
when the denominator is 1). Parsers recanonicalize non-canonical fractions
like "2/4" silently but reject anything that is not an integer fraction,
along with unknown fields, bad index ranges and duplicate entries. Every
document may carry one optional metadata field "generated_at" (emitted by
the CLI unless --reproducible is set); certificates and verdicts also
admit an informational "name"/"note". Metadata is ignored on input.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

from .affine import STRATEGY_CHECKS, AffineStructure, Certificate, CheckResult
from .derivations import CHAR_NILPOTENT_LIKELY, NOT_CHAR_NILPOTENT, CharNilpVerdict
from .errors import SchemaError
from .liealg import LieAlgebra, TwoForm
from .linalg import Matrix, ZERO, format_rational

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

_META_FIELDS = {"generated_at"}


def parse_rational(text) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise SchemaError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # Python's limit on digits in an int string
        raise SchemaError(
            f"rational of {len(text)} characters exceeds the integer digit limit"
        ) from exc
    if den == 0:
        raise SchemaError(f"zero denominator in rational {text!r}")
    return Fraction(num, den)


def _require_object(doc, required, optional=frozenset()):
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object")
    keys = set(doc)
    unknown = keys - set(required) - set(optional) - _META_FIELDS
    if unknown:
        raise SchemaError(f"unknown field(s): {sorted(unknown)}")
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


# --- matrices -------------------------------------------------------------

def matrix_to_json(m: Matrix) -> list:
    return [[format_rational(x) for x in row] for row in m.data]


def matrix_from_json(doc, rows: Optional[int] = None, cols: Optional[int] = None) -> Matrix:
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise SchemaError("matrix must be an array of row arrays")
    grid = [[parse_rational(x) for x in row] for row in doc]
    if grid and any(len(r) != len(grid[0]) for r in grid):
        raise SchemaError("matrix rows have unequal lengths")
    if rows is not None and len(grid) != rows:
        raise SchemaError(f"expected {rows} matrix rows, got {len(grid)}")
    if cols is not None and grid and len(grid[0]) != cols:
        raise SchemaError(f"expected {cols} matrix columns, got {len(grid[0])}")
    return Matrix(grid, len(grid), len(grid[0]) if grid else (cols or 0))


# --- Lie algebras ---------------------------------------------------------

def algebra_to_json(alg: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(alg.structure):
        coeffs = alg.structure[(i, j)]
        brackets.append(
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": {str(k + 1): format_rational(coeffs[k]) for k in sorted(coeffs)},
            }
        )
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "brackets": brackets,
    }


def algebra_from_json(doc) -> LieAlgebra:
    _require_object(doc, required=("name", "dim", "basis", "brackets"))
    name = _require_str(doc["name"], "name")
    dim = _require_int(doc["dim"], "dim")
    if dim < 1:
        raise SchemaError("dim must be positive")
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != dim:
        raise SchemaError("basis must be a list of dim names")
    basis = [_require_str(b, "basis name") for b in basis]
    if not isinstance(doc["brackets"], list):
        raise SchemaError("brackets must be a list")
    structure = {}
    for entry in doc["brackets"]:
        _require_object(entry, required=("i", "j", "coeffs"))
        i = _require_int(entry["i"], "bracket index i")
        j = _require_int(entry["j"], "bracket index j")
        if not 1 <= i < j <= dim:
            raise SchemaError(f"bracket pair ({i}, {j}) must satisfy 1 <= i < j <= dim")
        if (i - 1, j - 1) in structure:
            raise SchemaError(f"duplicate bracket pair ({i}, {j})")
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, dict):
            raise SchemaError("coeffs must be an object")
        parsed = {}
        for key, val in coeffs.items():
            if not isinstance(key, str) or not key.isdigit():
                raise SchemaError(f"coefficient key {key!r} must be a 1-based index string")
            k = int(key)
            if not 1 <= k <= dim:
                raise SchemaError(f"coefficient index {k} out of range")
            if k - 1 in parsed:
                raise SchemaError(f"duplicate coefficient index {k}")
            parsed[k - 1] = parse_rational(val)
        structure[(i - 1, j - 1)] = parsed
    return LieAlgebra(dim, structure, name=name, basis_names=basis)


# --- 2-forms ---------------------------------------------------------------

def twoform_to_json(form: TwoForm) -> dict:
    entries = []
    for i in range(form.dim):
        for j in range(i + 1, form.dim):
            v = form.gram[i, j]
            if v:
                entries.append({"i": i + 1, "j": j + 1, "value": format_rational(v)})
    return {"dim": form.dim, "entries": entries}


def twoform_from_json(doc) -> TwoForm:
    _require_object(doc, required=("dim", "entries"))
    dim = _require_int(doc["dim"], "dim")
    if dim < 1:
        raise SchemaError("dim must be positive")
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
    gamma = []
    n = structure.dim
    for i in range(n):
        for j in range(n):
            col = structure.gamma[i][j]
            coeffs = {
                str(k + 1): format_rational(v) for k, v in enumerate(col) if v
            }
            if coeffs:
                gamma.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    return {"dim": n, "gamma": gamma, "provenance": structure.provenance}


def affine_from_json(doc) -> AffineStructure:
    _require_object(doc, required=("dim", "gamma"), optional=("provenance",))
    dim = _require_int(doc["dim"], "dim")
    if dim < 1:
        raise SchemaError("dim must be positive")
    if not isinstance(doc["gamma"], list):
        raise SchemaError("gamma must be a list")
    grid = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for entry in doc["gamma"]:
        _require_object(entry, required=("i", "j", "coeffs"))
        i = _require_int(entry["i"], "gamma index i")
        j = _require_int(entry["j"], "gamma index j")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise SchemaError(f"gamma pair ({i}, {j}) out of range")
        if (i, j) in seen:
            raise SchemaError(f"duplicate gamma pair ({i}, {j})")
        seen.add((i, j))
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, dict):
            raise SchemaError("coeffs must be an object")
        for key, val in coeffs.items():
            if not isinstance(key, str) or not key.isdigit():
                raise SchemaError(f"coefficient key {key!r} must be a 1-based index string")
            k = int(key)
            if not 1 <= k <= dim:
                raise SchemaError(f"coefficient index {k} out of range")
            grid[i - 1][j - 1][k - 1] = parse_rational(val)
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise SchemaError("provenance must be an object")
    return AffineStructure(dim, grid, provenance)


# --- certificates -----------------------------------------------------------

_WITNESS_KEYS = ("derivation", "two_form", "affine_structure")


def certificate_to_json(cert: Certificate) -> dict:
    witnesses = {}
    for key, value in cert.witnesses.items():
        if key == "derivation":
            witnesses[key] = matrix_to_json(value)
        elif key == "two_form":
            witnesses[key] = twoform_to_json(value)
        elif key == "affine_structure":
            witnesses[key] = affine_to_json(value)
        else:
            raise SchemaError(f"unknown witness kind {key!r}")
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
    if strategy not in STRATEGY_CHECKS:
        raise SchemaError(f"unknown strategy {strategy!r}")
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
    witnesses = {}
    for key, value in raw.items():
        if key == "derivation":
            m = matrix_from_json(value)
            if not m.is_square:
                raise SchemaError("derivation witness must be square")
            witnesses[key] = m
        elif key == "two_form":
            witnesses[key] = twoform_from_json(value)
        elif key == "affine_structure":
            witnesses[key] = affine_from_json(value)
        else:
            raise SchemaError(f"unknown witness kind {key!r}")
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
        raise SchemaError(f"unknown verdict kind {kind!r}")
    witness = doc["witness"]
    if witness is not None:
        witness = matrix_from_json(witness)
        if not witness.is_square:
            raise SchemaError("witness must be a square matrix")
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


def load_json(path_or_text: str, from_file: bool = True):
    try:
        if from_file:
            with open(path_or_text, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(path_or_text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
