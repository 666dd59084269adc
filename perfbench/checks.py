"""Payload checks for every benchmark job, run after the timed loop.

A check returns None when the job's exit code and payload are what the
mathematics requires, else a one-line reason. It never trusts the
program's own verdict list: a synthesis certificate must name exactly the
checks its strategy requires, and its embedded product tensor is put
through ``verify_affine`` again against an algebra rebuilt from the
catalog.
"""

from __future__ import annotations

import json

from lieaffine import catalog
from lieaffine.affine import verify_affine
from lieaffine.liealg import algebra_hash
from lieaffine.serialize import affine_from_json

REQUIRED_CHECKS = {
    "regular": {"is_derivation", "invertible", "torsion", "left_symmetry"},
    "derived-regular": {"is_derivation", "restriction_invertible", "torsion",
                        "left_symmetry"},
    "symplectic": {"closed", "nondegenerate", "torsion", "left_symmetry"},
}
OBSTRUCTION_REASONS = {"regular", "derived-regular", "symplectic"}
# The note the acceptance suite pins; spelled out so a changed constant in
# the program cannot make its own payload pass.
NOT_A_PROOF = "search failure only; not a proof of non-existence"


def _algebra(spec: dict):
    family, n = spec["family"], spec["n"]
    if family == "Ln":
        return catalog.make_ln(n)
    if family in ("Qn", "QnZ"):
        return catalog.make_qn(n, adapted=family == "QnZ")
    if family == "Cn":
        return catalog.make_cn(n, spec["lambdas"])[0]
    raise ValueError(f"no rebuild rule for family {family!r}")


def _synth(job, code, doc):
    if code != 0:
        return f"exit {code}, expected 0"
    if doc.get("strategy") != job["strategy"]:
        return f"strategy {doc.get('strategy')!r}, expected {job['strategy']!r}"
    checks = doc.get("checks", [])
    names = [c.get("name") for c in checks]
    if sorted(names) != sorted(REQUIRED_CHECKS[job["strategy"]]):
        return f"checks {names} differ from those {job['strategy']} requires"
    if any(c.get("status") != "pass" or c.get("residuals") != 0 for c in checks):
        return "a recorded check did not pass"
    alg = _algebra(job["algebra"])
    if doc.get("algebra_hash") != algebra_hash(alg):
        return "certificate hash does not match the algebra"
    structure = affine_from_json(doc["witnesses"]["affine_structure"])
    report = verify_affine(alg, structure)
    if not report.passed:
        return (f"product tensor fails: {len(report.torsion_violations)} torsion, "
                f"{len(report.leftsym_violations)} left-symmetry violations")
    return None


def _no_strategy(job, code, doc):
    if code != 1:
        return f"exit {code}, expected 1"
    if set(doc.get("reasons", {})) != OBSTRUCTION_REASONS:
        return f"reason keys {sorted(doc.get('reasons', {}))}"
    if doc.get("note") != NOT_A_PROOF:
        return "search-failure note missing"
    return None


def _char_nilpotent_likely(job, code, doc):
    if code != 1:
        return f"exit {code}, expected 1"
    if doc.get("kind") != "CharNilpotentLikely":
        return f"kind {doc.get('kind')!r}, expected 'CharNilpotentLikely'"
    return None


CHECKS = {
    "synth": _synth,
    "no-strategy": _no_strategy,
    "char-nilpotent-likely": _char_nilpotent_likely,
}


def check(job: dict, code, stdout: str):
    """None if the job's output is right, else the reason it is not."""
    if code is None:
        return "raised instead of returning an exit code"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    try:
        return CHECKS[job["check"]](job, code, doc)
    except Exception as exc:  # a malformed payload is a failed job, not a crash
        return f"check raised {type(exc).__name__}: {exc}"
