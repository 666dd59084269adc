"""Affine (left-symmetric) structures: construction and exact verification.

An affine structure on a Lie algebra is a bilinear product x.y whose
antisymmetrization is the bracket (x.y - y.x = [x, y]) and which satisfies
the left-symmetry identity x.(y.z) - y.(x.z) = (x.y).z - (y.x).z. Both
axioms are bilinear, so checking them on all basis tuples is a complete,
finite certificate; ``verify_affine`` does exactly that and reports every
violating tuple with its exact residual. The check stays exhaustive over
basis tuples but reads the product tensor as sparse vectors, so its cost
grows with the tensor's nonzeros rather than with dense matrix products.

Three constructors are provided:

* ``from_regular_derivation``: x.y = f^{-1}([x, f(y)]) for an invertible
  derivation f.
* ``from_derived_regular``: x.y = g([x, f(y)]) where f is a derivation
  whose restriction to the derived subalgebra is invertible and g inverts
  f there (extended by zero off the pivot coordinates; the extension is
  irrelevant because ad images lie in the derived subalgebra).
* ``from_symplectic``: the product defined against a closed nondegenerate
  2-form by th([x, u], v) = -th(u, x.v).

All three build e_i.e_j as outer(M_i(inner e_j)) from sparse columns
(``_product_tensor``) and keep the tensor sparse, in the algebra's
{(i, j): {k: c}} form.

``synthesize`` tries the strategies in a fixed order, re-verifies the
winner exhaustively, and wraps the outcome in a self-contained certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import __about__
from .derivations import (
    DEFAULT_TRIALS,
    DerivationSpace,
    _restrict,
    check_trials,
    derivation_space,
    find_derived_regular_derivation,
    find_regular_derivation,
    is_derivation,
    restrict_to_derived,
    seeded_combinations,
)
from .errors import (
    DegenerateFormError,
    DimensionMismatch,
    LieToolError,
    NoStrategySucceeded,
    NotADerivationError,
    NotClosedError,
    SchemaError,
    SingularMatrixError,
    SingularOnDerivedError,
)
from .liealg import (
    LieAlgebra,
    TwoForm,
    ad_columns,
    algebra_hash,
    coefficient_table,
    cyclic_terms,
    derived_subalgebra,
    dtheta_residual,
    nondegenerate,
)
from .linalg import (
    Matrix,
    ZERO,
    dense_vector,
    invert,
    matrix_to_json,
    nonsingular,
    nullspace,
    sparse_apply,
    sparse_columns,
    vector,
)

NOT_A_PROOF = "search failure only; not a proof of non-existence"

# The checks a certificate of each strategy must pass, in the order
# recorded. The verifier runs these itself and never trusts a document's
# own list; the key order is the order ``auto`` tries the strategies.
STRATEGY_CHECKS = {
    "regular": ("is_derivation", "invertible", "torsion", "left_symmetry"),
    "derived-regular": ("is_derivation", "restriction_invertible", "torsion",
                        "left_symmetry"),
    "symplectic": ("closed", "nondegenerate", "torsion", "left_symmetry"),
}


class AffineStructure:
    """Product tensor: gamma[(i, j)] = {k: c} holds the nonzero coordinates of e_i . e_j.

    It is the canonical table of ``coefficient_table`` over all ordered
    pairs, as ``LieAlgebra.structure`` is over i < j; ``product`` is the
    dense read.
    """

    __slots__ = ("dim", "gamma", "provenance")

    def __init__(self, dim: int, gamma, provenance: Optional[dict] = None):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gamma", coefficient_table(dim, gamma, lambda i, j: True))
        object.__setattr__(self, "provenance", dict(provenance or {}))

    def __setattr__(self, name, value):
        raise AttributeError("AffineStructure is immutable")

    def product(self, x: Sequence, y: Sequence):
        x = vector(x)
        y = vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("product arguments must match the dimension")
        acc = [ZERO] * self.dim
        for (i, j), coeffs in self.gamma.items():
            t = x[i] * y[j]
            if t:
                for k, c in coeffs.items():
                    acc[k] += t * c
        return tuple(acc)

    def __repr__(self) -> str:
        strategy = self.provenance.get("strategy", "?")
        return f"AffineStructure(dim={self.dim}, strategy={strategy!r})"


@dataclass
class AffineReport:
    """Exact residuals of the two affine axioms on basis tuples."""

    torsion_violations: List[tuple] = field(default_factory=list)
    leftsym_violations: List[tuple] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.torsion_violations and not self.leftsym_violations


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    residuals: int


@dataclass
class Certificate:
    """Self-contained record of a synthesis verdict.

    Embeds the witnesses (the derivation or 2-form that drove the
    construction, and the resulting product tensor), so a third party can
    re-run every named check from the certificate and the algebra alone.
    """

    algebra_hash: str
    strategy: str
    seed: int
    trials: int
    version: str
    checks: List[CheckResult]
    witnesses: Dict[str, object]


@dataclass
class ReverifyReport:
    hash_match: bool
    checks: List[CheckResult]
    matches_recorded: bool

    @property
    def ok(self) -> bool:
        return (
            self.hash_match
            and self.matches_recorded
            and all(c.status == "pass" for c in self.checks)
        )


def verify_affine(alg: LieAlgebra, structure: AffineStructure) -> AffineReport:
    """Check both affine axioms exhaustively on basis tuples.

    Torsion violations are pairs (i, j, residual) with i < j where
    e_i.e_j - e_j.e_i - [e_i, e_j] is nonzero; left-symmetry violations are
    triples (i, j, k, residual) with i < j where
    e_i.(e_j.e_k) - e_j.(e_i.e_k) - (e_i.e_j).e_k + (e_j.e_i).e_k is
    nonzero. Bilinearity makes these basis checks equivalent to the
    universally quantified axioms. The sparse table is read as is, so each
    residual costs in proportion to the nonzeros it meets.
    """
    n = alg.dim
    if structure.dim != n:
        raise DimensionMismatch("structure dimension does not match the algebra")
    # left[i][j] = e_i.e_j, neg[i][j] = -(e_i.e_j), right[k][m] = e_m.e_k
    gamma = structure.gamma
    left = [[gamma.get((i, j), {}) for j in range(n)] for i in range(n)]
    neg = [[{k: -x for k, x in col.items()} for col in row] for row in left]
    right = [[left[m][k] for m in range(n)] for k in range(n)]
    report = AffineReport()
    for i in range(n):
        for j in range(i + 1, n):
            residual = _sparse_sum(left[i][j], neg[j][i], alg.bracket_basis(j, i))
            if any(residual.values()):
                report.torsion_violations.append((i, j, dense_vector(residual, n)))
    for i in range(n):
        for j in range(i + 1, n):
            swapped = _sparse_sum(left[j][i], neg[i][j])
            for k in range(n):
                residual = sparse_apply(left[i], left[j][k])
                sparse_apply(left[j], neg[i][k], residual)
                sparse_apply(right[k], swapped, residual)
                if any(residual.values()):
                    report.leftsym_violations.append((i, j, k, dense_vector(residual, n)))
    return report


def _sparse_sum(*vectors: dict) -> dict:
    out = {}
    for v in vectors:
        for k, x in v.items():
            out[k] = out.get(k, ZERO) + x
    return out


def _product_tensor(outer: list, maps: Sequence[list], inner: list,
                    provenance: dict) -> AffineStructure:
    """The structure with e_i.e_j = outer(maps[i](inner e_j)).

    ``outer``, ``inner`` and each ``maps[i]`` are the sparse columns of a
    map; the three constructions differ only in the three maps.
    """
    n = len(maps)
    gamma = {(i, j): sparse_apply(outer, sparse_apply(m, inner[j]))
             for i, m in enumerate(maps) for j in range(n)}
    return AffineStructure(n, gamma, provenance)


def from_regular_derivation(alg: LieAlgebra, f: Matrix) -> AffineStructure:
    """Product e_i . y = f^{-1}([e_i, f(y)]) for an invertible derivation f."""
    if is_derivation(alg, f):
        raise NotADerivationError("f does not satisfy the derivation identity")
    try:
        finv = invert(f)
    except SingularMatrixError:
        raise SingularMatrixError("f is singular; the conjugation product needs f^{-1}")
    provenance = {
        "strategy": "regular",
        "inputs": {"derivation": matrix_to_json(f)},
        "seed": None,
    }
    return _product_tensor(sparse_columns(finv), ad_columns(alg), sparse_columns(f),
                           provenance)


def from_derived_regular(alg: LieAlgebra, f: Matrix) -> AffineStructure:
    """Product e_i . y = g([e_i, f(y)]) with g inverting f on the derived subalgebra.

    g is zero on the coordinate complement of the derived subalgebra's RREF
    pivots; that choice never reaches the product because every ad image
    lies in the derived subalgebra. Column p_k of g, p_k the k-th pivot,
    combines the RREF rows by column k of the inverted restriction.
    """
    if is_derivation(alg, f):
        raise NotADerivationError("map does not satisfy the derivation identity")
    derived = derived_subalgebra(alg)
    try:
        rinv = invert(_restrict(derived, f))
    except SingularMatrixError:
        raise SingularOnDerivedError(
            "restriction of f to the derived subalgebra is singular"
        )
    basis = [row for _, row in derived.rows]
    g = [{} for _ in range(alg.dim)]
    for (p, _), col in zip(derived.rows, sparse_columns(rinv)):
        g[p] = sparse_apply(basis, col)
    provenance = {
        "strategy": "derived-regular",
        "inputs": {"derivation": matrix_to_json(f)},
        "seed": None,
    }
    return _product_tensor(g, ad_columns(alg), sparse_columns(f), provenance)


def from_symplectic(alg: LieAlgebra, form: TwoForm) -> AffineStructure:
    """Product defined against a closed nondegenerate 2-form.

    The left multiplication by e_i is the unique solution of
    th([e_i, u], v) = -th(u, e_i . v), namely -Th^{-1} ad(e_i)^T Th.
    """
    if form.dim != alg.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    if dtheta_residual(alg, form):
        raise NotClosedError("the 2-form is not closed")
    th = form.gram
    try:
        thinv = invert(th)
    except SingularMatrixError:
        raise DegenerateFormError("the 2-form is degenerate")
    n = alg.dim
    # column p of ad(e_i)^T is row p of ad(e_i)
    transposed = [[{} for _ in range(n)] for _ in range(n)]
    for i, cols in enumerate(ad_columns(alg)):
        for q, col in enumerate(cols):
            for p, c in col.items():
                transposed[i][p][q] = c
    provenance = {
        "strategy": "symplectic",
        "inputs": {"two_form": matrix_to_json(th)},
        "seed": None,
    }
    return _product_tensor(sparse_columns(-thinv), transposed, sparse_columns(th),
                           provenance)


def find_symplectic(alg: LieAlgebra, seed: int = 0,
                    trials: int = DEFAULT_TRIALS) -> Optional[TwoForm]:
    """Seeded search for a closed nondegenerate 2-form.

    Raises ValueError when ``trials`` < 1 and returns None in odd
    dimension; otherwise computes the linear space of closed forms exactly
    and draws ``seeded_combinations`` of its basis until one has nonzero
    Gram determinant. That determinant is the square of the Pfaffian, of
    degree n/2 in the coefficients.
    """
    check_trials(trials)
    n = alg.dim
    if n % 2:
        return None
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: s for s, p in enumerate(pairs)}
    rows = []
    for _, terms in cyclic_terms(alg):
        row = {}
        for a, m, c in terms:
            if a != m:
                col = index[(min(a, m), max(a, m))]
                row[col] = row.get(col, ZERO) + (c if a < m else -c)
        rows.append(row)
    closed = nullspace(rows, len(pairs))
    for v in seeded_combinations(closed, seed, trials):
        form = TwoForm.from_entries(n, {pairs[s]: x for s, x in enumerate(v) if x})
        if nondegenerate(form):
            return form
    return None


def synthesize(alg: LieAlgebra, strategy: str = "auto", seed: int = 0,
               trials: int = DEFAULT_TRIALS) -> Tuple[AffineStructure, Certificate]:
    """Construct and certify an affine structure on alg.

    ``auto`` tries regular, then derived-regular, then symplectic; the
    first success wins. The winning structure is re-verified exhaustively
    before it is returned, and the certificate embeds the witness and the
    product tensor. Failure raises NoStrategySucceeded with one reason per
    attempted strategy; that exception reports a failed search and never a
    non-existence proof.
    """
    wanted = tuple(STRATEGY_CHECKS) if strategy == "auto" else (strategy,)
    for s in wanted:
        if s not in STRATEGY_CHECKS:
            raise ValueError(f"unknown strategy {s!r}")
    reasons: Dict[str, str] = {}
    space: Optional[DerivationSpace] = None
    if "regular" in wanted or "derived-regular" in wanted:
        space = derivation_space(alg)

    if "regular" in wanted:
        f = find_regular_derivation(space, seed=seed, trials=trials)
        if f is None:
            reasons["regular"] = (
                f"no invertible derivation found (seed={seed}, trials={trials})"
            )
        else:
            structure = from_regular_derivation(alg, f)
            return _certify(alg, structure, "regular", seed, trials,
                            witnesses={"derivation": f})

    if "derived-regular" in wanted:
        f = find_derived_regular_derivation(space, seed=seed, trials=trials)
        if f is None:
            reasons["derived-regular"] = (
                "no derivation with invertible restriction to the derived "
                f"subalgebra found (seed={seed}, trials={trials})"
            )
        else:
            structure = from_derived_regular(alg, f)
            return _certify(alg, structure, "derived-regular", seed, trials,
                            witnesses={"derivation": f})

    if "symplectic" in wanted:
        if alg.dim % 2:
            reasons["symplectic"] = "odd dimension admits no nondegenerate 2-form"
        else:
            form = find_symplectic(alg, seed=seed, trials=trials)
            if form is None:
                reasons["symplectic"] = (
                    f"no closed nondegenerate 2-form found (seed={seed}, trials={trials})"
                )
            else:
                structure = from_symplectic(alg, form)
                return _certify(alg, structure, "symplectic", seed, trials,
                                witnesses={"two_form": form})

    raise NoStrategySucceeded(reasons)


def _certify(alg, structure, strategy, seed, trials, witnesses):
    report = verify_affine(alg, structure)
    if not report.passed:
        raise AssertionError(
            f"constructed {strategy} structure failed verification; "
            f"{len(report.torsion_violations)} torsion and "
            f"{len(report.leftsym_violations)} left-symmetry violations"
        )
    witnesses = dict(witnesses)
    witnesses["affine_structure"] = structure
    cert = Certificate(
        algebra_hash=algebra_hash(alg),
        strategy=strategy,
        seed=seed,
        trials=trials,
        version=__about__.__version__,
        checks=[CheckResult(name, "pass", 0) for name in STRATEGY_CHECKS[strategy]],
        witnesses=witnesses,
    )
    return structure, cert


def reverify_certificate(alg: LieAlgebra, cert: Certificate) -> ReverifyReport:
    """Re-run the checks the certificate's strategy requires, from its payloads alone.

    The checks come from ``STRATEGY_CHECKS``, never from the certificate's
    own list, so a certificate that omits a check cannot pass; the recorded
    list must match the recomputed one name for name and status for status.
    """
    required = STRATEGY_CHECKS.get(cert.strategy)
    if required is None:
        raise SchemaError(f"unknown strategy {cert.strategy!r}")
    hash_match = algebra_hash(alg) == cert.algebra_hash
    structure = cert.witnesses.get("affine_structure")
    affine_report = None
    if isinstance(structure, AffineStructure) and structure.dim == alg.dim:
        affine_report = verify_affine(alg, structure)
    results: List[CheckResult] = []
    for name in required:
        try:
            residuals = _recompute_check(alg, cert, name, affine_report)
        except LieToolError:
            residuals = 1
        if residuals is None:
            results.append(CheckResult(name, "unknown", -1))
        else:
            results.append(CheckResult(name, "pass" if residuals == 0 else "fail", residuals))
    matches = [(c.name, c.status) for c in cert.checks] == [
        (c.name, c.status) for c in results
    ]
    return ReverifyReport(hash_match=hash_match, checks=results, matches_recorded=matches)


def _recompute_check(alg, cert, name, affine_report) -> Optional[int]:
    derivation = cert.witnesses.get("derivation")
    form = cert.witnesses.get("two_form")
    if name == "is_derivation":
        if not isinstance(derivation, Matrix):
            return None
        return len(is_derivation(alg, derivation))
    if name == "invertible":
        if not isinstance(derivation, Matrix):
            return None
        return 0 if nonsingular(derivation) else 1
    if name == "restriction_invertible":
        if not isinstance(derivation, Matrix):
            return None
        return 0 if nonsingular(restrict_to_derived(alg, derivation)) else 1
    if name == "closed":
        if not isinstance(form, TwoForm):
            return None
        return len(dtheta_residual(alg, form))
    if name == "nondegenerate":
        if not isinstance(form, TwoForm):
            return None
        return 0 if nondegenerate(form) else 1
    if name == "torsion":
        if affine_report is None:
            return None
        return len(affine_report.torsion_violations)
    if name == "left_symmetry":
        if affine_report is None:
            return None
        return len(affine_report.leftsym_violations)
    return None
