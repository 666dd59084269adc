"""Affine (left-symmetric) structures: construction and exact verification.

An affine structure on a Lie algebra is a bilinear product x.y whose
antisymmetrization is the bracket (x.y - y.x = [x, y]) and which satisfies
the left-symmetry identity x.(y.z) - y.(x.z) = (x.y).z - (y.x).z. Both
axioms are bilinear, so checking them on all basis tuples is a complete,
finite certificate; ``verify_affine`` does exactly that and reports every
violating tuple with its exact residual. The check stays exhaustive over
basis tuples, but sums every residual in one pass over the nonzero
products, indexed by row and by column: a tuple that no nonzero product
or bracket reaches has residual exactly 0, so the cost is that set-up
plus work on the nonzero products, not n^3. It runs in Python ints, on
the tensor and the brackets as they are held, builds no object but those
indexes and the residual sums, and only a nonzero residual becomes
Fractions, in ``linalg._violations``.

Three constructors are provided:

* ``from_derived_regular``: x.y = g([x, f(y)]) where f is a derivation
  whose restriction to the derived subalgebra is invertible and g inverts
  f there (extended by zero off the pivot coordinates; the extension is
  irrelevant because ad images lie in the derived subalgebra).
* ``from_regular_derivation``: x.y = f^{-1}([x, f(y)]) for an invertible
  derivation f. This conjugation product is the derived-regular product
  of an f that is invertible on all of g: f maps [g, g] onto itself, and
  every [x, f(y)] lies there, so both constructors share one builder.
* ``from_symplectic``: the product defined against a closed nondegenerate
  2-form by th([x, u], v) = -th(u, x.v).

The paper builds every affine structure from one diagonal derivation f:
x.y = f^{-1}([x, f(y)]) on L_n, Q_n, A^n and B^n, and x.y = g([x, f(y)])
on C^n, where f = diag(0, 1, ..., 1, 2) and g inverts f on [g, g]. The
witnesses the searches return are mostly of that kind, monomial maps
(at most one entry per column), and those take closed forms that visit
each stored bracket once. The route is read off the witness's kept shape
in ``linalg``, which the search and ``is_derivation`` have already found:

* a diagonal derivation f = diag(w) (``Matrix.diagonal_weights``), in
  both derivation constructors (``_diagonal_product``):
  e_i.e_j = sum_k c_ij^k (w_j / w_k) e_k, with the support of the
  bracket, and SingularOnDerivedError when ``derivations``'s
  ``_restriction_invertible`` finds f singular on [g, g];
* a 2-form whose Gram columns each hold one entry (``Matrix.monomial``),
  pairing e_p with e_sigma(p) (``_matching_product``): each coefficient
  c of [e_a, e_b] on e_p gives -c Th[p, sigma p] / Th[b, sigma b] as the
  e_(sigma b) coefficient of e_a.e_(sigma p).

Every other witness (the seeded draws, Cn's regular witness, any witness
in a moved basis) takes the kernel route: e_i.e_j = outer(M_i(inner e_j))
from sparse columns (``_product_tensor``), composed in integers over the
three maps' denominators. A witness is read in the one form a ``Matrix``
holds, integer columns over one ``den``, and its outer map comes straight
from the kernel's integer inverse (``linalg._integer_inverse``) of the
restriction to [g, g] or of the Gram matrix, so no Fraction inverse is
built. Both routes give the same tensor, sparse, in the one form that
``AffineStructure`` shares with ``LieAlgebra.structure``: {(i, j): {k: c}}
of ints over one ``den``, which ``_adopted`` puts in lowest terms. The
symplectic search builds each 2-form it tries as integer Gram columns
over its class space's den. So no construction, search or check forms a
Fraction unless it reports a nonzero residual.

Each strategy is one record of ``STRATEGIES``: its search, its
construction, its witness's key and type, its check names, and
``recheck``, which tests the paper's hypothesis on the witness alone (f
an invertible derivation; f a derivation invertible on [g, g]; a closed
nondegenerate 2-form). ``synthesize`` tries the strategies in a fixed
order, re-verifies the winner exhaustively, and wraps the outcome in a
self-contained certificate; ``reverify_certificate`` re-runs the
record's ``recheck`` and one ``verify_affine`` of the stored product.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from math import lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import __about__
from .derivations import (
    DEFAULT_TRIALS,
    _first_hit,
    _integer_restrict,
    _restriction_invertible,
    _weight_candidates,
    check_budget,
    diagonal_derivations,
    find_derived_regular_derivation,
    find_regular_derivation,
    is_derivation,
)
from .errors import (
    DegenerateFormError,
    DimensionMismatch,
    LieToolError,
    NoStrategySucceeded,
    NotADerivationError,
    NotClosedError,
    NotLieAlgebraError,
    SchemaError,
    SingularMatrixError,
    SingularOnDerivedError,
)
from .liealg import (
    LieAlgebra,
    TwoForm,
    _adopted_form,
    algebra_hash,
    coefficient_table,
    cyclic_sum_terms,
    derived_subalgebra,
    dtheta_residual,
    jacobi_report,
    nondegenerate,
)
from .linalg import (
    Matrix,
    Subspace,
    _Frozen,
    _integer_inverse,
    _lowest_table,
    _nullspace,
    _set_fields,
    _transpose,
    _violations,
    nonsingular,
    sparse_apply,
)

NOT_A_PROOF = "search failure only; not a proof of non-existence"

# The moment-curve points ``find_symplectic`` tries as weights after the
# RREF basis of the diagonal derivations (Ln hits at the second). Nothing
# makes a later point likelier to be symmetric, so the pass stops here:
# with d basis weights it builds at most d + 3 candidates of n entries.
SYMPLECTIC_CURVE_POINTS = 3


class _Strategy(NamedTuple):
    checks: Tuple[str, ...]
    witness: str
    kind: type
    search: Callable
    construct: Callable
    recheck: Callable
    failure: Callable


def _residual(test: Callable[[], int]) -> int:
    """The residual count ``test()`` of one witness check (True counts 1), or 1 when it raises.

    A LieToolError, such as a map that does not preserve [g, g], fails
    the check it was raised in and leaves every other check to run.
    """
    try:
        return int(test())
    except LieToolError:
        return 1


def _recheck_derived_regular(alg: LieAlgebra, f: Matrix) -> Tuple[int, int]:
    """The ``is_derivation`` and ``restriction_invertible`` counts of f, from one ``is_derivation``.

    A map that is no derivation fails both; only a derivation has its
    restriction to [g, g] tested.
    """
    violations = len(is_derivation(alg, f))
    return violations, _residual(
        lambda: violations > 0 or not _restriction_invertible(derived_subalgebra(alg), f))


# The one record of each strategy, in the order ``auto`` tries them.
# ``search(alg, seed, trials)`` returns a witness of type ``kind`` or None,
# every search reading the Der(g) and weights kept on ``alg``, and
# ``failure`` says why it came back empty; ``construct`` builds the
# product from the witness, which the certificate stores under ``witness``.
# ``checks`` are the checks its certificate must pass, in the order
# recorded: the paper's hypothesis on the witness, then torsion and left
# symmetry. ``recheck(alg, witness)`` returns the residual counts of the
# first two from the witness alone, and ``verify_affine`` of the stored
# product gives the last two; the verifier runs them itself and never
# trusts a document's own list. Every call goes through the module's
# names, so a wrapper on those names sees it.
STRATEGIES = {
    "regular": _Strategy(
        checks=("is_derivation", "invertible", "torsion", "left_symmetry"),
        witness="derivation",
        kind=Matrix,
        search=lambda alg, seed, trials: find_regular_derivation(
            alg, seed=seed, trials=trials),
        construct=lambda alg, f: from_regular_derivation(alg, f),
        recheck=lambda alg, f: (len(is_derivation(alg, f)), _residual(lambda: not nonsingular(f))),
        failure=lambda alg, seed, trials: (
            f"no invertible derivation found (seed={seed}, trials={trials})"),
    ),
    "derived-regular": _Strategy(
        checks=("is_derivation", "restriction_invertible", "torsion", "left_symmetry"),
        witness="derivation",
        kind=Matrix,
        search=lambda alg, seed, trials: find_derived_regular_derivation(
            alg, seed=seed, trials=trials),
        construct=lambda alg, f: from_derived_regular(alg, f),
        recheck=_recheck_derived_regular,
        failure=lambda alg, seed, trials: (
            "no derivation with invertible restriction to the derived "
            f"subalgebra found (seed={seed}, trials={trials})"),
    ),
    "symplectic": _Strategy(
        checks=("closed", "nondegenerate", "torsion", "left_symmetry"),
        witness="two_form",
        kind=TwoForm,
        search=lambda alg, seed, trials: find_symplectic(alg, seed=seed, trials=trials),
        construct=lambda alg, form: from_symplectic(alg, form),
        recheck=lambda alg, form: (_residual(lambda: len(dtheta_residual(alg, form))),
                                   _residual(lambda: not nondegenerate(form))),
        failure=lambda alg, seed, trials: (
            "odd dimension admits no nondegenerate 2-form" if alg.dim % 2 else
            f"no closed nondegenerate 2-form found (seed={seed}, trials={trials})"),
    ),
}


class AffineStructure(_Frozen):
    """Product tensor: gamma[(i, j)] = {k: c}, over ``den``, holds the coordinates of e_i . e_j.

    It is the canonical table of ``coefficient_table`` over all ordered
    pairs, as ``LieAlgebra.structure`` is over i < j: ints c over one
    ``den`` > 0 with gcd(den, every c) = 1, so equal products have equal
    ``_identity`` fields, ``dim``, ``den`` and ``gamma``, and compare and
    hash equal. It validates caller and JSON input; the constructions
    adopt their tables (``_adopted``).
    """

    __slots__ = ("dim", "gamma", "den")
    _identity = ("dim", "den", "gamma")

    def __init__(self, dim: int, gamma):
        gamma, den = coefficient_table(dim, gamma, lambda i, j: True)
        _set_fields(self, dim=dim, gamma=gamma, den=den)

    def __repr__(self) -> str:
        return f"AffineStructure(dim={self.dim}, pairs={len(self.gamma)})"


class AffineReport(NamedTuple):
    """Exact residuals of the two affine axioms on basis tuples.

    An immutable record; ``verify_affine`` builds it in one expression,
    each field a fresh list from ``linalg._violations``, and a report
    built with no arguments has none and passes.
    """

    torsion_violations: Sequence[tuple] = ()
    leftsym_violations: Sequence[tuple] = ()

    @property
    def passed(self) -> bool:
        return not self.torsion_violations and not self.leftsym_violations


class CheckResult(NamedTuple):
    name: str
    status: str
    residuals: int


class Certificate(NamedTuple):
    """Self-contained record of a synthesis verdict.

    Embeds the witnesses (the derivation or 2-form that drove the
    construction, and the resulting product tensor), so a third party can
    re-run every named check from the certificate and the algebra alone.
    It is an immutable record: ``cert._replace(strategy=...)`` makes a
    changed copy, and two certificates are equal when their fields are.
    """

    algebra_hash: str
    strategy: str
    seed: int
    trials: int
    version: str
    checks: List[CheckResult]
    witnesses: Dict[str, object]


class ReverifyReport(NamedTuple):
    """The outcome of ``reverify_certificate``, one immutable record."""

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
    nonzero, in ascending (i, j, k) order. Bilinearity makes these basis
    checks equivalent to the universally quantified axioms.

    The left-symmetry residual of (i, j, k) is
    L_i(e_j.e_k) - L_j(e_i.e_k) + R_k(e_j.e_i - e_i.e_j), with L_b = e_b.(-)
    and R_k = (-).e_k, so it is summed from the nonzero products alone, in
    one pass over them: each coefficient x of e_a.e_k on e_c adds
    x e_b.e_c to (b, a, k) for each b < a with e_b.e_c nonzero and
    subtracts it from (a, b, k) for each such b > a, and each product off
    the diagonal adds to the difference e_i.e_j - e_j.e_i of its pair
    i < j. Then each nonzero coefficient y of a difference on e_m
    subtracts y e_m.e_k from (i, j, k) for each k with e_m.e_k nonzero;
    scaled by D_c, less D times the bracket, the difference is the torsion
    residual of its pair. A tuple that none of these touches has a
    residual of exactly 0, so the check stays exhaustive: its cost is the
    set-up of the n row and n column indexes of the nonzero products, plus
    work on the nonzero products alone, not n^3.

    The sums run in integers, on the tables as they are held: the
    products ``structure.gamma`` over their ``den``, D, and the brackets
    over theirs, D_c. A torsion residual is D * D_c times the rational one
    and a left-symmetry residual, quadratic in the product, D^2 times. Both
    are collected as integer sums keyed by tuple, the only objects the pass
    builds, and ``linalg._violations`` reports each nonzero one as its exact
    Fraction tuple.
    """
    n = alg.dim
    if structure.dim != n:
        raise DimensionMismatch("structure dimension does not match the algebra")
    gamma, d = structure.gamma, structure.den
    # rows[m]: {k: e_m.e_k} and cols[c]: {b: e_b.e_c}, the nonzero products times D
    rows = [{} for _ in range(n)]
    cols = [{} for _ in range(n)]
    for (a, c), prod in gamma.items():
        rows[a][c] = cols[c][a] = prod
    torsions: Dict[tuple, dict] = defaultdict(dict)
    residuals: Dict[tuple, dict] = defaultdict(dict)
    for (a, k), prod in gamma.items():
        if a != k:  # D (e_i.e_j - e_j.e_i), i < j
            acc, s = (torsions[a, k], 1) if a < k else (torsions[k, a], -1)
            for p, x in prod.items():
                acc[p] = acc.get(p, 0) + s * x
        for c, x in prod.items():
            for b, product in cols[c].items():
                if b != a:
                    acc, y = (residuals[b, a, k], x) if b < a else (residuals[a, b, k], -x)
                    for p, z in product.items():
                        acc[p] = acc.get(p, 0) + y * z
    # each difference adds -R_k(e_i.e_j - e_j.e_i) to (i, j, k), then is scaled
    # by D_c; less D D_c [e_i, e_j], it is the pair's torsion residual
    dc = alg.den
    for (i, j), diff in torsions.items():
        for m, y in diff.items():
            if y:
                for k, product in rows[m].items():
                    acc = residuals[i, j, k]
                    for p, z in product.items():
                        acc[p] = acc.get(p, 0) - y * z
            diff[m] = dc * y
    for key, coeffs in alg.structure.items():
        acc = torsions[key]
        for p, x in coeffs.items():
            acc[p] = acc.get(p, 0) - d * x
    return AffineReport(_violations(torsions, d * dc, n), _violations(residuals, d * d, n))


def _product_tensor(outer: Tuple[list, int], maps: Sequence[list], d_maps: int,
                    inner: Matrix) -> AffineStructure:
    """The structure e_i.e_j = outer(maps[i](inner e_j)) / d_maps.

    ``outer`` is (O, d_o): the integer sparse columns of d_o times a map.
    Each ``maps[i]`` is the integer sparse columns of d_maps times a map
    (ad(e_i) or its transpose, from ``LieAlgebra.ad_columns`` over
    ``den``); the three constructions differ only in the three maps.
    ``inner`` is the construction's witness matrix (the derivation f or the
    Gram matrix), read as it is held, V / d_v. The products run in
    integers, and the sums O M_i V are adopted over d_o d_maps d_v.

    Only nonzero terms are visited: O M_i e_m is formed once for each
    nonzero column M_i e_m, and e_i.e_j sums V[m, j] O M_i e_m over the
    support of column j of V and the i whose image of e_m is nonzero. The
    tensor is canonical once ``_adopted`` drops its zeros and cancelled
    pairs, divides out the gcd and puts its pairs in ascending (i, j) order.
    """
    n = len(maps)
    outer, d_outer = outer
    inner_cols, d_inner = inner.columns, inner.den
    den = d_outer * d_maps * d_inner
    # images[m]: the (i, O M_i e_m) with a nonzero image, in ascending i
    images = [[] for _ in range(n)]
    for i, cols in enumerate(maps):
        for m, col in enumerate(cols):
            if col:
                image = {k: x for k, x in sparse_apply(outer, col).items() if x}
                if image:
                    images[m].append((i, image))
    sums: Dict[tuple, dict] = {}
    for j, col in enumerate(inner_cols):
        for m, v in col.items():
            for i, image in images[m]:
                acc = sums.setdefault((i, j), {})
                for k, x in image.items():
                    acc[k] = acc.get(k, 0) + v * x
    return _adopted(n, sums, den)


def _adopted(dim: int, gamma: dict, den: int) -> AffineStructure:
    """The structure of a built table of int coefficients over den > 0, put in canonical form.

    ``linalg._lowest_table`` puts it in lowest terms and drops the pairs
    left empty; the rest are taken in (i, j) order.
    """
    keys = sorted(gamma)
    gamma, den = _lowest_table(keys, map(gamma.get, keys), den)
    return _set_fields(AffineStructure.__new__(AffineStructure), dim=dim, gamma=gamma, den=den)


def from_regular_derivation(alg: LieAlgebra, f: Matrix) -> AffineStructure:
    """Product e_i . y = f^{-1}([e_i, f(y)]) for an invertible derivation f."""
    if is_derivation(alg, f):
        raise NotADerivationError("f does not satisfy the derivation identity")
    if not nonsingular(f):
        raise SingularMatrixError("f is singular; the conjugation product needs f^{-1}")
    return _derived_product(alg, f)


def from_derived_regular(alg: LieAlgebra, f: Matrix) -> AffineStructure:
    """Product e_i . y = g([e_i, f(y)]) with g inverting f on the derived subalgebra."""
    if is_derivation(alg, f):
        raise NotADerivationError("map does not satisfy the derivation identity")
    return _derived_product(alg, f)


def _derived_product(alg: LieAlgebra, f: Matrix) -> AffineStructure:
    """The structure e_i . y = g([e_i, f(y)]) of a derivation f.

    g inverts f on the derived subalgebra and is zero on the coordinate
    complement of its RREF pivots; that choice never reaches the product
    because every ad image lies in the derived subalgebra. Column p_k of g,
    p_k the k-th pivot, combines the RREF rows by column k of the inverted
    restriction. The restriction, its inverse and g stay integer columns
    over one denominator each, and no Fraction is formed before the tensor.
    A diagonal f goes to the closed form of ``_diagonal_product`` instead,
    once ``_restriction_invertible`` has found it invertible on [g, g].
    """
    derived = derived_subalgebra(alg)
    w = f.diagonal_weights
    if w is not None and _restriction_invertible(derived, f):
        return _diagonal_product(alg, w)
    inverse = None if w is not None else _integer_inverse(*_integer_restrict(derived, f))
    if inverse is None:
        raise SingularOnDerivedError(
            "restriction of f to the derived subalgebra is singular"
        )
    columns, d_inverse = inverse
    basis = [row for _, row in derived.rows]
    g = [{} for _ in range(alg.dim)]
    for (p, _), col in zip(derived.rows, columns):
        g[p] = sparse_apply(basis, col)
    return _product_tensor((g, derived.den * d_inverse), alg.ad_columns, alg.den, f)


def _diagonal_product(alg: LieAlgebra, w: Sequence[int]) -> AffineStructure:
    """The structure of the derivation diag(w): e_i . e_j = sum_k c_ij^k (w_j / w_k) e_k.

    The derivation diag(w) preserves the derived subalgebra D and is
    diagonal, so D is the sum of its parts in the weight spaces, and g, the
    inverse of diag(w) on D, divides the e_k coordinate by w_k; the caller
    has checked that diag(w) is invertible on D, so every w_k met is
    nonzero. The entries are ints over den * L, den the structure's and L
    the lcm of the w_k met (any common scale of w cancels), and a pair with
    w_j = 0 has no product; the support is that of the bracket.
    """
    structure = alg.structure
    scale = lcm(*(w[k] for coeffs in structure.values() for k in coeffs))
    gamma: Dict[tuple, dict] = {}
    for (i, j), coeffs in structure.items():
        if w[j]:
            gamma[i, j] = {k: c * w[j] * (scale // w[k]) for k, c in coeffs.items()}
        if w[i]:
            gamma[j, i] = {k: -c * w[i] * (scale // w[k]) for k, c in coeffs.items()}
    return _adopted(alg.dim, gamma, alg.den * scale)


def from_symplectic(alg: LieAlgebra, form: TwoForm) -> AffineStructure:
    """Product defined against a closed nondegenerate 2-form.

    The left multiplication by e_i is the unique solution of
    th([e_i, u], v) = -th(u, e_i . v), namely -Th^{-1} ad(e_i)^T Th.
    A form whose Gram columns each hold one entry goes to the closed form
    of ``_matching_product`` instead.
    """
    if dtheta_residual(alg, form):
        raise NotClosedError("the 2-form is not closed")
    th = form.gram
    sigma = th.monomial
    if sigma is not None and None not in sigma:
        return _matching_product(alg, th, sigma)
    inverse = _integer_inverse(th.columns, th.den)
    if inverse is None:
        raise DegenerateFormError("the 2-form is degenerate")
    columns, den = inverse
    transposed = [_transpose(cols, alg.dim) for cols in alg.ad_columns]
    return _product_tensor(([{k: -x for k, x in col.items()} for col in columns], den),
                           transposed, alg.den, th)


def _matching_product(alg: LieAlgebra, th: Matrix, sigma: Sequence[int]) -> AffineStructure:
    """The structure -Th^{-1} ad(e_a)^T Th of a form that pairs each e_p with e_sigma(p) only.

    Th e_p = Th[sigma p, p] e_(sigma p), and Th^{-1} e_b = e_(sigma b) / Th[b, sigma b],
    so each coefficient c of [e_a, e_b] on e_p adds
    -c Th[p, sigma p] / Th[b, sigma b] to the e_(sigma b) coefficient of
    e_a . e_(sigma p). An entry (a, sigma p, sigma b) fixes a, p and b, and
    one stored pair holds {a, b}, so each entry is met once and none
    cancels. The Gram entries are read as the integer ``columns`` they are
    held in, whose common scale ``den`` cancels, and the entries are ints
    over the structure's den times the lcm L of those Gram entries.
    """
    cols = th.columns
    t = [cols[sigma[p]][p] for p in range(alg.dim)]  # d Th[p, sigma p]
    scale = lcm(*t)
    gamma: Dict[tuple, dict] = {}
    for (a, b), coeffs in alg.structure.items():
        for p, c in coeffs.items():
            gamma.setdefault((a, sigma[p]), {})[sigma[b]] = -c * t[p] * (scale // t[b])
            gamma.setdefault((b, sigma[p]), {})[sigma[a]] = c * t[p] * (scale // t[a])
    return _adopted(alg.dim, gamma, alg.den * scale)


def find_symplectic(alg: LieAlgebra, seed: int = 0,
                    trials: int = DEFAULT_TRIALS) -> Optional[TwoForm]:
    """Search for a closed nondegenerate 2-form: torus-homogeneous forms, then seeded draws.

    Checks its budget first (``check_budget``: TypeError or ValueError)
    and returns None in odd dimension, before any other work. Then come the diagonal weight
    candidates w of ``_weight_candidates`` over ``diagonal_derivations``,
    the weights the derivation searches read: the RREF basis and the first
    ``SYMPLECTIC_CURVE_POINTS`` moment-curve points, so the pass builds a
    bounded number of weights whatever ``trials`` is. diag(w) is a
    derivation, so d maps the forms homogeneous of weight c (th(e_a, e_m)
    nonzero only where w_a + w_m = c) into themselves, and the closed ones
    are the kernel of the closedness rows on those unknowns alone
    (``_closed_forms``). Only c = min(w) + max(w) can hold a
    nondegenerate one, and only a w with pairwise distinct entries is
    solved: its class pairs are then the n/2 pairs of one perfect matching
    (``_matching``), and a form on them is nondegenerate exactly when each
    of its n/2 entries is nonzero. Every weight and class test runs on the
    integer candidates. A class whose closed forms all leave some pair 0 is
    skipped; otherwise the class space's own integer ``_weight_candidates``
    are read for one with no zero entry, and its form, over the space's
    den, is tried through ``nondegenerate``; one is reached before the list
    ends. A hit does not depend on ``seed``; on Ln, w = (1, 2, ..., n)
    gives one +-1 entry on each pair (i, n + 1 - i).

    When no candidate hits, it computes the linear space of all closed
    forms exactly and draws seeded combinations of its basis until one has
    nonzero Gram determinant, the square of the Pfaffian, of degree n/2 in
    the coefficients; its outcome is the one the weight pass never ran
    for, and None after ``trials`` misses is one-sided.
    """
    check_budget(seed, trials)
    n = alg.dim
    if n % 2:
        return None

    weights = diagonal_derivations(alg)
    for w in islice(_weight_candidates(weights), weights.dim + SYMPLECTIC_CURVE_POINTS):
        partners = _matching(w)
        if partners is None:
            continue
        pairs, space = _closed_forms(alg, partners)
        # on a matching the Gram determinant is the square of the entries'
        # product: a pair every closed class form leaves 0 rules the class
        # out, and otherwise some class candidate has no zero entry
        if len(set().union(*(row for _, row in space.rows))) < len(pairs):
            continue
        hit = next(filter(nondegenerate, (_adopted_form(n, zip(pairs, v), space.den)
                                          for v in _weight_candidates(space) if all(v))), None)
        if hit is not None:
            return hit
    pairs, space = _closed_forms(alg, [[a for a in range(n) if a != m] for m in range(n)])
    return _first_hit(space, lambda v: _adopted_form(n, ((pairs[s], x) for s, x in v.items()),
                                                     space.den), (), seed, trials, nondegenerate)


def _matching(w: Sequence[int]) -> Optional[List[List[int]]]:
    """The partners [[sigma(a)] for each a] with w_a + w_sigma(a) = min(w) + max(w), or None.

    A form homogeneous for diag(w), nonzero only where w_a + w_m = c, is
    nondegenerate only if its Pfaffian has a nonzero term: a perfect
    matching of the indices into pairs of weight sum c. Such a matching maps
    the multiset of weights onto itself by x -> c - x, so it is symmetric
    about c / 2 and c is its min plus its max; conversely, pairing the k-th
    smallest with the k-th largest is one. So c is the only class worth
    solving. Only pairwise distinct weights are matched, and then the class
    pairs are that one matching sigma. A repeated weight gives None: it
    makes the class wider than a matching, no candidate list decides it,
    and on QnZ 8-16 and Cn 8-12 a miss there took 5 to 370 times as long as
    the seeded search.
    """
    at = {x: a for a, x in enumerate(w)}
    c = min(w) + max(w)
    if len(at) < len(w) or any(c - x not in at for x in w):
        return None
    return [[at[c - x]] for x in w]


def _closed_forms(alg: LieAlgebra, partners: Sequence[Sequence[int]]) -> Tuple[list, Subspace]:
    """(pairs, space): the closed 2-forms with th(e_a, e_m) free for a in ``partners[m]``.

    ``partners`` is symmetric and ``pairs`` lists its pairs a < m in
    ascending order; the closedness equations are integer rows over the
    integer-scaled structure constants, one per basis triple that a stored
    bracket reaches, summed over ``cyclic_sum_terms``, and ``space`` is their
    kernel on the unknowns th(pairs[s]). Every other entry of the forms is 0.
    """
    pairs = sorted((a, m) for m, others in enumerate(partners) for a in others if a < m)
    index = {p: s for s, p in enumerate(pairs)}
    rows: Dict[tuple, dict] = {}
    for triple, a, m, c in cyclic_sum_terms(alg.structure, partners):
        row = rows.setdefault(triple, {})
        col = index[(a, m) if a < m else (m, a)]
        row[col] = row.get(col, 0) + (c if a < m else -c)
    return pairs, _nullspace(rows.values(), len(pairs))


def synthesize(alg: LieAlgebra, strategy: str = "auto", seed: int = 0,
               trials: int = DEFAULT_TRIALS) -> Tuple[AffineStructure, Certificate]:
    """Construct and certify an affine structure on alg.

    ``auto`` tries regular, then derived-regular, then symplectic; the
    first success wins. The winning structure is re-verified exhaustively
    before it is returned, and the certificate embeds the witness and the
    product tensor. Failure raises NoStrategySucceeded with one reason per
    attempted strategy; that exception reports a failed search and never a
    non-existence proof. Before any search, the Jacobi report kept on alg
    is read once: a table that is not Lie raises NotLieAlgebraError,
    naming its violations, so a failed re-verification is a bug and
    raises AssertionError.
    """
    if strategy != "auto" and strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    violations = len(jacobi_report(alg))
    if violations:
        raise NotLieAlgebraError(
            f"the structure constants violate the Jacobi identity on {violations} "
            f"basis triple(s)")
    wanted = tuple(STRATEGIES) if strategy == "auto" else (strategy,)
    reasons: Dict[str, str] = {}
    for name in wanted:
        entry = STRATEGIES[name]
        witness = entry.search(alg, seed, trials)
        if witness is None:
            reasons[name] = entry.failure(alg, seed, trials)
            continue
        structure = entry.construct(alg, witness)
        report = verify_affine(alg, structure)
        if not report.passed:
            raise AssertionError(
                f"constructed {name} structure failed verification; "
                f"{len(report.torsion_violations)} torsion and "
                f"{len(report.leftsym_violations)} left-symmetry violations"
            )
        cert = Certificate(
            algebra_hash=algebra_hash(alg),
            strategy=name,
            seed=seed,
            trials=trials,
            version=__about__.__version__,
            checks=[CheckResult(check, "pass", 0) for check in entry.checks],
            witnesses={entry.witness: witness, "affine_structure": structure},
        )
        return structure, cert
    raise NoStrategySucceeded(reasons)


def reverify_certificate(alg: LieAlgebra, cert: Certificate) -> ReverifyReport:
    """Re-run the checks the certificate's strategy requires, from its payloads alone.

    Everything is read off the strategy's one record in ``STRATEGIES``,
    never off the certificate's own list: its ``recheck`` gives the counts
    of the two checks on the stored witness, and one ``verify_affine`` of
    the stored product gives torsion and left symmetry. So a certificate
    that omits a check cannot pass; the recorded list must match the
    recomputed one name for name and status for status. A witness of
    another type than the record's ``kind`` (an ``AffineStructure`` for the
    product), or whose ``dim`` is not ``alg.dim``, leaves its two checks
    "unknown" and is never computed on.
    """
    entry = STRATEGIES.get(cert.strategy)
    if entry is None:
        raise SchemaError(f"unknown strategy {cert.strategy!r}")
    hash_match = algebra_hash(alg) == cert.algebra_hash

    def checked(key, kind, counts):
        witness = cert.witnesses.get(key)
        if isinstance(witness, kind) and witness.dim == alg.dim:
            return counts(alg, witness)
        return None, None

    # an AffineReport is its (torsion, left-symmetry) violation lists
    counts = (*checked(entry.witness, entry.kind, entry.recheck),
              *checked("affine_structure", AffineStructure,
                       lambda alg, structure: map(len, verify_affine(alg, structure))))
    results = [CheckResult(name, "unknown", -1) if count is None else
               CheckResult(name, "fail" if count else "pass", count)
               for name, count in zip(entry.checks, counts, strict=True)]
    matches = [(c.name, c.status) for c in cert.checks] == [
        (c.name, c.status) for c in results
    ]
    return ReverifyReport(hash_match=hash_match, checks=results, matches_recorded=matches)
