"""Affine (left-symmetric) structures: construction and exact verification.

An affine structure on a Lie algebra is a bilinear product x.y whose
antisymmetrization is the bracket (x.y - y.x = [x, y]) and which satisfies
the left-symmetry identity x.(y.z) - y.(x.z) = (x.y).z - (y.x).z. Both
axioms are bilinear, so checking them on all basis tuples is a complete,
finite certificate; ``verify_affine`` does exactly that and reports every
violating tuple with its exact residual. The check stays exhaustive over
basis tuples, but sums each left-symmetry residual from the nonzero
products alone: a triple that no nonzero product reaches has residual
exactly 0, so the cost grows as the nonzero products times n rather than
as n^3; torsion is checked on the pairs that hold a product or a bracket,
every other pair having residual exactly 0. It runs in Python ints: the
stored tensor and the brackets are rescaled over common denominators, and
only a nonzero residual becomes Fractions again.

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
(``linalg._monomial_rows``: at most one entry per column), and those
take closed forms that visit each stored bracket once:

* a diagonal derivation f = diag(w), in both derivation constructors
  (``_diagonal_product``): e_i.e_j = sum_k c_ij^k (w_j / w_k) e_k, with
  the support of the bracket, and SingularOnDerivedError exactly when
  some stored bracket has a nonzero coefficient on an e_k with w_k = 0;
* a 2-form whose Gram columns each hold one entry, pairing e_p with
  e_sigma(p) (``_matching_product``): each coefficient c of [e_a, e_b]
  on e_p gives -c Th[p, sigma p] / Th[b, sigma b] as the e_(sigma b)
  coefficient of e_a.e_(sigma p).

Every other witness (the seeded draws, Cn's regular witness, any witness
in a moved basis) takes the kernel route: e_i.e_j = outer(M_i(inner e_j))
from sparse columns (``_product_tensor``), composed in integers over the
three maps' common denominators. Its outer map comes straight from the
kernel's integer inverse (``linalg._integer_inverse``) of the restriction
to [g, g] or of the Gram matrix, so no Fraction inverse is built. Both
routes give the same tensor, sparse, in the algebra's {(i, j): {k: c}}
form of exact Fractions, whose entries are the first Fractions formed.

``synthesize`` tries the strategies in a fixed order, re-verifies the
winner exhaustively, and wraps the outcome in a self-contained certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import __about__
from .derivations import (
    DEFAULT_TRIALS,
    _diagonal_weights,
    _first_hit,
    _integer_restrict,
    _restriction_invertible,
    _weight_candidates,
    check_trials,
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
    _monomial_rows,
    _nullspace,
    _set_fields,
    _transpose,
    dense_vector,
    integer_scaled,
    nonsingular,
    sparse_apply,
    unscaled,
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
    search: Callable
    construct: Callable
    failure: Callable


# How ``synthesize`` tries each strategy, in the order ``auto`` tries them.
# ``checks`` are the checks its certificate must pass, in the order
# recorded; the verifier runs them itself and never trusts a document's
# own list. ``search(alg, seed, trials)`` returns a ``witness`` or None,
# every search reading the Der(g) and weights kept on ``alg``, and
# ``failure`` says why it came back empty. Searches and constructions are
# called through the module's names, so a wrapper on those names sees them.
STRATEGIES = {
    "regular": _Strategy(
        checks=("is_derivation", "invertible", "torsion", "left_symmetry"),
        witness="derivation",
        search=lambda alg, seed, trials: find_regular_derivation(
            alg, seed=seed, trials=trials),
        construct=lambda alg, f: from_regular_derivation(alg, f),
        failure=lambda alg, seed, trials: (
            f"no invertible derivation found (seed={seed}, trials={trials})"),
    ),
    "derived-regular": _Strategy(
        checks=("is_derivation", "restriction_invertible", "torsion", "left_symmetry"),
        witness="derivation",
        search=lambda alg, seed, trials: find_derived_regular_derivation(
            alg, seed=seed, trials=trials),
        construct=lambda alg, f: from_derived_regular(alg, f),
        failure=lambda alg, seed, trials: (
            "no derivation with invertible restriction to the derived "
            f"subalgebra found (seed={seed}, trials={trials})"),
    ),
    "symplectic": _Strategy(
        checks=("closed", "nondegenerate", "torsion", "left_symmetry"),
        witness="two_form",
        search=lambda alg, seed, trials: find_symplectic(alg, seed=seed, trials=trials),
        construct=lambda alg, form: from_symplectic(alg, form),
        failure=lambda alg, seed, trials: (
            "odd dimension admits no nondegenerate 2-form" if alg.dim % 2 else
            f"no closed nondegenerate 2-form found (seed={seed}, trials={trials})"),
    ),
}


class AffineStructure(_Frozen):
    """Product tensor: gamma[(i, j)] = {k: c} holds the nonzero coordinates of e_i . e_j.

    It is the canonical table of ``coefficient_table`` over all ordered
    pairs, as ``LieAlgebra.structure`` is over i < j. It validates caller
    and JSON input; the constructions adopt their tables (``_adopted``).
    """

    __slots__ = ("dim", "gamma")

    def __init__(self, dim: int, gamma):
        _set_fields(self, dim=dim, gamma=coefficient_table(dim, gamma, lambda i, j: True))

    def __repr__(self) -> str:
        return f"AffineStructure(dim={self.dim}, pairs={len(self.gamma)})"


class AffineReport(NamedTuple):
    """Exact residuals of the two affine axioms on basis tuples.

    An immutable record; ``verify_affine`` fills a fresh list for each
    field, and a report built with no arguments has none and passes.
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
    and R_k = (-).e_k, so it is summed from the nonzero products alone:
    each nonzero e_a.e_k adds L_b(e_a.e_k) to (b, a, k) for b < a and
    subtracts it from (a, b, k) for b > a, and each nonzero
    e_j.e_i - e_i.e_j adds its R_k image to (i, j, k). Only the b whose
    L_b meets the product's support, and only the k whose R_k meets the
    difference's, are visited. A triple that none of these touches has a
    residual of exactly 0, so the check stays exhaustive while its cost
    grows as the nonzero products times n rather than as n^3. Likewise the
    torsion residual of a pair i < j that holds neither a product (e_i.e_j
    or e_j.e_i) nor a bracket is exactly 0, so only the pairs that hold one
    are visited, in ascending order.

    The sums run in integers: the stored ``structure.gamma`` is rescaled
    here over its common denominator D, and the brackets over theirs, D_c,
    so the check never depends on how the structure was built. A torsion
    residual is D * D_c times the rational one and a left-symmetry residual,
    quadratic in the product, D^2 times; each nonzero one is reported as
    the exact Fraction tuple.
    """
    n = alg.dim
    if structure.dim != n:
        raise DimensionMismatch("structure dimension does not match the algebra")
    products, d = integer_scaled(structure.gamma.values())
    gamma = dict(zip(structure.gamma, products))
    brackets, dc = alg.integer_structure
    # left[i][j] = e_i.e_j and right[k][m] = e_m.e_k, both times D, their
    # empty entries sharing one dict that is only read; acting[c]: the b
    # with e_b.e_c != 0; reaching[m]: the k with e_m.e_k != 0
    empty: dict = {}
    left = [[empty] * n for _ in range(n)]
    right = [[empty] * n for _ in range(n)]
    acting = [set() for _ in range(n)]
    reaching = [set() for _ in range(n)]
    for (a, c), prod in gamma.items():
        left[a][c] = right[c][a] = prod
        acting[c].add(a)
        reaching[a].add(c)
    # the pairs i < j with a nonzero e_i.e_j or e_j.e_i
    product_pairs = {(min(a, c), max(a, c)) for a, c in gamma if a != c}
    # D * D_c (e_i.e_j - e_j.e_i - [e_i, e_j]) from the three integer columns
    torsion = {0: dc, 1: -dc, 2: -d}
    report = AffineReport([], [])
    for i, j in sorted(product_pairs.union(brackets)):
        residual = sparse_apply((left[i][j], left[j][i], brackets.get((i, j), empty)), torsion)
        if any(residual.values()):
            report.torsion_violations.append((i, j, dense_vector(unscaled(residual, d * dc), n)))
    residuals: Dict[tuple, dict] = {}
    for (a, k), prod in gamma.items():
        minus = {c: -x for c, x in prod.items()}
        for b in set().union(*(acting[c] for c in prod)) - {a}:
            key, v = ((b, a, k), prod) if b < a else ((a, b, k), minus)
            sparse_apply(left[b], v, residuals.setdefault(key, {}))
    for i, j in product_pairs:
        swapped = sparse_apply(left[i], {j: -1}, dict(left[j][i]))  # D (e_j.e_i - e_i.e_j)
        if any(swapped.values()):
            for k in set().union(*(reaching[m] for m, x in swapped.items() if x)):
                sparse_apply(right[k], swapped, residuals.setdefault((i, j, k), {}))
    for key in sorted(residuals):
        residual = residuals[key]
        if any(residual.values()):
            report.leftsym_violations.append((*key, dense_vector(unscaled(residual, d * d), n)))
    return report


def _product_tensor(outer: Tuple[list, int], maps: Sequence[list], d_maps: int,
                    inner: Matrix) -> AffineStructure:
    """The structure e_i.e_j = outer(maps[i](inner e_j)) / d_maps.

    ``outer`` is (O, d_o): the integer sparse columns of d_o times a map.
    Each ``maps[i]`` is the integer sparse columns of d_maps times a map
    (ad(e_i) or its transpose, from ``integer_ad_columns``); the three
    constructions differ only in the three maps. ``inner`` is the
    construction's witness matrix (the derivation f or the Gram matrix).
    The products run in integers: inner is scaled to V / d_v, and each entry
    of O M_i V is divided once by d_o d_maps d_v.

    Only nonzero terms are visited: O M_i e_m is formed once for each
    nonzero column M_i e_m, and e_i.e_j sums V[m, j] O M_i e_m over the
    support of column j of V and the i whose image of e_m is nonzero. The
    tensor, with zeros and cancelled pairs dropped, is canonical once
    ``_adopted`` puts its pairs in ascending (i, j) order.
    """
    n = len(maps)
    outer, d_outer = outer
    inner_cols, d_inner = inner.integer_columns
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
    return _adopted(n, {key: coeffs for key, acc in sums.items() if (coeffs := unscaled(acc, den))})


def _adopted(dim: int, gamma: dict) -> AffineStructure:
    """The structure of a built table of nonzero coefficients, its pairs put in order."""
    return _set_fields(AffineStructure.__new__(AffineStructure), dim=dim,
                       gamma={key: gamma[key] for key in sorted(gamma)})


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
    A diagonal f goes to the closed form of ``_diagonal_product`` instead.
    """
    diagonal = _diagonal_weights(f)
    if diagonal is not None:
        return _diagonal_product(alg, diagonal[0])
    derived = derived_subalgebra(alg)
    inverse = _integer_inverse(*_integer_restrict(derived, f))
    if inverse is None:
        raise SingularOnDerivedError(
            "restriction of f to the derived subalgebra is singular"
        )
    columns, d_inverse = inverse
    basis, d_basis = derived.integer_rows
    g = [{} for _ in range(alg.dim)]
    for (p, _), col in zip(derived.rows, columns):
        g[p] = sparse_apply(basis, col)
    return _product_tensor((g, d_basis * d_inverse), *alg.integer_ad_columns, f)


def _diagonal_product(alg: LieAlgebra, w: Sequence[int]) -> AffineStructure:
    """The structure of the derivation diag(w): e_i . e_j = sum_k c_ij^k (w_j / w_k) e_k.

    The derivation diag(w) preserves the derived subalgebra D and is
    diagonal, so D is the sum of its parts in the weight spaces, and g, the
    inverse of diag(w) on D, divides the e_k coordinate by w_k. D holds a
    weight-0 vector, and the
    restriction is singular, exactly when some stored bracket has a nonzero
    coefficient on an e_k with w_k = 0: the coordinate projection onto
    those e_k maps D onto its weight-0 part and the brackets span D. Each
    entry is one Fraction over ``integer_structure`` and the integer
    weights (any common scale of w cancels), and a pair with w_j = 0 has
    no product; the support is that of the bracket.
    """
    structure, den = alg.integer_structure
    if any(not w[k] for coeffs in structure.values() for k in coeffs):
        raise SingularOnDerivedError("restriction of f to the derived subalgebra is singular")
    gamma: Dict[tuple, dict] = {}
    for (i, j), coeffs in structure.items():
        if w[j]:
            gamma[i, j] = {k: Fraction(c * w[j], den * w[k]) for k, c in coeffs.items()}
        if w[i]:
            gamma[j, i] = {k: Fraction(-c * w[i], den * w[k]) for k, c in coeffs.items()}
    return _adopted(alg.dim, gamma)


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
    sigma = _monomial_rows(th)
    if sigma is not None and None not in sigma:
        return _matching_product(alg, th, sigma)
    inverse = _integer_inverse(*th.integer_columns)
    if inverse is None:
        raise DegenerateFormError("the 2-form is degenerate")
    columns, den = inverse
    ad, d_ad = alg.integer_ad_columns
    transposed = [_transpose(cols, alg.dim) for cols in ad]
    return _product_tensor(([{k: -x for k, x in col.items()} for col in columns], den),
                           transposed, d_ad, th)


def _matching_product(alg: LieAlgebra, th: Matrix, sigma: Sequence[int]) -> AffineStructure:
    """The structure -Th^{-1} ad(e_a)^T Th of a form that pairs each e_p with e_sigma(p) only.

    Th e_p = Th[sigma p, p] e_(sigma p), and Th^{-1} e_b = e_(sigma b) / Th[b, sigma b],
    so each coefficient c of [e_a, e_b] on e_p adds
    -c Th[p, sigma p] / Th[b, sigma b] to the e_(sigma b) coefficient of
    e_a . e_(sigma p). An entry (a, sigma p, sigma b) fixes a, p and b, and
    one stored pair holds {a, b}, so each entry is met once and none
    cancels. The Gram entries are read over their kept ``integer_columns``,
    whose common scale cancels.
    """
    structure, den = alg.integer_structure
    cols, _ = th.integer_columns
    t = [cols[sigma[p]][p] for p in range(alg.dim)]  # d Th[p, sigma p]
    gamma: Dict[tuple, dict] = {}
    for (a, b), coeffs in structure.items():
        for p, c in coeffs.items():
            gamma.setdefault((a, sigma[p]), {})[sigma[b]] = Fraction(-c * t[p], den * t[b])
            gamma.setdefault((b, sigma[p]), {})[sigma[a]] = Fraction(c * t[p], den * t[a])
    return _adopted(alg.dim, gamma)


def find_symplectic(alg: LieAlgebra, seed: int = 0,
                    trials: int = DEFAULT_TRIALS) -> Optional[TwoForm]:
    """Search for a closed nondegenerate 2-form: torus-homogeneous forms, then seeded draws.

    Raises ValueError when ``trials`` < 1 and returns None in odd
    dimension, before any other work. Then come the diagonal weight
    candidates w of ``_weight_candidates`` over ``diagonal_derivations``,
    the weights the derivation searches read: the RREF basis and the first
    ``SYMPLECTIC_CURVE_POINTS`` moment-curve points, so the pass builds a
    bounded number of weights whatever ``trials`` is. diag(w) is a
    derivation, so d maps the forms homogeneous of weight c (th(e_a, e_m)
    nonzero only where w_a + w_m = c) into themselves, and the closed ones
    are the kernel of the closedness rows on those unknowns alone
    (``_closed_forms``). Only c = ``_matching_class(w)`` can hold a
    nondegenerate one, and only a w with pairwise distinct entries is
    solved: its class pairs are then the n/2 pairs of one perfect matching,
    a form on them is nondegenerate exactly when each of its n/2 entries is
    nonzero. A class whose closed forms all leave some pair 0 is skipped;
    otherwise the class space's own ``_weight_candidates``, tried through
    ``nondegenerate``, reach such a form before their list ends. A hit
    does not depend on ``seed``; on Ln, w = (1, 2, ..., n) gives one +-1
    entry on each pair (i, n + 1 - i).

    When no candidate hits, it computes the linear space of all closed
    forms exactly and draws seeded combinations of its basis until one has
    nonzero Gram determinant, the square of the Pfaffian, of degree n/2 in
    the coefficients; its outcome is the one the weight pass never ran
    for, and None after ``trials`` misses is one-sided.
    """
    check_trials(trials)
    n = alg.dim
    if n % 2:
        return None

    def form(pairs, entries):
        return TwoForm.from_entries(n, {pairs[s]: x for s, x in entries if x})

    weights = diagonal_derivations(alg)
    for w in islice(_weight_candidates(weights), weights.dim + SYMPLECTIC_CURVE_POINTS):
        at = {x: a for a, x in enumerate(w)}
        # a repeated weight makes the class wider than a matching: no
        # candidate list decides it, and on QnZ 8-16 and Cn 8-12 a miss
        # there took 5 to 370 times as long as the seeded search
        if len(at) < n:
            continue
        c = _matching_class(w)
        if c is None:
            continue
        pairs, space = _closed_forms(alg, [[at[c - x]] for x in w])
        # on a matching the Gram determinant is the square of the entries'
        # product: a pair every closed class form leaves 0 rules the class
        # out, and otherwise some class candidate has no zero entry
        if len(set().union(*(row for _, row in space.rows))) < len(pairs):
            continue
        hit = next(filter(nondegenerate, (form(pairs, enumerate(v))
                                          for v in _weight_candidates(space) if all(v))), None)
        if hit is not None:
            return hit
    pairs, space = _closed_forms(alg, [[a for a in range(n) if a != m] for m in range(n)])
    return _first_hit(space, lambda v: form(pairs, v.items()), (), seed, trials, nondegenerate)


def _matching_class(w: Sequence[Fraction]) -> Optional[Fraction]:
    """c = min(w) + max(w) when w_(k) + w_(n-1-k) = c for every k of the sorted w, else None.

    A form homogeneous for diag(w), nonzero only where w_a + w_m = c, is
    nondegenerate only if its Pfaffian has a nonzero term: a perfect
    matching of the indices into pairs of weight sum c. Such a matching maps
    the multiset of weights onto itself by x -> c - x, so it is symmetric
    about c / 2 and c is its min plus its max; conversely, pairing the k-th
    smallest with the k-th largest is one. So c is the only class worth solving.
    """
    ws = sorted(w)
    c = ws[0] + ws[-1]
    return c if all(ws[k] + ws[-1 - k] == c for k in range(len(ws) // 2)) else None


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
    for triple, a, m, c in cyclic_sum_terms(alg.integer_structure[0], partners):
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

    The checks come from ``STRATEGIES``, never from the certificate's own
    list, so a certificate that omits a check cannot pass; the recorded
    list must match the recomputed one name for name and status for status.
    A witness of the wrong type, or of a size other than ``alg.dim``,
    leaves its checks "unknown" and is never computed on.
    """
    entry = STRATEGIES.get(cert.strategy)
    if entry is None:
        raise SchemaError(f"unknown strategy {cert.strategy!r}")
    hash_match = algebra_hash(alg) == cert.algebra_hash
    witnesses = {key: w for key, w in cert.witnesses.items() if _witness_dim(w) == alg.dim}
    structure = witnesses.get("affine_structure")
    if isinstance(structure, AffineStructure):
        witnesses["affine_structure"] = verify_affine(alg, structure)
    f = witnesses.get("derivation")
    if isinstance(f, Matrix):
        witnesses["derivation"] = _CheckedMap(f, is_derivation(alg, f))
    results: List[CheckResult] = []
    for name in entry.checks:
        key, kind, count = _CHECKS[name]
        witness = witnesses.get(key)
        if not isinstance(witness, kind):
            results.append(CheckResult(name, "unknown", -1))
            continue
        try:
            residuals = count(alg, witness)
        except LieToolError:
            residuals = 1
        results.append(CheckResult(name, "pass" if residuals == 0 else "fail", residuals))
    matches = [(c.name, c.status) for c in cert.checks] == [
        (c.name, c.status) for c in results
    ]
    return ReverifyReport(hash_match=hash_match, checks=results, matches_recorded=matches)


def _witness_dim(witness) -> Optional[int]:
    """n for an n x n matrix, else the witness's ``dim`` (None if it has none)."""
    if isinstance(witness, Matrix):
        return witness.rows if witness.is_square else None
    return getattr(witness, "dim", None)


class _CheckedMap(NamedTuple):
    """A derivation witness with its ``is_derivation`` violations, found once per certificate."""
    matrix: Matrix
    violations: List[tuple]


# check name -> (witness key, witness type, residual count of alg and witness);
# "affine_structure" is read as its verify_affine report, "derivation" as a _CheckedMap
_CHECKS = {
    "is_derivation": ("derivation", _CheckedMap, lambda alg, w: len(w.violations)),
    "invertible": ("derivation", _CheckedMap, lambda alg, w: 0 if nonsingular(w.matrix) else 1),
    "restriction_invertible": (
        "derivation", _CheckedMap,
        lambda alg, w: 0 if not w.violations and _restriction_invertible(
            derived_subalgebra(alg), w.matrix) else 1),
    "closed": ("two_form", TwoForm, lambda alg, form: len(dtheta_residual(alg, form))),
    "nondegenerate": ("two_form", TwoForm, lambda alg, form: 0 if nondegenerate(form) else 1),
    "torsion": ("affine_structure", AffineReport,
                lambda alg, report: len(report.torsion_violations)),
    "left_symmetry": ("affine_structure", AffineReport,
                      lambda alg, report: len(report.leftsym_violations)),
}
