"""Derivation algebras: exact computation, classification and searches.

``derivation_space`` solves the linear system expressing
D[x, y] = [Dx, y] + [x, Dy] on the basis pairs, over the n^2 matrix
entries of D, with its equations built by walking the nonzero structure
constants, the integers over one denominator that ``LieAlgebra`` holds;
``is_derivation`` checks the identity in integers the same way, and a
diagonal map, the witness of every weight hit, by comparing weights on
the stored brackets alone. Which route a map takes is read off its kept
shape, ``Matrix.diagonal_weights``, which ``is_derivation``,
``_restriction_invertible`` and ``verify_torus`` share with the
constructions in ``affine``: a witness's shape is found once. When the
table is in a basis adapted to its lower central series
(``LieAlgebra.tail_filtered``, true for every catalog family), the
n(n-1)/2 - 1 entries D[p, q] with q >= 2, p < q vanish in every
derivation (``_pinned_unknowns``), and the builder never visits them. If the table also satisfies Jacobi, e_1 and e_2
generate g, and a map is a derivation as soon as the identity holds on
the pairs (i, j) with i <= 1 (0-based; ``_generator_pairs_suffice``), so
only those equations are built, for Der(g) and for the diagonal weights
alike. Any other table solves the full system; every path gives the
same canonical basis. ``is_derivation`` and the certificate checks still
test every pair. Every randomized search
(for invertible derivations, for derivations whose restriction to the
derived subalgebra is invertible, for non-nilpotent derivations, and for
symplectic forms) runs one loop, ``_first_hit``, over its fixed
candidates and then the sparse draws of ``seeded_combinations``:
coefficients uniform in {-10, ..., 10} from an explicitly seeded
generator, so every verdict is reproducible from (seed, trials). When a
good element exists, a trial misses it with probability at most d/21 by
Schwartz-Zippel, d being the degree of the defect polynomial (d = n for
an n x n determinant): a bound that is vacuous from n = 21 on.

``derivation_space(alg)`` returns the one ``DerivationSpace`` kept on
``alg`` and solves nothing: Der(g) is solved the first time
``DerivationSpace.flat`` or ``all_nilpotent`` is read, by one
``_gauss_jordan`` pass on the integer equations whose rows the space
keeps; ``flat`` reads its basis off them (``linalg._solution_basis``), so
a verdict that never reads it never pays for it. Every search takes the
algebra, as ``(alg, seed, trials)``, and checks ``trials`` first. The
regular and derived-regular searches then try their diagonal weight
candidates (``_weight_candidates`` over the kept space's ``weights``,
which needs only the weight equations and is solved once per algebra:
``diagonal_derivations`` and every search read the same subspace), and a
hit there never solves Der(g) and does not depend on the seed. The
candidates are integer tuples over the weight rows' one denominator, and
a search adopts each as it is, as the integer columns of the diagonal
map it tries, as it adopts each seeded draw over Der(g) (``Matrix`` holds
a map in integers over one denominator): neither derivation search nor
char-nilp forms a Fraction.
For the regular search the pass is exact: it finds an invertible
diagonal derivation whenever the given basis has one, as the catalog
bases of Ln, Qn and QnZ do. The symplectic search
(``affine.find_symplectic``) reads the basis and the first curve points
of the same candidates, through ``diagonal_derivations``, before its
seeded draws: for each such weight w it solves the closed forms homogeneous for
diag(w) on the one weight class that can hold a nondegenerate form, and
on Ln its witness does not depend on the seed either.
After that the three searches pass one nil gate,
``DerivationSpace.all_nilpotent``, which decides exactly whether every
derivation is nilpotent: at once from the kept kernel rows when they set
every entry on and above the diagonal to 0, without the Der(g) basis,
and otherwise by Engel's theorem, on one image chain over that basis.
When it is, every candidate fails, so the outcome is fixed without
drawing any, or building the char-nilp search's own candidates, and the
cost does not grow with ``trials``; otherwise the searches draw as
described. The weight pass cannot change that outcome: on a nil Der(g)
the weight space is 0.
``verify_torus`` decides rational diagonalizability in integers, on the
Sturm chain of pseudo-remainders (``_sturm_chain``) of the kernel's
primitive integer relation among a map's powers (``_minimal_relation``,
which ``minimal_polynomial`` makes monic); a diagonal map, such as every
map of a catalog torus, is diagonal already and forms no polynomial.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NotInvariantError
from .liealg import LieAlgebra, derived_subalgebra, jacobi_report
from .linalg import (
    Matrix,
    Subspace,
    _Frozen,
    _coordinates,
    _flat_columns,
    _gauss_jordan,
    _nullspace,
    _set_fields,
    _solution_basis,
    _violations,
    is_nilpotent,
    nonsingular,
    products_vanish,
    sparse_apply,
)

NOT_CHAR_NILPOTENT = "NotCharNilpotent"
CHAR_NILPOTENT_LIKELY = "CharNilpotentLikely"

DEFAULT_TRIALS = 32
_COEFF_RANGE = 10


class DerivationSpace(_Frozen):
    """Der(g) of ``algebra``, solved the first time ``flat`` or ``all_nilpotent`` is read.

    ``derivation_space`` keeps one instance on each algebra, so every
    caller shares its views. The kernel rows of the system
    (``_gauss_jordan`` of ``_derivation_equations``) are kept; ``flat``
    reads Der(g) off them as the integer RREF rows, over one ``den``, of
    flattened n^2-vectors, and ``basis`` and ``matrix`` adopt those rows,
    and the seeded draws over them, as maps over the same ``den``, so no
    Fraction of Der(g) is formed before output.
    ``all_nilpotent`` reads the kernel rows first, so a nil Der(g) whose
    maps are all strictly lower triangular is decided without ``flat``; a
    search that settles without either never solves the system.
    ``weights`` is the space of diagonal derivation weights, the one
    weight solve of the algebra: ``diagonal_derivations`` returns it, and
    both searches for an invertible map try its ``_weight_candidates``
    before they read ``flat``. The symplectic search, the third, tries the
    basis and the first curve points of the same candidates before its
    seeded draws over the closed forms. Immutable (``linalg._Frozen``):
    ``algebra`` is fixed, and each instance keeps its own views in its
    ``__dict__``, each computed once.
    """

    __slots__ = ("algebra", "__dict__")

    def __init__(self, algebra: LieAlgebra):
        _set_fields(self, algebra=algebra)

    def __repr__(self) -> str:
        return f"DerivationSpace(algebra={self.algebra!r})"

    @cached_property
    def weights(self) -> Subspace:
        """The weights w with diag(w) a derivation, from the weight equations alone.

        diag(w) is a derivation exactly when w_i + w_j = w_k for every
        nonzero structure constant on ((i, j), k); this is the RREF solution
        space of those equations, given to the kernel as integer rows.
        diag(w) is a linear map too, so where ``_generator_pairs_suffice``
        the pairs with i <= 1 are enough, and only their equations are
        built (Benoist: 23 rows instead of 42).
        """
        alg = self.algebra
        lead = 2 if _generator_pairs_suffice(alg) else alg.dim
        rows = []
        for (i, j), coeffs in alg.structure.items():
            if i >= lead:
                continue
            for k in coeffs:
                row = {i: 1, j: 1}
                row[k] = row.get(k, 0) - 1
                rows.append(row)
        return _nullspace(rows, alg.dim)

    @cached_property
    def _kernel(self) -> Tuple[dict, frozenset]:
        """(reduced, pinned): the ``_gauss_jordan`` rows of ``_derivation_equations``."""
        rows, pinned = _derivation_equations(self.algebra)
        return _gauss_jordan(rows), pinned

    @cached_property
    def flat(self) -> Subspace:
        """Der(g) as the integer RREF rows of the solutions of ``_derivation_equations``.

        Read off the kept kernel rows by ``linalg._solution_basis``, with no
        second elimination. The equations leave out the ``_pinned_unknowns``,
        which are 0 in every derivation, so the kernel would return each of
        them as a free unit vector; those vectors are dropped, and the rest,
        over the same den, are the canonical rows of the full system.
        """
        n = self.algebra.dim
        reduced, pinned = self._kernel
        solved = _solution_basis(reduced, n * n)
        return Subspace(n * n, [row for row in solved.rows if row[0] not in pinned], solved.den)

    @property
    def dim(self) -> int:
        return self.flat.dim

    @cached_property
    def basis(self) -> Tuple[Matrix, ...]:
        return tuple(self.matrix(row) for _, row in self.flat.rows)

    def matrix(self, flat: dict) -> Matrix:
        """Adopt a sparse row-major integer vector {p*n + q: int} over ``flat.den`` as a matrix."""
        n = self.algebra.dim
        return Matrix.from_sparse(_flat_columns(flat.items(), n), self.flat.den)

    @cached_property
    def all_nilpotent(self) -> bool:
        """Exactly whether every derivation is nilpotent (Der(g) is nil).

        First the kept kernel rows: when every unknown D[r, j] with r <= j
        that is not pinned is a pivot whose row holds only that unknown,
        every solution has D[r, j] = 0 on and above the diagonal, so every
        derivation is strictly lower triangular, hence nilpotent, and the
        answer is True without building ``flat``. This is the same test as
        every basis map being strictly lower triangular, and it holds for
        Benoist(t) in the catalog basis. Otherwise a basis element with
        nonzero trace, summed over the diagonal entries its sparse row
        stores, settles False at once, and then ``products_vanish`` decides
        on ``flat``: by Engel's theorem that is the same as every element
        of the span being nilpotent, and in a basis where the shape test
        fails, its image chain decides.
        """
        n = self.algebra.dim
        reduced, pinned = self._kernel
        # flat index r*n + j holds D[r, j]; a one-entry kernel row sets its pivot to 0
        upper = (r * n + j for j in range(n) for r in range(j + 1))
        if all(len(reduced.get(c, ())) == 1 for c in upper if c not in pinned):
            return True
        # flat index c < n^2 is diagonal entry (p, p) exactly when c = p * (n + 1)
        if any(sum(x for c, x in row.items() if not c % (n + 1)) for _, row in self.flat.rows):
            return False
        return products_vanish([_flat_columns(row.items(), n) for _, row in self.flat.rows])


class CharNilpVerdict(NamedTuple):
    """Verdict on whether every derivation is nilpotent.

    ``NotCharNilpotent`` is certified by the non-nilpotent witness;
    ``CharNilpotentLikely`` only says the seeded search found nothing and
    is explicitly one-sided.
    """

    kind: str
    witness: Optional[Matrix]
    seed: int
    trials: int


class TorusReport(NamedTuple):
    """Outcome of the three torus checks, all exact.

    ``derivation_failures`` holds (map index, violation list) pairs,
    ``commutation_failures`` holds non-commuting index pairs, and
    ``semisimplicity_failures`` holds (map index, reason) pairs for maps
    not diagonalizable over the rationals, a decision that is exact: the
    minimal polynomial must have as many distinct rational roots as its
    degree. When it is squarefree but does not split, the map may still be
    semisimple over a field extension, and a note says so. An immutable
    record: ``verify_torus`` fills a fresh list for each field, and a
    report built with no arguments has none and passes.
    """

    derivation_failures: Sequence[tuple] = ()
    commutation_failures: Sequence[tuple] = ()
    semisimplicity_failures: Sequence[tuple] = ()
    notes: Sequence[str] = ()

    @property
    def passed(self) -> bool:
        return not (
            self.derivation_failures
            or self.commutation_failures
            or self.semisimplicity_failures
        )


def is_derivation(alg: LieAlgebra, m: Matrix) -> List[tuple]:
    """Violations of m[e_i, e_j] = [m e_i, e_j] + [e_i, m e_j], all i < j.

    Each entry is (i, j, residual vector); an empty list certifies that m
    is a derivation. The residual m[e_i, e_j] + [e_j, m e_i] - [e_i, m e_j]
    is built from the sparse columns of m and of ad(e_i), ad(e_j), in
    integers: m's integer columns over its ``den``, d_m, and the ad table
    kept on alg over its ``den``, d_c, so every residual is d_m d_c times the
    rational one; ``linalg._violations`` reports each nonzero one as its
    exact Fractions, in ascending order.

    The residual of (i, j) is exactly 0 unless [e_i, e_j] != 0, or
    [e_j, e_q] != 0 for some q in the support of m e_i, or [e_i, e_q] != 0
    for some q in that of m e_j, so only those pairs are visited; the check
    stays exhaustive.

    A diagonal m = diag(w) is decided in closed form: the residual of a
    stored pair is sum_k c_ij^k (w_k - w_i - w_j) e_k, and every other pair
    has residual 0. So only the stored pairs are summed, over the integer
    weights of the kept ``Matrix.diagonal_weights``, with the same d_m d_c.
    """
    n = alg.dim
    if m.dim != n:
        raise DimensionMismatch("map shape does not match the algebra dimension")
    w = m.diagonal_weights
    if w is not None:
        sums = {(i, j): {k: c * (w[k] - w[i] - w[j]) for k, c in coeffs.items()}
                for (i, j), coeffs in alg.structure.items()}
    else:
        cols, ad, partners = m.columns, alg.ad_columns, alg.partners
        pairs = set(alg.structure)
        for i, col in enumerate(cols):
            pairs.update((min(i, j), max(i, j)) for q in col for j in partners[q] if j != i)
        neg = [{r: -x for r, x in col.items()} for col in cols]
        sums = {}
        for i, j in pairs:
            residual = sums[(i, j)] = sparse_apply(cols, ad[i][j])
            sparse_apply(ad[j], cols[i], residual)
            sparse_apply(ad[i], neg[j], residual)
    return _violations(sums, m.den * alg.den, n)


def _pinned_unknowns(alg: LieAlgebra) -> frozenset:
    """The flat indices p*n + q (q >= 2, p < q) that vanish in every derivation, if known.

    On a ``tail_filtered`` table C^k g = span(e_(k+1), ..., e_(n-1)) for
    k >= 1, and a derivation D preserves every C^k g (D C^(k+1) lies in
    [Dg, C^k g] + [g, D C^k g], by bilinearity alone), so D e_q lies in
    span(e_q, ...) for q >= 2: the n(n-1)/2 - 1 entries above the diagonal
    in those columns (n >= 2) are 0. On any other table nothing is known
    and the set is empty.
    """
    if not alg.tail_filtered:
        return frozenset()
    n = alg.dim
    return frozenset(p * n + q for q in range(2, n) for p in range(q))


def _generator_pairs_suffice(alg: LieAlgebra) -> bool:
    """Whether the identity on the pairs (i, j) with i <= 1 makes a map a derivation.

    Let phi(x, y) = D[x, y] - [Dx, y] - [x, Dy] for a linear map D. If g is
    Lie and phi(s, .) = 0, three Jacobi identities give
    phi([s, x], y) = [s, phi(x, y)] - phi(x, [s, y]). So
    K = {x : phi(x, .) = 0} is a subspace that contains S and is closed
    under every ad(s) with s in S, hence contains the subalgebra that S
    generates: a map is a derivation iff the identity holds on generators
    (Jacobson, Lie Algebras, Ch. I). On a ``tail_filtered`` table
    [g, g] = span(e_3, ..., e_n) (1-based) and g is nilpotent, so e_1 and
    e_2 generate g, and the pairs (i, j), i < j, with i <= 1 (0-based)
    suffice. The argument needs Jacobi: on a table that fails it, the
    other pairs can cut the solutions further, so they are kept. The
    Jacobi report kept on ``alg`` is read, through ``jacobi_report``, only
    when some stored pair has i >= 2, since otherwise there is no equation
    to drop; so Ln, with brackets [e_1, .] only, never reads it here.
    """
    return (alg.tail_filtered and any(i > 1 for i, _ in alg.structure)
            and not jacobi_report(alg))


def _derivation_equations(alg: LieAlgebra) -> Tuple[List[dict], frozenset]:
    """(rows, pinned): the equations of ``derivation_space`` as integer rows.

    The structure constants are read as the algebra holds them, ints over
    its ``den``, which leaves the solutions unchanged, and the rows are
    built by walking them: c of [e_i, e_j] on e_k adds c D[p, k] to row
    (i, j, p) for every p, and c of [e_q, e_x] on e_p adds -c D[q, y] to
    row (y, x, p) for y < x and c D[q, y] to row (x, y, p) for y > x. On
    a ``tail_filtered`` table the terms on the ``_pinned_unknowns`` are
    never visited: D[p, k] is met
    for p >= k only and D[q, y] for y <= max(q, 1). When, in addition,
    ``_generator_pairs_suffice``, only the rows (a, b, p) with a <= 1 are
    built: the others follow from them by Jacobi, and are never visited
    (Benoist(1): 81 rows instead of 103). A row is made by its first term,
    so none is empty; a sum that cancels stays as a 0 entry.
    """
    n = alg.dim
    pinned = _pinned_unknowns(alg)
    lead = 2 if _generator_pairs_suffice(alg) else n  # rows (a, b, p) with a < lead
    rows: dict = {}
    for (i, j), coeffs in alg.structure.items():
        if i < lead:
            for k, c in coeffs.items():
                for p in range(k if pinned else 0, n):
                    row = rows.setdefault((i, j, p), {})
                    row[p * n + k] = row.get(p * n + k, 0) + c
        for q, x, sign in ((i, j, 1), (j, i, -1)):
            top = max(q, 1) + 1 if pinned else n  # D[q, y] is free for y < top
            for p, c in coeffs.items():
                c *= sign
                for y in range(min(x, top, lead)):
                    row = rows.setdefault((y, x, p), {})
                    row[q * n + y] = row.get(q * n + y, 0) - c
                if x < lead:
                    for y in range(x + 1, top):
                        row = rows.setdefault((x, y, p), {})
                        row[q * n + y] = row.get(q * n + y, 0) + c
    return list(rows.values()), pinned


def derivation_space(alg: LieAlgebra) -> DerivationSpace:
    """Der(g) as the exact nullspace of the derivation conditions, kept on ``alg``.

    The first call makes the one ``DerivationSpace`` of ``alg`` and keeps
    it in the algebra's ``__dict__``, as ``liealg`` keeps its other views;
    every later call returns that object, so its Der(g) kernel pass and
    its weight solve run at most once per algebra. Nothing is solved
    before a view is read: the system is built and solved the first time
    ``DerivationSpace.flat`` or ``all_nilpotent`` is read. Unknown (p, q)
    of the map sits at flat index p*n + q (row-major). The equation of
    pair i < j on coordinate p reads
    sum_k c_ij^k D[p, k] - sum_q c_qj^p D[q, i] + sum_q c_qi^p D[q, j] = 0,
    and ``_derivation_equations`` builds it in integers from the nonzero
    structure constants alone. On a ``tail_filtered`` table the entries
    that every derivation sets to 0 (``_pinned_unknowns``) are left out,
    and on a Lie one only the pairs with i <= 1 are solved
    (``_generator_pairs_suffice``): Benoist(1) solves 81 equations instead
    of 434, L24 274 instead of 1034. Any other table, such as a catalog
    algebra in a moved basis, solves the full system; the canonical RREF
    of the solutions is the same either way. ``is_derivation`` and the
    certificate checks still test every pair.
    """
    kept = vars(alg)
    if "_derivation_space" not in kept:
        kept["_derivation_space"] = DerivationSpace(alg)
    return kept["_derivation_space"]


def diagonal_derivations(alg: LieAlgebra) -> Subspace:
    """Weight vectors w with diag(w) a derivation: ``DerivationSpace.weights`` of the kept space.

    Solved once per algebra; both derivation searches, the symplectic
    search and ``der diag`` read the same subspace.
    """
    return derivation_space(alg).weights


def check_trials(trials: int) -> None:
    """Reject a search budget below one trial, before any work is done."""
    if trials < 1:
        raise ValueError("trials must be at least 1")


def seeded_combinations(space: Subspace, seed: int, trials: int) -> Iterator[dict]:
    """``trials`` seeded sparse vectors sum c_k v_k over the RREF rows v_k of space.

    Each c_k is one ``randint(-10, 10)`` from ``random.Random(seed)``, drawn
    per row in row order, so (seed, trials) replays a search exactly; a zero
    c_k is skipped. Each is an integer vector over ``space.den``, summed in
    ints over the space's integer rows, so no Fraction is formed; entries
    that cancel stay as zeros, which ``Matrix.from_sparse`` drops. By
    Schwartz-Zippel
    a nonzero polynomial of degree d in the c_k vanishes on a draw with
    probability at most d/21 (d = n for an n x n determinant), which is
    vacuous from n = 21 on. ``_first_hit`` is the one loop that reads them.
    """
    rng = random.Random(seed)
    rows = [row for _, row in space.rows]
    for _ in range(trials):
        draw = [rng.randint(-_COEFF_RANGE, _COEFF_RANGE) for _ in rows]
        yield sparse_apply(rows, {k: c for k, c in enumerate(draw) if c})


def _first_hit(space: Subspace, build: Callable[[dict], object], fixed: Iterable, seed: int,
               trials: int, accept: Callable[[object], bool]):
    """First candidate passing ``accept``: the fixed ones, then ``build`` of each seeded draw.

    The one candidate loop of every seeded search; each search checks
    ``trials`` itself, before any other work.
    """
    drawn = map(build, seeded_combinations(space, seed, trials))
    return next((cand for cand in chain(fixed, drawn) if accept(cand)), None)


def _weight_candidates(weights: Subspace) -> Iterator[tuple]:
    """The diagonal weights tried before Der(g) or the closed forms: basis, then a moment curve.

    Each is an integer tuple, ``weights.den`` times the weight, read off
    the space's integer rows, which a caller adopts over that den with no
    Fraction formed. First the RREF basis
    vectors b_1, ..., b_d of ``weights``, in order; then, when d >= 2,
    w(s) = sum_k s^k b_(k+1) for s = 1, ..., n(d - 1) + 1.
    On a coordinate some b_k reaches, w(s) is a nonzero polynomial of
    degree < d in s, so it vanishes at fewer than d values, and the n
    coordinates rule out at most n(d - 1) of the values of s: some w(s) is
    nonzero wherever any weight in the span is. So an invertible diagonal
    derivation exists in this basis exactly when a candidate is one. The
    symplectic search (``affine.find_symplectic``) reads the basis and the
    first curve points as weights, and the whole list over the closed forms
    of one weight class, where the same argument finds a form with every
    entry nonzero whenever the class holds one. Each w(s) is summed by
    ``sparse_apply`` over the sparse integer rows, which on the unit-vector
    basis of an abelian algebra touches n entries.
    """
    n = weights.ambient_dim
    rows = [row for _, row in weights.rows]
    curve = range(1, n * (len(rows) - 1) + 2) if len(rows) > 1 else ()
    points = chain(rows, (sparse_apply(rows, {k: s ** k for k in range(len(rows))})
                          for s in curve))
    return (tuple(point.get(j, 0) for j in range(n)) for point in points)


def _derivation_search(alg: LieAlgebra, seed: int, trials: int, accept):
    """The regular and derived-regular searches: diagonal weights, the nil gate, then draws.

    Both read the kept ``derivation_space(alg)``. The diagonal maps of
    ``_weight_candidates`` over its ``weights``, each integer candidate
    adopted over the space's den by ``Matrix.from_sparse`` with no Fraction
    formed, are tried first, and the first that passes ``accept`` is
    returned before Der(g) is solved. Each
    search accepts only non-nilpotent derivations, so a nil Der(g)
    (``all_nilpotent``), whose weight space is 0, returns None before any
    draw; otherwise ``_first_hit`` runs the seeded draws over Der(g) through
    ``accept``. Each search checks ``trials`` before it gets here.
    """
    space = derivation_space(alg)
    den = space.weights.den
    hit = next(filter(accept, (Matrix.from_sparse(({j: x} for j, x in enumerate(w)), den)
                               for w in _weight_candidates(space.weights))), None)
    if hit is not None:
        return hit
    if space.all_nilpotent:
        return None
    return _first_hit(space.flat, space.matrix, (), seed, trials, accept)


def find_regular_derivation(alg: LieAlgebra, seed: int = 0,
                            trials: int = DEFAULT_TRIALS) -> Optional[Matrix]:
    """Search for an invertible derivation: diagonal weights, then seeded draws; None if all fail.

    After the ``trials`` check, the diagonal weight candidates
    (``_weight_candidates``) decide exactly whether an invertible diagonal
    derivation exists in the given basis; the first is returned without
    solving Der(g), and it does not depend on ``seed``. Otherwise the nil
    gate runs: when Der(g) is nil (``all_nilpotent``), every candidate is
    singular, so None is returned without drawing; else the seeded draws
    over Der(g) are tried.
    """
    check_trials(trials)
    return _derivation_search(alg, seed, trials, nonsingular)


def _integer_restrict(derived: Subspace, m: Matrix) -> Tuple[list, int]:
    """(int columns, den): column k / den holds the coordinates of m(row k) on the RREF rows.

    The images run in ints: m's integer columns over its ``den``, d_m,
    and the rows are the space's, over its den d_b, so each image and its
    coordinates (``_coordinates``, read in ints) are d_m d_b times the
    rational ones, and den = d_m d_b.
    """
    cols, dm = m.columns, m.den
    out = [_coordinates(derived, sparse_apply(cols, b)) for _, b in derived.rows]
    if None in out:
        raise NotInvariantError("image of a derived-subalgebra vector escapes it")
    return out, dm * derived.den


def _restriction_invertible(derived: Subspace, f: Matrix) -> bool:
    """Whether f is invertible on ``derived``: the kernel's rank of ``_integer_restrict``.

    True on a zero-dimensional ``derived``; f must preserve it
    (``NotInvariantError`` otherwise), which every derivation does.

    A diagonal f = diag(w) (``Matrix.diagonal_weights``) is read off the
    RREF rows. It maps a row onto sum_c r_c w_c e_c, whose coordinate on
    the RREF rows is w_p at the row's own pivot p and 0 at every other, so
    diag(w) preserves ``derived`` exactly when each row holds the one
    weight w_p at every column it holds; the restriction is then diag(w_p)
    on the rows, and invertible iff no pivot weight is 0. A diagonal f that moves some row
    out takes the route above, which raises ``NotInvariantError``.
    """
    w = f.diagonal_weights
    if w is not None:
        if all(w[c] == w[p] for p, row in derived.rows for c in row):
            return all(w[p] for p, _ in derived.rows)
    return len(_gauss_jordan(_integer_restrict(derived, f)[0])) == derived.dim


def find_derived_regular_derivation(alg: LieAlgebra, seed: int = 0,
                                    trials: int = DEFAULT_TRIALS) -> Optional[Matrix]:
    """Search for a derivation whose derived-subalgebra restriction is invertible.

    After the ``trials`` check comes a deterministic first pass over the
    diagonal weight candidates (``_weight_candidates``), which needs no
    Der(g): a hit there returns before the system is solved. Only then does
    the nil gate run, and then the seeded random combinations. The pass
    cannot change the outcome of the gate: a nonzero diagonal derivation is
    not nilpotent, so when Der(g) is nil (``all_nilpotent``) the weight
    space is 0 and the pass tries nothing. In that case g is not abelian
    (the identity is not a derivation), so every restriction to the nonzero
    derived subalgebra is singular and None is returned without drawing. A
    candidate passes ``_restriction_invertible``, which every candidate
    meets on a zero-dimensional derived subalgebra. Every candidate lies in
    Der(g) by construction, so none is re-checked here.

    The pass tries the moment-curve points of ``_weight_candidates`` after
    the weight basis. So on a table where no single basis weight passes but
    a combination does (h3 + h3, two Heisenberg algebras, is one), the
    witness is a curve point that does not depend on ``seed``, not a seeded
    draw over Der(g).
    """
    check_trials(trials)
    derived = derived_subalgebra(alg)
    return _derivation_search(alg, seed, trials, lambda f: _restriction_invertible(derived, f))


def char_nilpotent_verdict(alg: LieAlgebra, seed: int = 0,
                           trials: int = DEFAULT_TRIALS) -> CharNilpVerdict:
    """Search Der(g) for a non-nilpotent element.

    Basis elements are tried first, then seeded random combinations. A hit
    yields a certified NotCharNilpotent verdict; exhausting the trials
    yields CharNilpotentLikely, which is one-sided by design. When Der(g)
    is nil (``all_nilpotent``) no candidate can hit, so that verdict is
    returned without drawing; the kind stays CharNilpotentLikely.
    """
    check_trials(trials)
    space = derivation_space(alg)
    witness = None if space.all_nilpotent else _first_hit(
        space.flat, space.matrix, space.basis, seed, trials, lambda f: not is_nilpotent(f))
    kind = NOT_CHAR_NILPOTENT if witness is not None else CHAR_NILPOTENT_LIKELY
    return CharNilpVerdict(kind, witness, seed, trials)


def verify_witness(alg: LieAlgebra, witness: Matrix) -> dict:
    """Re-check a NotCharNilpotent witness: derivation and non-nilpotent."""
    violations = is_derivation(alg, witness)
    nilp = is_nilpotent(witness)
    return {
        "derivation_violations": len(violations),
        "nilpotent": nilp,
        "sound": not violations and not nilp,
    }


def verify_torus(alg: LieAlgebra, maps: Sequence[Matrix]) -> TorusReport:
    """Check a candidate torus: derivations, commuting, Q-diagonalizable."""
    n = alg.dim
    report = TorusReport([], [], [], [])
    for idx, m in enumerate(maps):
        if m.dim != n:
            raise DimensionMismatch(f"map {idx} does not match the algebra dimension")
        violations = is_derivation(alg, m)
        if violations:
            report.derivation_failures.append((idx, violations))
    for a in range(len(maps)):
        for b in range(a + 1, len(maps)):
            if not _commute(maps[a].columns, maps[b].columns):
                report.commutation_failures.append((a, b))
    for idx, m in enumerate(maps):
        ok, reason, inconclusive = _diagonalizable_over_q(m)
        if not ok:
            report.semisimplicity_failures.append((idx, reason))
            if inconclusive:
                report.notes.append(
                    f"map {idx}: rational eigenvalue test cannot rule out "
                    "semisimplicity over a field extension"
                )
    return report


def _commute(a: Sequence[dict], b: Sequence[dict]) -> bool:
    """Whether the square maps given by their sparse integer columns commute: a(b e_j) = b(a e_j).

    ``verify_torus`` passes each map's integer ``columns``: scaling a map
    does not change whether it commutes. Each column of ab - ba is summed
    into one dict, where cancelled entries stay as zeros.
    """
    for a_j, b_j in zip(a, b):
        diff = sparse_apply(a, b_j)
        if any(sparse_apply(b, {k: -x for k, x in a_j.items()}, diff).values()):
            return False
    return True


# --- minimal polynomial and rational-root machinery ---------------------

def minimal_polynomial(m: Matrix) -> List[Fraction]:
    """Monic minimal polynomial of m, ascending: ``_minimal_relation`` made monic."""
    relation = _minimal_relation(m)
    return [Fraction(c, relation[-1]) for c in relation]


def _minimal_relation(m: Matrix) -> List[int]:
    """The primitive integer relation of least degree among I, m, m^2, ..., ascending.

    The powers are those of m's integer ``columns`` c over its ``den``, so the
    d-th is den^d m^d; it goes through the kernel tagged den^d in column d
    and flattened into the columns above n, a positive multiple of the row
    of m^d tagged 1, which leaves every relation among the powers as it is.
    ``_gauss_jordan`` pivots each row on its largest column, so a row
    pivoting on a tag holds tags only, a relation among the powers, and the
    least pivot, once it is a tag, is the relation of lowest degree. They
    are reduced after 1, 2, 4, ... powers (the kernel rows standing in for
    the earlier ones), and by m^n at the latest (Cayley-Hamilton). Its sign
    is the kernel's.
    """
    n = m.dim
    cols, den = m.columns, m.den
    rows, power = [], [{i: 1} for i in range(n)]
    for d in range(n + 1):
        if d:
            power = [sparse_apply(cols, col) for col in power]
        row = {n + 1 + p * n + q: x for q, col in enumerate(power) for p, x in col.items() if x}
        row[d] = den ** d
        rows.append(row)
        if d & (d + 1) == 0 or d == n:
            reduced = _gauss_jordan(rows)
            degree = min(reduced)
            if degree <= n:
                relation = reduced[degree]
                return [relation.get(e, 0) for e in range(degree + 1)]
            rows = list(reduced.values())
    raise AssertionError("the powers up to m^n are dependent")


def _homogeneous_eval(p: List[int], u: int, w: int) -> int:
    """sum p_i u^i w^(d-i) (d = len(p) - 1): w^d p(u/w), of the sign of p(u/w) for w > 0."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * u + c * scale
        scale *= w
    return acc


def _sturm_chain(p: List[int]) -> List[List[int]]:
    """The Sturm chain of the integer polynomial p: p, p', then minus each pseudo-remainder.

    Each step scales the dividend by |lc(b)| before it cancels the top
    coefficient, and each remainder is divided by its content, so every term
    is a positive multiple of the rational one; the last is gcd(p, p') up to a constant.
    """
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while any(chain[-1]):
        a, b = chain[-2], chain[-1]
        lead, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
        while len(a) >= len(b):
            top, shift = sign * a[-1], len(a) - len(b)
            a = [lead * c - top * b[k - shift] if k >= shift else lead * c
                 for k, c in enumerate(a[:-1])]
            while a and not a[-1]:
                a.pop()
        g = gcd(*a)
        chain.append([-c // g for c in a])
    chain.pop()
    return chain


def _rational_root_count(chain: List[List[int]]) -> int:
    """Number of distinct rational roots of p = chain[0], found exactly from its Sturm chain.

    Every rational root lies on the grid (1/a)Z, a the leading coefficient
    of the integer polynomial p (rational root theorem), and every root
    lies within Fujiwara's bound 2 max_k |c_(d-k)/c_d|^(1/k), rounded up to
    a power of two. The Sturm chain counts the distinct real roots between
    two half-grid points (2k -+ 1)/(2a), which are never roots; bisecting
    the grid indices drops every interval that counts 0 and leaves single
    grid points to evaluate. Every evaluation is in integers, each term
    homogenized at (2k - 1, 2a) or (k, a), which scales its value by a
    positive integer and so keeps its sign.
    """
    p = chain[0]
    a = abs(p[-1])
    exponent = 0
    for k in range(1, len(p)):
        if p[-1 - k]:  # 2**e > |c_(d-k)| / a, so that ratio**(1/k) <= 2**ceil(e/k)
            e = abs(p[-1 - k]).bit_length() - a.bit_length() + 1
            exponent = max(exponent, -(-e // k))
    reach = 2 ** (exponent + 1) * a
    changes = {}

    def below(k: int) -> int:
        """Sign changes of the chain at (2k - 1)/(2a), just below grid point k."""
        if k not in changes:
            signs = [v > 0 for v in (_homogeneous_eval(q, 2 * k - 1, 2 * a) for q in chain) if v]
            changes[k] = sum(u != v for u, v in zip(signs, signs[1:]))
        return changes[k]

    found = 0
    todo = [(-reach, reach)]
    while todo:
        lo, hi = todo.pop()
        if below(lo) == below(hi + 1):
            continue
        if lo == hi:
            found += not _homogeneous_eval(p, lo, a)
            continue
        mid = (lo + hi) // 2
        todo += [(lo, mid), (mid + 1, hi)]
    return found


def _diagonalizable_over_q(m: Matrix) -> Tuple[bool, str, bool]:
    """(diagonalizable over Q, failure reason, inconclusive-over-extension).

    m is diagonalizable over Q iff its minimal polynomial p has deg p
    distinct rational roots. A diagonal m (``Matrix.diagonal_weights``)
    already is, and no polynomial is formed. The Sturm chain is that of the
    kernel's integer relation ``_minimal_relation``, a multiple of p of
    either sign: negating a polynomial negates its whole chain, so the sign
    changes, the rational-root count and the degree of the last term, gcd(p,
    p'), are those of p.
    """
    if m.diagonal_weights is not None:
        return True, "", False
    chain = _sturm_chain(_minimal_relation(m))
    if _rational_root_count(chain) == len(chain[0]) - 1:
        return True, "", False
    if len(chain[-1]) > 1:
        return False, "minimal polynomial has a repeated root", False
    return False, "minimal polynomial does not split over the rationals", True
