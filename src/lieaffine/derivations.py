"""Derivation algebras: exact computation, classification and searches.

``derivation_space`` solves the linear system expressing
D[x, y] = [Dx, y] + [x, Dy], with its equations built in integers from
the nonzero structure constants, the integers over one denominator that
``LieAlgebra`` holds. When the table is in a basis adapted to its lower
central series (``LieAlgebra.tail_filtered``, true for every catalog
family) and satisfies Jacobi, e_1 and e_2 generate g, so a derivation is
fixed by u = D e_1 and v = D e_2, and is one as soon as the identity
holds on the pairs (e_1, .) and (e_2, .) (``_generators_decide``): the
system is solved on those 2n unknowns, along the chain basis
f_(m+1) = [e_i, f_m] of the step brackets (``_generator_system``), and
Der(g) is read back onto the n^2 entries. Any other table, such as a
moved basis or a table that fails Jacobi, solves the n^2 system on every
pair (``_derivation_equations``); both routes give the same canonical
basis. ``is_derivation`` checks the identity in integers on every pair,
and a diagonal map, the witness of every weight hit, by comparing
weights on the stored brackets alone. Which route a map takes is read
off its kept shape, ``Matrix.diagonal_weights``, which
``is_derivation``, ``_restriction_invertible`` and ``verify_torus``
share with the constructions in ``affine``: a witness's shape is found
once. The diagonal weights of a ``tail_filtered`` table, Lie or not,
need no elimination: the same chain of step brackets fixes every weight
by its values on e_1 and e_2, so they are solved in closed form on those
two unknowns (``_filtered_weights``); any other table solves the full
weight system. The certificate checks still test every pair.
Every randomized search
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
which needs only the weight equations, in closed form on a
``tail_filtered`` table, and is solved once per algebra:
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
every entry on and above the diagonal to 0 (on the 2n unknowns, the
diagonal of D on the chain basis and the one entry above it that a
derivation can hold), without the Der(g) basis, and otherwise by
Engel's theorem, on one image chain over that basis.
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
from math import gcd, lcm
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
    _reduce,
    _remainder,
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
    caller shares its views. The kernel rows of the system are kept
    (``_system``: on the 2n unknowns D e_1, D e_2 of ``_generator_system``
    for a Lie ``tail_filtered`` table, else on the n^2 of
    ``_derivation_equations``); ``flat`` reads Der(g) off them as the
    integer RREF rows, over one ``den``, of flattened n^2-vectors, and
    ``basis`` and ``matrix`` adopt those rows, and the seeded draws over
    them, as maps over the same ``den``, so no Fraction of Der(g) is
    formed before output.
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
        nonzero structure constant on ((i, j), k); this is the canonical
        RREF solution space of those equations. A ``tail_filtered`` table
        solves them on two unknowns in closed form (``_filtered_weights``),
        with no elimination and no Jacobi report; any other table gives
        them to the kernel as integer rows, one per constant.
        """
        alg = self.algebra
        if alg.tail_filtered:
            return _filtered_weights(alg)
        rows = []
        for (i, j), coeffs in alg.structure.items():
            for k in coeffs:
                row = {i: 1, j: 1}
                row[k] = row.get(k, 0) - 1
                rows.append(row)
        return _nullspace(rows, alg.dim)

    @cached_property
    def _system(self) -> Tuple[dict, List[dict], Optional[tuple]]:
        """(reduced, upper, chain): the ``_gauss_jordan`` rows of Der(g) and how to read them.

        On a Lie ``tail_filtered`` table (``_generators_decide``) the rows are
        those of ``_generator_system``, on the 2n unknowns D e_1 and D e_2,
        and ``chain`` is its chain basis with the forms of D on it; on any
        other table they are the n^2 rows of ``_derivation_equations`` and
        ``chain`` is None. ``upper`` holds linear forms that all vanish on
        Der(g) exactly when every derivation is strictly lower triangular.
        """
        alg = self.algebra
        if _generators_decide(alg):
            rows, upper, chain = _generator_system(alg)
        else:
            n = alg.dim
            rows, chain = _derivation_equations(alg), None
            upper = [{r * n + j: 1} for j in range(n) for r in range(j + 1)]
        return _gauss_jordan(rows), upper, chain

    @cached_property
    def flat(self) -> Subspace:
        """Der(g) as the canonical integer RREF rows of its flattened n^2-vectors.

        Read off the kept kernel rows by ``linalg._solution_basis``. On the
        n^2 system that basis is already canonical. On the 2n unknowns of
        ``_generator_system`` each basis vector goes through the unknown ->
        entry columns of ``_chain_columns`` with one ``sparse_apply``, and
        ``_reduce`` puts the images in canonical form, which is unique, so
        both routes give the same rows, in the same order.
        """
        n = self.algebra.dim
        reduced, _, chain = self._system
        if chain is None:
            return _solution_basis(reduced, n * n)
        columns = _chain_columns(*chain)
        kernel = _solution_basis(reduced, len(columns))
        return _reduce([sparse_apply(columns, z) for _, z in kernel.rows], n * n)

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

        First the kept kernel rows: when every form of ``upper`` leaves no
        ``linalg._remainder`` against them, each vanishes on Der(g), so every
        derivation is strictly lower triangular, hence nilpotent, and the
        answer is True without building ``flat``. On the n^2 system the forms
        are the unknowns D[r, j], r <= j. On the 2n unknowns they are the
        entries of D e_1 and D e_2 on and above the diagonal and the e_k
        coordinate of D f_k for k >= 3 (1-based), f the chain basis of
        ``_generator_system``: a derivation keeps each C^(k-2) g = span(f_k,
        ...), and the change of basis to f is lower triangular, so these are
        the diagonal entries and the one entry above it that can be nonzero.
        The test holds for Benoist(t) in the catalog basis. Otherwise a basis
        element with nonzero trace, summed over the diagonal entries its
        sparse row stores, settles False at once, and then
        ``products_vanish`` decides on ``flat``: by Engel's theorem that is
        the same as every element of the span being nilpotent, and in a basis
        where the shape test fails, its image chain decides.
        """
        n = self.algebra.dim
        reduced, upper, _ = self._system
        if not any(_remainder(reduced, form) for form in upper):
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


def _steps(alg: LieAlgebra) -> dict:
    """{m: i}: for each m in 1..n-2, a stored [e_i, e_m], i < m, with a nonzero e_(m+1) coefficient.

    Condition (b) of ``LieAlgebra.tail_filtered``, read on a table that
    passes it; ``_filtered_weights`` and the chain basis of
    ``_generator_system`` follow these steps.
    """
    return {j: i for (i, j), coeffs in alg.structure.items() if j + 1 in coeffs}


def _filtered_weights(alg: LieAlgebra) -> Subspace:
    """The weights of a ``tail_filtered`` table in closed form, on two unknowns and no kernel.

    Condition (b) of ``LieAlgebra.tail_filtered`` gives, for each m in
    1..n-2, a stored [e_i, e_m], i < m, with a nonzero e_(m+1) coefficient,
    so every weight has w_(m+1) = w_i + w_m: w = x a + y b, for the integer
    vectors a and b that start at (1, 0) and (0, 1) on e_0, e_1 (0-based)
    and follow those steps. Each constant's equation w_i + w_j - w_k = 0
    then reads r x + s y = 0, with (r, s) = (a_i + a_j - a_k, b_i + b_j - b_k),
    and with (r_0, s_0) the first nonzero pair the solutions are:

    - every (x, y), when no pair is nonzero: the rows a and b over den 1,
      already canonical (a_1 = b_0 = 0, each 1 at its pivot);
    - the multiples of (s_0, -r_0), when every pair is a multiple of
      (r_0, s_0) (its cross product with it is 0): one row, s_0 a - r_0 b
      made primitive with its pivot entry positive, over that entry as den,
      which is the lcm of the denominators of the RREF row;
    - 0 otherwise.

    Only bilinearity is used, so a table that fails Jacobi gets its exact
    weights too, and its Jacobi report is not read.
    """
    n, structure = alg.dim, alg.structure
    a, b = [0] * n, [0] * n
    a[0] = 1
    if n > 1:
        b[1] = 1
    step = _steps(alg)
    for m in range(1, n - 1):
        i = step[m]
        a[m + 1], b[m + 1] = a[i] + a[m], b[i] + b[m]
    r0 = s0 = 0
    for (i, j), coeffs in structure.items():
        for k in coeffs:
            r, s = a[i] + a[j] - a[k], b[i] + b[j] - b[k]
            if not (r0 or s0):
                r0, s0 = r, s
            elif r0 * s != s0 * r:
                return Subspace(n, ())
    if not (r0 or s0):
        rows = ({k: x for k, x in enumerate(v) if x} for v in (a, b))
        return Subspace(n, [(p, row) for p, row in enumerate(rows) if row])
    v = [s0 * x - r0 * y for x, y in zip(a, b)]
    p = next(k for k, x in enumerate(v) if x)
    g = gcd(*v) if v[p] > 0 else -gcd(*v)
    row = {k: x // g for k, x in enumerate(v) if x}
    return Subspace(n, [(p, row)], row[p])


def _generators_decide(alg: LieAlgebra) -> bool:
    """Whether Der(g) is solved on D e_1 and D e_2 (``_generator_system``): a Lie ``tail_filtered`` table.

    Let phi(x, y) = D[x, y] - [Dx, y] - [x, Dy] for a linear map D. If g is
    Lie and phi(s, .) = 0, three Jacobi identities give
    phi([s, x], y) = [s, phi(x, y)] - phi(x, [s, y]). So
    K = {x : phi(x, .) = 0} is a subspace that contains S and is closed
    under every ad(s) with s in S, hence contains the subalgebra that S
    generates: a map is a derivation iff the identity holds on generators
    (Jacobson, Lie Algebras, Ch. I). On a ``tail_filtered`` table
    [g, g] = span(e_3, ..., e_n) (1-based) and g is nilpotent, so e_1 and
    e_2 generate g. The argument needs Jacobi: a table that fails it solves
    the n^2 system on every pair. The Jacobi report kept on ``alg`` is read,
    through ``jacobi_report``, only when some stored pair has i >= 1
    (0-based): a ``tail_filtered`` table whose brackets are all [e_1, .],
    such as Ln, satisfies Jacobi, since each cyclic sum on (e_1, e_j, e_k)
    is a multiple of e_1 coordinates that condition (a) sets to 0.
    """
    return alg.tail_filtered and (all(i == 0 for i, _ in alg.structure) or not jacobi_report(alg))


def _leibniz(alg: LieAlgebra, a: int, x: dict, dx: dict) -> dict:
    """[D e_a, x] + [e_a, D x] as integer linear forms {coordinate: {unknown: int}}, a <= 1.

    x is an integer vector and dx the forms of D x; coordinate c of D e_a
    is unknown a*n + c. [D e_a, x] = -sum_q x_q sum_c (D e_a)_c [e_q, e_c]
    is read off the ad table over each bracket partner c of q, and
    [e_a, D x] off ad(e_a) on each coordinate of dx. Sums that cancel stay
    as 0 entries.
    """
    n, ad, partners = alg.dim, alg.ad_columns, alg.partners
    out: dict = {}
    for q, xq in x.items():
        for c in partners[q]:
            t = a * n + c
            for s, y in ad[q][c].items():
                form = out.setdefault(s, {})
                form[t] = form.get(t, 0) - xq * y
    for r in partners[a]:
        form = dx.get(r)
        if form:
            for s, y in ad[a][r].items():
                acc = out.setdefault(s, {})
                for t, z in form.items():
                    acc[t] = acc.get(t, 0) + y * z
    return out


def _chain_coordinates(f: List[dict], w: dict) -> Tuple[dict, int]:
    """(c, s): s w = sum_k c[k] f_k in ints, s != 0, by forward substitution.

    Each f_k holds e_k with a nonzero coefficient and no lower index, so
    the least index k left in the remainder is taken off by f_k, the
    remainder and the coordinates so far first scaled by f_k[k] over its
    gcd with the remainder's entry.
    """
    rest, coords, s = {c: x for c, x in w.items() if x}, {}, 1
    while rest:
        k = min(rest)
        x, pk = rest[k], f[k][k]
        g = gcd(x, pk)
        scale = pk // g
        if scale != 1:
            rest = {c: scale * y for c, y in rest.items()}
            coords = {c: scale * y for c, y in coords.items()}
            s *= scale
        coords[k] = q = x // g
        for c, y in f[k].items():
            z = rest.get(c, 0) - q * y
            if z:
                rest[c] = z
            else:
                rest.pop(c, None)
    return coords, s


def _generator_system(alg: LieAlgebra) -> Tuple[List[dict], List[dict], List[dict]]:
    """(rows, upper, (f, df)): Der(g) of a Lie ``tail_filtered`` table on u = D e_1 and v = D e_2.

    The unknowns are the coordinates of u (0..n-1) and of v (n..2n-1)
    (1-based e; 0-based indices). The chain basis is f_0 = e_0, f_1 = e_1
    and f_(m+1) = [e_i, f_m] for the step i = ``_steps(alg)[m]``, in
    integer brackets; on a Lie table each step is 0 or 1 (a stored
    [e_i, e_m] with i >= 2 lies in [C^1 g, C^(m-1) g], inside
    span(e_(m+2), ...)), so f_(m+1) is a nonzero multiple of e_(m+1) plus
    later vectors, and on every catalog table it is that multiple alone.
    D f_(m+1) = [D e_i, f_m] + [e_i, D f_m] (``_leibniz``) follows in
    integer linear forms in (u, v), and each pair (f_k, D f_k) is divided
    by its content, which keeps the entries small (Benoist's f_k would
    otherwise grow by its den at each step).

    By ``_generators_decide``, D is a derivation exactly when
    phi(e_a, f_b) = 0 for a <= 1 and every b; the chain pairs (a, b),
    a = step(b), hold by construction, and phi is antisymmetric, so the
    rows are the coordinates of s phi(e_a, f_b) = sum_k c_k D f_k -
    s [D e_a, f_b] - s [e_a, D f_b] for a < b off the chain, with
    s [e_a, f_b] = sum_k c_k f_k from ``_chain_coordinates``: n - 1 pairs.
    Benoist(1) solves 36 rows in 22 unknowns, where the n^2 system has 434
    rows in 121.

    ``upper`` holds the forms of the entries of u and v on and above the
    diagonal and, for k >= 2, the e_k coordinate of D f_k (see
    ``DerivationSpace.all_nilpotent``). f and df, the f_k and the forms of
    the D f_k, are returned for ``_chain_columns``.
    """
    n, ad = alg.dim, alg.ad_columns
    steps = _steps(alg)
    gens = min(n, 2)
    f = [{a: 1} for a in range(gens)]
    df = [{r: {a * n + r: 1} for r in range(n)} for a in range(gens)]
    for m in range(1, n - 1):
        i = steps[m]
        x = sparse_apply(ad[i], f[m])
        dx = _leibniz(alg, i, f[m], df[m])
        g = gcd(*x.values(), *(z for form in dx.values() for z in form.values()))
        if g > 1:
            x = {k: y // g for k, y in x.items()}
            dx = {r: {t: z // g for t, z in form.items()} for r, form in dx.items()}
        f.append(x)
        df.append(dx)
    rows = []
    for a in range(gens):
        for b in range(a + 1, n):
            if steps.get(b) == a:
                continue
            coords, s = _chain_coordinates(f, sparse_apply(ad[a], f[b]))
            acc = _leibniz(alg, a, f[b], df[b])
            if s != 1:
                acc = {r: {t: s * z for t, z in form.items()} for r, form in acc.items()}
            for k, c in coords.items():
                for r, form in df[k].items():
                    row = acc.setdefault(r, {})
                    for t, z in form.items():
                        row[t] = row.get(t, 0) - c * z
            rows += (form for form in acc.values() if any(form.values()))
    upper = [{a * n + r: 1} for a in range(gens) for r in range(a + 1)]
    upper += [df[k].get(k, {}) for k in range(2, n)]
    return rows, upper, (f, df)


def _chain_columns(f: List[dict], df: List[dict]) -> List[dict]:
    """The unknown -> entry columns of ``_generator_system``'s chain (f_k, D f_k).

    ``columns[t]`` is the flat n^2-vector {p*n + q: int} of the map whose
    unknowns are the unit vector t, up to one common factor: column q of
    D is D e_q, and s_q e_q = sum_k c_k f_k (``_chain_coordinates``) gives
    it as a sum of the D f_k, all put over the lcm of the s_q.
    """
    n = len(f)
    chains = [_chain_coordinates(f, {q: 1}) for q in range(n)]
    den = lcm(*(abs(s) for _, s in chains))
    columns: List[dict] = [{} for _ in range(n * min(n, 2))]
    for q, (coords, s) in enumerate(chains):
        for k, c in coords.items():
            c *= den // s
            for p, form in df[k].items():
                for t, z in form.items():
                    col = columns[t]
                    col[p * n + q] = col.get(p * n + q, 0) + c * z
    return columns


def _derivation_equations(alg: LieAlgebra) -> List[dict]:
    """The n^2 equations of ``derivation_space`` as integer rows, on every pair.

    The structure constants are read as the algebra holds them, ints over
    its ``den``, which leaves the solutions unchanged, and the rows are
    built by walking them: c of [e_i, e_j] on e_k adds c D[p, k] to row
    (i, j, p) for every p, and c of [e_q, e_x] on e_p adds -c D[q, y] to
    row (y, x, p) for y < x and c D[q, y] to row (x, y, p) for y > x. A
    row is made by its first term, so none is empty; a sum that cancels
    stays as a 0 entry. A Lie ``tail_filtered`` table never builds them
    (``_generator_system``).
    """
    n = alg.dim
    rows: dict = {}
    for (i, j), coeffs in alg.structure.items():
        for k, c in coeffs.items():
            for p in range(n):
                row = rows.setdefault((i, j, p), {})
                row[p * n + k] = row.get(p * n + k, 0) + c
        for q, x, sign in ((i, j, 1), (j, i, -1)):
            for p, c in coeffs.items():
                c *= sign
                for y in range(x):
                    row = rows.setdefault((y, x, p), {})
                    row[q * n + y] = row.get(q * n + y, 0) - c
                for y in range(x + 1, n):
                    row = rows.setdefault((x, y, p), {})
                    row[q * n + y] = row.get(q * n + y, 0) + c
    return list(rows.values())


def derivation_space(alg: LieAlgebra) -> DerivationSpace:
    """Der(g) as the exact nullspace of the derivation conditions, kept on ``alg``.

    The first call makes the one ``DerivationSpace`` of ``alg`` and keeps
    it in the algebra's ``__dict__``, as ``liealg`` keeps its other views;
    every later call returns that object, so its Der(g) kernel pass and
    its weight solve run at most once per algebra. Nothing is solved
    before a view is read: the system is built and solved the first time
    ``DerivationSpace.flat`` or ``all_nilpotent`` is read. Unknown (p, q)
    of the map sits at flat index p*n + q (row-major). On a Lie
    ``tail_filtered`` table the system is solved on the 2n unknowns
    D e_1 and D e_2 (``_generator_system``): Benoist(1) solves 36 rows in
    22 unknowns instead of 434 in 121, L24 21 rows in 48 unknowns instead
    of 1034 in 576. Any other table, such as a catalog algebra in a moved
    basis, solves the full system, in which the equation of pair i < j on
    coordinate p reads
    sum_k c_ij^k D[p, k] - sum_q c_qj^p D[q, i] + sum_q c_qi^p D[q, j] = 0,
    built by ``_derivation_equations`` in integers from the nonzero
    structure constants alone. The canonical RREF of the solutions is the
    same either way. ``is_derivation`` and the certificate checks still
    test every pair.
    """
    kept = vars(alg)
    if "_derivation_space" not in kept:
        kept["_derivation_space"] = DerivationSpace(alg)
    return kept["_derivation_space"]


def diagonal_derivations(alg: LieAlgebra) -> Subspace:
    """Weight vectors w with diag(w) a derivation: ``DerivationSpace.weights`` of the kept space.

    Solved once per algebra, in closed form on a ``tail_filtered`` table
    (every catalog family) and by the kernel on any other; both derivation
    searches, the symplectic search and ``der diag`` read the same subspace.
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
