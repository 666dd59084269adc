"""Lie algebras as sparse structure-constant tensors, plus 2-form machinery.

A ``LieAlgebra`` stores coefficients only for ordered basis pairs (i, j)
with i < j; the bracket for i > j follows by antisymmetry and the diagonal
is zero by definition, so neither can be corrupted by bad data. Indices are
0-based inside the package; the JSON layer converts to the 1-based
convention used in documents.

Construction does not enforce the Jacobi identity: ``jacobi_report`` checks
it exhaustively and returns the exact residual of every violating triple,
which makes the empty report a certificate.

The table holds one form, the kernel's, as a ``Matrix`` holds its
columns: ``structure`` maps each stored pair to its sparse integer
coefficients {k: int} over one ``den`` > 0, with gcd(den, every entry)
= 1, so equal tables have equal fields. ``coefficient_table`` is the one
rational boundary, for caller and JSON tables, shared with
``affine.AffineStructure``: it checks ``dim`` by ``_dimension``, the one
dimension rule (an int, never a bool, of at least 1), that a table and
each pair's coefficients are mappings
(TypeError, naming the pair) and their ranges, and scales the table
once through ``linalg.integer_scaled``, the one scaler, which coerces
and drops the zeros. The catalog writes
its tables as ints over one den and ``_adopted`` takes them as they
are, with no Fraction and no second validation, the way
``affine._adopted`` takes a built product; both put the table in
lowest terms through ``linalg._lowest_table``. There is no
dense bracket: every check reads the integer table or the views below,
and Fractions are formed only for a nonzero residual
(``linalg._violations`` for the Jacobi report). ``LieAlgebra`` takes
its dimension, name and basis names by the rules its JSON reader takes
them by, ``_dimension`` and ``linalg._string``: an int (never a bool) of
at least 1 and strings, with no ``str()`` coercion, so every algebra the
library builds up to ``serialize.MAX_DIM`` writes a document that reads
back.

An algebra computes on first use and keeps, as read-only attributes,
its views ``ad_columns`` (the integer ad table over ``den``),
``partners`` (its bracket partners) and ``tail_filtered``. It keeps
likewise [g, g] (``derived_subalgebra``, unit rows on a
``tail_filtered`` table), its
lower central series (a list built on [g, g] the first time it is read,
so a reader of [g, g] alone never builds it), its Jacobi report
(``jacobi_report`` returns a new list of it) and its derivation algebra
(``derivations.derivation_space``, whose Der(g) and weights are solved
when first read): every caller shares them, so they are read-only. The
report reads the ad table, so a catalog constructor's Jacobi check
warms it for the checks that follow; the Der(g) solve, which needs
Jacobi to solve on the generators e_1 and e_2 alone, the Lie gate of
``affine.synthesize`` and the command line's Lie check read the same
report. ``LieAlgebra`` and ``TwoForm`` take their immutability from
``linalg._Frozen``, and ``TwoForm`` its equality over its ``gram``.
``_adopted_form`` is the one adopter of a form's int upper entries: it
fills both triangles, for ``TwoForm.from_entries``, which checks its
``dim`` by ``_dimension``, that the entries are a mapping and their range,
and scales them through ``integer_scaled``, and for
``affine.find_symplectic``;
``TwoForm(gram)`` checks antisymmetry.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch
from .linalg import (
    Matrix,
    Subspace,
    _Frozen,
    _gauss_jordan,
    _image_chain,
    _integer,
    _lowest_table,
    _reduce,
    _sequence,
    _set_fields,
    _string,
    _violations,
    format_rational,
    integer_scaled,
    nonsingular,
)

# CPython's builtin SHA-256 (``_sha2`` from 3.12 on, ``_sha256`` before):
# ``hashlib`` would load OpenSSL, about 3.6 MB and 3 ms per process, for the
# same digest, so it is only the fallback of an interpreter built without them
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

SparseCoeffs = Dict[int, int]


def _dimension(dim) -> None:
    """TypeError when ``dim`` is a bool or not an int, DimensionMismatch when it is below 1.

    The one dimension rule of the value types: ``LieAlgebra``,
    ``affine.AffineStructure`` (through ``coefficient_table``) and
    ``TwoForm.from_entries``. The documents cap it at ``serialize.MAX_DIM``
    besides.
    """
    if _integer(dim, "dim") < 1:
        raise DimensionMismatch("algebra dimension must be at least 1")


def coefficient_table(dim: int, table, pair_ok) -> Tuple[Dict[Tuple[int, int], SparseCoeffs], int]:
    """(table, den): the canonical {(i, j): {k: int}} basis values of a bilinear map, over den.

    Pairs must lie in range and satisfy ``pair_ok(i, j)``, and targets must
    lie in range. The rational values are put over one den > 0 by
    ``integer_scaled``, which coerces them, drops the zeros and gives a
    canonical output, gcd(den, every entry) = 1, so equal tables mean equal
    maps; the pairs left empty are dropped. ``dim`` is read by
    ``_dimension``, and a table or a pair's coefficients that are not a
    mapping raise TypeError, the latter naming the pair.
    """
    _dimension(dim)
    if not isinstance(table, Mapping):
        raise TypeError("a table must be a mapping {(i, j): {k: value}}")
    for (i, j), coeffs in table.items():
        if not (0 <= i < dim and 0 <= j < dim and pair_ok(i, j)):
            raise ValueError(f"pair ({i}, {j}) is out of range or not admitted")
        if not isinstance(coeffs, Mapping):
            raise TypeError(f"the coefficients of pair ({i}, {j}) must be a mapping {{k: value}}")
        for k in coeffs:
            if not 0 <= k < dim:
                raise ValueError(f"target {k} of pair ({i}, {j}) out of range")
    consts, den = integer_scaled(table.values())
    return {key: c for key, c in zip(table, consts) if c}, den


class LieAlgebra(_Frozen):
    """A Lie algebra on a fixed basis: sparse int structure constants over ``den``, kept views.

    ``dim`` is an int >= 1 (``_dimension``; a bool is refused), and
    ``name`` and each basis name a ``str`` (``linalg._string``), the rules
    ``serialize.algebra_from_json`` reads a document by: a value of
    another type raises TypeError, never coerced with ``str()``.
    """

    __slots__ = ("dim", "name", "basis_names", "structure", "den", "__dict__")

    def __init__(self, dim: int, structure, name: str = "g",
                 basis_names: Optional[Sequence[str]] = None):
        _dimension(dim)
        if basis_names is None:
            basis_names = [f"e{i + 1}" for i in range(dim)]
        basis_names = tuple(_string(s, "basis name") for s in _sequence(basis_names, "basis names"))
        if len(basis_names) != dim:
            raise DimensionMismatch("basis name count does not match the dimension")
        structure, den = coefficient_table(dim, structure, lambda i, j: i < j)
        _set_fields(self, dim=dim, name=_string(name, "name"), basis_names=basis_names,
                    structure=structure, den=den)

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name!r}, dim={self.dim}, pairs={len(self.structure)})"

    @cached_property
    def ad_columns(self) -> List[List[dict]]:
        """ad(e_i) as sparse int columns over ``den``, [i][q] = den [e_i, e_q]: ``structure``'s."""
        return _ad_table(self.structure, self.dim)

    @cached_property
    def partners(self) -> List[List[int]]:
        """partners[m]: the a with [e_a, e_m] stored (either order)."""
        partners: List[List[int]] = [[] for _ in range(self.dim)]
        for i, j in self.structure:
            partners[i].append(j)
            partners[j].append(i)
        return partners

    @cached_property
    def tail_filtered(self) -> bool:
        """Whether the basis is adapted to the lower central series: C^k g = span(e_(k+1), ...).

        Two conditions on the stored table, read in O(nonzeros) (0-based, with
        V_m = span(e_m, ..., e_(n-1))):
        (a) every stored [e_i, e_j], i < j, lies in V_(j+1);
        (b) for each m in 1..n-2, some stored [e_i, e_m] has a nonzero e_(m+1)
        coefficient.
        (a) gives [g, V_m] in V_(m+1), so C^k g lies in V_(k+1). With V_k in
        C^(k-1) g, (b) and downward induction on m put e_(m+1) in C^k g for
        every m >= k >= 1, so C^k g = V_(k+1) for k >= 1. Only bilinearity is
        used, so this also holds for tables that fail Jacobi. Every catalog
        family passes; a moved basis in general does not.
        """
        steps = set()
        for (i, j), coeffs in self.structure.items():
            if min(coeffs) <= j:
                return False
            if j + 1 in coeffs:
                steps.add(j)
        # steps lies in 1..n-2, since i < j and j + 1 < n
        return len(steps) == max(self.dim - 2, 0)

    @cached_property
    def _jacobi_report(self) -> Tuple[Tuple[int, int, int, tuple], ...]:
        ad = self.ad_columns
        sums: Dict[tuple, dict] = {}
        for triple, a, m, c in cyclic_sum_terms(self.structure, self.partners):
            acc = sums.setdefault(triple, {})
            for p, d in ad[a][m].items():
                acc[p] = acc.get(p, 0) + c * d
        return tuple(_violations(sums, self.den * self.den, self.dim))

    @cached_property
    def _derived_subalgebra(self) -> Subspace:
        n = self.dim
        if self.tail_filtered:  # [g, g] = span(e_3, ..., e_n) (1-based)
            return Subspace(n, [(k, {k: 1}) for k in range(2, n)])
        # the span of the brackets, eliminated and then put in canonical form
        return _reduce(_gauss_jordan(self.structure.values()).values(), n)

    @cached_property
    def _lower_central_series(self) -> List[Subspace]:
        n = self.dim
        derived = self._derived_subalgebra
        if derived.dim == n:  # [g, g] is g: a perfect algebra's series is [g]
            return [derived]
        series = [Subspace(n, [(k, {k: 1}) for k in range(n)]), derived]
        if self.tail_filtered:
            # C^k g = span(e_(k+2), ...) (1-based) for k >= 1, down to 0
            series += (Subspace(n, derived.rows[m:]) for m in range(1, n - 1))
            return series
        chain = _image_chain(self.ad_columns, (row for _, row in derived.rows))
        next(chain)  # [g, g] again, from its own reduced rows
        series += (_reduce(rows.values(), n) for rows in chain)
        return series


def _adopted(dim: int, structure: dict, den: int, name: str,
             basis_names: Sequence[str]) -> LieAlgebra:
    """The algebra of a package-built table {(i, j): {k: int}} over den > 0, pairs i < j in range.

    ``linalg._lowest_table`` puts it in lowest terms and drops the pairs
    left empty; the rest keep the table's order, as ``coefficient_table``
    keeps a caller's.
    """
    structure, den = _lowest_table(structure, structure.values(), den)
    return _set_fields(LieAlgebra.__new__(LieAlgebra), dim=dim, name=name,
                       basis_names=tuple(basis_names), structure=structure, den=den)


class TwoForm(_Frozen):
    """Antisymmetric bilinear form on g given by its n x n Gram matrix; ``dim`` is n."""

    __slots__ = ("dim", "gram")
    _identity = ("gram",)

    def __init__(self, gram: Matrix):
        # over Q, antisymmetry forces a zero diagonal; the entries share one den
        cols = gram.columns
        if any(cols[i].get(j, 0) != -x for j, col in enumerate(cols) for i, x in col.items()):
            raise ValueError("Gram matrix must be antisymmetric")
        _set_fields(self, dim=gram.dim, gram=gram)

    @classmethod
    def from_entries(cls, dim: int, entries) -> "TwoForm":
        """The form of rational upper entries {(i, j): value}, i < j, built by ``_adopted_form``.

        ``dim`` is read by ``_dimension``, and entries that are not a
        mapping raise TypeError.
        """
        _dimension(dim)
        if not isinstance(entries, Mapping):
            raise TypeError("entries must be a mapping {(i, j): value}")
        for i, j in entries:
            if not (0 <= i < j < dim):
                raise ValueError(f"entry ({i}, {j}) must satisfy 0 <= i < j < dim")
        (upper,), den = integer_scaled([entries])
        return _adopted_form(dim, upper.items(), den)

    def __repr__(self) -> str:
        return f"TwoForm(dim={self.dim})"


def _adopted_form(dim: int, entries: Iterable[tuple], den: int) -> TwoForm:
    """The form of int upper entries ((i, j), x), 0 <= i < j < dim, over den > 0.

    Both triangles are filled from them, so the Gram matrix is
    antisymmetric by construction and ``TwoForm``'s scan is skipped;
    ``Matrix.from_sparse`` puts it in lowest terms.
    """
    columns = [{} for _ in range(dim)]
    for (i, j), x in entries:
        columns[j][i], columns[i][j] = x, -x
    return _set_fields(TwoForm.__new__(TwoForm), dim=dim, gram=Matrix.from_sparse(columns, den))


def _ad_table(structure: dict, n: int) -> List[List[dict]]:
    """ad(e_i) as sparse columns [i][q] = [e_i, e_q], read off a table over pairs i < j."""
    out = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), coeffs in structure.items():
        out[i][j] = dict(coeffs)
        out[j][i] = {k: -c for k, c in coeffs.items()}
    return out


def cyclic_sum_terms(structure: dict, partners: Sequence[Iterable[int]]):
    """Yield (triple, a, m, c): the nonzero terms c X(e_a, e_m) of the cyclic sums of X.

    On i < j < k the sum is X(e_i, [e_j, e_k]) + X(e_j, [e_k, e_i]) + X(e_k, [e_i, e_j]).
    ``structure`` is a bracket table over pairs p < q (the callers pass
    ``LieAlgebra.structure``, in ints over its ``den``) and ``partners[m]`` every a with X(e_a, e_m)
    possibly nonzero. Each coefficient c of [e_p, e_q] on e_m and each
    partner a outside {p, q} give one term on the sorted triple of
    (a, p, q), c negated when p < a < q. Triples no stored bracket reaches
    are never visited, and a triple's terms come in no fixed order.
    """
    for (p, q), coeffs in structure.items():
        for m, c in coeffs.items():
            for a in partners[m]:
                if a < p:
                    yield (a, p, q), a, m, c
                elif p < a < q:
                    yield (p, a, q), a, m, -c
                elif a > q:
                    yield (p, q, a), a, m, c


def jacobi_report(alg: LieAlgebra) -> List[Tuple[int, int, int, tuple]]:
    """Exact residual of the Jacobi identity on every basis triple i < j < k.

    An empty list certifies that the structure constants define a Lie
    algebra (antisymmetry already holds by construction). Each residual is
    the cyclic sum of X(e_a, e_m) = [e_a, e_m] over ``cyclic_sum_terms``,
    in ascending order. The sums run in ints over ``structure`` and its
    ad table (``ad_columns``), both den times the rational ones, so each
    residual is den^2 times the rational one, and ``linalg._violations``
    divides each nonzero one once. The report is kept on ``alg`` as a
    tuple and each call returns a new list of it; reading the kept views
    warms them for later checks.
    """
    return list(alg._jacobi_report)


def derived_subalgebra(alg: LieAlgebra) -> Subspace:
    """[g, g], the span of all brackets, kept on ``alg``; no other term of the series is built.

    On a ``tail_filtered`` table it is the unit rows of e_3, ..., e_n; on
    any other, the ``_gauss_jordan`` rows of the stored brackets put in
    canonical RREF with ``_reduce``. It is the second term of
    ``lower_central_series`` (the first and only one of a perfect algebra).
    """
    return alg._derived_subalgebra


def lower_central_series(alg: LieAlgebra) -> List[Subspace]:
    """Descending series [g, [g, g], [g, [g, g]], ...], a new list of the terms kept on ``alg``.

    The first entry is the whole algebra; each later term is the span of
    brackets of basis vectors with the previous term. The list stops right
    before the first repeated subspace, so the algebra is nilpotent exactly
    when the last entry is zero. On a ``tail_filtered`` table the terms are
    the unit rows g, span(e_3, ..., e_n), ..., 0 (two terms when n <= 2),
    with no elimination; on any other they are g, the kept [g, g] of
    ``derived_subalgebra``, and then the image chain (``linalg._image_chain``)
    over the kept ``ad_columns`` seeded from [g, g]'s rows, each
    term put in canonical RREF with ``_reduce``. The series is built the
    first time it is read, so ``derived_subalgebra`` alone never builds it.
    """
    return list(alg._lower_central_series)


def is_nilpotent_algebra(alg: LieAlgebra) -> bool:
    return lower_central_series(alg)[-1].is_zero()


def is_filiform(alg: LieAlgebra) -> bool:
    """Nilpotent of maximal class: the series dimensions are n, n - 2, n - 3, ..., 0."""
    n = alg.dim
    return [s.dim for s in lower_central_series(alg)] == [n] + [n - i - 1 for i in range(1, n)]


def dtheta_residual(alg: LieAlgebra, form: TwoForm) -> List[Tuple[int, int, int, Fraction]]:
    """Nonzero values of the 2-form cocycle sum on basis triples, in ascending order.

    The residual on (i, j, k) is
    th(e_i, [e_j, e_k]) + th(e_j, [e_k, e_i]) + th(e_k, [e_i, e_j]),
    summed over the terms of ``cyclic_sum_terms`` with the support of each
    Gram column as the partners; an empty list means the form is closed.
    The sums run in ints over ``structure``, over den, and the Gram matrix's
    integer columns over its ``den``, d_form, and each nonzero one is
    divided once, by den * d_form.
    """
    if form.dim != alg.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    columns, d_form = form.gram.columns, form.gram.den
    sums: Dict[tuple, int] = {}
    for triple, a, m, c in cyclic_sum_terms(alg.structure, columns):
        sums[triple] = sums.get(triple, 0) + columns[m][a] * c
    return [(*triple, Fraction(sums[triple], alg.den * d_form)) for triple in sorted(sums)
            if sums[triple]]


def nondegenerate(form: TwoForm) -> bool:
    """True iff the Gram matrix is nonsingular (never in odd dimension)."""
    return nonsingular(form.gram)


def algebra_hash(alg: LieAlgebra) -> str:
    """Stable hash of the mathematical content (dimension and brackets).

    Names and basis labels are presentation only and deliberately excluded,
    so renaming an algebra does not break certificates bound to it. Each
    constant is written by ``format_rational`` over ``alg.den``, so one past
    Python's int-string digit limit is a LieToolError.
    """
    parts = [f"dim={alg.dim}"]
    for (i, j) in sorted(alg.structure):
        coeffs = alg.structure[(i, j)]
        body = ",".join(f"{k}:{format_rational(coeffs[k], alg.den)}" for k in sorted(coeffs))
        parts.append(f"[{i},{j}]={body}")
    return _sha256("|".join(parts).encode("ascii")).hexdigest()
