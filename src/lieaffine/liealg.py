"""Lie algebras as sparse structure-constant tensors, plus 2-form machinery.

A ``LieAlgebra`` stores coefficients only for ordered basis pairs (i, j)
with i < j; the bracket for i > j follows by antisymmetry and the diagonal
is zero by definition, so neither can be corrupted by bad data. Indices are
0-based inside the package; the JSON layer converts to the 1-based
convention used in documents.

Construction does not enforce the Jacobi identity: ``jacobi_report`` checks
it exhaustively and returns the exact residual of every violating triple,
which makes the empty report a certificate.

There is no dense bracket: every check reads the sparse table or the
integer views below.

An algebra computes on first use and keeps the views that
``integer_structure``, ``integer_ad_columns`` and ``tail_filtered``
return, its lower central series (``derived_subalgebra`` is its second
term; each term is computed when first read), its bracket partners,
its Jacobi report (``jacobi_report`` returns a new list of it) and its
derivation algebra (``derivations.derivation_space``, whose Der(g) and
weights are solved when first read): every caller shares them, so they
are read-only. The report reads the integer views, so a catalog
constructor's Jacobi check warms them for the checks that follow, and
the Der(g) and weight solves, which need Jacobi to drop their redundant
equations, and the command line's Lie check read the same report.
``LieAlgebra`` and ``TwoForm`` take
their immutability from ``linalg._Frozen``.
``TwoForm.from_entries`` adopts its Gram columns; ``TwoForm(gram)`` checks.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch
from .linalg import (
    ONE,
    Matrix,
    Subspace,
    _Frozen,
    _image_chain,
    _reduce,
    _set_fields,
    dense_vector,
    integer_scaled,
    nonsingular,
    rat,
    unscaled,
)

SparseCoeffs = Dict[int, Fraction]


def coefficient_table(dim: int, table, pair_ok) -> Dict[Tuple[int, int], SparseCoeffs]:
    """Canonical {(i, j): {k: c}} basis values of a bilinear map.

    Pairs must lie in range and satisfy ``pair_ok(i, j)``, targets must lie
    in range, and zero coefficients and empty pairs are dropped, so equal
    tables mean equal maps.
    """
    clean = {}
    for (i, j), coeffs in table.items():
        if not (0 <= i < dim and 0 <= j < dim and pair_ok(i, j)):
            raise ValueError(f"pair ({i}, {j}) is out of range or not admitted")
        kept = {}
        for k, c in coeffs.items():
            if not 0 <= k < dim:
                raise ValueError(f"target {k} of pair ({i}, {j}) out of range")
            c = rat(c)
            if c:
                kept[k] = c
        if kept:
            clean[(i, j)] = kept
    return clean


class LieAlgebra(_Frozen):
    """A Lie algebra on a fixed basis with sparse structure constants and kept views."""

    __slots__ = ("dim", "name", "basis_names", "structure", "__dict__")

    def __init__(self, dim: int, structure, name: str = "g",
                 basis_names: Optional[Sequence[str]] = None):
        if dim < 1:
            raise DimensionMismatch("algebra dimension must be at least 1")
        if basis_names is None:
            basis_names = [f"e{i + 1}" for i in range(dim)]
        basis_names = tuple(str(s) for s in basis_names)
        if len(basis_names) != dim:
            raise DimensionMismatch("basis name count does not match the dimension")
        _set_fields(self, dim=dim, name=str(name), basis_names=basis_names,
                    structure=coefficient_table(dim, structure, lambda i, j: i < j))

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name!r}, dim={self.dim}, pairs={len(self.structure)})"

    @cached_property
    def _integer_structure(self) -> Tuple[Dict[Tuple[int, int], dict], int]:
        consts, den = integer_scaled(self.structure.values())
        return dict(zip(self.structure, consts)), den

    @cached_property
    def _integer_ad_columns(self) -> Tuple[List[List[dict]], int]:
        structure, den = self._integer_structure
        return _ad_table(structure, self.dim), den

    @cached_property
    def _partners(self) -> List[List[int]]:
        """partners[m]: the a with [e_a, e_m] stored (either order)."""
        partners: List[List[int]] = [[] for _ in range(self.dim)]
        for i, j in self.structure:
            partners[i].append(j)
            partners[j].append(i)
        return partners

    @cached_property
    def _tail_filtered(self) -> bool:
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
        n = self.dim
        structure, den = self._integer_structure
        ad, _ = self._integer_ad_columns
        sums: Dict[tuple, dict] = {}
        for triple, a, m, c in cyclic_sum_terms(structure, self._partners):
            acc = sums.setdefault(triple, {})
            for p, d in ad[a][m].items():
                acc[p] = acc.get(p, 0) + c * d
        return tuple((*triple, dense_vector(unscaled(sums[triple], den * den), n))
                     for triple in sorted(sums) if any(sums[triple].values()))

    @cached_property
    def _lower_central_series(self) -> "_Drawn":
        n = self.dim
        units = [(k, {k: ONE}) for k in range(n)]
        if self._tail_filtered:
            # C^0 g = g, then C^k g = span(e_(k+1), ...) (0-based) for k >= 1, down to 0
            return _Drawn(Subspace(n, units[m:]) for m in (0, *range(2, max(n, 2) + 1)))
        # the image chain from [g, g], the span of the brackets; no term is
        # eliminated before it is read
        chain = _image_chain(self._integer_ad_columns[0], self._integer_structure[0].values())

        def terms():
            yield Subspace(n, units)
            for rows in chain:
                if len(rows) == n:  # [g, g] is g: a perfect algebra's series is [g]
                    return
                yield Subspace(n, _reduce(rows.values()))

        return _Drawn(terms())


class _Drawn:
    """The items of an iterator as a sequence, each drawn the first time an index reaches it.

    Drawn items are kept, so the iterator runs once, and only as far as the
    largest index asked for; iteration, a negative index and ``==`` draw
    every item.
    """

    __slots__ = ("_items", "_rest")

    def __init__(self, items: Iterator):
        self._items, self._rest = [], items

    def __getitem__(self, k: int):
        items = self._items
        items.extend(self._rest if k < 0 else islice(self._rest, max(k + 1 - len(items), 0)))
        return items[k]

    def __iter__(self):
        self._items.extend(self._rest)
        return iter(self._items)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, _Drawn) else NotImplemented


class TwoForm(_Frozen):
    """Antisymmetric bilinear form given by its Gram matrix."""

    __slots__ = ("dim", "gram")

    def __init__(self, gram: Matrix):
        if not gram.is_square:
            raise DimensionMismatch("a 2-form needs a square Gram matrix")
        # over Q, antisymmetry forces a zero diagonal
        if any(gram[j, i] != -x for j, col in enumerate(gram.columns) for i, x in col.items()):
            raise ValueError("Gram matrix must be antisymmetric")
        _set_fields(self, dim=gram.rows, gram=gram)

    @classmethod
    def from_entries(cls, dim: int, entries) -> "TwoForm":
        """Adopt upper-triangular entries {(i, j): value}, i < j: antisymmetric by construction."""
        columns = [{} for _ in range(dim)]
        for (i, j), val in entries.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"entry ({i}, {j}) must satisfy 0 <= i < j < dim")
            val = rat(val)
            columns[j][i] = val
            columns[i][j] = -val
        return _set_fields(cls.__new__(cls), dim=dim, gram=Matrix.from_sparse(dim, columns))

    def __eq__(self, other):
        if not isinstance(other, TwoForm):
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"TwoForm(dim={self.dim})"


def integer_structure(alg: LieAlgebra) -> Tuple[Dict[Tuple[int, int], dict], int]:
    """(table, den): the structure constants times den, as ints; kept on ``alg``.

    den is their common denominator (``linalg.integer_scaled``), and the
    table keeps the pairs and the order of ``alg.structure``.
    """
    return alg._integer_structure


def integer_ad_columns(alg: LieAlgebra) -> Tuple[List[List[dict]], int]:
    """(columns, den): ad(e_i) as sparse int columns, [i][q] = den [e_i, e_q]; kept.

    den is that of ``integer_structure``, whose table the columns read.
    """
    return alg._integer_ad_columns


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
    ``integer_structure``) and ``partners[m]`` every a with X(e_a, e_m)
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
    in ascending order. The sums run in ints over ``integer_structure``
    and its ad table (``integer_ad_columns``), both den times the rational
    ones, so each residual is den^2 times the rational one and is divided
    once. The report is kept on ``alg`` as a tuple and each call returns a
    new list of it; reading the kept views warms them for later checks.
    """
    return list(alg._jacobi_report)


def tail_filtered(alg: LieAlgebra) -> bool:
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
    family passes; a moved basis in general does not. Kept on ``alg``.
    """
    return alg._tail_filtered


def derived_subalgebra(alg: LieAlgebra) -> Subspace:
    """[g, g], the span of all brackets: the second term of the series kept on ``alg``.

    On a perfect algebra the series is [g], and [g, g] is g. Only the first
    two terms are computed: the series draws a later one when it is read.
    """
    series = alg._lower_central_series
    try:
        return series[1]
    except IndexError:
        return series[0]


def lower_central_series(alg: LieAlgebra) -> List[Subspace]:
    """Descending series [g, [g, g], [g, [g, g]], ...], a new list of the terms kept on ``alg``.

    The first entry is the whole algebra; each later term is the span of
    brackets of basis vectors with the previous term. The list stops right
    before the first repeated subspace, so the algebra is nilpotent exactly
    when the last entry is zero. On a ``tail_filtered`` table the terms are
    the unit rows g, span(e_3, ..., e_n), ..., 0 (two terms when n <= 2),
    with no elimination; on any other they are g and then the image chain
    (``linalg._image_chain``) over the kept ``integer_ad_columns`` from the
    span of the brackets, each put in canonical RREF with ``_reduce``. The
    kept series computes each term the first time it is read, so
    ``derived_subalgebra`` alone eliminates only [g, g].
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
    The sums run in ints over ``integer_structure`` and the Gram matrix
    scaled over its own common denominator d_form, and each nonzero one is
    divided once, by den * d_form.
    """
    if form.dim != alg.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    structure, den = integer_structure(alg)
    columns, d_form = form.gram.integer_columns
    sums: Dict[tuple, int] = {}
    for triple, a, m, c in cyclic_sum_terms(structure, columns):
        sums[triple] = sums.get(triple, 0) + columns[m][a] * c
    return [(*triple, Fraction(sums[triple], den * d_form)) for triple in sorted(sums)
            if sums[triple]]


def nondegenerate(form: TwoForm) -> bool:
    """True iff the Gram matrix is nonsingular (never in odd dimension)."""
    return nonsingular(form.gram)


def algebra_hash(alg: LieAlgebra) -> str:
    """Stable hash of the mathematical content (dimension and brackets).

    Names and basis labels are presentation only and deliberately excluded,
    so renaming an algebra does not break certificates bound to it.
    """
    parts = [f"dim={alg.dim}"]
    for (i, j) in sorted(alg.structure):
        coeffs = alg.structure[(i, j)]
        body = ",".join(f"{k}:{coeffs[k]}" for k in sorted(coeffs))
        parts.append(f"[{i},{j}]={body}")
    return hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()
