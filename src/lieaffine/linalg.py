"""Exact rational linear algebra kernel.

Every scalar is exact: a ``Matrix`` or a ``Subspace`` holds Python ints
over one denominator, and every dense view is ``fractions.Fraction``;
nothing in this package touches floating point. ``integer_scaled`` is
the one scaler of outside rationals: it coerces every value through
``rat``, drops the zeros and puts a family of sparse rational vectors
over one common denominator; the loops work on the integer numerators,
and ``unscaled`` turns a result back into Fractions at the boundary.
Every table of the package holds that form, ints over one den > 0 with
gcd(den, every entry) = 1: a ``Matrix``'s columns, a ``Subspace``'s
rows, a ``LieAlgebra``'s brackets and an ``AffineStructure``'s products.
``_lowest_terms`` puts built integer vectors in it, and
``_lowest_table`` a built {key: {k: int}} table, for the adopters
``liealg._adopted`` and ``affine._adopted``; ``format_rational`` writes
an int over its den as "p/q" with no Fraction formed. Its grammar, 'p'
or 'p/q' in ASCII digits, is the one that the package reads:
``_read_rational`` reads a rational string for ``rat`` (so for every
library constructor), for ``serialize.parse_rational`` (every document)
and for the command line's options, and nothing else reads one. The
entry points that read a sequence (matrix rows, a diagonal, lambda
values, basis names) refuse a string in one helper, ``_sequence``, so
'12' never passes for (1, 2); beside it, ``_integer`` and ``_string``
hold the one type rule of a dimension, a seed or a budget and of a name,
which the library's constructors and searches and the documents' readers
all apply, so whatever the library writes reads back. ``_violations`` is
the one residual reporter of the checks (the Jacobi report,
``is_derivation`` and both ``verify_affine`` reports): each collects
integer sums keyed by basis tuple over one denominator, and it turns the
nonzero ones into dense Fraction tuples, keys ascending. Matrices act on
column coordinate vectors, so column j of a map is the image of basis
vector j.

Every linear system goes through one elimination kernel,
``_gauss_jordan``, on sparse integer rows ``{col: int}``, and every entry
to it (``_reduce``, ``_nullspace``, ``_image_chain``, ``_integer_inverse``,
``products_vanish``) takes integer rows too. Callers scale at the
boundary, with ``integer_scaled``, the one scaler, and integer producers
(the Der(g), weight and closed-form equations, the image-chain steps and
the powers of a map's integer ``columns``) feed the kernel as they are.
Each row is taken sparsest first, eliminated fraction-free by
cross-multiplication (``_eliminate``; a one-entry pivot row just deletes
its column), made primitive once, and kept free of every other pivot
column, each pivot the row's largest column. Its
{pivot: primitive int row} is enough for a caller that only counts
(``rank``, ``nonsingular``, ``products_vanish``, ``is_nilpotent``).
Every exit that is a subspace is a ``Subspace`` in integers too.
``_solution_basis`` reads the canonical basis of the solutions straight
off those rows, and ``_nullspace``, the kernel and then that reading,
solves the weight and closed-form equations; Der(g) keeps its rows,
asks ``_remainder`` whether a linear form vanishes on its solutions, and
reads its basis off them only when it is asked for. ``_reduce(rows,
ncols)`` runs the kernel on negated columns, so each pivot is the row's
least column, and scales the rows over one denominator. Its result is
the canonical reduced row-echelon form, over that denominator, with each
row's columns in ascending order, so it is exact and deterministic,
iteration order included, whatever the row order; ``liealg`` reads the
lower central series off it, [g, g] included. ``_integer_inverse`` reads
the integer columns of an inverse over one denominator straight off the
kernel's rows of [m^T | I], with no normalization, and the constructions
in ``affine`` keep them in ints. ``_image_chain`` is the one image-chain
loop, on integer maps and rows, shared by ``products_vanish`` and
``liealg``'s lower central series, whose terms ``_reduce`` puts in
canonical form.

A ``Matrix`` is an n x n map, as every matrix of the package is a map
of g to itself. It holds one form, the kernel's, as a ``Subspace`` holds
its rows: its size ``dim``, its n sparse integer columns ``{row: int}``
and one ``den`` > 0 with gcd(den, every entry) = 1, so column j / den is
the image of e_j and equal maps have equal fields. The builders hand
their kernel integers to ``Matrix.from_sparse(columns, den)`` as they
are, and ``Matrix(data)``, which checks once that the data is square,
scales rational rows through ``integer_scaled``; the Fractions of a map
are formed only for output (``data``, ``m[i, j]``). It has no
arithmetic: a product or sum is ``sparse_apply`` on the columns. Its
rank and its shape are computed on first use and kept: every caller
shares them, so they are read-only. The shape is two views.
``monomial`` is the row of each column's one entry, or None when some
column holds two: such a map (a diagonal derivation or a matching Gram
matrix) has its rank read off its entries, with no elimination.
``diagonal_weights`` is the integer w of diag(w) / den, which
``derivations`` and ``affine`` read to take their closed forms, so a
witness's shape is found once however many checks read it. A
``Subspace`` holds the same kind of form: integer RREF rows (pivot,
{col: int}) and one ``den``, each row / den the canonical RREF row, read
as they are by ``_coordinates``, its hash, the searches and the
derived-regular construction; ``basis``, its dense view, is where its
Fractions are formed, for output. The package's value types share one
immutable base, ``_Frozen``, and set their fields once with
``_set_fields``, which also adopts kernel output without re-validation
(``Matrix.from_sparse``). Each type whose fields are canonical names
them once, in ``_identity``, and ``_Frozen`` compares and hashes it over
those fields alone; the others compare by object identity.
A matrix's JSON form, read and written, belongs to ``serialize``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .errors import DimensionMismatch, LieToolError

ZERO = Fraction(0)


def rat(value) -> Fraction:
    """Coerce an int, a rational string or a Fraction to an exact Fraction.

    A string is read in the one grammar of the package, by
    ``_read_rational``: 'p' or 'p/q' in ASCII digits, as every document
    and option spells a rational and ``format_rational`` writes one, so
    decimals, exponents, spaces, underscores and non-ASCII digits raise
    ValueError. Floats and bools raise TypeError; accepting a float would
    silently smuggle binary rounding into what must stay exact arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return _read_rational(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _echo(value) -> str:
    """The first 20 characters of a value, quoted, for a diagnostic."""
    return repr(str(value)[:20])


def _sequence(values, what: str):
    """``values`` as given, or TypeError when they are a ``str``.

    The one check of the entry points that read a sequence (a matrix row,
    a diagonal, the lambda values, the basis names): a string's characters
    would otherwise pass for its entries, '12' for (1, 2).
    """
    if isinstance(values, str):
        raise TypeError(f"{what} {_echo(values)} is a string, not a sequence")
    return values


def _integer(value, what: str) -> int:
    """``value`` as given, or TypeError when it is a bool or not an int: a dim, a seed, a budget."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer")
    return value


def _string(value, what: str) -> str:
    """``value`` as given, or TypeError when it is not a ``str``: a name, a label."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string")
    return value


class _Frozen:
    """Base of the immutable types: each sets its fields once, through ``_set_fields``.

    A value type names its canonical fields once, in ``_identity``: two
    instances of that type are equal exactly when those fields are, and
    hash over them, each dict read as the frozenset of its items
    (``_hashable``). A type with no ``_identity`` compares and hashes by
    object identity; across two types the comparison is NotImplemented.
    """

    __slots__ = ()
    _identity = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not self._identity or type(other) is not type(self):
            return object.__eq__(self, other)
        return all(getattr(self, name) == getattr(other, name) for name in self._identity)

    def __hash__(self):
        if not self._identity:
            return object.__hash__(self)
        return hash(_hashable(tuple(getattr(self, name) for name in self._identity)))


def _hashable(value):
    """value with every dict, at any depth of tuples and lists, read as the frozenset of its items."""
    if isinstance(value, dict):
        return frozenset((key, _hashable(x)) for key, x in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(map(_hashable, value))
    return value


def _set_fields(obj, **fields):
    """obj with ``fields`` set past its ``__setattr__``; on ``cls.__new__(cls)``, adopted as is."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class Matrix(_Frozen):
    """An n x n map of exact rationals held as n sparse integer columns over one ``den``, immutable.

    ``dim`` is n, ``columns[j]`` is {row: int} with its zeros dropped and
    ``den`` > 0 one int, so column j / ``den`` is the image of e_j, and
    gcd(den, every entry) is 1: equal maps have equal ``_identity``
    fields, ``den`` and ``columns``. This is the form that ``sparse_apply``
    and the kernel read; ``data`` and ``m[i, j]`` are the Fraction views,
    for output. ``Matrix(data)`` takes n dense rows of n rationals,
    raises DimensionMismatch on any other shape (``Matrix([])`` is the
    0 x 0 map) and TypeError on a row that is a string (``_sequence``),
    and scales them through ``integer_scaled``, which reads a string entry
    in the one rational grammar (``rat``). It checks the
    shape of every caller's matrix; ``serialize.matrix_from_json`` checks a
    document's shape itself, before it parses any entry.
    ``from_sparse(columns, den)`` adopts the integer columns of kernel
    output without re-validating them. The rank and the shape views
    ``monomial`` and ``diagonal_weights`` are kept once computed, read-only.
    """

    __slots__ = ("dim", "columns", "den", "__dict__")
    _identity = ("den", "columns")

    def __init__(self, data):
        rows = [dict(enumerate(_sequence(row, "matrix row"))) for row in data]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix data must be n rows of n entries")
        columns, den = integer_scaled(_transpose(rows, n))
        _set_fields(self, dim=n, columns=tuple(columns), den=den)

    @classmethod
    def from_sparse(cls, columns: Iterable[dict], den: int) -> "Matrix":
        """Adopt the n sparse integer columns {row: int} over den > 0 of an n x n map.

        ``_lowest_terms`` drops explicit zeros and divides out
        gcd(den, every entry) once, so the zero map has ``den`` 1.
        """
        columns, den = _lowest_terms(columns, den)
        return _set_fields(cls.__new__(cls), dim=len(columns), columns=tuple(columns), den=den)

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        entries = enumerate(_sequence(entries, "diagonal"))
        return cls.from_sparse(*integer_scaled({i: x} for i, x in entries))

    @property
    def data(self) -> tuple:
        n, den = self.dim, self.den
        return tuple(dense_vector(unscaled(row, den), n) for row in _transpose(self.columns, n))

    @cached_property
    def monomial(self) -> Optional[Tuple[Optional[int], ...]]:
        """The row of each column's one entry (None for an empty column), or None if one holds two.

        The shape of a monomial map, at most one entry per column, such as a
        diagonal derivation or the Gram matrix of a matching 2-form: the
        rank, ``diagonal_weights`` and the matching-form product read it.
        """
        rows = []
        for col in self.columns:
            if len(col) > 1:
                return None
            rows.append(next(iter(col), None))
        return tuple(rows)

    @cached_property
    def diagonal_weights(self) -> Optional[Tuple[int, ...]]:
        """The integer weights w when the map is diag(w) / ``den``, else None.

        Diagonal is ``monomial`` with every entry on the diagonal.
        """
        rows = self.monomial
        if rows is None or any(r is not None and r != j for j, r in enumerate(rows)):
            return None
        return tuple(col.get(j, 0) for j, col in enumerate(self.columns))

    @cached_property
    def _rank(self) -> int:
        """The rank, kept: read off the entries of a ``monomial`` map, else the kernel's row count.

        A monomial map has its nonzero columns on unit vectors e_r, so its
        rank is the number of distinct rows r its entries lie in; no
        elimination runs. Every other map goes through ``_gauss_jordan`` on
        its integer columns.
        """
        rows = self.monomial
        if rows is not None:
            return len(set(rows) - {None})
        return len(_gauss_jordan(self.columns))

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self.columns[j].get(i, 0), self.den)

    def __repr__(self) -> str:
        return f"Matrix({self.dim}x{self.dim}, {[list(map(str, r)) for r in self.data]})"


class Subspace(_Frozen):
    """A linear subspace held as the kernel's canonical RREF rows, in integers over one denominator.

    ``rows`` are (pivot, {col: int}) pairs and ``den`` > 0 is one int, so
    row / den is the canonical RREF row and ``den`` the lcm of its
    denominators: two subspaces are equal exactly when their ``_identity``
    fields, ``ambient_dim``, ``den`` and ``rows``, coincide. ``basis`` is
    their dense view, as Fractions.
    """

    __slots__ = ("ambient_dim", "rows", "den")
    _identity = ("ambient_dim", "den", "rows")

    def __init__(self, ambient_dim: int, rows: Sequence[tuple], den: int = 1):
        _set_fields(self, ambient_dim=ambient_dim, rows=tuple(rows), den=den)

    @property
    def basis(self) -> tuple:
        n, den = self.ambient_dim, self.den
        return tuple(dense_vector(unscaled(row, den), n) for _, row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _primitive(row: dict) -> dict:
    """Divide an integer row by the gcd of its entries (sign preserved)."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _eliminate(pv: int, row: dict, v: int, prow: dict) -> dict:
    """pv * row - v * prow, pv and v first divided by their gcd; cancelled entries drop.

    The content stays in (``_gauss_jordan`` divides it out once per row), and
    a multiplier pv of 1 after the gcd copies the row instead of scaling it.
    """
    g = gcd(pv, v)
    if g > 1:
        pv, v = pv // g, v // g
    new = dict(row) if pv == 1 else {c: pv * x for c, x in row.items()}
    for c, x in prow.items():
        y = new.get(c, 0) - v * x
        if y:
            new[c] = y
        else:
            del new[c]
    return new


def _gauss_jordan(rows: Iterable[dict]) -> dict:
    """Fraction-free Gauss-Jordan of sparse integer rows {col: int}: {pivot: primitive int row}.

    The one elimination loop of the package; zero entries are dropped, and a
    caller with rational rows scales them at the boundary
    (``integer_scaled``). The rows are taken sparsest first, and every pivot
    row is kept free of the other pivot columns. A new row is therefore
    reduced once against each pivot column it holds (``_remainder``; a
    one-entry pivot row just deletes its column), so a redundant row costs
    at most its length. A
    nonzero remainder is made primitive once (a division at every step would
    only scale it by a positive factor) and pivots on its largest column,
    which is then cleared from the rows that hold it, found through a
    column -> pivots index of plain lists whose stale entries (the column since
    cancelled) are skipped; each row cleared is made primitive again.
    Clearing a column below a row's pivot adds only columns below the new
    pivot, so each row's pivot stays its largest column. The rows span the
    input, their number is its rank, and each is a multiple of a row of the
    reduced row-echelon form for the reversed column order.
    """
    reduced = {}
    holders = {}
    for row in sorted(rows, key=len):
        cur = _remainder(reduced, row)
        if not cur:
            continue
        cur = _primitive(cur)
        p = max(cur)
        pv = cur[p]
        for r in holders.pop(p, ()):
            held = reduced[r]
            x = held.get(p)
            if not x:
                continue
            reduced[r] = _primitive(_eliminate(pv, held, x, cur))
            for c in cur:
                if c not in held:
                    holders.setdefault(c, []).append(r)
        for c in cur:
            if c != p:
                holders.setdefault(c, []).append(p)
        reduced[p] = cur
    return reduced


def _remainder(reduced: dict, row: dict) -> dict:
    """The integer row, zeros dropped, reduced against each pivot column of ``reduced`` it holds.

    ``reduced`` is ``_gauss_jordan`` output, each row holding its pivot and
    free columns only, so the remainder holds no pivot column, and it is
    empty exactly when the row lies in the span of ``reduced``: when its
    linear form vanishes on every solution of those rows.
    """
    cur = {c: x for c, x in row.items() if x}
    for q in [c for c in cur if c in reduced]:
        prow = reduced[q]
        if len(prow) == 1:
            del cur[q]
        else:
            cur = _eliminate(prow[q], cur, cur[q], prow)
    return cur


def _reduce(rows: Iterable[dict], ncols: int) -> Subspace:
    """The span of sparse integer rows {col: int} in ``ncols`` columns, as its canonical Subspace.

    ``_gauss_jordan`` on the negated columns, whose pivots are then each
    row's least column. A primitive row v with pivot entry pv has |pv| as
    the lcm of the denominators of the RREF row v / pv, so den, the lcm of
    the pivot entries, is that of the whole RREF, and each row is scaled by
    den / pv, a whole number: no Fraction is formed. The rows come in
    increasing pivot order, each dict in ascending column order, so the
    result and its iteration order do not depend on the order of the rows.
    """
    reduced = _gauss_jordan({-c: x for c, x in row.items()} for row in rows)
    den = lcm(*(row[p] for p, row in reduced.items()))
    return Subspace(ncols, [(-p, {-c: row[c] * (den // row[p]) for c in sorted(row, reverse=True)})
                            for p, row in sorted(reduced.items(), reverse=True)], den)


def _transpose(vectors: Iterable[dict], n: int) -> list:
    """The n sparse vectors out[i] = {j: vectors[j][i]}: rows of sparse columns, or back."""
    out = [{} for _ in range(n)]
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            out[i][j] = x
    return out


def _flat_columns(entries: Iterable[tuple], n: int) -> list:
    """Sparse columns of the n x n matrix given as (flat index p*n + q, entry (p, q)) pairs."""
    cols = [{} for _ in range(n)]
    for idx, x in entries:
        cols[idx % n][idx // n] = x
    return cols


def sparse_apply(columns: Sequence[dict], v: dict, out: Optional[dict] = None) -> dict:
    """Add sum_a v[a] * columns[a] into ``out`` (a new dict by default).

    ``columns`` are the sparse images {row: value} of the basis vectors and
    ``v`` is a sparse vector {a: value}, so the work is proportional to the
    nonzeros met. The arithmetic is that of the inputs: ints give ints and
    Fractions give Fractions. Entries that cancel stay in ``out`` as zeros
    of that type.
    """
    if out is None:
        out = {}
    for a, x in v.items():
        for b, y in columns[a].items():
            out[b] = out.get(b, 0) + x * y
    return out


def integer_scaled(vectors: Iterable[dict]) -> Tuple[list, int]:
    """(int_vectors, den): the sparse rational vectors times den, as ints, zeros dropped.

    The one scaler of outside rationals: each value is coerced by ``rat``,
    so a float or a bool raises TypeError, and a zero is dropped. den > 0
    is the lcm of every denominator met, so v = int_v / den entry by entry
    (``unscaled``), and an integer loop over the family computes the
    rational one times a known power of den. The output is canonical
    already: p does not divide den / q for the entry whose denominator q
    carries the top power of p in den, so gcd(den, every entry) = 1.
    """
    vectors = [{k: q for k, x in v.items() if (q := rat(x))} for v in vectors]
    den = lcm(*(x.denominator for v in vectors for x in v.values()))
    return [{k: x.numerator * (den // x.denominator) for k, x in v.items()}
            for v in vectors], den


def _lowest_terms(vectors: Iterable[dict], den: int) -> Tuple[list, int]:
    """(vectors, den) of sparse integer vectors over den > 0, zeros dropped and gcd divided out.

    g = gcd(den, every entry) divides each entry and den once, so equal
    rational families give equal results and the zero family has den 1.
    """
    vectors = list(vectors)
    g = gcd(den, *(x for v in vectors for x in v.values()))
    return [{k: x // g for k, x in v.items() if x} for v in vectors], den // g


def _lowest_table(keys: Iterable, vectors: Iterable[dict], den: int) -> Tuple[dict, int]:
    """(table, den) of a built table, keys and their {k: int} over den > 0, in ``_lowest_terms``.

    The one adopter of package-built tables: the keys left empty are
    dropped and the rest keep the order of ``keys``.
    """
    vectors, den = _lowest_terms(vectors, den)
    return {key: v for key, v in zip(keys, vectors) if v}, den


def format_rational(x, den: int = 1) -> str:
    """x / den as "p/q", or "p" when it is whole: x an int over den > 0, or a Fraction and den 1.

    An int is put in lowest terms by one gcd, with no Fraction formed.
    Python's int-string digit limit becomes a LieToolError.
    """
    if isinstance(x, int):
        g = gcd(x, den)
        x, den = x // g, den // g
    try:
        return str(x) if den == 1 else f"{x}/{den}"
    except ValueError as exc:
        raise LieToolError("a result exceeds the integer digit limit") from exc


# the one grammar of rational strings, read by _read_rational and written by
# format_rational: an optional sign, ASCII digits, and an optional /digits
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?", re.ASCII)


def _read_rational(text) -> Fraction:
    """The Fraction that a string 'p' or 'p/q' in ASCII digits spells; ValueError on anything else.

    A non-string, any other spelling, a part past Python's int-string
    digit limit and a zero denominator each raise ValueError with a
    one-line message that quotes at most 20 characters of the text. The
    pattern is matched before any int is formed, so an exponent such as
    '1e2000000' is refused at once instead of being expanded.
    """
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {_echo(text)}; expected 'p' or 'p/q'")
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ValueError:  # Python's limit on digits in an int string
        raise ValueError(f"rational of {len(text)} characters exceeds the integer digit limit")
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {_echo(text)}")


def unscaled(v: dict, den: int) -> dict:
    """The integer sparse vector v over den, as nonzero Fractions: ``integer_scaled`` undone."""
    return {k: Fraction(x, den) for k, x in v.items() if x}


def dense_vector(row: dict, n: int) -> tuple:
    """The length-n coordinate tuple of a sparse vector {index: value}."""
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _violations(sums: dict, den: int, n: int) -> list:
    """[(*key, residual)]: each nonzero sum / den as a length-n Fraction tuple, keys ascending.

    ``sums`` maps a basis tuple to a sparse integer vector {k: int}; a sum
    whose entries all cancel (``sparse_apply`` keeps them as zeros) is
    dropped before the keys are sorted, so a passing check sorts nothing.
    The Jacobi, derivation and affine-axiom checks report their residuals
    through it alone.
    """
    keys = sorted(key for key, v in sums.items() if any(v.values()))
    return [(*key, dense_vector(unscaled(sums[key], den), n)) for key in keys]


def _coordinates(space: Subspace, v: dict) -> Optional[dict]:
    """Nonzero coordinates {k: c} of sparse v on the RREF rows of space, or None outside it.

    Coordinate k is v's entry at the k-th pivot; v is inside iff no residual is left.
    An RREF row is 1 at its own pivot and 0 at every other pivot column, so
    taking each row, den times its coordinate, off den v (den the space's)
    leaves 0 on every pivot column; the residual is summed in the
    arithmetic of v, so an integer v forms no Fraction.
    """
    residual = {col: space.den * x for col, x in v.items()}
    coords = {}
    for k, (p, row) in enumerate(space.rows):
        c = v.get(p)
        if c:
            coords[k] = c
            for col, x in row.items():
                residual[col] = residual.get(col, 0) - c * x
    return None if any(residual.values()) else coords


def rank(m: Matrix) -> int:
    """rank m: ``Matrix._rank``, read off a monomial m, else the kernel's, kept on m."""
    return m._rank


def _nullspace(rows: Iterable[dict], ncols: int) -> Subspace:
    """The exact solution space of sparse integer rows {col: int} over ``ncols`` unknowns.

    The homogeneous solve of the weight and closed-form equations, which are
    built in integers; zero rows and no rows are allowed. It is
    ``_gauss_jordan`` and then ``_solution_basis`` on the rows it leaves.
    Der(g) runs the same two steps apart: ``derivations.DerivationSpace``
    keeps the rows and reads the basis off them only when it is asked for.
    """
    return _solution_basis(_gauss_jordan(rows), ncols)


def _solution_basis(reduced: dict, ncols: int) -> Subspace:
    """The canonical RREF basis of the solutions of the ``_gauss_jordan`` rows ``reduced``.

    A nonzero entry outside ``range(ncols)`` raises DimensionMismatch. It
    is checked on the reduced rows, which hold a column exactly when some
    equation does: their largest pivot and each row's least column.

    The system is solved in the kernel's own column order, unlike
    ``_reduce``, which negates the columns: each ``_gauss_jordan`` row holds
    its pivot p, its largest column, and free columns only. The solution for
    free column f is 1 at f and -r[f] / r[p] at the pivot p of each row r
    that holds f, every such p lying above f. So f is the least column of
    its vector and no other vector holds it: these vectors, with their
    columns in ascending order, already are the canonical RREF basis that
    ``_reduce`` would return, and need no second pass through the kernel.
    Each r is primitive and holds its pivot and the free columns only, so
    the lcm of the denominators of its -r[f] / r[p] is |r[p]|: den, the lcm
    of the pivot entries, puts the basis over one denominator in ints, and
    no Fraction is formed.
    """
    if reduced and (max(reduced) >= ncols or min(min(row) for row in reduced.values()) < 0):
        raise DimensionMismatch(f"an equation holds a column outside range({ncols})")
    den = lcm(*(row[p] for p, row in reduced.items()))
    holders = {f: [] for f in range(ncols) if f not in reduced}
    for p in sorted(reduced):
        for c in reduced[p]:
            if c != p:
                holders[c].append(p)
    basis = []
    for f, ps in holders.items():
        vec = {f: den}
        for p in ps:
            vec[p] = -reduced[p][f] * (den // reduced[p][p])
        basis.append((f, vec))
    return Subspace(ncols, basis, den)


def _integer_inverse(columns: Sequence[dict], den: int) -> Optional[Tuple[list, int]]:
    """(int columns, den') of the inverse of the square map m = columns / den, or None if singular.

    ``columns`` are m's sparse integer columns {row: int} and den > 0, as
    a ``Matrix`` holds them; m^-1 = int columns / den', den' > 0. The
    kernel runs on the rows of [m^T | I] with the identity block first, in
    columns 0..n-1, and the block of m^T in columns n..2n-1. Each pivot is
    its row's largest column, so m is invertible exactly when every pivot
    lies in the m^T block. A row with pivot n + r and pivot entry pv is
    then y [m^T | I] for the y with y m^T = pv e_r, so its identity block is
    pv times column r of m^-1.
    """
    n = len(columns)
    reduced = _gauss_jordan({**{n + r: x for r, x in col.items()}, i: 1}
                            for i, col in enumerate(columns))
    if min(reduced, default=n) < n:
        return None
    pivots = [reduced[n + r][n + r] for r in range(n)]
    d = lcm(*pivots)
    inverse = []
    for r, pv in enumerate(pivots):
        scale = den * (d // pv)
        inverse.append({i: scale * x for i, x in reduced[n + r].items() if i < n})
    return inverse, d


def nonsingular(m: Matrix) -> bool:
    """True iff m is invertible (the 0 x 0 map is)."""
    return rank(m) == m.dim


def products_vanish(maps: Sequence[list]) -> bool:
    """True iff every long enough product of the given maps is zero.

    ``maps`` are square maps of one size, each as its sparse integer
    columns (``Matrix.columns``; a map's scale changes no product's
    vanishing), like every other kernel entry. When every map sends each e_j into
    span(e_r : r > j), i.e. is strictly lower triangular, every product of
    n maps is 0, and that exact O(nonzeros) check answers True at once. Otherwise the
    image chain on the kernel decides: W_0 = sum of the images and
    W_{k+1} = sum of the m(W_k) are nested,
    W_k being spanned by the images of all products of k + 1 maps. Their
    dimensions fall until the chain reaches 0 (every product of that many
    maps vanishes) or stops at a nonzero W_k that the maps together send
    onto itself (products of every length survive). For one map this is
    nilpotency; for a Lie algebra of maps such as Der(g), Engel's theorem
    makes it equivalent to every element being nilpotent.
    """
    if all(r > j for cols in maps for j, col in enumerate(cols) for r in col):
        return True
    *_, last = _image_chain(maps, (col for cols in maps for col in cols))
    return not last


def _image_chain(maps: Sequence[list], rows: Iterable[dict]) -> Iterator[dict]:
    """Yield W_0 = span of rows, then W_(k+1) = sum of the m(W_k), each as ``_gauss_jordan`` rows.

    ``maps`` are lists of sparse integer columns and ``rows`` sparse integer
    rows; a rational map scaled over its own denominator leaves every
    image span unchanged. W_1 must lie in W_0, so
    the W_k are nested, and the loop runs in ints and never normalizes a
    row. W_(k+1) is eliminated only when it is asked for after W_k; the
    chain ends at the first W_k that is 0 or that the maps send onto itself,
    which is where the dimension stops falling.
    """
    w = _gauss_jordan(rows)
    yield w
    while w:
        nxt = _gauss_jordan(sparse_apply(cols, v) for cols in maps for v in w.values())
        if len(nxt) == len(w):
            return
        yield nxt
        w = nxt


def is_nilpotent(m: Matrix) -> bool:
    """True iff some power of m is zero (``products_vanish``)."""
    return products_vanish([m.columns])
