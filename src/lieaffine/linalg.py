"""Exact rational linear algebra kernel.

Every scalar a caller sees is a ``fractions.Fraction``; nothing in this
package touches floating point. Hot loops run in Python ints instead:
``integer_scaled`` puts a family of sparse vectors over one common
denominator, the loop works on the integer numerators, and ``unscaled``
turns a result back into Fractions at the boundary. Matrices act on column
coordinate vectors, so column j of a map is the image of basis vector j.

Every linear system goes through one elimination kernel,
``_gauss_jordan``, on sparse integer rows ``{col: int}``. Callers scale at
the boundary: ``_integer_row`` clears one Fraction row of its
denominators, and integer producers (the Der(g), weight and closed-form
equations, and the image-chain steps) feed the kernel as they are. Each
row is taken sparsest first, eliminated fraction-free by
cross-multiplication (``_eliminate``; a one-entry pivot row just deletes
its column), made primitive once, and kept free of every other pivot
column, each pivot the row's largest column. Its
{pivot: primitive int row} is enough for a caller that only counts
(``rank``, ``nonsingular``, ``products_vanish``, ``is_nilpotent``).
``_solution_basis`` reads the canonical basis of the solutions straight
off those rows, and ``_nullspace``, the kernel and then that reading,
solves the weight and closed-form equations; Der(g) keeps its rows and
reads its basis off them only when it is asked for.
``_reduce`` runs the kernel on negated columns, so each pivot is the
row's least column, and adds the one pivot normalization that
reintroduces fractions. Its result is the canonical reduced row-echelon
form with each row's columns in ascending order, so it is exact and
deterministic, iteration order included, whatever the row order;
``liealg`` reads the lower central series off it, [g, g] included.
``_integer_inverse`` reads the integer columns of an inverse over one
denominator straight off the kernel's rows of [m^T | I], with no
normalization, and the constructions in ``affine`` keep them in ints.
``_image_chain`` is the one image-chain loop, on integer maps and rows,
shared by ``products_vanish``, which scales its maps, and ``liealg``'s
lower central series, whose terms ``_reduce`` puts in canonical form; it
yields one term at a time, so a reader of [g, g] never eliminates the
terms below it.

A ``Matrix`` holds its sparse columns ``{row: value}`` and has no
arithmetic: a product or sum is ``sparse_apply`` on the columns, and
``data`` is the dense view for output. Its ``integer_columns``
(``integer_scaled`` of the columns, read by ``rank``, the derivation
check and the constructions) and its rank are computed on first use and
kept: every caller shares them, so they are read-only. A monomial matrix
(``_monomial_rows``: at most one entry per column, such as a diagonal
derivation or a matching Gram matrix) has its rank read off its entries,
with no elimination. A ``Subspace``
holds the kernel's RREF rows, read by ``_coordinates`` and by its hash;
``basis`` is its dense view, and its kept ``integer_rows``, the rows'
``integer_scaled``, mirror ``integer_columns`` for the searches and the
derived-regular construction. The package's value types share one
immutable base, ``_Frozen``, and set their fields once with
``_set_fields``, which also adopts kernel output without re-validation
(``Matrix.from_sparse``).
A matrix's JSON form, read and written, belongs to ``serialize``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .errors import DimensionMismatch

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple


def rat(value) -> Fraction:
    """Coerce an int, string or Fraction to an exact Fraction.

    Floats are rejected outright; accepting them would silently smuggle
    binary rounding into what must stay exact arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def vector(entries: Iterable) -> Vector:
    return tuple(rat(x) for x in entries)


class _Frozen:
    """Base of the immutable value types: each sets its fields once, through ``_set_fields``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _set_fields(obj, **fields):
    """obj with ``fields`` set past its ``__setattr__``; on ``cls.__new__(cls)``, adopted as is."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class Matrix(_Frozen):
    """Matrix of exact rationals held as its sparse columns, immutable.

    ``columns[j]`` is column j as {row: Fraction} with its zeros dropped,
    the form that ``sparse_apply`` and the kernel read; ``data`` is the
    dense row view. ``Matrix(data)`` validates dense rows (JSON, catalog,
    tests); ``from_sparse`` adopts kernel output without re-validating it.
    ``integer_columns`` and the rank are kept once computed, read-only.
    """

    __slots__ = ("rows", "cols", "columns", "__dict__")

    def __init__(self, data, rows: Optional[int] = None, cols: Optional[int] = None):
        grid = [[rat(x) for x in row] for row in data]
        if rows is None:
            rows = len(grid)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise DimensionMismatch("ragged or mis-sized matrix data")
        _set_fields(self, rows=rows, cols=cols, columns=tuple(_transpose(map(_sparse, grid), cols)))

    @classmethod
    def from_sparse(cls, rows: int, columns: Iterable[dict]) -> "Matrix":
        """Adopt sparse columns {row: Fraction} as they are, dropping explicit zeros."""
        cols = tuple({r: x for r, x in col.items() if x} for col in columns)
        return _set_fields(cls.__new__(cls), rows=rows, cols=len(cols), columns=cols)

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        vals = vector(entries)
        return cls.from_sparse(len(vals), ({i: x} for i, x in enumerate(vals)))

    @property
    def data(self) -> tuple:
        return tuple(dense_vector(row, self.cols) for row in _transpose(self.columns, self.rows))

    @cached_property
    def integer_columns(self) -> Tuple[list, int]:
        """``integer_scaled(columns)``: the int columns over one common denominator."""
        return integer_scaled(self.columns)

    @cached_property
    def _rank(self) -> int:
        """The rank, kept: read off the entries of a monomial map, else the kernel's row count.

        A monomial map (``_monomial_rows``: at most one entry per column,
        such as a diagonal derivation or the Gram matrix of a matching
        2-form) has its nonzero columns on unit vectors e_r, so its rank is
        the number of distinct rows r its entries lie in; no elimination
        runs. Every other map goes through ``_gauss_jordan`` on its kept
        ``integer_columns``.
        """
        rows = _monomial_rows(self)
        if rows is not None:
            return len(set(rows) - {None})
        return len(_gauss_jordan(self.integer_columns[0]))

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.columns[j].get(i, ZERO)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.columns == other.columns

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(c.items()) for c in self.columns)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {[list(map(str, r)) for r in self.data]})"


class Subspace(_Frozen):
    """A linear subspace held as the kernel's canonical RREF rows.

    ``rows`` are the (pivot, {col: Fraction}) pairs ``_reduce`` returns, so
    two subspaces are equal exactly when their rows coincide; ``basis`` is
    their dense view. ``integer_rows`` is kept once computed, read-only.
    """

    __slots__ = ("ambient_dim", "rows", "__dict__")

    def __init__(self, ambient_dim: int, rows: Sequence[tuple]):
        _set_fields(self, ambient_dim=ambient_dim, rows=tuple(rows))

    @cached_property
    def integer_rows(self) -> Tuple[list, int]:
        """``integer_scaled`` of the rows: their int vectors over one common denominator."""
        return integer_scaled(row for _, row in self.rows)

    @property
    def basis(self) -> tuple:
        return tuple(dense_vector(row, self.ambient_dim) for _, row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, tuple(frozenset(row.items()) for _, row in self.rows)))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _monomial_rows(m: Matrix) -> Optional[list]:
    """The row of each column's one entry (None for a zero column), or None when a column holds two.

    The test of a monomial map, at most one entry per column, that the rank,
    the diagonal derivation checks and the matching-form product share.
    """
    rows = []
    for col in m.columns:
        if len(col) > 1:
            return None
        rows.append(next(iter(col), None))
    return rows


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


def _integer_row(row: dict) -> dict:
    """The sparse rational row times the lcm of its denominators, as nonzero ints.

    The kernel's boundary: it scales each row by a positive constant, which
    leaves every row space and solution set unchanged.
    """
    den = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}


def _gauss_jordan(rows: Iterable[dict]) -> dict:
    """Fraction-free Gauss-Jordan of sparse integer rows {col: int}: {pivot: primitive int row}.

    The one elimination loop of the package; zero entries are dropped, and
    rational rows go through ``_integer_row`` first. The rows are taken
    sparsest first, and every pivot row is kept free of the other pivot
    columns. A new row is therefore reduced once against each pivot column
    it holds (a one-entry pivot row just deletes its column), so a
    redundant row costs at most its length. A nonzero remainder is made
    primitive once (a division at every step would only scale it by a
    positive factor) and pivots on its largest column, which is then
    cleared from the rows that hold it, found through a column -> pivots
    index of plain lists whose stale entries (the column since cancelled)
    are skipped; each row cleared is made primitive again. Clearing a
    column below a row's pivot adds only columns below the new pivot, so
    each row's pivot stays its largest column. The rows span the input,
    their number is its rank, and each is a multiple of a row of the
    reduced row-echelon form for the reversed column order.
    """
    reduced = {}
    holders = {}
    for row in sorted(rows, key=len):
        cur = {c: x for c, x in row.items() if x}
        for q in [c for c in cur if c in reduced]:
            prow = reduced[q]
            if len(prow) == 1:
                del cur[q]
            else:
                cur = _eliminate(prow[q], cur, cur[q], prow)
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


def _reduce(rows: Iterable[dict]) -> list:
    """Canonical RREF of sparse rational rows {col: value}.

    ``_gauss_jordan`` on the negated columns, whose pivots are then each
    row's least column, then the one normalization that reintroduces
    fractions. Returns the nonzero RREF rows as (pivot, {col: Fraction})
    pairs in increasing pivot order, each dict in ascending column order,
    so the result and its iteration order do not depend on the order of
    the rows.
    """
    reduced = _gauss_jordan(_integer_row({-c: x for c, x in row.items()}) for row in rows)
    return [(-p, {-c: Fraction(row[c], row[p]) for c in sorted(row, reverse=True)})
            for p, row in sorted(reduced.items(), reverse=True)]


def _sparse(v: Sequence) -> dict:
    return {j: x for j, x in enumerate(v) if x}


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
    """(int_vectors, den): the sparse rational vectors times den, as ints.

    den > 0 is the lcm of every denominator met, so v = int_v / den entry by
    entry (``unscaled``), and an integer loop over the family computes the
    rational one times a known power of den.
    """
    vectors = list(vectors)
    den = lcm(*(x.denominator for v in vectors for x in v.values()))
    return [{k: x.numerator * (den // x.denominator) for k, x in v.items()}
            for v in vectors], den


def unscaled(v: dict, den: int) -> dict:
    """The integer sparse vector v over den, as nonzero Fractions: ``integer_scaled`` undone."""
    return {k: Fraction(x, den) for k, x in v.items() if x}


def dense_vector(row: dict, n: int) -> Vector:
    """The length-n coordinate tuple of a sparse vector {index: value}."""
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _coordinates(rows: Sequence[tuple], v: dict) -> Optional[dict]:
    """Nonzero coordinates {k: c} of sparse v on the RREF rows, or None outside their span.

    Coordinate k is v's entry at the k-th pivot; v is inside iff no residual is left.
    An RREF row is 1 at its own pivot and 0 at every other pivot column, so
    the residual is exactly 0 on the pivot columns and is summed on the
    others only.
    """
    residual = dict(v)
    coords = {}
    for k, (p, row) in enumerate(rows):
        c = residual.pop(p, None)
        if c:
            coords[k] = c
            for col, x in row.items():
                if col != p:
                    residual[col] = residual.get(col, 0) - c * x
    return None if any(residual.values()) else coords


def rank(m: Matrix) -> int:
    """rank m (= rank m^T): ``Matrix._rank``, read off a monomial m, else the kernel's; kept."""
    return m._rank


def _nullspace(rows: Iterable[dict], ncols: int) -> Subspace:
    """The exact solution space of sparse integer rows {col: int} over ``ncols`` unknowns.

    The homogeneous solve of the weight and closed-form equations; a
    rational row goes through ``_integer_row`` first, and zero rows and no
    rows are allowed. It is ``_gauss_jordan`` and then ``_solution_basis``
    on the rows it leaves. Der(g) runs the same two steps apart:
    ``derivations.DerivationSpace`` keeps the rows and reads the basis off
    them only when it is asked for, with no second elimination.
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
    """
    if reduced and (max(reduced) >= ncols or min(min(row) for row in reduced.values()) < 0):
        raise DimensionMismatch(f"an equation holds a column outside range({ncols})")
    holders = {f: [] for f in range(ncols) if f not in reduced}
    for p in sorted(reduced):
        for c in reduced[p]:
            if c != p:
                holders[c].append(p)
    basis = []
    for f, ps in holders.items():
        vec = {f: ONE}
        for p in ps:
            vec[p] = Fraction(-reduced[p][f], reduced[p][p])
        basis.append((f, vec))
    return Subspace(ncols, basis)


def _integer_inverse(columns: Sequence[dict], den: int) -> Optional[Tuple[list, int]]:
    """(int columns, den') of the inverse of the square map m = columns / den, or None if singular.

    ``columns`` are m's sparse integer columns {row: int} and den > 0, as
    ``integer_scaled`` gives them; m^-1 = int columns / den', den' > 0. The
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
    """True iff the square matrix m is invertible (the empty matrix is)."""
    if not m.is_square:
        raise DimensionMismatch("nonsingularity of a non-square matrix")
    return rank(m) == m.rows


def products_vanish(maps: Sequence[list]) -> bool:
    """True iff every long enough product of the given maps is zero.

    ``maps`` are square maps of one size, each as its sparse columns
    (``Matrix.columns``). When every map sends each e_j into
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
    maps = [integer_scaled(cols)[0] for cols in maps]
    *_, last = _image_chain(maps, (col for cols in maps for col in cols))
    return not last


def _image_chain(maps: Sequence[list], rows: Iterable[dict]) -> Iterator[dict]:
    """Yield W_0 = span of rows, then W_(k+1) = sum of the m(W_k), each as ``_gauss_jordan`` rows.

    ``maps`` are lists of sparse integer columns and ``rows`` sparse integer
    rows; a caller with rational maps scales each over its own denominator
    first, which leaves every image span unchanged. W_1 must lie in W_0, so
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
    """True iff some power of the square matrix m is zero (``products_vanish``)."""
    if not m.is_square:
        raise DimensionMismatch("nilpotency of a non-square matrix")
    return products_vanish([m.columns])
