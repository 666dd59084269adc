"""Dense Fraction oracles for the tests, independent of the code they check.

Only the ``Matrix`` and ``Subspace`` containers come from the package
(``test_dense_oracles_import_only_containers`` keeps it so). A textbook
Gauss-Jordan on dense Fraction lists gives the RREF, a solve, an inverse
and a nullspace; ``span`` and ``nullspace`` scale it by the lcm of its
denominators into the ``Subspace`` form (``integer_form``). The rest are
plain loops over Fraction views: ``rational_table`` of an algebra or a
product, the one reader of their held tables, and a map's dense rows
``data`` (``fraction_columns`` reads its columns off them), never the
integer forms that the code under test reads. Each checked result has
one oracle, worked from its definition on every basis pair or triple:
``affine_violations``, ``derivation_violations``, ``derivation_equations``
(the Der(g) rows in n^2 unknowns), ``jacobi_violations``,
``dtheta_violations``, ``product_tensor`` (O M_i V) and ``restrict`` (a
map on [g, g]). One lazy dense image chain gives ``lower_central_series``
([g, g] is its second term) and ``products_vanish`` (Engel's gate), and
``coordinates`` reads a vector off RREF rows. Vectors are tuples of
Fractions and a ``Matrix`` acts on column vectors; rectangular data
stays in plain lists (``solve`` takes the columns of its coefficient
matrix). ``kernel_routes`` patches the package's shape views off, so its
generic routes serve as oracles of the closed forms; ``integer_row``
scales a rational row for the kernel. ``change_basis`` moves an algebra
onto the basis P e_1, ..., P e_n, for the (P, P^-1) of the three
``*_basis_change`` draws, and ``conjugated`` moves maps by one seeded P;
``invertible`` gives each draw its P^-1 from the one dense ``inverse``
that tests P. The ``catalog_*`` functions write each catalog family as
a 1-based Fraction table and return ``LieAlgebra``'s arguments for it,
and ``fill_aij`` runs the lambda recurrence in Fractions: the oracles of
the integer tables that ``catalog`` builds and adopts.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from lieaffine.linalg import Matrix, Subspace

F = Fraction


def kernel_routes(patch):
    """Patch the kept shape views of ``Matrix`` to None, so every map takes the kernel route.

    ``patch`` is a pytest monkeypatch; the closed forms that read
    ``monomial`` or ``diagonal_weights`` are then checked against the
    generic routes, with every other oracle unchanged.
    """
    for view in ("monomial", "diagonal_weights"):
        patch.setattr(Matrix, view, property(lambda m: None))


def integer_row(row):
    """The sparse rational row {col: value} times the lcm of its denominators, as nonzero ints."""
    den = lcm(*(F(x).denominator for x in row.values()))
    return {c: int(F(x) * den) for c, x in row.items() if x}


def unit_vector(n, i):
    return tuple(F(1) if j == i else F(0) for j in range(n))


def identity(n):
    return Matrix([unit_vector(n, i) for i in range(n)])


def zeros(n):
    return Matrix([[0] * n for _ in range(n)])


def from_columns(columns):
    """The n x n ``Matrix`` whose column j is the dense vector columns[j]."""
    return Matrix([[col[i] for col in columns] for i in range(len(columns))])


def column(m, j):
    return tuple(row[j] for row in m.data)


def from_fraction_columns(columns):
    """The n x n ``Matrix`` whose column j is the sparse vector columns[j] {row: value}."""
    n = len(columns)
    return Matrix([[F(col.get(i, 0)) for col in columns] for i in range(n)])


def fraction_columns(m):
    """The columns of m as sparse Fraction vectors {row: value}, read off the dense rows."""
    return [{i: row[j] for i, row in enumerate(m.data) if row[j]} for j in range(m.dim)]


def apply(m, v):
    """m v for a dense vector v, each entry summed along a dense row."""
    return tuple(sum((y * x for y, x in zip(row, v) if x), F(0)) for row in m.data)


def rational_table(x):
    """The Fraction view {(i, j): {k: c}} of an algebra's brackets or a product's ``gamma``."""
    table = x.gamma if hasattr(x, "gamma") else x.structure
    return {pair: {k: F(c, x.den) for k, c in coeffs.items()} for pair, coeffs in table.items()}


def bracket_table(alg):
    """The n x n table of sparse [e_i, e_j], antisymmetry applied: row i, column j."""
    n = alg.dim
    table = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), coeffs in rational_table(alg).items():
        table[i][j] = coeffs
        table[j][i] = {k: -c for k, c in coeffs.items()}
    return table


def bracket(alg, x, y):
    """[x, y] of dense vectors: (x_i y_j - x_j y_i) [e_i, e_j] summed over the stored pairs."""
    out = [F(0)] * alg.dim
    for (i, j), coeffs in rational_table(alg).items():
        t = F(x[i]) * F(y[j]) - F(x[j]) * F(y[i])
        for k, c in coeffs.items():
            out[k] += t * c
    return tuple(out)


def ad(alg, x):
    """The matrix of [x, .]: column j is [x, e_j]."""
    n = alg.dim
    return from_columns([bracket(alg, x, unit_vector(n, j)) for j in range(n)])


def product(structure, x, y):
    """x.y for dense vectors: x_i y_j times e_i.e_j, summed over the stored pairs of ``gamma``."""
    out = [F(0)] * structure.dim
    for (i, j), coeffs in rational_table(structure).items():
        t = F(x[i]) * F(y[j])
        for k, c in coeffs.items():
            out[k] += t * c
    return tuple(out)


def _image(columns, v):
    """sum_q v_q columns[q] for a sparse vector v and sparse Fraction columns, zeros dropped."""
    out = {}
    for q, x in v.items():
        for k, y in columns[q].items():
            out[k] = out.get(k, F(0)) + x * y
    return {k: x for k, x in out.items() if x}


def _summed(n, *terms):
    """The dense Fraction tuple of the sum of sign * v over the (sign, sparse v) terms."""
    out = [F(0)] * n
    for sign, v in terms:
        for k, x in v.items():
            out[k] += sign * x
    return tuple(out)


def affine_violations(alg, structure):
    """(torsion, leftsym) of ``verify_affine``, both axioms on every basis pair and triple.

    Torsion lists (i, j, e_i.e_j - e_j.e_i - [e_i, e_j]) for i < j, left
    symmetry (i, j, k, e_i.(e_j.e_k) - e_j.(e_i.e_k) - (e_i.e_j).e_k +
    (e_j.e_i).e_k) for i < j and every k, each where it is nonzero.
    """
    n = alg.dim
    gamma = rational_table(structure)
    left = [[gamma.get((i, j), {}) for j in range(n)] for i in range(n)]  # e_i.e_j
    right = [[left[m][k] for m in range(n)] for k in range(n)]  # e_m.e_k
    brackets = bracket_table(alg)
    torsion, leftsym = [], []
    for i, j in combinations(range(n), 2):
        residual = _summed(n, (1, left[i][j]), (-1, left[j][i]), (-1, brackets[i][j]))
        if any(residual):
            torsion.append((i, j, residual))
        for k in range(n):
            residual = _summed(n, (1, _image(left[i], left[j][k])),
                               (-1, _image(left[j], left[i][k])),
                               (-1, _image(right[k], left[i][j])),
                               (1, _image(right[k], left[j][i])))
            if any(residual):
                leftsym.append((i, j, k, residual))
    return torsion, leftsym


def derivation_violations(alg, m):
    """``is_derivation``'s list: (i, j, m[e_i, e_j] - [m e_i, e_j] - [e_i, m e_j]) where nonzero."""
    n = alg.dim
    cols = fraction_columns(m)
    brackets = bracket_table(alg)
    out = []
    for i, j in combinations(range(n), 2):
        terms = [(1, _image(cols, brackets[i][j]))]
        terms += [(-x, brackets[p][j]) for p, x in cols[i].items()]
        terms += [(-x, brackets[i][q]) for q, x in cols[j].items()]
        residual = _summed(n, *terms)
        if any(residual):
            out.append((i, j, residual))
    return out


def derivation_equations(alg, lead=None):
    """The Der(g) rows in D's n^2 flat unknowns (p * n + q is D[p][q]), pair by pair.

    For each pair i < j (only i < lead, when lead is given) the row of
    (D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j])_p for each coordinate p
    that one of its terms reaches, built from ``rational_table``; an entry
    that cancels stays as a 0.
    """
    n = alg.dim
    structure = rational_table(alg)
    right = [[] for _ in range(n)]
    for (i, j), coeffs in structure.items():
        for p, c in coeffs.items():
            right[j].append((i, p, c))
            right[i].append((j, p, -c))
    rows = []
    for i in range(n if lead is None else lead):
        for j in range(i + 1, n):
            bracket = structure.get((i, j))
            block = {p: {p * n + k: c for k, c in bracket.items()}
                     for p in range(n)} if bracket else {}
            for q, p, c in right[j]:
                row = block.setdefault(p, {})
                row[q * n + i] = row.get(q * n + i, F(0)) - c
            for q, p, c in right[i]:
                row = block.setdefault(p, {})
                row[q * n + j] = row.get(q * n + j, F(0)) + c
            rows.extend(block.values())
    return rows


def jacobi_violations(alg):
    """``jacobi_report``'s list: (i, j, k, [e_i, [e_j, e_k]] + cyclic) where nonzero, i < j < k."""
    n = alg.dim
    brackets = bracket_table(alg)
    out = []
    for i, j, k in combinations(range(n), 3):
        terms = [(x, brackets[a][m]) for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                 for m, x in brackets[b][c].items()]
        residual = _summed(n, *terms)
        if any(residual):
            out.append((i, j, k, residual))
    return out


def dtheta_violations(alg, form):
    """``dtheta_residual``'s list: (i, j, k, th(e_i, [e_j, e_k]) + cyclic) where nonzero."""
    gram = form.gram.data
    brackets = bracket_table(alg)
    out = []
    for i, j, k in combinations(range(alg.dim), 3):
        residual = sum((x * gram[a][m] for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                        for m, x in brackets[b][c].items()), F(0))
        if residual:
            out.append((i, j, k, residual))
    return out


def product_tensor(outer, maps, inner):
    """The Fraction table {(i, j): {k: c}} of e_i.e_j = O M_i V e_j for ``Matrix`` O, M_i, V."""
    table = {}
    outer_cols = fraction_columns(outer)
    for i, m in enumerate(maps):
        cols = fraction_columns(m)
        for j, v in enumerate(fraction_columns(inner)):
            coeffs = _image(outer_cols, _image(cols, v))
            if coeffs:
                table[i, j] = coeffs
    return table


def matmul(a, b):
    """The matrix product a b, entry by entry over the dense rows."""
    assert a.dim == b.dim, "size mismatch"
    n, rows, cols = a.dim, a.data, b.data
    return Matrix([[sum((rows[i][k] * cols[k][j] for k in range(n)), F(0))
                    for j in range(n)] for i in range(n)])


def add(a, b):
    """The matrix sum a + b, entry by entry over the dense rows."""
    assert a.dim == b.dim, "size mismatch"
    return Matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)])


def scaled(m, c):
    """The matrix c m, entry by entry over the dense rows."""
    return Matrix([[F(c) * x for x in row] for row in m.data])


def gauss_jordan(rows, ncols):
    """Textbook Gauss-Jordan of sparse rows {col: value}: the RREF as (pivot, {col: value}) rows."""
    grid = [[F(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        pick = next((r for r in range(top, len(grid)) if grid[r][c]), None)
        if pick is None:
            continue
        grid[top], grid[pick] = grid[pick], grid[top]
        grid[top] = [x / grid[top][c] for x in grid[top]]
        for r in range(len(grid)):
            if r != top and grid[r][c]:
                f = grid[r][c]
                grid[r] = [x - f * y for x, y in zip(grid[r], grid[top])]
        pivots.append(c)
    return [(p, {c: x for c, x in enumerate(grid[k]) if x}) for k, p in enumerate(pivots)]


def integer_form(reduced):
    """(rows, den) of RREF rows (pivot, {col: Fraction}): den their lcm denominator, rows * den."""
    den = lcm(*(F(x).denominator for _, row in reduced for x in row.values()))
    return [(p, {c: int(F(x) * den) for c, x in row.items()}) for p, row in reduced], den


def span(vectors, n):
    """The span of dense vectors of length n, as a ``Subspace`` on its RREF rows in integer form."""
    return Subspace(n, *integer_form(gauss_jordan([dict(enumerate(v)) for v in vectors], n)))


def nullspace(rows, ncols):
    """The solutions of sparse rows, as a ``Subspace`` on their RREF basis in integer form."""
    return Subspace(ncols, *integer_form(solutions(rows, ncols)))


def solutions(rows, ncols):
    """The canonical RREF basis of the solutions of sparse rows, as (pivot, {col: value}) rows."""
    reduced = gauss_jordan(rows, ncols)
    pivots = {p for p, _ in reduced}
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = {p: -row[f] for p, row in reduced if f in row}
            vec[f] = F(1)
            basis.append(vec)
    return gauss_jordan(basis, ncols)


def solve(columns, b):
    """One x with sum_j x_j columns[j] = b, the free unknowns 0, or None when there is none.

    ``columns`` are the dense columns of the coefficient matrix, one per
    unknown, each as long as b, so the system may be rectangular.
    """
    k = len(columns)
    rows = [{**{j: col[i] for j, col in enumerate(columns)}, k: rhs} for i, rhs in enumerate(b)]
    x = [F(0)] * k
    for p, row in gauss_jordan(rows, k + 1):
        if p == k:
            return None
        x[p] = row.get(k, F(0))
    return tuple(x)


def inverse(grid):
    """m^-1 as dense rows, or None when the square m given by its rows is singular.

    The RREF of [m | I] is [I | m^-1] exactly when m is invertible.
    """
    n = len(grid)
    reduced = gauss_jordan([{**dict(enumerate(row)), n + i: 1}
                            for i, row in enumerate(grid)], 2 * n)
    if [p for p, _ in reduced] != list(range(n)):
        return None
    return [[row.get(n + j, 0) for j in range(n)] for _, row in reduced]


def invert(m):
    """The inverse of an invertible ``Matrix``; a singular one is a bug in the caller."""
    rows = inverse(m.data)
    assert rows is not None, "singular matrix"
    return Matrix(rows)


def contains(subspace, v):
    """Whether the dense vector v lies in the subspace, by a solve on its basis."""
    return solve(subspace.basis, v) is not None


def restrict(subspace, m):
    """The matrix of m on the basis of an m-invariant subspace, one dense solve per column."""
    return from_columns([solve(subspace.basis, apply(m, b)) for b in subspace.basis])


def _descending_spans(maps, vectors, n):
    """Yield W_0 = span(vectors), then W_(k+1) = span of m(W_k) over the maps, as dense spans.

    Each map is a list of sparse Fraction columns. Every m(W_0) lies in W_0
    here, so the W_k are nested, and the terms stop right before the first
    one whose dimension does not fall: a 0, or a W_k the maps send onto
    itself. Each term is built only when it is asked for.
    """
    term = span(vectors, n)
    yield term
    while term.dim:
        basis = [{q: x for q, x in enumerate(b) if x} for b in term.basis]
        nxt = span([_summed(n, (1, _image(m, b))) for m in maps for b in basis], n)
        if nxt.dim == term.dim:
            return
        term = nxt
        yield term


def lower_central_series(alg):
    """Yield g, [g, g], [g, [g, g]], ...: W_(k+1) = sum of the ad e_i (W_k), up to the first repeat.

    The terms come lazily, so a caller that reads [g, g] builds two terms;
    one that needs the series takes ``list(...)``.
    """
    n = alg.dim
    return _descending_spans(bracket_table(alg), [unit_vector(n, i) for i in range(n)], n)


def products_vanish(maps):
    """Whether every product of n of the n x n ``Matrix`` maps is 0: the image chain ends at 0.

    W_0 is the sum of the images of the maps; a product of k + 1 maps
    sends g into W_k, and the chain has at most n steps.
    """
    n = maps[0].dim
    cols = [fraction_columns(m) for m in maps]
    images = [_summed(n, (1, col)) for m in cols for col in m]
    return not list(_descending_spans(cols, images, n))[-1].dim


def coordinates(reduced, v):
    """The coordinates {k: c} of the sparse vector v on the RREF rows (pivot, row), or None.

    Row k's coordinate is v at its pivot; v lies in the span exactly when
    v minus that combination is 0 in every column.
    """
    coords = {k: v[p] for k, (p, _) in enumerate(reduced) if v.get(p)}
    residual = dict(v)
    for k, c in coords.items():
        for col, x in reduced[k][1].items():
            residual[col] = residual.get(col, 0) - c * x
    return None if any(residual.values()) else coords


def change_basis(alg, move):
    """The same algebra on the basis P e_1, ..., P e_n: c' = P^-1 [P e_i, P e_j], of alg's type.

    ``move`` is the pair (P, P^-1) of ``invertible``, as the three
    ``*_basis_change`` draws return it.
    """
    p, pinv = move
    cols = [column(p, i) for i in range(alg.dim)]
    structure = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            image = apply(pinv, bracket(alg, cols[i], cols[j]))
            structure[(i, j)] = {k: c for k, c in enumerate(image) if c}
    return type(alg)(alg.dim, structure)


def invertible(grid):
    """(P, P^-1), the ``Matrix`` of the dense rows and its inverse, or None when P is singular.

    One dense ``inverse`` decides it and gives P^-1, so a draw's P is
    eliminated once.
    """
    rows = inverse(grid)
    return None if rows is None else (Matrix(grid), Matrix(rows))


def sparse_basis_change(n, rng):
    """(P, P^-1) for an invertible P = I + four seeded +-1 entries off the diagonal."""
    while True:
        grid = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            grid[i][j] = rng.choice((-1, 1))
        move = invertible(grid)
        if move is not None:
            return move


def dense_basis_change(n, rng):
    """(P, P^-1) for an invertible P with unit diagonal and a seeded +-1 everywhere off it."""
    while True:
        move = invertible([[1 if i == j else rng.choice((-1, 1)) for j in range(n)]
                           for i in range(n)])
        if move is not None:
            return move


def rational_basis_change(n, rng):
    """(P, P^-1) for an invertible P with unit diagonal and seeded p/q entries (q = 2, 3) off it.

    About 30% of the places off the diagonal are filled, so the RREF rows
    of [g, g] in the moved basis carry denominators.
    """
    while True:
        move = invertible([[1 if i == j else F(rng.choice((-2, -1, 1, 3)), rng.choice((2, 3)))
                            if rng.random() < 0.3 else 0 for j in range(n)] for i in range(n)])
        if move is not None:
            return move


def conjugated(maps, rng):
    """P m P^-1 for each map: one seeded P with entries in -2..2, redrawn until invertible."""
    n = maps[0].dim
    while True:
        move = invertible([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if move is not None:
            p, pinv = move
            return [matmul(matmul(p, m), pinv) for m in maps]


# The catalog families as Fraction tables, written the way the package
# wrote them before it built them in ints: each returns the arguments
# (n, table, name, basis_names) of ``LieAlgebra``, whose public
# constructor validates and scales the table through ``coefficient_table``.

def _sign(i):
    """(-1)^(i+1)."""
    return F(1) if i % 2 else F(-1)


def _chain(top):
    """The chain [Y1, Yj] = Y_{j+1} for j = 2..top, 1-based."""
    return {(1, j): {j + 1: F(1)} for j in range(2, top + 1)}


def _pairing(n):
    """The pairing [Y_i, Y_{n-i+1}] = (-1)^(i+1) Y_n for i = 2..n/2, 1-based."""
    return {(i, n - i + 1): {n: _sign(i)} for i in range(2, n // 2 + 1)}


def _display(n, table, name, letter="Y"):
    """``LieAlgebra``'s arguments for a 1-based table, stored 0-based in the table's order."""
    structure = {(i - 1, j - 1): {k - 1: c for k, c in coeffs.items()}
                 for (i, j), coeffs in table.items()}
    return n, structure, name, [f"{letter}{i}" for i in range(1, n + 1)]


def catalog_ln(n):
    return _display(n, _chain(n - 1), f"L{n}")


def catalog_qn(n, adapted=False):
    table = {**_chain(n - 2 if adapted else n - 1), **_pairing(n)}
    if adapted:
        return _display(n, table, f"Q{n}Z", "Z")
    return _display(n, table, f"Q{n}")


def fill_aij(n, k, lambdas):
    """``catalog.fill_aij`` in Fractions: the band, then a_ij = a_{i,j-1} - a_{i+1,j-1} by gap."""
    a = {}
    for idx, lam in enumerate(lambdas):
        if lam:
            a[(idx + 2, idx + 3)] = F(lam)
    for gap in range(2, n):
        for i in range(2, n):
            j = i + gap
            if j > n or i + j + k - 2 > n:
                break
            val = a.get((i, j - 1), F(0)) - a.get((i + 1, j - 1), F(0))
            if val:
                a[(i, j)] = val
    return a


def catalog_ank(n, k, lambdas):
    table = _chain(n - 1)
    for (i, j), val in fill_aij(n, k, lambdas).items():
        table[(i, j)] = {i + j + k - 2: val}
    return _display(n, table, f"A{n}^{k}")


def catalog_bnk(n, k, lambdas):
    table = {**_chain(n - 2), **_pairing(n)}
    for (i, j), val in fill_aij(n, k, lambdas).items():
        if j == i + 1 or i + j + k - 2 <= n - 2:
            table[(i, j)] = {i + j + k - 2: val}
    return _display(n, table, f"B{n}^{k}")


def catalog_cn(n, lambdas):
    table = {**_chain(n - 2), **_pairing(n)}
    for s, lam in enumerate(lambdas, 1):
        if not lam:
            continue
        total = n - 2 * s + 1
        for i in range(2, n):
            j = total - i
            if j <= i:
                break
            table[(i, j)] = {n: _sign(i) * F(lam)}
    return _display(n, table, f"C{n}")


def catalog_benoist(t):
    t = F(t)
    table = _chain(10)
    table.update(
        {
            (2, 3): {5: F(1)},
            (2, 4): {6: F(1)},
            (2, 5): {7: F(-2), 8: F(1), 9: t},
            (2, 6): {8: F(-5), 9: F(2), 10: 2 * t},
            (2, 7): {9: F(-13, 5), 10: F(51, 25), 11: (448 + 2475 * t) / 2000},
            (2, 8): {10: F(26, 5), 11: F(28, 25)},
            (2, 9): {11: F(19, 16)},
            (3, 4): {7: F(3), 8: F(-1), 9: -t},
            (3, 5): {8: F(3), 9: F(-1), 10: -t},
            (3, 6): {9: F(-12, 5), 10: F(-1, 25), 11: (-448 + 1525 * t) / 2000},
            (3, 7): {10: F(-39, 5), 11: F(23, 25)},
            (3, 8): {11: F(321, 80)},
            (4, 5): {9: F(27, 5), 10: F(-24, 25), 11: (448 - 3525 * t) / 2000},
            (4, 6): {10: F(27, 5), 11: F(-24, 25)},
            (4, 7): {11: F(-189, 16)},
            (5, 6): {11: F(1377, 80)},
        }
    )
    return _display(11, table, f"Benoist(t={t})", "X")
