"""Exact linear algebra kernel tests.

The derivation-system fixtures here are built by independent hand
enumeration (not via the derivations module) so they can serve as oracles
for rank/nullity claims used elsewhere.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from lieaffine import affine, derivations, linalg
from lieaffine.affine import AffineStructure, synthesize
from lieaffine.catalog import make_benoist, make_cn, make_ln, make_qn
from lieaffine.derivations import derivation_space
from lieaffine.errors import DimensionMismatch
from lieaffine.liealg import TwoForm, derived_subalgebra, lower_central_series
from lieaffine.linalg import (
    Matrix,
    Subspace,
    _coordinates,
    _flat_columns,
    _gauss_jordan,
    _integer_inverse,
    _integer_row,
    _nullspace,
    _reduce,
    integer_scaled,
    is_nilpotent,
    nonsingular,
    products_vanish,
    rank,
    rat,
    sparse_apply,
    unscaled,
)

from dense import (
    ad,
    add,
    apply,
    bracket,
    bracket_basis,
    gauss_jordan,
    identity,
    inverse,
    invert,
    matmul,
    nullspace,
    scaled,
    unit_vector,
    zeros,
)

F = Fraction


def _rows(m):
    # the rows of m as sparse dicts, the kernel's input
    return [{j: x for j, x in enumerate(row) if x} for row in m.data]


def _solve(rows, ncols):
    # the kernel's homogeneous solve of rational rows
    return _nullspace(map(_integer_row, rows), ncols)


def _inverse(m):
    # the kernel's inverse of m unscaled to Fractions, or None when m is singular
    found = _integer_inverse(*integer_scaled(m.columns))
    if found is None:
        return None
    columns, den = found
    return Matrix.from_sparse(m.rows, (unscaled(col, den) for col in columns))


def _l4_bracket_basis(a, b):
    # L4 brackets, 0-based: [e0, e1] = e2, [e0, e2] = e3.
    table = {(0, 1): {2: 1}, (0, 2): {3: 1}}
    if a == b:
        return {}
    if a < b:
        return table.get((a, b), {})
    return {k: -c for k, c in table.get((b, a), {}).items()}


def _l4_derivation_system():
    # Hand enumeration of D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] over the 16
    # unknowns d_pq (flat index p*4 + q), one equation per (pair, coord).
    rows = []
    for i in range(4):
        for j in range(i + 1, 4):
            for p in range(4):
                row = [F(0)] * 16
                for k, c in _l4_bracket_basis(i, j).items():
                    row[p * 4 + k] += c
                for q in range(4):
                    for pp, c in _l4_bracket_basis(q, j).items():
                        if pp == p:
                            row[q * 4 + i] -= c
                    for pp, c in _l4_bracket_basis(i, q).items():
                        if pp == p:
                            row[q * 4 + j] -= c
                rows.append(row)
    return Matrix(rows, 24, 16)


def test_rref_identity():
    assert _reduce(_rows(identity(3))) == [(i, {i: 1}) for i in range(3)]


def test_rref_rank_one_duplicate_row():
    assert _reduce(_rows(Matrix([[1, 2], [2, 4]]))) == [(0, {0: 1, 1: 2})]


def test_rref_l4_derivation_system_rank():
    # Free parameters of a derivation of L4: d11, d21, d31, d41, d22, d32,
    # d42 (with d12 forced to 0 and the images of e3, e4 determined), so
    # the 16-unknown system has rank 9 and nullity 7.
    rows = _rows(_l4_derivation_system())
    assert len(_reduce(rows)) == 9
    assert _solve(rows, 16).dim == 7


def test_rref_idempotent_on_random_rationals():
    rng = random.Random(0)
    for _ in range(25):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = Matrix(
            [
                [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(nc)]
                for _ in range(nr)
            ]
        )
        reduced = _reduce(_rows(m))
        assert _reduce(row for _, row in reduced) == reduced


def test_rref_invariant_under_invertible_row_operations():
    # t * m has the row space of m whenever t is invertible, and the RREF
    # depends on the row space alone.
    rng = random.Random(5)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 6)
        m = Matrix(
            [
                [F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6 else 0
                 for _ in range(nc)]
                for _ in range(nr)
            ]
        )
        while True:
            t = Matrix([[rng.randint(-3, 3) for _ in range(nr)] for _ in range(nr)])
            if nonsingular(t):
                break
        assert _reduce(_rows(matmul(t, m))) == _reduce(_rows(m))


def test_rref_pivot_list_strictly_increasing():
    rng = random.Random(3)
    for _ in range(20):
        m = Matrix([[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)])
        pivots = [p for p, _ in _reduce(_rows(m))]
        assert all(a < b for a, b in zip(pivots, pivots[1:]))


def test_nullspace_zero_matrix():
    ns = _solve(_rows(zeros(3, 3)), 3)
    assert ns.dim == 3
    assert ns.ambient_dim == 3


def test_nullspace_single_row():
    ns = _solve([{0: F(1), 1: F(1)}], 2)
    assert ns.dim == 1
    assert ns.basis[0] == (F(1), F(-1))


def test_nullspace_vectors_satisfy_system():
    rng = random.Random(1)
    for _ in range(20):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        m = Matrix([[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
        ns = _solve(_rows(m), nc)
        for v in ns.basis:
            assert all(x == 0 for x in apply(m, v))
        assert len(_reduce(_rows(m))) + ns.dim == nc


@pytest.mark.parametrize("rows, ncols", [
    ([{-1: 1}], 3),
    ([{1: 1}], 0),
    ([{0: 1, 5: 1}], 3),
    ([{3: 1}], 3),
    ([{0: 1, -2: 3, 1: 2, 2: -1}], 3),
    ([{0: 2, 1: 1}, {1: 1}, {4: 1}], 3),
])
def test_nullspace_rejects_columns_outside_the_unknowns(rows, ncols):
    with pytest.raises(DimensionMismatch):
        _nullspace(rows, ncols)


def _sparse_system(rng):
    # empty, one-entry, duplicated-and-scaled and fractional rows, with explicit zeros
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.35:
            rows.append({rng.randrange(ncols): F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))})
        elif kind < 0.55 and rows:
            scale = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
            rows.append({c: scale * x for c, x in rng.choice(rows).items()})
        else:
            cols = rng.sample(range(ncols), rng.randint(1, ncols))
            rows.append({c: F(rng.randint(-5, 5), rng.randint(1, 6)) for c in cols})
    return rows, ncols


def _singleton_heavy_system(rng):
    # one-entry rows repeated on a few columns, between longer rows they cut down
    ncols = rng.randint(1, 9)
    hot = rng.sample(range(ncols), rng.randint(1, ncols))
    rows = []
    for _ in range(rng.randint(1, 16)):
        if rng.random() < 0.6:
            rows.append({rng.choice(hot): F(rng.choice((-4, -1, 1, 3)), rng.randint(1, 5))})
        else:
            cols = rng.sample(range(ncols), rng.randint(1, ncols))
            rows.append({c: F(rng.choice((-6, -2, 0, 2, 4, 9)), rng.randint(1, 6)) for c in cols})
    return rows, ncols


def test_reduce_matches_dense_gauss_jordan_for_any_row_order():
    rng = random.Random(13)
    for system in [_sparse_system] * 100 + [_singleton_heavy_system] * 100:
        rows, ncols = system(rng)
        reduced = _reduce(rows)
        assert reduced == gauss_jordan(rows, ncols)
        assert _reduce(integer_scaled(rows)[0]) == reduced
        ordered = [(p, list(row.items())) for p, row in reduced]
        assert all(cols == sorted(cols) for _, cols in ordered)
        for _ in range(3):
            shuffled = rng.sample(rows, len(rows))
            assert [(p, list(row.items())) for p, row in _reduce(shuffled)] == ordered


def test_nullspace_matches_dense_gauss_jordan_for_any_row_order():
    rng = random.Random(29)
    for system in [_sparse_system] * 100 + [_singleton_heavy_system] * 100:
        rows, ncols = system(rng)
        # compared with each row's column order, which Subspace output follows
        expected = [(f, list(row.items())) for f, row in nullspace(rows, ncols)]
        flip = lambda row: {ncols - 1 - c: x for c, x in row.items()}  # noqa: E731
        for order in [rows] + [rng.sample(rows, len(rows)) for _ in range(3)]:
            assert [(f, list(row.items())) for f, row in _solve(order, ncols).rows] == expected
            reduced = _gauss_jordan(map(_integer_row, order))
            assert len(reduced) == len(gauss_jordan(order, ncols))
            assert all(p == max(row) for p, row in reduced.items())
            assert all(c == p or c not in reduced for p, row in reduced.items() for c in row)
            # rescaled, the rows are the RREF for the reversed column order
            assert (sorted((ncols - 1 - p, {c: F(x, row[p]) for c, x in flip(row).items()})
                           for p, row in reduced.items())
                    == [(q, dict(sorted(row.items())))
                        for q, row in gauss_jordan([flip(r) for r in order], ncols)])


def _content_per_step_eliminate(pv, row, v, prow):
    # the kernel's elimination step as it was when every step divided out
    # the row's content: the oracle of the one division per row
    g = math.gcd(pv, v)
    if g > 1:
        pv, v = pv // g, v // g
    new = {c: pv * x for c, x in row.items()}
    for c, x in prow.items():
        y = new.get(c, 0) - v * x
        if y:
            new[c] = y
        else:
            del new[c]
    return _primitive(new)


def _primitive(row):
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _content_per_step_gauss_jordan(rows):
    # ``_gauss_jordan`` with ``_content_per_step_eliminate`` at every step
    reduced = {}
    holders = {}
    for row in sorted(rows, key=len):
        cur = {c: x for c, x in row.items() if x}
        for q in [c for c in cur if c in reduced]:
            prow = reduced[q]
            if len(prow) == 1:
                del cur[q]
            else:
                cur = _content_per_step_eliminate(prow[q], cur, cur[q], prow)
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
            reduced[r] = _content_per_step_eliminate(pv, held, x, cur)
            for c in cur:
                if c not in held:
                    holders.setdefault(c, []).append(r)
        for c in cur:
            if c != p:
                holders.setdefault(c, []).append(p)
        reduced[p] = cur
    return reduced


def _dense_integer_system(rng, rank):
    # 20 x 30 integer rows with entries up to 10^6 in size, of the given rank
    base = [{c: rng.randint(-10 ** 6, 10 ** 6) for c in range(30)} for _ in range(rank)]
    return [sparse_apply(base, {k: rng.randint(-3, 3) for k in range(rank)}) if r >= rank
            else base[r] for r in range(20)]


def test_one_content_division_per_row_matches_division_at_every_step():
    rng = random.Random(31)
    systems = [[_integer_row(row) for row in system(rng)[0]]
               for system in [_sparse_system] * 100 + [_singleton_heavy_system] * 100]
    systems += [_dense_integer_system(rng, rank) for rank in (20, 20, 12, 5)]
    for rows in systems:
        reduced = _gauss_jordan(rows)
        expected = _content_per_step_gauss_jordan(rows)
        assert [(p, list(row.items())) for p, row in reduced.items()] == [
            (p, list(row.items())) for p, row in expected.items()]
        assert all(math.gcd(*row.values()) == 1 for row in reduced.values())
    assert [len(_gauss_jordan(rows)) for rows in systems[-4:]] == [20, 20, 12, 5]


def test_der_g_is_solved_with_one_pass_per_redundant_row(monkeypatch):
    # Benoist(1)'s Der(g) system has 434 rows of rank 108 over 121 unknowns:
    # reduced once against each pivot column it holds, no redundant row
    # drives a chain of eliminations (over 1000 calls with the forward pass)
    calls = []
    eliminate = linalg._eliminate

    def counted(*args):
        calls.append(1)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert derivation_space(make_benoist(1)).flat.dim == 13
    assert len(calls) < 300


def test_sparse_apply_keeps_the_type_of_its_inputs():
    # ints give ints, Fractions give Fractions, and a cancelled entry stays
    # in the result as a zero of that type
    out = sparse_apply([{0: 2, 1: -3}, {1: 3, 2: 5}], {0: 1, 1: 1})
    assert out == {0: 2, 1: 0, 2: 5}
    assert all(type(x) is int for x in out.values())
    out = sparse_apply([{0: F(2, 3), 1: F(-1, 2)}, {1: F(1, 2)}], {0: F(1), 1: F(1)})
    assert out == {0: F(2, 3), 1: 0}
    assert all(type(x) is Fraction for x in out.values())
    acc = {1: 5}
    assert sparse_apply([{}, {1: 2}], {1: -1}, acc) is acc and acc == {1: 3}
    assert sparse_apply([{0: 1}], {}) == {}


def test_integer_scaled_puts_vectors_over_the_lcm_of_their_denominators():
    vecs = [{0: F(1, 6), 2: F(-3, 4)}, {}, {1: F(5)}]
    ints, den = integer_scaled(vecs)
    assert den == 12 and ints == [{0: 2, 2: -9}, {}, {1: 60}]
    assert all(type(x) is int for v in ints for x in v.values())
    assert [unscaled(v, den) for v in ints] == vecs
    assert integer_scaled(iter([])) == ([], 1)
    assert integer_scaled([{3: F(-2)}]) == ([{3: -2}], 1)
    half = unscaled({0: 0, 1: 6}, 4)
    assert half == {1: F(3, 2)} and type(half[1]) is Fraction


def test_invert_diagonal():
    m = Matrix.diagonal([1, 2, 3, 4])
    assert _inverse(m) == Matrix.diagonal([F(1), F(1, 2), F(1, 3), F(1, 4)])


def test_invert_identity():
    assert _inverse(identity(5)) == identity(5)


def test_invert_singular_ad_of_nilpotent():
    l4 = make_ln(4)
    ad1 = ad(l4, unit_vector(4, 0))
    assert _inverse(ad1) is None


def test_invert_round_trip_random():
    # m m^-1 = m^-1 m = I, and the kernel finds no inverse exactly when
    # rank m < n; small entries make about a third of the matrices singular
    rng = random.Random(2)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        m = Matrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
        if rank(m) < n:
            singular += 1
            assert not nonsingular(m)
            assert _inverse(m) is None
            continue
        assert nonsingular(m)
        inv = _inverse(m)
        assert matmul(inv, m) == identity(n)
        assert matmul(m, inv) == identity(n)
    assert 0 < singular < 60


def _transpose(m):
    return Matrix([[m[i, j] for i in range(m.rows)] for j in range(m.cols)], m.cols, m.rows)


def test_rank_equals_rank_of_transpose():
    # rank reduces the columns; the rows (_reduce, _nullspace) must agree
    rng = random.Random(31)
    for _ in range(60):
        rows, cols, inner = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 4)
        a = Matrix([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)], rows, inner)
        b = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)]
                    for _ in range(inner)], inner, cols)
        m = matmul(a, b)
        r = rank(m)
        assert r <= min(rows, cols, inner)
        assert r == rank(_transpose(m)) == len(_reduce(_rows(m)))
        assert _solve(_rows(m), cols).dim == cols - r


def test_monomial_rank_matches_the_kernel_rank():
    # seeded partial permutations with scaled entries: at most one entry per
    # column, zero columns and several columns on one row among them
    rng = random.Random(39)
    monomial = 0
    for _ in range(200):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        columns = [{rng.randrange(rows): F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 7)))}
                   if rows and rng.random() < 0.7 else {} for _ in range(cols)]
        m = Matrix.from_sparse(rows, columns)
        assert linalg._monomial_rows(m) == [next(iter(col), None) for col in columns]
        assert rank(m) == len(_gauss_jordan(integer_scaled(m.columns)[0]))
        assert "integer_columns" not in vars(m)
        monomial += 0 < rank(m) < min(rows, cols)
    assert monomial > 20


def test_from_sparse_drops_explicit_zeros():
    dense = Matrix([[0, 0, 5], [F(1, 2), 0, 0]])
    sparse = Matrix.from_sparse(2, [{0: F(0), 1: F(1, 2)}, {1: F(0)}, {0: F(5)}])
    assert sparse.columns == dense.columns == ({1: F(1, 2)}, {}, {0: F(5)})
    assert sparse == dense and hash(sparse) == hash(dense)
    assert sparse.data == ((0, 0, 5), (F(1, 2), 0, 0))
    # entries that cancel in a sum leave no zeros behind either
    assert add(dense, scaled(dense, -1)).columns == ({}, {}, {})
    assert add(dense, scaled(dense, -1)) == zeros(2, 3) == Matrix.from_sparse(2, [{}] * 3)
    assert hash(add(dense, scaled(dense, -1))) == hash(Matrix([[0] * 3] * 2))
    assert Matrix.from_sparse(3, []) == zeros(3, 0)


def test_is_nilpotent_strict_upper_triangular():
    m = Matrix(
        [
            [0, 1, 2, 3],
            [0, 0, 4, 5],
            [0, 0, 0, 6],
            [0, 0, 0, 0],
        ]
    )
    assert is_nilpotent(m)


def test_is_nilpotent_identity_is_not():
    assert not is_nilpotent(identity(3))


def test_is_nilpotent_ad_on_l4():
    # ad(Y1) shifts Y2 -> Y3 -> Y4 -> 0, so its cube vanishes.
    l4 = make_ln(4)
    ad1 = ad(l4, unit_vector(4, 0))
    assert is_nilpotent(ad1)
    p = matmul(ad1, ad1)
    assert p != zeros(4, 4)
    assert matmul(p, ad1) == zeros(4, 4)


def _char_poly_coeffs(m):
    # Faddeev-LeVerrier: x^n + c1 x^(n-1) + ... + cn, exact over Fraction.
    n = m.rows
    coeffs = []
    acc = identity(n)
    for k in range(1, n + 1):
        acc = matmul(m, acc)
        ck = -sum((acc[i, i] for i in range(n)), F(0)) / k
        coeffs.append(ck)
        acc = add(acc, scaled(identity(n), ck))
    return coeffs


def test_is_nilpotent_matches_char_poly_oracle():
    # Oracle: nilpotent iff the characteristic polynomial is x^n, i.e. all
    # n trailing coefficients vanish, and nonsingular iff its constant
    # term (-1)^n det m is nonzero. Mix random dense matrices (almost
    # never nilpotent, almost always nonsingular), rank-deficient products
    # (always singular) and conjugated strictly-triangular ones (always
    # nilpotent).
    rng = random.Random(4)
    cases = []
    for _ in range(60):
        cases.append(Matrix([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]))
    for _ in range(20):
        upper = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                upper[i][j] = rng.randint(-3, 3)
        nil = Matrix(upper)
        while True:
            t = Matrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
            if nonsingular(t):
                break
        cases.append(matmul(matmul(t, nil), invert(t)))
    for _ in range(20):
        r = rng.randint(1, 3)
        tall = Matrix([[rng.randint(-3, 3) for _ in range(r)] for _ in range(4)])
        wide = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
                       for _ in range(r)])
        cases.append(matmul(tall, wide))
    for m in cases:
        coeffs = _char_poly_coeffs(m)
        assert is_nilpotent(m) == all(c == 0 for c in coeffs)
        assert nonsingular(m) == (coeffs[-1] != 0)
    assert {nonsingular(m) for m in cases} == {True, False}
    assert {is_nilpotent(m) for m in cases} == {True, False}


def _conjugated(maps, rng):
    # t m t^-1 for one seeded invertible integer t shared by all maps
    n = maps[0].rows
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if nonsingular(t):
            break
    tinv = invert(t)
    return [matmul(matmul(t, m), tinv) for m in maps]


def _all_products_vanish(maps):
    # Brute force: n x n maps whose products of length n all vanish
    # generate a nilpotent algebra, and a nonzero product of length n
    # survives at every length (the image chain has at most n strict steps).
    level = set(maps)
    for _ in range(maps[0].rows - 1):
        level = {matmul(a, b) for a in level for b in maps}
    return all(p == zeros(p.rows, p.cols) for p in level)


def test_products_vanish_matches_brute_force_products():
    rng = random.Random(17)
    n = 4
    cases = []
    for _ in range(8):
        lower = [Matrix([[rng.randint(-3, 3) if j < i else 0 for j in range(n)]
                         for i in range(n)]) for _ in range(3)]
        eigen = Matrix([[rng.randint(-3, 3) if j < i else 0 for j in range(n)]
                        for i in range(n)])
        eigen = add(eigen, Matrix.diagonal([0, 0, rng.choice((-2, -1, 1, 2)), 0]))
        cases.append((_conjugated(lower, rng), True))
        cases.append((_conjugated(lower + [eigen], rng), False))
    # each map is nilpotent, but E12 E21 is an idempotent
    e12 = Matrix([[0, 1], [0, 0]])
    cases.append(([e12, Matrix([[0, 0], [1, 0]])], False))
    cases.append(([e12], True))
    for maps, expected in cases:
        assert _all_products_vanish(maps) == expected
        assert products_vanish([m.columns for m in maps]) == expected
    assert {expected for _, expected in cases} == {True, False}


def test_strictly_lower_triangular_maps_skip_the_image_chain(monkeypatch):
    image_chain = linalg._image_chain
    reached = []

    def refused(*args):
        raise AssertionError("the image chain ran")

    def spied(*args):
        reached.append(1)
        return image_chain(*args)

    rng = random.Random(23)
    lower = [Matrix([[rng.randint(-3, 3) if j < i else 0 for j in range(5)]
                     for i in range(5)]) for _ in range(3)]
    monkeypatch.setattr(linalg, "_image_chain", refused)
    assert products_vanish([m.columns for m in lower])
    assert products_vanish([zeros(3, 3).columns])
    monkeypatch.setattr(linalg, "_image_chain", spied)
    e12, e21 = Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])
    assert not products_vanish([e21.columns, e12.columns])
    assert len(reached) == 1
    upper = [Matrix([[m[j, i] for j in range(5)] for i in range(5)]) for m in lower]
    assert products_vanish([m.columns for m in upper])
    assert len(reached) == 2


def _fraction_image_chain(maps, rows):
    """The image chain on textbook dense Fraction RREF rows, independent of the kernel.

    The oracle of the integer chain: the same W_k, in canonical form.
    """
    n = len(maps[0])
    chain = [rows]
    while chain[-1]:
        nxt = gauss_jordan([sparse_apply(cols, w) for cols in maps for _, w in chain[-1]], n)
        if len(nxt) == len(chain[-1]):
            break
        chain.append(nxt)
    return chain


def _fraction_products_vanish(maps):
    rows = gauss_jordan([col for cols in maps for col in cols], len(maps[0]))
    return not _fraction_image_chain(maps, rows)[-1]


def _count_only_matrices(rng, n, entry):
    """(singular, nonsingular, strictly triangular, conjugated nilpotent) seeded sparse n x n maps."""
    def sparse(rows_of, density):
        return Matrix.from_sparse(n, [{r: entry() for r in rows_of(j) if rng.random() < density}
                                      for j in range(n)])

    lower = add(sparse(lambda j: range(j + 1, n), 0.5), identity(n))
    upper = add(sparse(lambda j: range(j), 0.5), Matrix.diagonal([entry() for _ in range(n)]))
    strict = sparse(lambda j: range(j), 0.6)
    dense = sparse(lambda j: range(n), 0.5)
    cols = list(dense.columns)
    cols[-1] = sparse_apply(cols[:2], {0: entry(), 1: entry()}) if n > 1 else {}
    return [Matrix.from_sparse(n, cols), matmul(lower, upper), strict,
            matmul(matmul(lower, strict), invert(lower))]


def test_count_only_callers_match_full_reduction():
    rng = random.Random(31)
    integer = lambda: F(rng.choice((-3, -2, -1, 1, 2, 5)))  # noqa: E731
    rational = lambda: F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 7))  # noqa: E731
    seen = set()
    for n in (1, 2, 5, 9):
        for entry in (integer, rational):
            maps = _count_only_matrices(rng, n, entry)
            for m in maps:
                full = len(gauss_jordan(m.columns, n))
                assert rank(m) == full
                assert nonsingular(m) == (full == n)
                assert is_nilpotent(m) == _fraction_products_vanish([m.columns])
                seen.add((nonsingular(m), is_nilpotent(m)))
            for a in maps:
                for b in maps:
                    pair = [a.columns, b.columns]
                    assert products_vanish(pair) == _fraction_products_vanish(pair)
    # singular and nonsingular maps, nilpotent ones among the singular
    assert seen == {(False, False), (True, False), (False, True)}


def test_products_vanish_matches_full_chain_on_der_g():
    for alg, nil in ((make_benoist(1), True), (make_cn(8, [1, -1])[0], False)):
        n = alg.dim
        space = derivation_space(alg)
        maps = [_flat_columns(row.items(), n) for _, row in space.flat.rows]
        assert products_vanish(maps) == _fraction_products_vanish(maps) == nil
        assert space.all_nilpotent == nil
        for m in space.basis:
            full = len(gauss_jordan(m.columns, n))
            assert rank(m) == full
            assert nonsingular(m) == (full == n)
            assert is_nilpotent(m) == _fraction_products_vanish([m.columns])


def _series_text(series):
    return ";".join("|".join(f"{p}:" + ",".join(f"{c}={x}" for c, x in row.items())
                             for p, row in term.rows) for term in series)


@pytest.mark.parametrize("alg, digest", [
    (make_ln(12), "11701cad5ec158df13b8886e40eb5eb1f563e3c64dae8d4a62aefec0bbf3bc31"),
    (make_qn(10), "70391d26d4a288d9d3a3b28022be3650953b4b1f535873bd3edf3ca4af3ee8d8"),
    (make_benoist(1), "dd7a9ae4b977964d72dee750d1f8f1dd52d765adeab9f5a93001948b7222022d"),
], ids=["L12", "Q10", "Benoist1"])
def test_lower_central_series_rows_are_pinned(alg, digest):
    n = alg.dim
    series = lower_central_series(alg)
    ad_table = [[bracket_basis(alg, i, q) for q in range(n)] for i in range(n)]
    oracle = _fraction_image_chain(ad_table, [(i, {i: F(1)}) for i in range(n)])
    assert [term.rows for term in series] == [tuple(rows) for rows in oracle]
    assert all(type(x) is Fraction for term in series for _, row in term.rows
               for x in row.values())
    assert hashlib.sha256(_series_text(series).encode()).hexdigest() == digest


def test_nonsingular_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        nonsingular(Matrix([[1, 0, 0], [0, 1, 0]]))


def test_span_collapses_duplicates():
    s = Subspace(2, _reduce([{0: F(1)}, {0: F(1)}]))
    assert s.dim == 1
    assert s.basis[0] == (F(1), F(0))


def test_span_l4_bracket_images():
    # The only nonzero brackets of L4 are Y3 and Y4.
    l4 = make_ln(4)
    images = [
        bracket(l4, unit_vector(4, i), unit_vector(4, j))
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    s = Subspace(4, _reduce(dict(enumerate(v)) for v in images))
    assert s.dim == 2
    assert s.basis == (unit_vector(4, 2), unit_vector(4, 3))


def _fraction_coordinates(rows, v):
    # the full Fraction residual over every column: the oracle of the non-pivot check
    coords = {k: v[p] for k, (p, _) in enumerate(rows) if v.get(p)}
    residual = sparse_apply([row for _, row in rows], {k: -c for k, c in coords.items()}, dict(v))
    return None if any(residual.values()) else coords


def test_coordinates_match_full_residual_oracle():
    rng = random.Random(41)
    inside = outside = 0
    for system in [_sparse_system] * 60 + [_singleton_heavy_system] * 60:
        rows, ncols = system(rng)
        reduced = _reduce(rows)
        for _ in range(4):
            # a seeded combination of the rows, with explicit zeros, then
            # perhaps moved off the span by one entry
            draw = {k: F(rng.randint(-4, 4), rng.randint(1, 5)) for k in range(len(reduced))}
            v = sparse_apply([row for _, row in reduced], draw)
            v.setdefault(rng.randrange(ncols), F(0))
            if rng.random() < 0.5:
                c = rng.randrange(ncols)
                v[c] = v.get(c, F(0)) + F(rng.choice((-3, 1, 2)), rng.randint(1, 3))
            coords = _coordinates(reduced, v)
            assert coords == _fraction_coordinates(reduced, v)
            if coords is None:
                outside += 1
            else:
                inside += 1
                assert list(coords) == sorted(coords) and all(coords.values())
    assert inside > 300 and outside > 80


def test_subspace_coordinates_and_membership():
    rows = _reduce([{0: F(1), 2: F(2)}, {1: F(1), 2: F(-1)}])
    assert _coordinates(rows, {0: F(1), 1: F(1), 2: F(1)}) == {0: F(1), 1: F(1)}
    assert _coordinates(rows, {2: F(1)}) is None


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_matrix_immutable_and_exact_equality():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5
    assert m == Matrix([["1", "2"], ["3", "4"]])
    assert m != Matrix([[1, 2], [3, 5]])


# the six value types, each by a builder of one instance
_VALUE_TYPES = {
    "Matrix": lambda: Matrix([[1, 2], [3, 4]]),
    "Subspace": lambda: derived_subalgebra(make_ln(6)),
    "LieAlgebra": lambda: make_ln(6),
    "TwoForm": lambda: TwoForm.from_entries(2, {(0, 1): 1}),
    "AffineStructure": lambda: AffineStructure(2, {(0, 0): {1: 1}}),
    "DerivationSpace": lambda: derivation_space(make_ln(6)),
}


@pytest.mark.parametrize("name", sorted(_VALUE_TYPES))
def test_value_types_refuse_every_attribute(name):
    value = _VALUE_TYPES[name]()
    assert type(value).__name__ == name
    # every stored field, a kept view's name and a new name alike
    for attr in (*type(value).__slots__, "integer_rows", "new_field"):
        with pytest.raises(AttributeError) as caught:
            setattr(value, attr, None)
        assert str(caught.value) == f"{name} is immutable"


@pytest.mark.parametrize("space", [
    lambda: derivation_space(make_ln(8)).flat,
    lambda: derived_subalgebra(make_benoist(1)),
    lambda: Subspace(4, []),
], ids=["der-L8", "benoist-derived", "zero"])
def test_subspace_keeps_its_integer_rows(space):
    space = space()
    rows = space.integer_rows
    assert space.integer_rows is rows
    assert rows == integer_scaled(row for _, row in space.rows)


def test_derived_regular_synthesis_scales_the_derived_subalgebra_once(monkeypatch):
    # with no weight candidates the witness is a dense seeded draw, which
    # the kernel restricts to [g, g]; a diagonal one takes the closed form
    for module in (derivations, affine):
        monkeypatch.setattr(module, "_weight_candidates", lambda weights: iter(()))
    alg = make_cn(8, [1, -1])[0]
    witness = synthesize(alg, "derived-regular")[1].witnesses["derivation"]
    assert linalg._monomial_rows(witness) is None
    assert "integer_rows" in derived_subalgebra(alg).__dict__


@pytest.mark.parametrize("denominators", [(1,), (1, 2, 3, 7, 2000)], ids=["int", "rational"])
def test_integer_inverse_matches_dense_fraction_oracle(denominators):
    # seeded square matrices from 0 x 0 up; entries in -2..2 make a good
    # share of them singular
    rng = random.Random(len(denominators))
    singular = 0
    for trial in range(150):
        n = trial % 7
        grid = [[F(rng.randint(-2, 2), rng.choice(denominators)) if rng.random() < 0.6 else 0
                 for _ in range(n)] for _ in range(n)]
        m = Matrix(grid, n, n)
        expected = inverse(grid)
        found = _integer_inverse(*integer_scaled(m.columns))
        if expected is None:
            singular += 1
            assert found is None
            continue
        columns, den = found
        assert den > 0 and len(columns) == n
        assert all(type(x) is int for col in columns for x in col.values())
        fractions = [unscaled(col, den) for col in columns]
        assert fractions == list(Matrix(expected, n, n).columns)
        assert all(type(x) is F and x for col in fractions for x in col.values())
    assert 10 < singular < 140


def test_empty_matrix_conventions():
    empty = zeros(0, 0)
    assert nonsingular(empty)
    assert _inverse(empty) == empty
    assert is_nilpotent(empty)
