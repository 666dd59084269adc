"""Exact linear algebra kernel tests.

The derivation systems here come from ``tests/dense.py``'s
``derivation_equations`` (not via the derivations module), so they can
serve as oracles for rank/nullity claims used elsewhere.
"""

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lieaffine import affine, derivations, linalg
from lieaffine.affine import AffineStructure, synthesize
from lieaffine.catalog import fill_aij, make_ank, make_benoist, make_bnk, make_cn, make_ln, make_qn
from lieaffine.derivations import char_nilpotent_verdict, derivation_space, find_regular_derivation
from lieaffine.errors import DimensionMismatch, SchemaError
from lieaffine.serialize import (
    affine_from_json,
    affine_to_json,
    algebra_from_json,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
    twoform_from_json,
    twoform_to_json,
)
from lieaffine.liealg import LieAlgebra, TwoForm, derived_subalgebra, lower_central_series
from lieaffine.linalg import (
    Matrix,
    Subspace,
    _coordinates,
    _flat_columns,
    _gauss_jordan,
    _integer_inverse,
    _nullspace,
    _reduce,
    _set_fields,
    _violations,
    integer_scaled,
    is_nilpotent,
    nonsingular,
    products_vanish,
    rank,
    rat,
    sparse_apply,
    unscaled,
)

import dense
from dense import (
    ad,
    add,
    bracket,
    fraction_columns,
    from_fraction_columns,
    gauss_jordan,
    identity,
    integer_form,
    integer_row,
    inverse,
    invert,
    matmul,
    nullspace,
    scaled,
    solutions,
    unit_vector,
    zeros,
)

F = Fraction


def _rows(grid):
    # dense rows as sparse integer dicts, the kernel's input
    return [integer_row(dict(enumerate(row))) for row in grid]


def _times(t, grid):
    # the dense rows of t grid, for the n x n Matrix t and n dense rows
    return [[sum((a * row[j] for a, row in zip(trow, grid)), F(0)) for j in range(len(grid[0]))]
            for trow in t.data]


def _solve(rows, ncols):
    # the kernel's homogeneous solve of rational rows
    return _nullspace(map(integer_row, rows), ncols)


def _inverse(m):
    # the kernel's inverse of m, its int columns adopted over their den, or None when m is singular
    found = _integer_inverse(m.columns, m.den)
    return None if found is None else Matrix.from_sparse(*found)


def test_rref_identity():
    assert _reduce(_rows(identity(3).data), 3) == Subspace(3, [(i, {i: 1}) for i in range(3)])


def test_rref_rank_one_duplicate_row():
    assert _reduce(_rows([[1, 2], [2, 4]]), 2) == Subspace(2, [(0, {0: 1, 1: 2})])


def test_rref_l4_derivation_system_rank():
    # Free parameters of a derivation of L4: d11, d21, d31, d41, d22, d32,
    # d42 (with d12 forced to 0 and the images of e3, e4 determined), so
    # the 16-unknown system has rank 9 and nullity 7.
    rows = [integer_row(row) for row in dense.derivation_equations(make_ln(4))]
    assert _reduce(rows, 16).dim == 9
    assert _solve(rows, 16).dim == 7


def test_rref_idempotent_on_random_rationals():
    rng = random.Random(0)
    for _ in range(25):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = [[F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(nc)] for _ in range(nr)]
        reduced = _reduce(_rows(m), nc)
        assert _reduce((row for _, row in reduced.rows), nc) == reduced


def test_rref_invariant_under_invertible_row_operations():
    # t * m has the row space of m whenever t is invertible, and the RREF
    # depends on the row space alone.
    rng = random.Random(5)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 6)
        m = [[F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6 else 0
              for _ in range(nc)] for _ in range(nr)]
        while True:
            t = Matrix([[rng.randint(-3, 3) for _ in range(nr)] for _ in range(nr)])
            if nonsingular(t):
                break
        assert _reduce(_rows(_times(t, m)), nc) == _reduce(_rows(m), nc)


def test_rref_pivot_list_strictly_increasing():
    rng = random.Random(3)
    for _ in range(20):
        m = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
        pivots = [p for p, _ in _reduce(_rows(m), 6).rows]
        assert all(a < b for a, b in zip(pivots, pivots[1:]))


def test_nullspace_zero_matrix():
    ns = _solve(_rows(zeros(3).data), 3)
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
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        ns = _solve(_rows(m), nc)
        for v in ns.basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
        assert _reduce(_rows(m), nc).dim + ns.dim == nc


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
        reduced = _reduce(map(integer_row, rows), ncols)
        assert reduced == Subspace(ncols, *integer_form(gauss_jordan(rows, ncols)))
        assert _reduce(integer_scaled(rows)[0], ncols) == reduced
        ordered = [(p, list(row.items())) for p, row in reduced.rows]
        assert all(cols == sorted(cols) for _, cols in ordered)
        for _ in range(3):
            shuffled = _reduce(map(integer_row, rng.sample(rows, len(rows))), ncols)
            assert [(p, list(row.items())) for p, row in shuffled.rows] == ordered


def test_nullspace_matches_dense_gauss_jordan_for_any_row_order():
    rng = random.Random(29)
    for system in [_sparse_system] * 100 + [_singleton_heavy_system] * 100:
        rows, ncols = system(rng)
        # compared with each row's column order, which Subspace output follows
        oracle = nullspace(rows, ncols)
        expected = [(f, list(row.items())) for f, row in oracle.rows]
        flip = lambda row: {ncols - 1 - c: x for c, x in row.items()}  # noqa: E731
        for order in [rows] + [rng.sample(rows, len(rows)) for _ in range(3)]:
            solved = _solve(order, ncols)
            assert [(f, list(row.items())) for f, row in solved.rows] == expected
            assert solved.den == oracle.den
            reduced = _gauss_jordan(map(integer_row, order))
            assert len(reduced) == len(gauss_jordan(order, ncols))
            assert all(p == max(row) for p, row in reduced.items())
            assert all(c == p or c not in reduced for p, row in reduced.items() for c in row)
            # rescaled, the rows are the RREF for the reversed column order
            assert (sorted((ncols - 1 - p, {c: F(x, row[p]) for c, x in flip(row).items()})
                           for p, row in reduced.items())
                    == [(q, dict(sorted(row.items())))
                        for q, row in gauss_jordan([flip(r) for r in order], ncols)])


def _weight_rows(alg):
    # w_i + w_j = w_k for each structure constant on ((i, j), k), as integer rows
    rows = []
    for (i, j), coeffs in alg.structure.items():
        for k in coeffs:
            row = {i: 1, j: 1}
            row[k] = row.get(k, 0) - 1
            rows.append(row)
    return rows


# T of tests/half_weights.json: its weight space has RREF denominator 2
_HALF_WEIGHTS = algebra_from_json(json.loads(
    Path(__file__).with_name("half_weights.json").read_text(encoding="utf-8")))
# two Heisenberg algebras sharing the centre 2 e3 + e6: [g, g] has RREF row e3 + e6 / 2
_SHARED_HALF_CENTRE = LieAlgebra(6, {(0, 1): {2: 2, 5: 1}, (3, 4): {2: 2, 5: 1}})


def _assert_dense_rref_over_lcm(space, fraction_rref, ncols):
    # the Fraction RREF scaled by the lcm of its denominators, rows and their
    # column order included, and a Subspace equal to that form hashes equal
    den = math.lcm(*(F(x).denominator for _, row in fraction_rref for x in row.values()))
    assert space.den == den and space.ambient_dim == ncols
    assert [(p, list(row.items())) for p, row in space.rows] == [
        (p, [(c, int(F(x) * den)) for c, x in sorted(row.items())]) for p, row in fraction_rref]
    oracle = Subspace(ncols, *integer_form(fraction_rref))
    assert space == oracle and hash(space) == hash(oracle)


def test_kernel_subspaces_are_the_dense_rref_over_its_lcm_denominator():
    # _reduce and _nullspace against the dense Fraction RREF scaled by the
    # lcm of its denominators, for any row order, on seeded rational
    # systems and on the weight equations of T, whose den is 2
    rng = random.Random(43)
    systems = [(_weight_rows(_HALF_WEIGHTS), 4)]
    systems += [system(rng) for system in [_sparse_system] * 80 + [_singleton_heavy_system] * 80]
    dens = []
    for rows, ncols in systems:
        spans, solved = [], []
        for order in [rows] + [rng.sample(rows, len(rows)) for _ in range(3)]:
            spans.append(_reduce(map(integer_row, order), ncols))
            solved.append(_nullspace(map(integer_row, order), ncols))
            _assert_dense_rref_over_lcm(spans[-1], gauss_jordan(rows, ncols), ncols)
            _assert_dense_rref_over_lcm(solved[-1], solutions(rows, ncols), ncols)
        assert len({*spans}) == len({*solved}) == 1
        # the kernel's rows span the same space again, over the same den
        assert _reduce((row for _, row in solved[0].rows), ncols) == solved[0]
        dens += [spans[0].den, solved[0].den]
    assert _nullspace(_weight_rows(_HALF_WEIGHTS), 4).den == 2
    assert sum(d > 1 for d in dens) > 100


def _kernel_exits(alg):
    # the kernel on a table's integer systems: the Der(g) builder's rows, on
    # D e1 and D e2 where the table is Lie and filtered and on the whole
    # basis elsewhere, and the weights by _nullspace, [g, g] by _reduce, the
    # coordinates of the brackets and of each e_j on [g, g], the image
    # chains of Der(g) and of ad, and Der(g) of a fresh space
    n = alg.dim
    der_rows, _, (_, _, gens) = derivations._generator_system(alg)
    brackets = list(alg.structure.values())
    ad_columns = alg.ad_columns
    solutions = _nullspace(der_rows, n * gens)
    weights = _nullspace(_weight_rows(alg), n)
    derived = _reduce(brackets, n)
    coords = [_coordinates(derived, v) for v in brackets + [{j: 1} for j in range(n)]]
    space = derivations.DerivationSpace(alg)
    maps = [_flat_columns(row.items(), n) for _, row in space.flat.rows]
    return (solutions, weights, derived, coords, products_vanish(maps),
            products_vanish(ad_columns), space.flat, space.all_nilpotent)


def test_no_fraction_is_formed_inside_the_kernel(monkeypatch):
    # with linalg.Fraction and derivations.Fraction patched to raise, every
    # entry-to-exit run of the kernel on catalog systems, rational ones
    # among them, and every search over Der(g) gives what it gives unpatched
    algs = [make_ln(8), make_qn(8), make_cn(8, [F(2, 3), F(1, 2)])[0], make_benoist(1),
            _HALF_WEIGHTS, _SHARED_HALF_CENTRE]
    expected = [_kernel_exits(alg) for alg in algs]
    assert any(space.den > 1 for exits in expected for space in exits[:3])

    def no_fraction(*args):
        raise AssertionError("a Fraction was formed inside the kernel")

    searched = _search_exits(*_search_algebras())
    # C8's weight pass misses, so its witness is a seeded draw over Der(g)
    assert searched[0].monomial is None and searched[1].witness is not None
    fresh = _search_algebras()
    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    monkeypatch.setattr(derivations, "Fraction", no_fraction)
    assert [_kernel_exits(alg) for alg in algs] == expected
    assert _search_exits(*fresh) == searched


def _search_algebras():
    return make_cn(8, [1, 1])[0], make_ln(8), make_benoist(1)


def _search_exits(c8, l8, benoist):
    # the searches over Der(g) on fresh tables, whose maps are adopted as
    # kernel integers: C8's regular search (the weight pass, then the draws
    # and a kernel ``nonsingular``), L8's char-nilp verdict and the Der(g)
    # basis of Benoist(1)
    return (find_regular_derivation(c8), char_nilpotent_verdict(l8),
            derivation_space(benoist).basis)


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
    systems = [[integer_row(row) for row in system(rng)[0]]
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


def test_violations_drop_sums_that_cancel():
    # sparse_apply keeps cancelled entries as explicit zeros
    cancelled = sparse_apply([{0: 2, 2: 3}, {0: -1, 2: -1}], {0: 1, 1: 2})
    assert cancelled == {0: 0, 2: 1}
    cancelled = sparse_apply([{2: -1}], {0: 1}, cancelled)
    assert cancelled == {0: 0, 2: 0}
    assert _violations({(0, 1): cancelled, (1, 2): {}}, 5, 3) == []
    assert _violations({(0, 1): cancelled, (1, 2): {1: 0, 2: -10}}, 4, 3) == [
        (1, 2, (F(0), F(0), F(-5, 2)))]


def test_violations_are_exact_residuals_in_ascending_key_order():
    rng = random.Random(48)
    n, den = 5, 12
    sums = {}
    for key in itertools.product(range(n), repeat=3):
        sums[key] = {k: rng.choice((0, rng.randint(-40, 40))) for k in rng.sample(range(n), 3)}
    expected = []
    for key in sorted(sums):
        residual = tuple(F(sums[key].get(k, 0), den) for k in range(n))
        if any(residual):
            expected.append((*key, residual))
    assert 0 < len(expected) < len(sums)
    items = list(sums.items())
    for _ in range(3):
        rng.shuffle(items)
        report = _violations(dict(items), den, n)
        assert report == expected
        assert [entry[:3] for entry in report] == sorted(entry[:3] for entry in report)
    for *_, residual in report:
        assert len(residual) == n and all(type(x) is Fraction for x in residual)
        assert all(math.gcd(x.numerator, x.denominator) == 1 for x in residual)


def test_violations_of_no_sums_is_empty():
    assert _violations({}, 1, 4) == []
    assert _violations({}, 7, 0) == []


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
    return Matrix([[m[i, j] for i in range(m.dim)] for j in range(m.dim)])


def test_rank_equals_rank_of_transpose():
    # rank reduces the columns; the rows (_reduce, _nullspace) must agree.
    # a has its columns past ``inner`` zero, so rank(a b) <= inner
    rng = random.Random(31)
    for _ in range(60):
        n, inner = rng.randint(0, 6), rng.randint(0, 4)
        a = Matrix([[rng.randint(-3, 3) if k < inner else 0 for k in range(n)] for _ in range(n)])
        b = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)])
        m = matmul(a, b)
        r = rank(m)
        assert r <= min(n, inner)
        assert r == rank(_transpose(m)) == _reduce(_rows(m.data), n).dim
        assert _solve(_rows(m.data), n).dim == n - r


def test_monomial_rank_matches_the_kernel_rank(monkeypatch):
    # seeded partial permutations with scaled entries: at most one entry per
    # column, zero columns and several columns on one row among them; the
    # rank of each fresh map is read off its entries with the elimination
    # kernel refused, then checked against the kernel's row count
    def no_kernel(rows):
        raise AssertionError("the elimination kernel ran")

    rng = random.Random(39)
    monomial = 0
    for _ in range(200):
        n = rng.randint(0, 7)
        columns = [{rng.randrange(n): F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 7)))}
                   if rng.random() < 0.7 else {} for _ in range(n)]
        m = from_fraction_columns(columns)
        assert m.monomial == tuple(next(iter(col), None) for col in columns)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_gauss_jordan", no_kernel)
            r = rank(m)
        assert r == len(_gauss_jordan(m.columns))
        monomial += 0 < r < n
    assert monomial > 20


def _canonical(m):
    # one form: int entries with no stored zero, den > 0, gcd(den, every entry) = 1
    entries = [x for col in m.columns for x in col.values()]
    return (type(m.den) is int and m.den > 0 and all(type(x) is int and x for x in entries)
            and math.gcd(m.den, *entries) == 1)


def test_matrix_holds_one_canonical_form():
    # the same seeded rational maps built from dense rows, from integer
    # columns (explicit zeros included) over a den that shares a common
    # factor k with them and, when diagonal, from their diagonal: equal
    # fields whatever the builder, so equal maps and equal hashes
    assert Matrix.__slots__ == ("dim", "columns", "den", "__dict__")
    rng = random.Random(47)
    diagonals = 0
    for trial in range(120):
        n, diagonal = trial % 6, trial % 4 == 0
        grid = [[F(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6)))
                 if (i == j or not diagonal) and rng.random() < 0.7 else F(0)
                 for j in range(n)] for i in range(n)]
        den = math.lcm(*(x.denominator for row in grid for x in row))
        for k in (1, 2, 6):
            columns = [{i: int(grid[i][j] * den * k) for i in range(n)} for j in range(n)]
            maps = [Matrix(grid), Matrix.from_sparse(columns, den * k)]
            if diagonal:
                maps.append(Matrix.diagonal(grid[i][i] for i in range(n)))
            for m in maps:
                assert m == maps[0] and hash(m) == hash(maps[0]) and _canonical(m)
                assert (m.den, m.columns) == (maps[0].den, maps[0].columns)
                assert m.data == tuple(map(tuple, grid)) and m.dim == n
                assert all(m[i, j] == grid[i][j] for i in range(n) for j in range(n))
        diagonals += diagonal and den > 1
    assert diagonals > 5
    full = Matrix([[0, 0, 5], [F(1, 2), 0, 0], [0, 0, 0]])
    sparse = Matrix.from_sparse([{0: 0, 1: 3}, {1: 0}, {0: 30}], 6)
    assert (sparse.columns, sparse.den) == (full.columns, full.den) == (({1: 1}, {}, {0: 10}), 2)
    assert sparse == full and hash(sparse) == hash(full)
    assert sparse.data == ((0, 0, 5), (F(1, 2), 0, 0), (0, 0, 0))
    # entries that cancel in a sum leave no zeros behind, and the zero map has den 1
    cancelled = add(full, scaled(full, -1))
    assert cancelled.columns == ({}, {}, {}) and cancelled.den == 1
    assert cancelled == zeros(3) == Matrix.from_sparse([{0: 0}, {}, {2: 0}], 5)
    assert Matrix.from_sparse([{}] * 3, 5).den == zeros(3).den == 1
    assert hash(cancelled) == hash(Matrix([[0] * 3] * 3))
    assert Matrix.from_sparse([], 4) == zeros(0) == Matrix([])
    assert Matrix([]).den == Matrix.from_sparse([], 4).den == 1


@pytest.mark.parametrize("data", [["12", "34"], ("12", "34"), [[1, 2], "34"], ["1"]])
def test_matrix_rejects_a_row_that_is_a_string(data):
    # a string's characters would otherwise read as the row's entries
    with pytest.raises(TypeError, match="string"):
        Matrix(data)


def test_matrix_reads_string_entries_inside_list_rows():
    assert Matrix([["1", "2"], ["3/6", "0"]]) == Matrix([[1, 2], [F(1, 2), 0]])
    assert Matrix((("1", "-2"), ("0", "4"))).data == ((1, -2), (0, 4))


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
    assert p != zeros(4)
    assert matmul(p, ad1) == zeros(4)


def _char_poly_coeffs(m):
    # Faddeev-LeVerrier: x^n + c1 x^(n-1) + ... + cn, exact over Fraction.
    n = m.dim
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
        # 4 x 4 factors whose columns, then rows, past r are zero: rank <= r < 4
        r = rng.randint(1, 3)
        tall = Matrix([[rng.randint(-3, 3) if k < r else 0 for k in range(4)] for _ in range(4)])
        wide = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)] if i < r
                       else [0] * 4 for i in range(4)])
        cases.append(matmul(tall, wide))
    for m in cases:
        coeffs = _char_poly_coeffs(m)
        assert is_nilpotent(m) == all(c == 0 for c in coeffs)
        assert nonsingular(m) == (coeffs[-1] != 0)
    assert {nonsingular(m) for m in cases} == {True, False}
    assert {is_nilpotent(m) for m in cases} == {True, False}


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
        cases.append((dense.conjugated(lower, rng), True))
        cases.append((dense.conjugated(lower + [eigen], rng), False))
    # each map is nilpotent, but E12 E21 is an idempotent
    e12 = Matrix([[0, 1], [0, 0]])
    cases.append(([e12, Matrix([[0, 0], [1, 0]])], False))
    cases.append(([e12], True))
    for maps, expected in cases:
        assert dense.products_vanish(maps) == expected
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
    assert products_vanish([zeros(3).columns])
    monkeypatch.setattr(linalg, "_image_chain", spied)
    e12, e21 = Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])
    assert not products_vanish([e21.columns, e12.columns])
    assert len(reached) == 1
    upper = [Matrix([[m[j, i] for j in range(5)] for i in range(5)]) for m in lower]
    assert products_vanish([m.columns for m in upper])
    assert len(reached) == 2


def _count_only_matrices(rng, n, entry):
    """(singular, nonsingular, strictly triangular, conjugated nilpotent) seeded sparse n x n maps."""
    def sparse(rows_of, density):
        return from_fraction_columns([{r: entry() for r in rows_of(j) if rng.random() < density}
                                      for j in range(n)])

    lower = add(sparse(lambda j: range(j + 1, n), 0.5), identity(n))
    upper = add(sparse(lambda j: range(j), 0.5), Matrix.diagonal([entry() for _ in range(n)]))
    strict = sparse(lambda j: range(j), 0.6)
    filled = sparse(lambda j: range(n), 0.5)
    cols = fraction_columns(filled)
    cols[-1] = sparse_apply(cols[:2], {0: entry(), 1: entry()}) if n > 1 else {}
    return [from_fraction_columns(cols), matmul(lower, upper), strict,
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
                full = len(gauss_jordan(fraction_columns(m), n))
                assert rank(m) == full
                assert nonsingular(m) == (full == n)
                assert is_nilpotent(m) == dense.products_vanish([m])
                seen.add((nonsingular(m), is_nilpotent(m)))
            for a in maps:
                for b in maps:
                    assert products_vanish([a.columns, b.columns]) == dense.products_vanish([a, b])
    # singular and nonsingular maps, nilpotent ones among the singular
    assert seen == {(False, False), (True, False), (False, True)}


def test_products_vanish_matches_full_chain_on_der_g():
    for alg, nil in ((make_benoist(1), True), (make_cn(8, [1, -1])[0], False)):
        n = alg.dim
        space = derivation_space(alg)
        maps = [_flat_columns(row.items(), n) for _, row in space.flat.rows]
        assert products_vanish(maps) == dense.products_vanish(space.basis) == nil
        assert space.all_nilpotent == nil
        for m in space.basis:
            full = len(gauss_jordan(fraction_columns(m), n))
            assert rank(m) == full
            assert nonsingular(m) == (full == n)
            assert is_nilpotent(m) == dense.products_vanish([m])


def _series_text(series):
    # each RREF row as row / den, so the text is that of the canonical RREF
    return ";".join("|".join(f"{p}:" + ",".join(f"{c}={F(x, term.den)}" for c, x in row.items())
                             for p, row in term.rows) for term in series)


@pytest.mark.parametrize("alg, digest", [
    (make_ln(12), "11701cad5ec158df13b8886e40eb5eb1f563e3c64dae8d4a62aefec0bbf3bc31"),
    (make_qn(10), "70391d26d4a288d9d3a3b28022be3650953b4b1f535873bd3edf3ca4af3ee8d8"),
    (make_benoist(1), "dd7a9ae4b977964d72dee750d1f8f1dd52d765adeab9f5a93001948b7222022d"),
], ids=["L12", "Q10", "Benoist1"])
def test_lower_central_series_rows_are_pinned(alg, digest):
    series = lower_central_series(alg)
    oracle = dense.lower_central_series(alg)
    assert [(term.rows, term.den) for term in series] == [(term.rows, term.den) for term in oracle]
    assert all(type(x) is int for term in series for _, row in term.rows for x in row.values())
    assert hashlib.sha256(_series_text(series).encode()).hexdigest() == digest


@pytest.mark.parametrize("data", [
    [[1, 0, 0], [0, 1, 0]],
    [[1, 0], [0, 1], [1, 1]],
    [[1, 0], [0]],
    [[1, 2, 3], [4, 5], [6]],
    [[]],
    [[1], []],
], ids=["wide", "tall", "ragged", "staircase", "one-empty-row", "short-row"])
def test_matrix_rejects_data_that_is_not_n_rows_of_n_entries(data):
    # the squareness check of every caller's matrix (the JSON reader checks a
    # document's shape itself, before it parses any entry): every Matrix is
    # an n x n map, so nonsingular, is_nilpotent, the minimal polynomial and
    # TwoForm never meet another shape
    with pytest.raises(DimensionMismatch, match="^matrix data must be n rows of n entries$"):
        Matrix(data)


def test_matrix_dim_is_its_size():
    assert Matrix([]).dim == 0 and Matrix([]).columns == () and Matrix([]).data == ()
    assert Matrix([[1, 2], [3, 4]]).dim == 2
    assert Matrix.diagonal([1, 2, 3]).dim == Matrix.from_sparse([{}] * 3, 1).dim == 3
    assert not hasattr(Matrix([[1]]), "rows") and not hasattr(Matrix([[1]]), "cols")


def test_span_collapses_duplicates():
    s = _reduce([{0: 1}, {0: 1}], 2)
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
    s = _reduce((integer_row(dict(enumerate(v))) for v in images), 4)
    assert s.dim == 2
    assert s.basis == (unit_vector(4, 2), unit_vector(4, 3))


def test_coordinates_match_full_residual_oracle():
    rng = random.Random(41)
    inside = outside = 0
    for system in [_sparse_system] * 60 + [_singleton_heavy_system] * 60:
        rows, ncols = system(rng)
        space = _reduce(map(integer_row, rows), ncols)
        reduced = gauss_jordan(rows, ncols)
        for _ in range(4):
            # a seeded combination of the rows, with explicit zeros, then
            # perhaps moved off the span by one entry
            draw = {k: F(rng.randint(-4, 4), rng.randint(1, 5)) for k in range(len(reduced))}
            v = sparse_apply([row for _, row in reduced], draw)
            v.setdefault(rng.randrange(ncols), F(0))
            if rng.random() < 0.5:
                c = rng.randrange(ncols)
                v[c] = v.get(c, F(0)) + F(rng.choice((-3, 1, 2)), rng.randint(1, 3))
            coords = _coordinates(space, v)
            assert coords == dense.coordinates(reduced, v)
            if coords is None:
                outside += 1
            else:
                inside += 1
                assert list(coords) == sorted(coords) and all(coords.values())
    assert inside > 300 and outside > 80


def test_subspace_coordinates_and_membership():
    space = _reduce([{0: 2, 2: 1}, {1: 2, 2: -1}], 3)
    assert space.den == 2
    assert _coordinates(space, {0: F(1), 1: F(1), 2: F(0)}) == {0: F(1), 1: F(1)}
    assert _coordinates(space, {0: 2, 1: -4, 2: 3}) == {0: 2, 1: -4}
    assert _coordinates(space, {2: F(1)}) is None


# every entry point that reads an outside rational, as (name, build(x)), x
# the one value it reads: each coerces through rat, by integer_scaled
_RATIONAL_ENTRIES = {
    "rat": rat,
    "integer_scaled": lambda x: integer_scaled([{0: x, 1: 1}, {2: x}]),
    "LieAlgebra": lambda x: LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: x}}),
    "AffineStructure": lambda x: AffineStructure(2, {(0, 0): {1: 1}, (1, 0): {0: x, 1: x}}),
    "Matrix": lambda x: Matrix([[1, x], [0, 1]]),
    "Matrix.diagonal": lambda x: Matrix.diagonal([1, x, 3]),
    "TwoForm.from_entries": lambda x: TwoForm.from_entries(3, {(0, 1): 1, (1, 2): x}),
    "make_cn": lambda x: make_cn(8, [1, x]),
    "make_ank": lambda x: make_ank(9, 3, [1, x]),
    "make_bnk": lambda x: make_bnk(8, 2, [1, x]),
    "fill_aij": lambda x: fill_aij(9, 3, [1, x]),
}


def _fields(value):
    """value with each package object read as the (name, value) of its fields, at any depth."""
    if isinstance(value, (tuple, list)):
        return tuple(map(_fields, value))
    slots = getattr(type(value), "__slots__", ())
    if slots:
        return tuple((name, _fields(getattr(value, name))) for name in slots if name != "__dict__")
    return value


def _stored_zeros(value):
    """The number of zero values held in the dicts of value, at any depth."""
    if isinstance(value, dict):
        return sum(x == 0 if isinstance(x, (int, Fraction)) else _stored_zeros(x)
                   for x in value.values())
    if isinstance(value, (tuple, list)):
        return sum(map(_stored_zeros, value))
    return 0


@pytest.mark.parametrize("name", sorted(_RATIONAL_ENTRIES))
def test_every_rational_entry_point_reads_values_alike(name):
    build = _RATIONAL_ENTRIES[name]
    # a float would smuggle binary rounding in, and a bool is no rational
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            build(bad)
    # every spelling of zero is the int 0, and none is kept as an entry
    zero = _fields(build(0))
    for spelling in ("0", "0/7", Fraction(0)):
        assert _fields(build(spelling)) == zero
    assert _stored_zeros(zero) == 0
    half = _fields(build(Fraction(1, 2)))
    assert _fields(build("1/2")) == _fields(build("2/4")) == half != zero
    # a string is read in the documents' grammar alone, 'p' or 'p/q' in ASCII digits
    for bad in ("0.5", " 3 ", "1e3", "1_000", "\u0661\u0662", "1/0"):
        with pytest.raises(ValueError, match="rational"):
            build(bad)


# pieces of rational spellings, in and out of the grammar: signs, ASCII
# digits with leading zeros, zero, spaces, underscores, decimal points,
# exponents, Arabic-Indic and fullwidth digits, and 4301 digits, one past
# Python's int-string limit
_SIGNS = ["", "", "+", "-", "--", " ", "+-"]
_DIGITS = ["0", "1", "7", "12", "007", "450", "00", "1_000", "\u0661\u0662", "\uff15", "",
           "9" * 4301, "1" + "0" * 4299]
_TAILS = ["", "", "", "/", ".5", "e3", "E-2", "e2000000", " ", "\n", "_", "/0/1", "j"]


def _spelling(rng):
    """One seeded rational spelling: sign, digits, an optional /digits and a tail."""
    text = rng.choice(_SIGNS) + rng.choice(_DIGITS)
    if rng.random() < 0.5:
        text += "/" + rng.choice(_SIGNS[:3]) + rng.choice(_DIGITS)
    return text + rng.choice(_TAILS)


def test_rat_and_parse_rational_read_one_grammar():
    # the library's coercion and the documents' reader accept the same
    # spellings with equal values, and refuse the same ones with the same
    # message, ValueError against SchemaError
    rng = random.Random(58)
    accepted = refused = 0
    for _ in range(3000):
        text = _spelling(rng)
        try:
            value = parse_rational(text)
        except SchemaError as exc:
            with pytest.raises(ValueError) as info:
                rat(text)
            assert not isinstance(info.value, SchemaError)
            assert str(info.value) == str(exc) and len(str(exc)) < 120
            refused += 1
        else:
            assert rat(text) == value
            num, _, den = text.partition("/")
            assert value == Fraction(int(num), int(den or 1))
            assert text.isascii() and not text.strip("+-0123456789/")
            accepted += 1
    assert accepted > 100 and refused > 2000


def test_rat_reads_the_grammar_as_before():
    # ints, Fractions and the grammar's spellings keep their values
    for value, expected in [(7, 7), (F(2, 3), F(2, 3)), ("5", 5), ("+5", 5), ("-5", -5),
                            ("3/6", F(1, 2)), ("007/10", F(7, 10)), ("-0/5", 0)]:
        assert rat(value) == expected and type(rat(value)) is Fraction
    with pytest.raises(ValueError, match="digit limit"):
        rat("1" * 4301)
    with pytest.raises(ValueError, match="zero denominator in rational '1/000'"):
        rat("1/000")
    started = time.perf_counter()
    with pytest.raises(ValueError, match="malformed rational '1e2000000'"):
        rat("1e2000000")
    # the pattern is matched before any int is formed: no exponent is expanded
    assert time.perf_counter() - started < 0.05


@pytest.mark.parametrize("build", [
    lambda seq: Matrix.diagonal(seq),
    lambda seq: LieAlgebra(2, {(0, 1): {}}, basis_names=seq),
], ids=["Matrix.diagonal", "basis_names"])
def test_a_string_never_passes_for_a_sequence(build):
    # '12' is not (1, 2), as a Matrix row or a lambda list is not: every
    # entry point that reads a sequence refuses a str through one check,
    # and takes the same characters as a list
    with pytest.raises(TypeError, match="is a string, not a sequence"):
        build("12")
    assert build(["1", "2"])


def test_matrix_immutable_and_exact_equality():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.dim = 5
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
    for attr in (*type(value).__slots__, "monomial", "new_field"):
        with pytest.raises(AttributeError) as caught:
            setattr(value, attr, None)
        assert str(caught.value) == f"{name} is immutable"


# an antisymmetric grid, so a Gram matrix too
_GRID = [[0, F(1, 2), 0], [F(-1, 2), 0, 3], [0, -3, 0]]


def _round_trip(value, write, read):
    return read(json.loads(json.dumps(write(value))))


def _equal_values(name):
    """One value of type ``name`` built every way the package builds one.

    The validating constructor first, then the adopting routes, then a JSON
    round trip where a codec exists.
    """
    if name == "Matrix":
        m = Matrix(_GRID)
        # its columns over den 6, not yet in lowest terms
        return [m, Matrix.from_sparse([{1: -3}, {0: 3, 2: -18}, {1: 18}], 6),
                _round_trip(m, matrix_to_json, matrix_from_json)]
    if name == "Subspace":
        # the span of e0 + e2 / 2 and e1 - e2 / 2, the kernel of (1, -1, -2)
        return [Subspace(3, [(0, {0: 2, 2: 1}), (1, {1: 2, 2: -1})], 2),
                _reduce([{1: -2, 2: 1}, {0: 4, 1: 2, 2: 1}], 3),
                _nullspace([{0: 1, 1: -1, 2: -2}], 3)]
    if name == "TwoForm":
        th = TwoForm(Matrix(_GRID))
        return [th, TwoForm.from_entries(3, {(0, 1): F(1, 2), (1, 2): 3}),
                _round_trip(th, twoform_to_json, twoform_from_json)]
    # a construction's adopted product, and its table given again as rationals
    product = synthesize(make_ln(4), strategy="regular")[0]
    gamma = {key: {k: F(c, product.den) for k, c in coeffs.items()}
             for key, coeffs in product.gamma.items()}
    unreduced = {key: {k: 5 * c for k, c in coeffs.items()} for key, coeffs in product.gamma.items()}
    return [AffineStructure(4, gamma), product, affine._adopted(4, unreduced, 5 * product.den),
            _round_trip(product, affine_to_json, affine_from_json)]


def _one_field_changed(value):
    """Copies of value, each with one identity field changed: den, one entry or the dimension."""
    def changed(**fields):
        kept = {name: getattr(value, name) for name in type(value).__slots__ if name != "__dict__"}
        return _set_fields(type(value).__new__(type(value)), **{**kept, **fields})

    def doubled(coeffs):
        k = next(iter(coeffs))
        return {**coeffs, k: 2 * coeffs[k]}

    if isinstance(value, TwoForm):
        return [changed(gram=gram) for gram in _one_field_changed(value.gram)]
    if isinstance(value, Matrix):
        first, *rest = value.columns
        return [changed(den=2 * value.den), changed(columns=(doubled(first), *rest))]
    if isinstance(value, Subspace):
        (pivot, row), *rest = value.rows
        return [changed(den=2 * value.den), changed(rows=((pivot, doubled(row)), *rest)),
                changed(ambient_dim=value.ambient_dim + 1)]
    key = next(iter(value.gamma))
    return [changed(den=2 * value.den), changed(gamma={**value.gamma, key: doubled(value.gamma[key])}),
            changed(dim=value.dim + 1)]


@pytest.mark.parametrize("name, identity", [
    ("Matrix", ("den", "columns")),
    ("Subspace", ("ambient_dim", "den", "rows")),
    ("TwoForm", ("gram",)),
    ("AffineStructure", ("dim", "den", "gamma")),
])
def test_value_types_are_equal_exactly_when_their_identity_fields_are(name, identity):
    values = _equal_values(name)
    first = values[0]
    assert {type(v).__name__ for v in values} == {name} and type(first)._identity == identity
    for value in values:
        assert value == first and first == value and not value != first
        assert hash(value) == hash(first) and {first: name}[value] == name
    for other in _one_field_changed(first):
        assert all(other != value and not other == value for value in values)


def test_a_matrix_never_equals_the_form_that_holds_it():
    th = TwoForm(Matrix(_GRID))
    assert th.gram != th and th != th.gram
    assert th.gram.__eq__(th) is NotImplemented and th.__eq__(th.gram) is NotImplemented


def test_algebras_and_derivation_spaces_compare_by_identity():
    # LieAlgebra and DerivationSpace declare no identity fields
    a, b = make_ln(4), make_ln(4)
    assert a.structure == b.structure and a == a and a != b
    spaces = derivation_space(a), derivation_space(b)
    assert spaces[0] == spaces[0] and spaces[0] != spaces[1]
    for value in (a, b, *spaces):
        assert hash(value) == object.__hash__(value)
    keys = {a: "a", b: "b", spaces[0]: "Der a", spaces[1]: "Der b"}
    assert [keys[a], keys[b], keys[spaces[0]], keys[spaces[1]]] == ["a", "b", "Der a", "Der b"]
    assert a.__eq__(spaces[0]) is NotImplemented and a != spaces[0]


@pytest.mark.parametrize("space", [
    lambda: derivation_space(make_ln(8)).flat,
    lambda: derived_subalgebra(make_benoist(1)),
    lambda: Subspace(4, []),
], ids=["der-L8", "benoist-derived", "zero"])
def test_subspace_holds_ints_and_no_dict(space):
    # one form: integer rows and den, and no __dict__ to keep a second one in
    space = space()
    assert not hasattr(space, "__dict__")
    assert type(space.den) is int and space.den > 0
    assert all(type(p) is int and type(x) is int and row[p] == space.den
               for p, row in space.rows for x in row.values())
    assert space.basis == tuple(tuple(F(x, space.den) for x in v) for v in _dense_rows(space))


def _dense_rows(space):
    return [[row.get(c, 0) for c in range(space.ambient_dim)] for _, row in space.rows]


def test_derived_regular_synthesis_restricts_a_dense_draw_in_ints(monkeypatch):
    # with no weight candidates the witness is a dense seeded draw, which
    # the kernel restricts to [g, g] in ints; a diagonal one takes the closed form
    for module in (derivations, affine):
        monkeypatch.setattr(module, "_weight_candidates", lambda weights: iter(()))
    restricted, restrict = [], derivations._integer_restrict

    def spied(derived, m):
        restricted.append(restrict(derived, m))
        return restricted[-1]

    for module in (derivations, affine):
        monkeypatch.setattr(module, "_integer_restrict", spied)
    alg = make_cn(8, [1, -1])[0]
    witness = synthesize(alg, "derived-regular")[1].witnesses["derivation"]
    assert witness.monomial is None
    assert restricted and all(type(x) is int for cols, den in restricted
                              for col in cols for x in (den, *col.values()))


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
        m = Matrix(grid)
        expected = inverse(grid)
        found = _integer_inverse(m.columns, m.den)
        if expected is None:
            singular += 1
            assert found is None
            continue
        columns, den = found
        assert den > 0 and len(columns) == n
        assert all(type(x) is int for col in columns for x in col.values())
        fractions = [unscaled(col, den) for col in columns]
        assert fractions == fraction_columns(Matrix(expected))
        assert all(type(x) is F and x for col in fractions for x in col.values())
    assert 10 < singular < 140


def test_empty_matrix_conventions():
    empty = zeros(0)
    assert nonsingular(empty)
    assert _inverse(empty) == empty
    assert is_nilpotent(empty)
