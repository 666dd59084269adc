"""Derivation algebras: computation, classification, searches, tori."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from lieaffine import affine, derivations, liealg, linalg
from lieaffine.affine import (
    AffineStructure,
    find_symplectic,
    from_derived_regular,
    from_regular_derivation,
    from_symplectic,
    synthesize,
    verify_affine,
)
from lieaffine.catalog import (
    make_abelian,
    make_ank,
    make_benoist,
    make_bnk,
    make_cn,
    make_ln,
    make_qn,
    standard_torus,
)
from lieaffine.cli import main
from lieaffine.derivations import (
    CHAR_NILPOTENT_LIKELY,
    NOT_CHAR_NILPOTENT,
    char_nilpotent_verdict,
    derivation_space,
    diagonal_derivations,
    find_derived_regular_derivation,
    find_regular_derivation,
    is_derivation,
    minimal_polynomial,
    seeded_combinations,
    verify_torus,
    verify_witness,
)
from lieaffine.errors import DimensionMismatch, NotInvariantError
from lieaffine.liealg import (
    LieAlgebra,
    TwoForm,
    derived_subalgebra,
    jacobi_report,
    lower_central_series,
    nondegenerate,
)
from lieaffine.linalg import (
    ZERO,
    Matrix,
    Subspace,
    _nullspace,
    dense_vector,
    is_nilpotent,
    nonsingular,
    products_vanish,
    unscaled,
)
from lieaffine.serialize import algebra_to_json, matrix_to_json

import dense
from dense import (
    ad,
    add,
    apply,
    bracket,
    change_basis,
    column,
    conjugated,
    contains,
    dense_basis_change,
    derivation_violations,
    fraction_columns,
    from_fraction_columns,
    identity,
    integer_row,
    invertible,
    kernel_routes,
    matmul,
    nullspace,
    rational_basis_change,
    rational_table,
    restrict,
    scaled,
    solve,
    span,
    sparse_basis_change,
    unit_vector,
    zeros,
)

F = Fraction


def test_is_derivation_l8_weight_map():
    l8 = make_ln(8)
    f2 = Matrix.diagonal(range(1, 9))
    assert is_derivation(l8, f2) == []


def test_is_derivation_identity_fails_with_exact_residual():
    # Id[Y1,Y2] = Y3 while [Id Y1, Y2] + [Y1, Id Y2] = 2 Y3.
    l4 = make_ln(4)
    report = is_derivation(l4, identity(4))
    residuals = {(i, j): r for i, j, r in report}
    assert residuals[(0, 1)] == tuple(-x for x in unit_vector(4, 2))


def test_is_derivation_c6_torus():
    c6 = make_cn(6, [1])[0]
    assert is_derivation(c6, Matrix.diagonal([0, 1, 1, 1, 1, 2])) == []


# brackets with integer constants, with denominators 2 and 3, and with
# denominators up to 2000
_DIFFERENTIAL_ALGEBRAS = {
    "L6": make_ln(6),
    "C8": make_cn(8, [F(2, 3), F(1, 2)])[0],
    "B7/5": make_benoist(F(7, 5)),
}


def _tampered_map(m, rng, changes):
    columns = fraction_columns(m)
    for _ in range(changes):
        p, q = rng.randrange(m.dim), rng.randrange(m.dim)
        bump = F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 7, 2000)))
        columns[q][p] = columns[q].get(p, 0) + bump
    return from_fraction_columns(columns)


_DERIVATION_ALGEBRAS = {"L7": make_ln(7), "Q8": make_qn(8), "C6": make_cn(6, [1])[0],
                        "Benoist1": make_benoist(1), **_DIFFERENTIAL_ALGEBRAS}


@pytest.mark.parametrize("name", list(_DERIVATION_ALGEBRAS))
def test_is_derivation_matches_definition_on_random_maps(name):
    alg = _DERIVATION_ALGEBRAS[name]
    n = alg.dim
    rng = random.Random(n)
    space = derivation_space(alg)
    maps = [Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density
                     else 0 for _ in range(n)] for _ in range(n)]) for density in (0.1, 0.5, 1.0)]
    for _ in range(3):
        d = zeros(n)
        for b in space.basis:
            d = add(d, scaled(b, Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        maps.append(d)
        # one entry off a derivation breaks only some pairs
        bump = [[0] * n for _ in range(n)]
        bump[rng.randrange(n)][rng.randrange(n)] = Fraction(1, rng.randint(1, 5))
        maps.append(add(d, Matrix(bump)))
    expected = [derivation_violations(alg, m) for m in maps]
    assert [is_derivation(alg, m) for m in maps] == expected
    seen_empty = [] in expected
    assert seen_empty
    # the identity and derivations, tampered 0, 1, 4 and 20 times with
    # bumps over denominators up to 2000
    rng = random.Random(n)
    bases = [identity(n), *space.basis[:3]]
    bases += [space.matrix(v) for v in seeded_combinations(space.flat, 1, 2)]
    maps = [_tampered_map(base, rng, changes) for base in bases for changes in (0, 1, 4, 20)]
    violations = [is_derivation(alg, m) for m in maps]
    assert violations == [derivation_violations(alg, m) for m in maps]
    assert all(type(x) is Fraction for v in violations for *_, residual in v for x in residual)
    exact = violations.count([])
    assert exact >= len(bases) - 1


def _tampered_algebra(alg, rng, changes, filtered=False):
    # filtered: bump only targets k > j of pairs (i, j), which keeps (a) of
    # tail_filtered, and (b) stays true on a table that met it
    structure = rational_table(alg)
    top = alg.dim - 1 if filtered else alg.dim
    for _ in range(changes):
        i, j = sorted(rng.sample(range(top), 2))
        col = structure.setdefault((i, j), {})
        k = rng.randrange(j + 1, alg.dim) if filtered else rng.randrange(alg.dim)
        col[k] = col.get(k, 0) + F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 3, 8, 2000)))
    return LieAlgebra(alg.dim, structure)


def _whole_basis(patch):
    # every table takes the whole basis as the builder's generators: the
    # n^2 system on every pair
    patch.setattr(derivations, "_generators_decide", lambda alg: False)


def _record_generators(patch, gens):
    # wrap the one Der(g) builder, so that gens gets the generator count of
    # each system it writes: 2 on a Lie tail_filtered table, n elsewhere
    build = derivations._generator_system

    def recorded(alg):
        rows, upper, chain = build(alg)
        gens.append(chain[2])
        return rows, upper, chain

    patch.setattr(derivations, "_generator_system", recorded)


def _no_solve(*args):
    raise AssertionError("Der(g) was solved")


def _forced_zeros(n):
    # D[p][q] for q >= 2 and p < q, at flat index p * n + q
    return {p * n + q for q in range(2, n) for p in range(q)}


def _row_multiset(rows):
    # each nonzero row as its sorted nonzero entries, negated when the first
    # is negative, the rows sorted: the system up to row order and sign
    out = []
    for row in rows:
        entries = sorted((k, x) for k, x in row.items() if x)
        if entries:
            out.append(entries if entries[0][1] > 0 else [(k, -x) for k, x in entries])
    return sorted(out)


def _assert_whole_basis_rows_match_oracle(alg, monkeypatch):
    # the builder on the whole basis writes the rows of the pair-by-pair
    # oracle on every pair, over the table's den, each one free of zeros
    with monkeypatch.context() as patch:
        _whole_basis(patch)
        rows, _, (_, _, gens) = derivations._generator_system(alg)
    view = rational_table(alg).values()
    den = math.lcm(*(c.denominator for col in view for c in col.values()))
    full = [{k: x * den for k, x in row.items()} for row in dense.derivation_equations(alg)]
    assert gens == alg.dim
    assert all(rows) and all(type(x) is int and x for row in rows for x in row.values())
    assert _row_multiset(rows) == _row_multiset(full)


def _differential_tables(name):
    # the base table, three tampered ones, two tampered inside the
    # filtration, and the base moved off its adapted basis
    rng = random.Random(7)
    base = _DIFFERENTIAL_ALGEBRAS[name]
    moved = change_basis(base, sparse_basis_change(base.dim, random.Random(base.dim)))
    tables = [base] + [_tampered_algebra(base, rng, changes) for changes in (1, 3, 10)]
    tables += [_tampered_algebra(base, rng, changes, filtered=True) for changes in (1, 4)]
    return tables + [moved]


@pytest.mark.parametrize("name", list(_DIFFERENTIAL_ALGEBRAS))
def test_derivation_equations_match_fraction_oracle(name, monkeypatch):
    # with the whole basis as its generators the builder gives the rows of
    # the pair-by-pair oracle on every pair, as a multiset up to each row's
    # sign: its row order is its own, and the oracle's fully cancelled rows
    # carry no equation; test_generator_pair_systems_equal_the_full_ones
    # checks the solutions on either choice of generators against the oracle
    tables = _differential_tables(name)
    for alg in tables:
        _assert_whole_basis_rows_match_oracle(alg, monkeypatch)
    base, moved = tables[0], tables[-1]
    assert all(t.tail_filtered for t in [base, *tables[-3:-1]]) and not moved.tail_filtered


def test_derivation_space_abelian_is_everything():
    assert derivation_space(make_abelian(3)).dim == 9


def test_derivation_space_l4_dimension():
    # Hand parameterization (see test_linalg for the rank-9 system): free
    # entries d11, d21, d31, d41, d22, d32, d42; d12 forced to zero and
    # the images of Y3, Y4 determined by those of Y1, Y2.
    assert derivation_space(make_ln(4)).dim == 7


def test_derivation_space_basis_round_trip():
    for alg in (make_ln(5), make_qn(6), make_cn(6, [1])[0]):
        space = derivation_space(alg)
        for m in space.basis:
            assert is_derivation(alg, m) == []


def test_inner_derivations_lie_in_the_space():
    for alg in (make_ln(4), make_qn(6, adapted=True), make_cn(8, [1, 0])[0]):
        space = derivation_space(alg)
        for i in range(alg.dim):
            assert is_derivation(alg, ad(alg, unit_vector(alg.dim, i))) == []
    l4 = make_ln(4)
    assert is_derivation(l4, Matrix.diagonal([1] * 4))
    with pytest.raises(DimensionMismatch):
        is_derivation(l4, Matrix.diagonal([1] * 3))


def test_derivation_space_closed_under_commutator():
    for alg in (make_ln(4), make_qn(6)):
        space = derivation_space(alg)
        for a in space.basis:
            for b in space.basis:
                assert is_derivation(alg, add(matmul(a, b), scaled(matmul(b, a), -1))) == []


def test_diagonal_derivations_ln():
    # Weight equations w1 + wj = w_{j+1} leave w1, w2 free.
    for n in (3, 5, 9):
        assert diagonal_derivations(make_ln(n)).dim == 2


def test_diagonal_derivations_qn_adapted():
    assert diagonal_derivations(make_qn(6, adapted=True)).dim == 2


def test_diagonal_derivations_qn_plain_basis_sees_rank_one():
    # In the non-adapted basis the pairing forces w2 = w1, so only one
    # free weight remains; this is why the adapted basis exists.
    assert diagonal_derivations(make_qn(6)).dim == 1


def test_diagonal_derivations_c6():
    weights = diagonal_derivations(make_cn(6, [1])[0])
    assert weights.dim == 1
    assert weights.basis[0] == tuple(F(x) for x in (0, 1, 1, 1, 1, 2))


def test_diagonal_derivations_cn_weights_start_at_zero():
    # The weight equations force w1 = 0 whenever some lambda is nonzero,
    # which is the diagonal-level singularity statement for this family.
    for alg in (make_cn(6, [1])[0], make_cn(8, [1, 1])[0], make_cn(8, [1, 0])[0]):
        for w in diagonal_derivations(alg).basis:
            assert w[0] == 0


def test_diagonal_dimension_bounded_by_two_on_catalog_filiforms():
    algebras = [
        make_ln(6),
        make_qn(8),
        make_qn(8, adapted=True),
        make_cn(8, [1, 1])[0],
        make_benoist(0),
    ]
    for alg in algebras:
        space = derivation_space(alg)
        diag = diagonal_derivations(alg)
        assert diag.dim <= 2
        assert diag.dim <= space.dim


def test_find_regular_derivation_l4():
    space = derivation_space(make_ln(4))
    f = find_regular_derivation(space.algebra, seed=0, trials=32)
    assert f is not None
    assert nonsingular(f)
    assert is_derivation(make_ln(4), f) == []


def test_find_regular_derivation_abelian_plane():
    space = derivation_space(make_abelian(2))
    f = find_regular_derivation(space.algebra, seed=0, trials=32)
    assert f is not None
    assert nonsingular(f)


def test_find_regular_derivation_c6_finds_hidden_regular():
    # Every extra product of this family lands on the central Y6 (forced
    # by the diagonal torus weights 0,1,...,1,2), and such central
    # pairings are absorbable: the algebra is isomorphic to Q6, so an
    # invertible derivation exists even though no diagonal one does. The
    # seeded search certifies one exactly.
    c6 = make_cn(6, [1])[0]
    space = derivation_space(c6)
    f = find_regular_derivation(space.algebra, seed=0, trials=32)
    assert f is not None
    assert is_derivation(c6, f) == []
    assert nonsingular(f)


def test_find_regular_derivation_replays_the_documented_draw():
    # (seed, trials) replay relies on this order: per trial, one
    # randint(-10, 10) per Der(g) basis element, in basis order. Every
    # diagonal weight of C8 (1, -1) vanishes on e1, so the search draws.
    c8 = make_cn(8, [1, -1])[0]
    assert all(w[0] == 0 for w in diagonal_derivations(c8).basis)
    space = derivation_space(c8)
    rng = random.Random(11)
    expected = None
    while expected is None:
        cand = zeros(8)
        for m in space.basis:
            cand = add(cand, scaled(m, rng.randint(-10, 10)))
        if nonsingular(cand):
            expected = cand
    assert find_regular_derivation(space.algebra, seed=11, trials=32) == expected


# every search runs as f(alg, seed=..., trials=...): the three strategies
# of synthesize and the four public searches
_SEARCHES = {
    **{f"strategy-{name}": entry.search for name, entry in affine.STRATEGIES.items()},
    "find_regular_derivation": find_regular_derivation,
    "find_derived_regular_derivation": find_derived_regular_derivation,
    "find_symplectic": find_symplectic,
    "char_nilpotent_verdict": char_nilpotent_verdict,
}


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("search", [
    # the fixed first candidates of derived-regular, char-nilp and
    # symplectic succeed, and odd dimension answers None without a search,
    # so only an eager trials check can raise
    lambda trials: find_regular_derivation(make_ln(4), trials=trials),
    lambda trials: find_derived_regular_derivation(
        make_cn(6, [1])[0], trials=trials),
    lambda trials: char_nilpotent_verdict(make_ln(8), trials=trials),
    lambda trials: find_symplectic(make_ln(4), trials=trials),
    lambda trials: find_symplectic(make_ln(5), trials=trials),
    # Der(Benoist) is nil, which settles these three without a draw, so
    # the trials check must come before that early return
    lambda trials: find_regular_derivation(make_benoist(1), trials=trials),
    lambda trials: find_derived_regular_derivation(
        make_benoist(1), trials=trials),
    lambda trials: char_nilpotent_verdict(make_benoist(1), trials=trials),
    *(lambda trials, f=f, make=make: f(make(), seed=5, trials=trials)
      for f in _SEARCHES.values() for make in (lambda: make_ln(6), lambda: make_benoist(1))),
], ids=["regular", "derived-regular", "char-nilp", "symplectic", "symplectic-odd",
        "regular-nil", "derived-regular-nil", "char-nilp-nil",
        *(f"{name}-{alg}" for name in _SEARCHES for alg in ("L6", "Benoist1"))])
def test_searches_reject_nonpositive_trials(monkeypatch, search, trials):
    # the budget is refused before Der(g), the weights or a closed form is solved
    def no_solve(*args):
        raise AssertionError("a search solved a system before it checked trials")

    monkeypatch.setattr(derivations, "_generator_system", no_solve)
    monkeypatch.setattr(derivations, "_nullspace", no_solve)
    monkeypatch.setattr(affine, "_nullspace", no_solve)
    with pytest.raises(ValueError, match="trials"):
        search(trials)


def test_find_regular_derivation_benoist_absent():
    space = derivation_space(make_benoist(1))
    assert find_regular_derivation(space.algebra, seed=0, trials=64) is None


def _restricted(derived, m):
    # the integer restriction, columns over den, adopted as a map
    return Matrix.from_sparse(*derivations._integer_restrict(derived, m))


def test_restrict_to_derived_c6_torus():
    c6 = make_cn(6, [1])[0]
    f = Matrix.diagonal([0, 1, 1, 1, 1, 2])
    assert _restricted(derived_subalgebra(c6), f) == Matrix.diagonal([1, 1, 1, 2])


def test_restrict_to_derived_ln_weight_map_is_identity():
    l6 = make_ln(6)
    f1 = Matrix.diagonal([0, 1, 1, 1, 1, 1])
    assert _restricted(derived_subalgebra(l6), f1) == identity(4)


def test_restrict_to_derived_zero_map():
    l4 = make_ln(4)
    assert _restricted(derived_subalgebra(l4), zeros(4)) == zeros(2)


def test_find_derived_regular_c6_deterministic_first_pass():
    c6 = make_cn(6, [1])[0]
    space = derivation_space(c6)
    f = find_derived_regular_derivation(space.algebra, seed=0, trials=32)
    assert f == Matrix.diagonal([0, 1, 1, 1, 1, 2])


def test_find_derived_regular_l4():
    space = derivation_space(make_ln(4))
    f = find_derived_regular_derivation(space.algebra, seed=0, trials=32)
    assert f is not None
    assert nonsingular(_restricted(derived_subalgebra(make_ln(4)), f))


def test_find_derived_regular_abelian_vacuous():
    # The derived subalgebra is zero, so the empty restriction counts as
    # invertible and the first candidate wins.
    space = derivation_space(make_abelian(3))
    assert find_derived_regular_derivation(space.algebra, seed=0, trials=4) is not None


def test_find_derived_regular_benoist_absent():
    space = derivation_space(make_benoist(0))
    assert find_derived_regular_derivation(space.algebra, seed=0, trials=64) is None


def test_char_nilpotent_verdict_l9():
    verdict = char_nilpotent_verdict(make_ln(9), seed=0, trials=32)
    assert verdict.kind == NOT_CHAR_NILPOTENT
    report = verify_witness(make_ln(9), verdict.witness)
    assert report["sound"]


def test_char_nilpotent_verdict_heisenberg():
    verdict = char_nilpotent_verdict(make_ln(3), seed=0, trials=32)
    assert verdict.kind == NOT_CHAR_NILPOTENT
    assert not is_nilpotent(verdict.witness)


def test_char_nilpotent_verdict_c6():
    c6 = make_cn(6, [1])[0]
    verdict = char_nilpotent_verdict(c6, seed=0, trials=32)
    assert verdict.kind == NOT_CHAR_NILPOTENT
    assert verify_witness(c6, verdict.witness)["sound"]


def test_char_nilpotent_verdict_benoist_likely():
    verdict = char_nilpotent_verdict(make_benoist(1), seed=0, trials=32)
    assert verdict.kind == CHAR_NILPOTENT_LIKELY
    assert verdict.witness is None
    assert verdict.seed == 0 and verdict.trials == 32


RATIONAL_BASIS_ALGEBRAS = [make_ln(7), make_qn(8), make_cn(8, [1, 1])[0],
                           make_cn(8, [F(2, 3), F(1, 2)])[0]]
RATIONAL_BASIS_IDS = ["L7", "Q8", "C8", "C8(2/3,1/2)"]


@pytest.mark.parametrize("alg", RATIONAL_BASIS_ALGEBRAS, ids=RATIONAL_BASIS_IDS)
def test_restriction_matches_fraction_oracle_in_a_rational_basis(alg):
    moved = change_basis(alg, rational_basis_change(alg.dim, random.Random(alg.dim)))
    derived = derived_subalgebra(moved)
    assert derived.den > 1
    space = derivation_space(moved)
    maps = [*space.basis[:4], *(space.matrix(v) for v in seeded_combinations(space.flat, 3, 3))]
    for f in maps:
        assert _restricted(derived, f) == restrict(derived, f)
    # a map that moves [g, g] off itself is still caught
    leak = Matrix.from_sparse([{0: 1} for _ in range(moved.dim)], 2)
    with pytest.raises(NotInvariantError):
        derivations._integer_restrict(derived, leak)


# the shared-centre h3 + h3: [g, g] = span(e3 + e6), a non-unit RREF row
_H3_SHARED = LieAlgebra(6, {(0, 1): {2: 1, 5: 1}, (3, 4): {2: 1, 5: 1}})

# diagonal maps in catalog bases, on a non-unit derived row, and in a
# rational basis, where few diagonal maps preserve [g, g]
_DIAGONAL_ALGEBRAS = {
    **_DIFFERENTIAL_ALGEBRAS,
    "Q10": make_qn(10),
    "Q10Z": make_qn(10, adapted=True),
    "h3+h3-shared": _H3_SHARED,
    "L6-moved": change_basis(make_ln(6), rational_basis_change(6, random.Random(6))),
}


def _seeded_diagonals(alg, rng, count):
    # seeded diagonal derivations, each also with one weight bumped, and
    # diagonal maps with seeded entries: most of the latter two are no derivation
    n = alg.dim
    maps = []
    weights = diagonal_derivations(alg)
    for v in seeded_combinations(weights, rng.randrange(100), count):
        w = list(dense_vector(unscaled(v, weights.den), n))
        maps.append(Matrix.diagonal(w))
        w[rng.randrange(n)] += F(1, rng.choice((1, 2, 7)))
        maps.append(Matrix.diagonal(w))
    maps += [Matrix.diagonal([F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)])
             for _ in range(count)]
    return maps


@pytest.mark.parametrize("name", list(_DIAGONAL_ALGEBRAS))
def test_is_derivation_of_diagonal_maps_matches_the_oracles(monkeypatch, name):
    alg = _DIAGONAL_ALGEBRAS[name]
    maps = _seeded_diagonals(alg, random.Random(name), 4)
    closed = [is_derivation(alg, m) for m in maps]
    with monkeypatch.context() as patch:
        kernel_routes(patch)
        assert [is_derivation(alg, m) for m in maps] == closed
    assert closed == [derivation_violations(alg, m) for m in maps]
    assert any(closed) and not all(closed)


def _restriction_outcome(derived, f):
    try:
        return derivations._restriction_invertible(derived, f)
    except NotInvariantError:
        return NotInvariantError


@pytest.mark.parametrize("name", list(_DIAGONAL_ALGEBRAS))
def test_restriction_invertible_of_diagonal_maps_matches_the_kernel_route(monkeypatch, name):
    alg = _DIAGONAL_ALGEBRAS[name]
    derived = derived_subalgebra(alg)
    maps = _seeded_diagonals(alg, random.Random(name), 4)
    closed = [_restriction_outcome(derived, f) for f in maps]
    with monkeypatch.context() as patch:
        kernel_routes(patch)
        assert [_restriction_outcome(derived, f) for f in maps] == closed
    if alg.tail_filtered:  # [g, g] has unit rows, which every diagonal map preserves
        assert NotInvariantError not in closed
    else:
        assert NotInvariantError in closed


def test_diagonal_restriction_reads_the_weight_of_each_derived_row():
    derived = derived_subalgebra(_H3_SHARED)
    assert derived.rows == ((2, {2: 1, 5: 1}),)
    invertible = derivations._restriction_invertible
    assert invertible(derived, Matrix.diagonal([1, 1, 2, 1, 1, 2]))
    assert not invertible(derived, Matrix.diagonal([1, -1, 0, 1, -1, 0]))
    # e3 + e6 goes to 2 e3 + 3 e6, outside [g, g]
    with pytest.raises(NotInvariantError):
        invertible(derived, Matrix.diagonal([1, 1, 2, 1, 1, 3]))


def _solved_derived_product(alg, f):
    # e_i.e_j = the x in [g, g] with f(x) = [e_i, f(e_j)], solved densely in
    # Fractions: the oracle of the integer composition g = (f on [g, g])^-1
    n = alg.dim
    basis = derived_subalgebra(alg).basis
    images = [apply(f, b) for b in basis]
    e = [unit_vector(n, i) for i in range(n)]
    gamma = {}
    for i in range(n):
        for j in range(n):
            coeffs = solve(images, bracket(alg, e[i], apply(f, e[j])))
            gamma[(i, j)] = {k: sum((c * b[k] for c, b in zip(coeffs, basis)), F(0))
                             for k in range(n)}
    return AffineStructure(n, gamma)


@pytest.mark.parametrize("alg", RATIONAL_BASIS_ALGEBRAS, ids=RATIONAL_BASIS_IDS)
def test_derived_products_match_dense_solve_in_a_rational_basis(alg):
    moved = change_basis(alg, rational_basis_change(alg.dim, random.Random(alg.dim)))
    space = derivation_space(moved)
    for f in (find_regular_derivation(space.algebra, seed=1),
              find_derived_regular_derivation(space.algebra, seed=2)):
        built = from_derived_regular(moved, f)
        assert built == _solved_derived_product(moved, f)
        assert verify_affine(moved, built).passed
    assert from_regular_derivation(moved, f) == built


def _solved_symplectic_product(alg, gram):
    # e_i.e_j = the x with Th x = -ad(e_i)^T Th e_j, solved densely in
    # Fractions: the oracle of the integer inverse of the Gram matrix
    n = alg.dim
    th = [column(gram, j) for j in range(n)]
    gamma = {}
    for i in range(n):
        ad_t = [column(ad(alg, unit_vector(n, i)), k) for k in range(n)]
        for j in range(n):
            rhs = [-sum((a * t for a, t in zip(row, th[j])), F(0)) for row in ad_t]
            gamma[(i, j)] = dict(enumerate(solve(th, rhs)))
    return AffineStructure(n, gamma)


@pytest.mark.parametrize("n", [6, 8])
def test_symplectic_product_matches_dense_solve_in_a_rational_basis(n):
    # in the moved basis the Gram matrix of the closed form found carries
    # denominators, so the integer inverse is scaled on both sides
    moved = change_basis(make_ln(n), rational_basis_change(n, random.Random(n)))
    form = find_symplectic(moved)
    assert form.gram.den > 1
    built = from_symplectic(moved, form)
    assert built == _solved_symplectic_product(moved, form.gram)
    assert verify_affine(moved, built).passed


def _seeded_symplectic_search(alg, seed, trials):
    # the search over all closed forms alone, as it ran before the weight
    # pass: th(e_x, [e_y, e_z]) summed over the rotations of every triple
    # from dense brackets, the textbook nullspace, then the seeded draws
    n = alg.dim
    pairs = list(itertools.combinations(range(n), 2))
    rows = []
    for i, j, k in itertools.combinations(range(n), 3):
        row = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in enumerate(bracket(alg, unit_vector(n, y), unit_vector(n, z))):
                if c and m != x:
                    col = pairs.index((min(x, m), max(x, m)))
                    row[col] = row.get(col, 0) + (c if x < m else -c)
        rows.append(row)
    space = nullspace(rows, len(pairs))
    forms = (TwoForm.from_entries(n, {pairs[s]: F(x, space.den) for s, x in v.items()})
             for v in seeded_combinations(space, seed, trials))
    return next(filter(nondegenerate, forms), None)


@pytest.mark.parametrize("alg", [
    change_basis(make_ln(8), dense_basis_change(8, random.Random(8))),
    make_abelian(4), make_ank(8, 3, [1, 1])[0], make_ank(8, 2, [1, 1])[0],
], ids=["L8-moved", "abelian4", "A8^3", "A8^2"])
def test_symplectic_weight_miss_returns_the_seeded_witness(alg):
    # no weight (moved L8), repeated weights (abelian4), no symmetric weight
    # (A8^3), and a class solved without a nondegenerate form (A8^2, whose
    # draws find none either): each returns what the seeded search alone does
    for seed in (0, 5):
        assert find_symplectic(alg, seed=seed, trials=8) == _seeded_symplectic_search(alg, seed, 8)


NIL_CASES = [(make_benoist(t), True, t == 1) for t in (0, 1, -1, F(1, 3))] + [
    (make_ln(8), False, True), (make_qn(8), False, True), (make_cn(6, [1])[0], False, False)]


@pytest.mark.parametrize("alg, nil, dense_move", NIL_CASES,
                         ids=["B0", "B1", "B-1", "B1/3", "L8", "Q8", "C6"])
def test_all_nilpotent_is_basis_free(alg, nil, dense_move):
    # a seeded invertible integer change of basis gives an isomorphic
    # algebra whose Der(g) basis is not lower triangular, as it is in the
    # catalog basis, so the decision must not rest on that shape. P is the
    # identity plus four +-1 entries off the diagonal and, for three of the
    # algebras, a dense +-1 P as well (Der(Benoist(1)) then has 605
    # equations over 121 unknowns, and is solved in about a second).
    n = alg.dim
    space = derivation_space(alg)
    assert space.all_nilpotent is nil
    changes = [sparse_basis_change(n, random.Random(n))]
    if dense_move:
        changes.append(dense_basis_change(n, random.Random(n)))
    for p in changes:
        moved = derivation_space(change_basis(alg, p))
        assert moved.dim == space.dim
        assert any(b[i, j] for b in moved.basis for i in range(n) for j in range(i + 1, n))
        assert moved.all_nilpotent is nil


@pytest.mark.parametrize("alg", [
    make_ln(8), make_qn(8), make_qn(10, adapted=True), make_cn(6, [1])[0],
    make_cn(12, [1, -1, 1, 1])[0], make_benoist(0), make_benoist(F(7, 5)),
    change_basis(make_benoist(1), sparse_basis_change(11, random.Random(11))),
], ids=["L8", "Q8", "QnZ10", "C6", "C12", "B0", "B7/5", "B1-moved"])
def test_derivation_space_matches_per_pair_bracket_equations(alg):
    _assert_flat_matches_full_system(alg)


# Benoist(1) moved by a basis change under which [g, g] is not a coordinate
# tail: one of its RREF rows has two nonzero entries
_MOVED_BENOIST = change_basis(make_benoist(1), sparse_basis_change(11, random.Random(4)))


@pytest.mark.parametrize("alg", [
    make_ln(8), make_qn(8), make_cn(6, [1])[0], make_benoist(1), _MOVED_BENOIST,
    change_basis(make_ln(8), dense_basis_change(8, random.Random(8))),
    change_basis(make_benoist(1), dense_basis_change(11, random.Random(11))),
], ids=["L8", "Q8", "C6", "Benoist1", "Benoist1-moved", "L8-dense", "Benoist1-dense"])
def test_sparse_subspaces_match_dense_oracle(alg):
    # the kernel-row paths against the dense series, [g, g] its second term,
    # and a dense solve for the coordinates of the restriction to [g, g]
    derived = derived_subalgebra(alg)
    series = lower_central_series(alg)
    oracle = list(dense.lower_central_series(alg))
    assert series == oracle and [s.basis for s in series] == [s.basis for s in oracle]
    assert derived is series[1]
    if alg is _MOVED_BENOIST:
        assert any(len(row) > 1 for _, row in derived.rows)
    space = derivation_space(alg)
    candidates = list(space.basis)
    candidates += [space.matrix(v) for v in seeded_combinations(space.flat, 3, 4)]
    for d in candidates:
        assert _restricted(derived, d) == restrict(derived, d)


@pytest.mark.parametrize("base, seed", [(make_ln(8), 8), (make_ln(16), 16), (make_benoist(1), 11)],
                         ids=["L8", "L16", "Benoist1"])
def test_derived_subalgebra_off_the_filtration_eliminates_one_term(base, seed, monkeypatch):
    # on a moved table [g, g] costs one elimination of the brackets and its
    # canonical form, and leaves the series unbuilt; reading the series adds
    # one pass over [g, g]'s reduced rows, then two eliminations a term
    alg = change_basis(base, dense_basis_change(base.dim, random.Random(seed)))
    n = alg.dim
    assert not alg.tail_filtered
    calls = []
    gauss_jordan = linalg._gauss_jordan

    def counted(rows):
        calls.append(1)
        return gauss_jordan(rows)

    for module in (linalg, liealg):  # liealg eliminates the brackets itself
        monkeypatch.setattr(module, "_gauss_jordan", counted)
    derived = derived_subalgebra(alg)
    assert len(calls) == 2
    assert "_lower_central_series" not in vars(alg)
    series = lower_central_series(alg)
    assert [s.dim for s in series] == [n, *range(n - 2, -1, -1)]
    assert len(calls) == 2 * (len(series) - 1) + 1
    assert derived is series[1] and derived is derived_subalgebra(alg)
    assert derived == next(itertools.islice(dense.lower_central_series(alg), 1, None))


@pytest.mark.parametrize("base, digest", [
    (make_ln(8), "c512e0cdfc7af6c48393cb5a0ea1a02f7df9455c2b3487d93c80caa22b1f90e8"),
    (make_cn(8, [1, 1])[0], "6ad980b18dcf41b1b9655db15c4af3b42d2419558df2a244c06938c3bc14977f"),
], ids=["L8", "C8"])
def test_derived_regular_witness_from_a_seeded_draw_is_pinned(base, digest):
    # in the moved basis no diagonal weight is invertible on [g, g], so the
    # witness is a seeded draw; every catalog member settles on a diagonal
    # weight or a basis element and never reaches the draw
    alg = change_basis(base, sparse_basis_change(base.dim, random.Random(0)))
    derived = derived_subalgebra(alg)
    for w in diagonal_derivations(alg).basis:
        assert not nonsingular(_restricted(derived, Matrix.diagonal(w)))
    witness = find_derived_regular_derivation(alg, seed=5)
    text = json.dumps(matrix_to_json(witness))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_der_space_stdout_of_a_moved_benoist_is_pinned(capsys, tmp_path):
    # Benoist(1) moved off its adapted basis and read back through --in: the
    # Der(g) of the full n^2 system, as ``der space`` prints it
    moved = change_basis(make_benoist(1), sparse_basis_change(11, random.Random(1)))
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(algebra_to_json(moved)))
    assert main(["der", "space", "--in", str(path), "--reproducible"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "023840289a386b3258fd688192cd2c0243ab21cab97ab6baac4c072eb1d5afd3")


# one member of every catalog family, the non-Lie Ank and Bnk members and
# fractional Cn and Benoist included
CATALOG_MEMBERS = {
    "L3": make_ln(3),
    "L16": make_ln(16),
    "Q14": make_qn(14),
    "Q8Z": make_qn(8, adapted=True),
    "C8(2/3,1/2)": make_cn(8, [F(2, 3), F(1, 2)])[0],
    "C12": make_cn(12, [1, -1, 1, 1])[0],
    "A9^2": make_ank(9, 2, [1, 1, 2])[0],
    "B10^3": make_bnk(10, 3, [F(1, 2), F(3, 4)])[0],
    "Benoist(1)": make_benoist(1),
    "Benoist(7/5)": make_benoist(F(7, 5)),
}


def _unitriangular_basis_change(n, rng):
    # P = I plus seeded +-1 entries below the diagonal: each P e_j is e_j
    # plus later vectors, so every V_m = span(e_m, ...) is kept
    return invertible([[int(i == j) if i <= j else rng.choice((-1, 0, 1)) for j in range(n)]
                       for i in range(n)])


def _assert_flat_matches_full_system(alg):
    # the canonical rows of the full n^2 system in Fractions, in the same
    # order and with the same dict insertion order, which the seeded draws read
    flat = derivation_space(alg).flat
    oracle = _nullspace(map(integer_row, dense.derivation_equations(alg)), alg.dim ** 2)
    assert flat == oracle
    assert [(p, list(row.items())) for p, row in flat.rows] == [
        (p, list(row.items())) for p, row in oracle.rows]


@pytest.mark.parametrize("name", list(CATALOG_MEMBERS))
def test_catalog_members_pin_the_forced_zeros_of_der_g(name):
    # a Lie table in the adapted basis, or moved by a unitriangular change,
    # is solved on D e1 and D e2, the others on n^2 unknowns; every
    # derivation of a tail_filtered table, Lie or not, vanishes on the
    # entries above the diagonal in columns 3..n
    alg = CATALOG_MEMBERS[name]
    rng = random.Random(alg.dim)
    kept = change_basis(alg, _unitriangular_basis_change(alg.dim, rng))
    tampered = [_tampered_algebra(alg, rng, changes, filtered=True) for changes in (1, 4)]
    for table in [alg, kept, *tampered]:
        assert table.tail_filtered
        assert derivations._generators_decide(table) is not bool(jacobi_report(table))
        flat = derivation_space(table).flat
        assert not _forced_zeros(alg.dim) & {c for _, row in flat.rows for c in row}
        _assert_flat_matches_full_system(table)


def test_catalog_members_include_non_lie_tables():
    assert jacobi_report(CATALOG_MEMBERS["A9^2"]) and jacobi_report(CATALOG_MEMBERS["B10^3"])


# the Lie members of CATALOG_MEMBERS, then Benoist at the seven t of the
# obstruction workload
_GENERATOR_ROUTE = {
    **{name: alg for name, alg in CATALOG_MEMBERS.items() if not jacobi_report(alg)},
    **{f"Benoist({t})": make_benoist(F(t)) for t in ("0", "1", "-1", "2", "1/3", "-1/2", "7/5")},
}


@pytest.mark.parametrize("name", list(_GENERATOR_ROUTE))
def test_generator_route_matches_the_full_system(name, monkeypatch):
    # Der(g) on D e1 and D e2 against the n^2 oracle, and its nil gate
    # against products_vanish over flat, in the adapted basis and after a
    # unitriangular move, whose chain basis vectors carry tails from n = 4 on
    alg = _GENERATOR_ROUTE[name]
    moved = change_basis(alg, _unitriangular_basis_change(alg.dim, random.Random(alg.dim)))
    _, _, (chain, _, _) = derivations._generator_system(moved)
    assert alg.dim == 3 or any(sum(1 for x in f_k.values() if x) > 1 for f_k in chain)
    for table in (alg, moved):
        assert table.tail_filtered and derivations._generators_decide(table)
        gens = []
        with monkeypatch.context() as patch:
            _record_generators(patch, gens)
            space = derivations.DerivationSpace(table)
            nil = space.all_nilpotent
            maps = [m.columns for m in space.basis]
        assert gens == [2] and nil is products_vanish(maps)
        _assert_flat_matches_full_system(table)


def test_cli_never_builds_the_full_system_of_a_lie_catalog_member(capsys, tmp_path, monkeypatch):
    # der space, der char-nilp and affine synth solve Der(g) on two
    # generators on every Lie member of CATALOG_MEMBERS; a table moved off
    # its filtration by a dense change takes the whole basis
    members = [alg for alg in CATALOG_MEMBERS.values() if not jacobi_report(alg)]
    moved = change_basis(make_ln(8), dense_basis_change(8, random.Random(8)))
    paths = []
    for k, alg in enumerate([*members, moved]):
        paths.append(tmp_path / f"member-{k}.json")
        paths[-1].write_text(json.dumps(algebra_to_json(alg)))
    argvs = [[*command, "--in", str(path), "--reproducible"] for path in paths[:-1]
             for command in (["der", "space"], ["der", "char-nilp"], ["affine", "synth"])]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    gens = []
    with monkeypatch.context() as patch:
        _record_generators(patch, gens)
        assert {run(argv)[0] for argv in argvs} == {0, 1}
        assert len(gens) >= len(members) and set(gens) == {2}
        gens.clear()
        assert run(["der", "space", "--in", str(paths[-1]), "--reproducible"])[0] == 0
    assert gens == [8]


# (algebra, basis change): seeded moves off the adapted basis
MOVED_CASES = [("Q8Z", "sparse"), ("Q8Z", "dense"), ("C8(2/3,1/2)", "rational"),
               ("A9^2", "sparse"), ("B10^3", "sparse"), ("Benoist(1)", "sparse")]
_BASIS_CHANGES = {"sparse": sparse_basis_change, "dense": dense_basis_change,
                  "rational": rational_basis_change}


@pytest.mark.parametrize("name, move", MOVED_CASES, ids=["-".join(c) for c in MOVED_CASES])
def test_moved_tables_solve_the_full_system(name, move, monkeypatch):
    # off the filtration the builder takes the whole basis as its generators
    for table in _moved_tables(name, move):
        assert not table.tail_filtered and not derivations._generators_decide(table)
        assert derivations._generator_system(table)[2][2] == table.dim
        _assert_whole_basis_rows_match_oracle(table, monkeypatch)
        _assert_flat_matches_full_system(table)


def _moved_tables(name, move):
    # the member moved off its adapted basis, then tampered once and four times
    base = CATALOG_MEMBERS[name]
    alg = change_basis(base, _BASIS_CHANGES[move](base.dim, random.Random(base.dim)))
    rng = random.Random(3)
    return [alg, *(_tampered_algebra(alg, rng, changes) for changes in (1, 4))]


def test_builder_rows_hold_no_zero_entry(monkeypatch):
    # every row comes without its cancelled entries, on two generators and
    # on the whole basis, so the kernel's sparsest-first sort reads true
    # lengths
    tables = [*CATALOG_MEMBERS.values(),
              *(alg for name in _DIFFERENTIAL_ALGEBRAS for alg in _differential_tables(name)),
              *(alg for case in MOVED_CASES for alg in _moved_tables(*case))]
    for alg in tables:
        for whole in (False, True):
            with monkeypatch.context() as patch:
                if whole:
                    _whole_basis(patch)
                rows = derivations._generator_system(alg)[0]
            assert all(all(row.values()) for row in rows), alg.name
            assert rows or not whole


def test_tables_that_miss_a_step_bracket_pin_nothing():
    # [e1, e3] = e4 with e2 central (1-based) meets (a) but not (b): [g, g]
    # is span(e4), not span(e3, e4), and D e3 = e2, at a place the adapted
    # case pins, is a derivation
    alg = LieAlgebra(4, {(0, 2): {3: 1}})
    assert not alg.tail_filtered
    assert not make_abelian(3).tail_filtered
    assert 1 * 4 + 2 in _forced_zeros(4)
    assert is_derivation(alg, Matrix.from_sparse([{}, {}, {1: 1}, {}], 1)) == []
    assert contains(derivation_space(alg).flat, dense_vector({1 * 4 + 2: F(1)}, 16))
    for table in (alg, make_abelian(3)):
        assert not derivations._generators_decide(table)
        _assert_flat_matches_full_system(table)


# the Lie members of every catalog family up to n = 16, Benoist's seven t
# of the obstruction workload included
_LIE_CATALOG = {
    **{f"L{n}": make_ln(n) for n in range(3, 17)},
    **{f"Q{n}": make_qn(n) for n in range(6, 17, 2)},
    **{f"Q{n}Z": make_qn(n, adapted=True) for n in range(6, 17, 2)},
    **{f"C{n}": make_cn(n, [1] * ((n - 4) // 2))[0] for n in range(6, 17, 2)},
    "C8(2/3,1/2)": make_cn(8, [F(2, 3), F(1, 2)])[0],
    "A5^2(1)": make_ank(5, 2, [1])[0],
    "A9^2(1,1,1)": make_ank(9, 2, [1, 1, 1])[0],
    "A11^3(1,2,16/9)": make_ank(11, 3, [1, 2, F(16, 9)])[0],
    "A16^8(1,1,1)": make_ank(16, 8, [1, 1, 1])[0],
    "B6^2(1)": make_bnk(6, 2, [1])[0],
    "B10^6(1)": make_bnk(10, 6, [1])[0],
    "B16^12(1)": make_bnk(16, 12, [1])[0],
    **{f"Benoist({t})": make_benoist(F(t)) for t in ("0", "1", "-1", "2", "1/3", "-1/2", "7/5")},
}


def _fraction_weight_space(alg):
    # diag(w) lies in Der(g) exactly when w solves the full Fraction system
    # with every off-diagonal unknown set to 0: each row cut to its diagonal
    n = alg.dim
    rows = [{c // (n + 1): x for c, x in row.items() if not c % (n + 1)}
            for row in dense.derivation_equations(alg)]
    return _nullspace(map(integer_row, rows), n)


_REDUCED_CASES = [("differential", name) for name in _DIFFERENTIAL_ALGEBRAS] + [
    ("catalog", name) for name in _LIE_CATALOG]


@pytest.mark.parametrize("kind, name", _REDUCED_CASES, ids=["-".join(c) for c in _REDUCED_CASES])
def test_generator_pair_systems_equal_the_full_ones(kind, name):
    # Der(g) and the weights solved on the pairs (i, j) with i <= 1 where
    # Jacobi lets them decide, against the full systems on every pair
    if kind == "differential":
        tables = _differential_tables(name)
    else:
        tables = [_LIE_CATALOG[name]]
        assert tables[0].tail_filtered and not jacobi_report(tables[0])
    for alg in tables:
        _assert_flat_matches_full_system(alg)
        weights = diagonal_derivations(alg)
        oracle = _fraction_weight_space(alg)
        assert weights == oracle and weights.rows == oracle.rows


def _full_weight_space(alg):
    # the kernel on the full weight system: one row w_i + w_j - w_k per
    # stored constant, on every pair
    rows = []
    for (i, j), coeffs in alg.structure.items():
        for k in coeffs:
            row = {i: 1, j: 1}
            row[k] = row.get(k, 0) - 1
            rows.append(row)
    return _nullspace(rows, alg.dim)


def _no_weight_elimination(patch):
    # the closed form runs neither kernel entry point nor the Jacobi report
    def no_kernel(*args):
        raise AssertionError("the weights of a tail_filtered table ran the kernel")

    for module, name in ((derivations, "_nullspace"), (derivations, "_gauss_jordan"),
                         (linalg, "_gauss_jordan"), (derivations, "jacobi_report"),
                         (liealg, "jacobi_report")):
        patch.setattr(module, name, no_kernel)


def _assert_closed_form_weights(alg, monkeypatch):
    # a fresh space's weights, read with no elimination, are the kernel's
    # canonical rows, in the same order and with the same dict insertion order
    assert alg.tail_filtered
    with monkeypatch.context() as patch:
        _no_weight_elimination(patch)
        weights = derivations.DerivationSpace(alg).weights
    oracle = _full_weight_space(alg)
    assert weights == oracle
    assert [(p, list(row.items())) for p, row in weights.rows] == [
        (p, list(row.items())) for p, row in oracle.rows]
    return weights


def _seeded_cn(rng):
    n = rng.choice(range(6, 17, 2))
    return make_cn(n, [rng.choice((1, -1, F(2, 3), F(1, 2))) for _ in range((n - 4) // 2)])[0]


_CLOSED_FORM_FAMILIES = {
    **{f"L{n}": make_ln(n) for n in range(3, 41)},
    **{f"Q{n}": make_qn(n) for n in range(6, 21, 2)},
    **{f"Q{n}Z": make_qn(n, adapted=True) for n in range(6, 21, 2)},
    **{f"Cn-draw{s}": _seeded_cn(random.Random(s)) for s in range(8)},
    "A7^2(1,1/2)": make_ank(7, 2, [1, F(1, 2)])[0],
    "A9^3(1,1)": make_ank(9, 3, [1, 1])[0],
    "A11^3(1,1,2/3)": make_ank(11, 3, [1, 1, F(2, 3)])[0],
    "A9^2(1,1,2/3)": make_ank(9, 2, [1, 1, F(2, 3)])[0],
    "B6^2(1)": make_bnk(6, 2, [1])[0],
    "B8^4(1)": make_bnk(8, 4, [1])[0],
    "B8^5()": make_bnk(8, 5, [])[0],
    "B8^2(1,1)": make_bnk(8, 2, [1, 1])[0],
    **{f"Benoist({t})": make_benoist(F(t)) for t in ("0", "1", "7/5")},
    "dim1": LieAlgebra(1, {}),
    "dim2": LieAlgebra(2, {}),
}


@pytest.mark.parametrize("name", list(_CLOSED_FORM_FAMILIES))
def test_closed_form_weights_match_the_full_weight_system(name, monkeypatch):
    weights = _assert_closed_form_weights(_CLOSED_FORM_FAMILIES[name], monkeypatch)
    if name.startswith("dim"):
        assert weights.dim == _CLOSED_FORM_FAMILIES[name].dim and weights.den == 1


def _fuzzed_filtered_table(rng):
    # a seeded tail_filtered table: one step bracket [e_i, e_m] -> e_(m+1),
    # i < m, for each m, then a few more constants [e_i, e_j] -> e_k with
    # k > j; the coefficients are random, so most are not Lie
    n = rng.randint(1, 10)
    table = {}
    for m in range(1, n - 1):
        table.setdefault((rng.randrange(m), m), {})[m + 1] = rng.choice((1, -1, 2, -3))
    for _ in range(rng.randint(0, 4) if n > 3 else 0):
        j = rng.randrange(1, n - 2)
        table.setdefault((rng.randrange(j), j), {})[rng.randrange(j + 1, n)] = rng.choice(
            (1, -1, 3, F(1, 2)))
    return LieAlgebra(n, table)


def test_closed_form_weights_match_the_full_weight_system_on_fuzzed_tables(monkeypatch):
    rng = random.Random(53)
    ranks, lie, over_den = set(), 0, 0
    for _ in range(4000):
        alg = _fuzzed_filtered_table(rng)
        weights = _assert_closed_form_weights(alg, monkeypatch)
        if alg.dim >= 2:
            ranks.add(2 - weights.dim)
        lie += not jacobi_report(alg)
        over_den += weights.den > 1
    # every branch of the closed form is reached, Lie and not
    assert ranks == {0, 1, 2} and over_den >= 50 and 100 <= lie <= 3900


def test_weights_and_der_diag_run_no_kernel_on_any_family(monkeypatch, capsys):
    families = [["--family", "Ln", "--n", "24"], ["--family", "Qn", "--n", "12"],
                ["--family", "QnZ", "--n", "12"],
                ["--family", "Cn", "--n", "12", "--lambda=1", "--lambda=-1", "--lambda=2/3",
                 "--lambda=1/2"], ["--family", "Benoist", "--t=7/5"],
                ["--family", "Ank", "--n", "9", "--k", "3", "--lambda=1", "--lambda=1"],
                ["--family", "Bnk", "--n", "8", "--k", "4", "--lambda=1"]]
    expected = []
    for argv in families:
        assert main(["der", "diag", *argv, "--reproducible"]) == 0
        expected.append(capsys.readouterr().out)
    oracles = {name: _full_weight_space(alg) for name, alg in _CLOSED_FORM_FAMILIES.items()}

    def no_kernel(*args):
        raise AssertionError("the weight solve ran the kernel")

    monkeypatch.setattr(derivations, "_nullspace", no_kernel)
    monkeypatch.setattr(derivations, "_gauss_jordan", no_kernel)
    monkeypatch.setattr(linalg, "_gauss_jordan", no_kernel)
    for name, alg in _CLOSED_FORM_FAMILIES.items():
        # a fresh space too, in case another test already read the kept one
        fresh = derivations.DerivationSpace(alg).weights
        assert fresh == diagonal_derivations(alg) == oracles[name], name
    for argv, out in zip(families, expected):
        assert main(["der", "diag", *argv, "--reproducible"]) == 0
        assert capsys.readouterr().out == out


def test_closed_form_weights_of_a_non_lie_table_skip_the_jacobi_report(monkeypatch):
    # the chain [e1, ej] = e(j+1) with [e2, e3] = e5 and [e3, e4] = e6
    # (1-based) fails Jacobi; its weights are 0 (rank 2), while the pairs
    # with e1 or e2 alone would leave a line
    alg = LieAlgebra(6, {**{(0, m): {m + 1: 1} for m in range(1, 5)},
                         (1, 2): {4: 1}, (2, 3): {5: 1}})
    generator_rows = LieAlgebra(6, {key: c for key, c in alg.structure.items() if key[0] <= 1})
    assert _full_weight_space(generator_rows).dim == 1
    tables = [alg, make_ank(9, 2, [1, 1, F(2, 3)])[0], make_bnk(8, 2, [1, 1])[0]]

    def no_report(*args):
        raise AssertionError("the weights read the Jacobi report")

    for table in tables:
        space = derivations.DerivationSpace(table)
        with monkeypatch.context() as patch:
            patch.setattr(derivations, "jacobi_report", no_report)
            patch.setattr(liealg, "jacobi_report", no_report)
            weights = space.weights
        assert jacobi_report(table) and weights == _full_weight_space(table)
    assert derivations.DerivationSpace(alg).weights.is_zero()


def _nil_gate_tables():
    # every catalog member, Benoist(1) moved so that no Der(g) basis map is
    # lower triangular (the image chain decides), and the tampered tables
    tables = list(_LIE_CATALOG.values())
    tables += list(CATALOG_MEMBERS.values())
    tables.append(change_basis(make_benoist(1), sparse_basis_change(11, random.Random(11))))
    tables += [alg for name in _DIFFERENTIAL_ALGEBRAS for alg in _differential_tables(name)[1:6]]
    return tables


def test_nil_gate_on_the_kernel_rows_matches_the_flat_decision():
    # the kernel-row shape test settles exactly the spaces whose basis maps
    # are all strictly lower triangular; every answer is that of
    # ``products_vanish`` on the basis
    settled = chain_decided = 0
    for alg in _nil_gate_tables():
        # a space of its own: the one kept on a shared table may have read flat
        space = derivations.DerivationSpace(alg)
        nil = space.all_nilpotent
        read_flat = "flat" in vars(space)
        maps = [m.columns for m in derivation_space(alg).basis]
        lower = all(r > j for cols in maps for j, col in enumerate(cols) for r in col)
        assert nil is products_vanish(maps)
        assert read_flat is not lower
        settled += not read_flat
        chain_decided += nil and read_flat
    assert settled >= 7 and chain_decided >= 1


def test_benoist_operation_counts(monkeypatch):
    # the Der(g) system of Benoist(1) on D e1 and D e2: 36 rows in 22
    # unknowns (434 rows in 121 unknowns on the whole basis), and at most 23
    # eliminations, the kernel's and the 12 nil-gate forms', to decide that
    # Der(g) is nil; its weights, 0, are read off the filtration with no
    # kernel call. A route back to the whole basis, a builder that brings
    # back the redundant rows, or a weight solve that goes back to the
    # kernel, fails here
    alg = make_benoist(1)
    rows, upper, (_, _, gens) = derivations._generator_system(alg)
    assert gens == 2 and len(rows) == 36 and len(upper) == 12
    assert {c for row in rows for c in row} <= set(range(22))
    with monkeypatch.context() as patch:
        _whole_basis(patch)
        rows, upper, _ = derivations._generator_system(alg)
        assert len(rows) == 434 and len(upper) == 66
    with monkeypatch.context() as patch:
        _no_weight_elimination(patch)
        assert diagonal_derivations(alg).is_zero()
    calls = []
    eliminate = linalg._eliminate

    def counted_eliminate(*args):
        calls.append(1)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    gens = []
    _record_generators(monkeypatch, gens)
    space = derivations.DerivationSpace(alg)
    assert space.all_nilpotent
    assert gens == [2] and len(calls) <= 23 and "flat" not in vars(space)


def _dense_draws(space, seed, trials):
    # the dense accumulator the sparse draws replaced: one randint(-10, 10)
    # per RREF row, in row order, summed into a tuple of every entry
    rng = random.Random(seed)
    for _ in range(trials):
        acc = [ZERO] * space.ambient_dim
        for _, row in space.rows:
            c = rng.randint(-10, 10)
            if c:
                for j, x in row.items():
                    acc[j] += c * F(x, space.den)
        yield tuple(acc)


def _rational_span():
    # four seeded vectors with non-integer entries; their RREF rows are
    # denser and carry larger denominators than a Der(g) basis
    rng = random.Random(2)
    return span([[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(9)]
                 for _ in range(4)], 9)


@pytest.mark.parametrize("space", [
    derivation_space(make_ln(8)).flat, derivation_space(make_qn(8)).flat, _rational_span(),
    Subspace(7, ()),
], ids=["Der-L8", "Der-Q8", "rational-span", "zero"])
@pytest.mark.parametrize("seed", range(5))
def test_sparse_draws_match_dense_oracle(space, seed):
    drawn = list(seeded_combinations(space, seed, 6))
    assert all(type(x) is int for v in drawn for x in v.values())
    assert [dense_vector(unscaled(v, space.den), space.ambient_dim) for v in drawn] == list(
        _dense_draws(space, seed, 6))
    if space.is_zero():
        assert drawn == [{}] * 6


def test_nil_derivation_algebra_settles_searches_without_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a settled search drew a candidate")

    monkeypatch.setattr(derivations, "seeded_combinations", no_draw)

    def no_build(*args):
        raise AssertionError("a settled search built its candidates")

    b1 = make_benoist(1)
    space = derivation_space(b1)
    with monkeypatch.context() as patch:
        # char-nilp reads neither the weight space nor [g, g], and its
        # basis only past the gate
        patch.setattr(derivations.DerivationSpace, "weights", property(no_build))
        patch.setattr(derivations, "derived_subalgebra", no_build)
        patch.setattr(derivations.DerivationSpace, "basis", property(no_build))
        # and a bad budget is refused before Der(g) is solved
        with monkeypatch.context() as inner:
            inner.setattr(derivations, "derivation_space", no_build)
            with pytest.raises(ValueError, match="trials"):
                char_nilpotent_verdict(b1, trials=0)
        verdict = char_nilpotent_verdict(b1, seed=3, trials=10 ** 9)
        assert (verdict.kind, verdict.witness, verdict.seed, verdict.trials) == (
            CHAR_NILPOTENT_LIKELY, None, 3, 10 ** 9)
    # regular and derived-regular try the diagonal weights before the gate;
    # on a nil Der(g) they span 0, so the gate still settles both without a
    # draw, and they share one weight solve, that of the space kept on b1:
    # one closed form (``_filtered_weights``), since b1 is tail_filtered
    filtered = derivations._filtered_weights
    with monkeypatch.context() as patch:
        solves = []
        patch.setattr(derivations, "_filtered_weights",
                      lambda alg: solves.append(alg.dim) or filtered(alg))
        patch.setattr(derivations, "_nullspace", no_build)
        patch.setattr(derivations.DerivationSpace, "basis", property(no_build))
        with monkeypatch.context() as inner:
            inner.setattr(derivations, "derived_subalgebra", no_build)
            assert find_regular_derivation(space.algebra, seed=3, trials=10 ** 9) is None
        assert find_derived_regular_derivation(space.algebra, seed=3, trials=10 ** 9) is None
        assert solves == [11]
    assert space.weights.is_zero()
    # C8 (1, -1) has no invertible diagonal derivation, so its search draws
    with pytest.raises(AssertionError, match="drew"):
        find_regular_derivation(make_cn(8, [1, -1])[0])


def test_diagonal_hit_never_solves_der_g(monkeypatch):
    # the witness is a diagonal weight, found before Der(g) is solved, so
    # it does not depend on the seed
    monkeypatch.setattr(derivations, "_generator_system", _no_solve)
    cases = [(make_cn(12, [1, -1, 1, 1])[0], "derived-regular")] + [
        (alg, strategy)
        for alg in (make_ln(12), make_qn(10), make_qn(12, adapted=True),
                    make_ank(11, 3, [1, 2, F(16, 9)])[0])
        for strategy in ("auto", "regular")]
    for alg, strategy in cases:
        _, cert = synthesize(alg, strategy)
        witness = cert.witnesses["derivation"]
        assert cert.strategy == ("derived-regular" if strategy == "derived-regular"
                                 else "regular"), alg.name
        assert all(set(col) <= {j} for j, col in enumerate(witness.columns)), alg.name
        assert synthesize(alg, strategy, seed=7)[1].witnesses["derivation"] == witness
        with pytest.raises(AssertionError, match="solved"):
            derivation_space(alg).dim


def test_derived_regular_hits_a_curve_point_when_no_basis_weight_passes(monkeypatch):
    # h3 + h3: each RREF weight vanishes on one of [g, g] = span(e3, e6),
    # so no basis weight passes; the first curve point b1 + b2 + b3 + b4
    # does, before Der(g) is solved and whatever the seed
    alg = LieAlgebra(6, {(0, 1): {2: 1}, (3, 4): {5: 1}})
    derived = derived_subalgebra(alg)
    assert not any(derivations._restriction_invertible(derived, Matrix.diagonal(w))
                   for w in diagonal_derivations(alg).basis)
    monkeypatch.setattr(derivations, "_generator_system", _no_solve)
    expected = Matrix.diagonal([1, 1, 2, 1, 1, 2])
    for seed in (0, 7):
        assert find_derived_regular_derivation(alg, seed=seed) == expected
        _, cert = synthesize(alg, "derived-regular", seed=seed)
        assert cert.witnesses["derivation"] == expected


@pytest.mark.parametrize("seed", range(200))
def test_weight_candidates_find_an_invertible_weight_exactly_when_one_exists(seed):
    # random small integer bases, some with coordinates forced to 0 on every
    # vector; the oracle tries every combination with coefficients in
    # -3..3, a grid wider than n >= the degree of the product of the
    # coordinates, so it finds an all-nonzero weight whenever one exists
    rng = random.Random(seed)
    n, d = rng.randint(1, 5), rng.randint(1, 3)
    dead = {i for i in range(n) if rng.random() < 0.15}
    weights = span([[0 if i in dead else rng.randint(-2, 2) for i in range(n)]
                    for _ in range(d)], n)
    d = weights.dim
    exists = d > 0 and any(
        all(sum(c * x for c, x in zip(cs, coords)) for coords in zip(*weights.basis))
        for cs in itertools.product(range(-3, 4), repeat=d))
    candidates = list(derivations._weight_candidates(weights))
    assert all(type(x) is int for w in candidates for x in w)
    # each candidate is den times a weight, den that of the space's integer rows
    den = weights.den
    rational = [tuple(F(x, den) for x in w) for w in candidates]
    assert rational[:d] == list(weights.basis)
    assert len(candidates) - d == (n * (d - 1) + 1 if d > 1 else 0)
    # the curve points, summed in ints over one denominator, are the
    # Fraction sums of the basis
    assert rational[d:] == [
        tuple(sum(s ** k * x for k, x in enumerate(coords)) for coords in zip(*weights.basis))
        for s in range(1, len(candidates) - d + 1)]
    assert all(contains(weights, w) for w in rational)
    assert any(all(w) for w in candidates) == exists


def test_verify_torus_ln_pair():
    l6 = make_ln(6)
    report = verify_torus(l6, standard_torus("Ln", 6))
    assert report.passed
    assert report.notes == []


def test_verify_torus_qn_adapted_pair():
    q6z = make_qn(6, adapted=True)
    assert verify_torus(q6z, standard_torus("QnZ", 6)).passed


def test_verify_torus_rejects_nilpotent_map():
    l4 = make_ln(4)
    report = verify_torus(l4, [ad(l4, unit_vector(4, 0))])
    assert not report.passed
    assert report.semisimplicity_failures
    assert report.derivation_failures == []
    assert report.commutation_failures == []


def test_verify_torus_flags_noncommuting_pair():
    alg = make_abelian(2)
    a = Matrix([[0, 1], [0, 0]])
    b = Matrix([[0, 0], [1, 0]])
    report = verify_torus(alg, [a, b])
    assert (0, 1) in report.commutation_failures
    # a non-diagonal map commutes with its square: each column of the
    # commutator cancels to stored zeros, which do not count
    c = Matrix([[2, 1], [0, -1]])
    report = verify_torus(alg, [c, matmul(c, c)])
    assert report.commutation_failures == []
    assert report.passed


def test_verify_torus_reports_non_derivations_and_refuses_wrong_sizes():
    # the identity of L4 commutes and is diagonal, but is no derivation
    l4 = make_ln(4)
    report = verify_torus(l4, [identity(4)])
    assert report.derivation_failures == [(0, is_derivation(l4, identity(4)))]
    assert report.derivation_failures[0][1]
    assert not report.commutation_failures and not report.semisimplicity_failures
    assert not report.passed
    with pytest.raises(DimensionMismatch, match="^map 1 does not match the algebra dimension$"):
        verify_torus(l4, [identity(4), identity(3)])


def test_verify_torus_notes_irrational_eigenvalues():
    # x^2 - 2 is squarefree but has no rational roots: the rational test
    # fails with a note that extensions were not ruled out.
    alg = make_abelian(2)
    m = Matrix([[0, 2], [1, 0]])
    report = verify_torus(alg, [m])
    assert report.semisimplicity_failures
    assert report.notes


def test_verify_torus_decides_large_prime_eigenvalues():
    # both eigenvalues are primes above 10**6; the Sturm isolator finds
    # them on the grid of the integer minimal polynomial, so the diagonal
    # map passes
    report = verify_torus(make_abelian(2), [Matrix.diagonal([1000003, 1000033])])
    assert report.passed
    assert report.semisimplicity_failures == []
    assert report.notes == []


def test_verify_torus_verdicts_known_by_construction():
    rng = random.Random(1103)
    eigenvalues = [F(1, 1000003), F(-7, 3), F(0), F(5), F(2, 9), F(1000003, 2)]
    for size in range(1, 7):
        d = Matrix.diagonal(rng.sample(eigenvalues, size))
        for _ in range(3):
            m = conjugated([d], rng)[0]
            report = verify_torus(make_abelian(size), [m])
            assert report.passed, (size, m)
            assert report.notes == []
    # x^2 - 2 beside a rational eigenvalue: squarefree, does not split
    root2 = Matrix([[0, 2, 0], [1, 0, 0], [0, 0, F(1, 1000003)]])
    report = verify_torus(make_abelian(3), [conjugated([root2], rng)[0]])
    assert report.semisimplicity_failures == [
        (0, "minimal polynomial does not split over the rationals")]
    assert len(report.notes) == 1
    # a Jordan block at a rational eigenvalue
    jordan = Matrix([[F(-3, 5), 1, 0], [0, F(-3, 5), 0], [0, 0, 4]])
    report = verify_torus(make_abelian(3), [conjugated([jordan], rng)[0]])
    assert report.semisimplicity_failures == [(0, "minimal polynomial has a repeated root")]
    assert report.notes == []


# rational roots for the by-construction polynomials: the extremes named in
# the torus tests and small p/q; factors with no rational root, ascending
# coefficients: x^2 - 2, x^2 + 1, x^2 - 3x + 5, x^3 - 2, x^2 + 7/2 x + 1/3
_ROOT_POOL = [F(0), F(1000003), F(-1000003), F(1, 997),
              *{F(p, q) for p in range(-6, 7) for q in range(1, 5)}]
_IRREDUCIBLE = [[F(-2), F(0), F(1)], [F(1), F(0), F(1)], [F(5), F(-3), F(1)],
                [F(-2), F(0), F(0), F(1)], [F(1, 3), F(7, 2), F(1)]]


def _polynomial_case(rng, size, repeated, factor):
    """(ascending coefficients, distinct rational roots) of a seeded product.

    ``size`` distinct roots from ``_ROOT_POOL``, opposite pairs +-r drawn
    often so that coefficients vanish and remainder degrees skip; one
    of them doubled when ``repeated``; times ``factor`` (or 1) and a seeded
    nonzero scale, negative ones included.
    """
    roots = []
    while len(roots) < size:
        r = rng.choice(_ROOT_POOL)
        for x in ([r, -r] if rng.random() < 0.4 else [r]):
            if x not in roots and len(roots) < size:
                roots.append(x)
    p = [F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 5))]
    for x in roots + roots[:1] * repeated:
        p = _poly_mul(p, [-x, F(1)])
    return _poly_mul(p, factor or [F(1)]), set(roots)


def _companion(p):
    # the companion matrix of p / lc(p): its minimal polynomial is p / lc(p)
    d = len(p) - 1
    grid = [[F(int(i == j + 1)) for j in range(d)] for i in range(d)]
    for i in range(d):
        grid[i][d - 1] = -p[i] / p[-1]
    return Matrix(grid)


def test_diagonalizable_over_q_on_companion_matrices_known_by_construction():
    # verdict, reason and inconclusive flag follow from how p was built:
    # a repeated root is reported first, then a factor with no rational root
    rng = random.Random(2411)
    cases = [([F(0), F(-2), F(0), F(0), F(1)], False, True)]  # x^4 - 2x
    for i in range(300):
        repeated, factor = (i // 6) % 2 == 1, ([None] + _IRREDUCIBLE)[i % 6]
        p, _ = _polynomial_case(rng, rng.randint(0 if factor and not repeated else 1, 4),
                                repeated, factor)
        cases.append((p, repeated, factor is not None))
    for p, repeated, irreducible in cases:
        got = derivations._diagonalizable_over_q(_companion(p))
        if repeated:
            assert got == (False, "minimal polynomial has a repeated root", False), p
        elif irreducible:
            assert got == (False, "minimal polynomial does not split over the rationals",
                           True), p
        else:
            assert got == (True, "", False), p


def test_diagonalizable_over_q_of_diagonal_maps_matches_the_minimal_polynomial_route(
        monkeypatch):
    # seeded diagonal maps, with repeated and zero entries; permutation maps,
    # monomial but not diagonal; and a diagonal map plus one entry off it
    rng = random.Random(39)
    maps = []
    for trial in range(120):
        n = 1 + trial % 6
        entries = [F(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(n)]
        maps.append(Matrix.diagonal(entries))
        order = rng.sample(range(n), n)
        maps.append(Matrix.from_sparse([{order[j]: rng.choice((-1, 1, 2))} for j in range(n)], 1))
        if n > 1:
            i, j = rng.sample(range(n), 2)
            columns = [{k: x} for k, x in enumerate(entries)]
            columns[j][i] = F(1)
            maps.append(from_fraction_columns(columns))
    closed = [derivations._diagonalizable_over_q(m) for m in maps]
    with monkeypatch.context() as patch:
        kernel_routes(patch)
        assert [derivations._diagonalizable_over_q(m) for m in maps] == closed
    assert len(set(closed)) == 3


def test_rational_root_count_matches_known_roots():
    # the Sturm bisection counts each distinct rational root once, whatever
    # the multiplicities, the scale and its sign, and the irrational factors
    rng = random.Random(2412)
    for i in range(3000):
        factor = rng.choice([None, None] + _IRREDUCIBLE)
        p, roots = _polynomial_case(rng, rng.randint(0 if factor else 1, 5), i % 3 == 0, factor)
        scale = math.lcm(*(c.denominator for c in p))
        count = derivations._rational_root_count(
            derivations._sturm_chain([int(c * scale) for c in p]))
        assert count == len(roots), p


def test_minimal_polynomial_diagonal():
    m = Matrix.diagonal([1, 1, 2])
    # (x - 1)(x - 2) = x^2 - 3x + 2
    assert minimal_polynomial(m) == [F(2), F(-3), F(1)]


def test_minimal_polynomial_nilpotent_jordan_block():
    l4 = make_ln(4)
    ad1 = ad(l4, unit_vector(4, 0))
    assert minimal_polynomial(ad1) == [F(0), F(0), F(0), F(1)]


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _minimal_polynomial_case(rng, kind):
    """A seeded matrix of size 1-7 and its minimal polynomial, or None when unknown.

    Diagonals repeat eigenvalues from a pool of at most three; Jordan
    blocks mix sizes and eigenvalues (0 among them, so some are nilpotent);
    both are conjugated by a seeded integer P. Random matrices have entries
    in -2..2 and no known answer.
    """
    n = rng.randint(1, 7)
    if kind == "random":
        return Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]), None
    pool = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    if kind == "diagonal":
        eigen = [rng.choice(pool) for _ in range(n)]
        blocks = [(x, 1) for x in eigen]
    else:
        pool[0] = F(0)
        blocks, left = [], n
        while left:
            size = rng.randint(1, left)
            blocks.append((rng.choice(pool), size))
            left -= size
    grid = [[F(0)] * n for _ in range(n)]
    start = 0
    for x, size in blocks:
        for k in range(start, start + size):
            grid[k][k] = x
            if k + 1 < start + size:
                grid[k][k + 1] = F(1)
        start += size
    expected = [F(1)]
    for x in {x for x, _ in blocks}:
        for _ in range(max(size for y, size in blocks if y == x)):
            expected = _poly_mul(expected, [-x, F(1)])
    return conjugated([Matrix(grid)], rng)[0], expected


@pytest.mark.parametrize("kind", ["diagonal", "jordan", "random"])
def test_minimal_polynomial_oracle_on_seeded_matrices(kind):
    # mu is monic, mu(m) = 0 by the dense matrix oracles, and I, m, ..., m^(d-1)
    # are independent (their dense flattenings span d dimensions), so no lower
    # degree annihilates m; known cases must match the product of (x - lambda)^k
    rng = random.Random({"diagonal": 11, "jordan": 12, "random": 13}[kind])
    nilpotent = 0
    for _ in range(70):
        m, expected = _minimal_polynomial_case(rng, kind)
        n = m.dim
        mu = minimal_polynomial(m)
        d = len(mu) - 1
        assert 1 <= d <= n and mu[-1] == 1
        powers = [identity(n)]
        for _ in range(d):
            powers.append(matmul(powers[-1], m))
        total = zeros(n)
        for c, p in zip(mu, powers):
            total = add(total, scaled(p, c))
        assert total == zeros(n), m
        assert span([[x for row in p.data for x in row] for p in powers[:d]], n * n).dim == d
        if expected is not None:
            assert mu == expected, m
        nilpotent += mu == [F(0)] * d + [F(1)]
    assert kind != "jordan" or nilpotent > 0


def test_random_derivation_combos_stay_derivations():
    rng = random.Random(5)
    alg = make_qn(6)
    space = derivation_space(alg)
    combos = []
    for _ in range(10):
        combo = zeros(6)
        for m in space.basis:
            c = rng.randint(-3, 3)
            if c:
                combo = add(combo, scaled(m, c))
        combos.append(combo)
    combos += [space.matrix(v) for v in seeded_combinations(space.flat, 5, 10)]
    for combo in combos:
        assert is_derivation(alg, combo) == []


def test_diagonal_derivations_with_self_cancelling_equation():
    # [e1, e2] = e1 gives the weight equation w1 + w2 = w1, whose w1 terms
    # cancel: the only condition is w2 = 0.
    alg = LieAlgebra(2, {(0, 1): {0: 1}})
    assert diagonal_derivations(alg).basis == ((F(1), F(0)),)


def test_derivation_space_is_immutable_and_solves_each_view_once(monkeypatch):
    # one weight solve and one Der(g) kernel pass (the ``_gauss_jordan`` of
    # the Der(g) rows) per space, each kept: the weights are the
    # closed form (``_filtered_weights``) on a tail_filtered table and the
    # ``_nullspace`` of the weight equations on any other
    calls = []
    filtered = derivations._filtered_weights
    nullspace, gauss_jordan = derivations._nullspace, derivations._gauss_jordan

    def counted_filtered(alg):
        calls.append(alg.dim)
        return filtered(alg)

    def counted_weights(rows, n):
        calls.append(f"kernel {n}")
        return nullspace(rows, n)

    def counted_kernel(rows):
        calls.append("Der")
        return gauss_jordan(rows)

    monkeypatch.setattr(derivations, "_filtered_weights", counted_filtered)
    monkeypatch.setattr(derivations, "_nullspace", counted_weights)
    monkeypatch.setattr(derivations, "_gauss_jordan", counted_kernel)
    alg = make_ln(6)
    # derivation_space keeps one space on the algebra; two built directly
    # keep their views apart
    assert derivation_space(alg) is derivation_space(alg)
    first, second = derivations.DerivationSpace(alg), derivations.DerivationSpace(alg)
    assert first.flat is first.flat and first.weights is first.weights
    assert first.all_nilpotent is first.all_nilpotent and first.dim == len(first.basis)
    assert sorted(calls, key=str) == [6, "Der"]
    assert second.flat is not first.flat and second.flat.rows == first.flat.rows
    assert second.weights is not first.weights and second.weights == first.weights
    assert sorted(calls, key=str) == [6, 6, "Der", "Der"]
    # a table that is not tail_filtered solves its weights in the kernel, once
    tilted = derivations.DerivationSpace(LieAlgebra(2, {(0, 1): {0: 1}}))
    assert not tilted.algebra.tail_filtered
    assert tilted.weights is tilted.weights and tilted.weights.dim == 1
    assert calls[4:] == ["kernel 2"]
    for name in ("algebra", "flat", "weights", "other"):
        with pytest.raises(AttributeError):
            setattr(first, name, None)
    assert first.algebra is alg and first.flat is vars(first)["flat"]
    assert repr(first) == f"DerivationSpace(algebra={alg!r})"


def test_char_nilp_verdict_is_immutable_and_its_repr_pinned():
    verdict = char_nilpotent_verdict(make_benoist(1))
    assert repr(verdict) == (
        "CharNilpVerdict(kind='CharNilpotentLikely', witness=None, seed=0, trials=32)")
    with pytest.raises(AttributeError):
        verdict.kind = NOT_CHAR_NILPOTENT


def test_verify_torus_builds_fresh_lists_for_each_report():
    alg = make_ln(6)
    maps = standard_torus("Ln", 6)
    first, second = verify_torus(alg, maps), verify_torus(alg, maps)
    lists = [*first, *second]
    assert len({id(x) for x in lists}) == 8 and all(type(x) is list for x in lists)
    assert first == second and first.passed
