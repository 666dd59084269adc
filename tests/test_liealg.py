"""Lie algebra core: brackets, Jacobi certification, series, 2-forms."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from lieaffine import affine, linalg
from lieaffine.affine import find_symplectic
from lieaffine.catalog import (
    make_abelian,
    make_ank,
    make_benoist,
    make_bnk,
    make_cn,
    make_ln,
    make_qn,
)
from lieaffine.liealg import (
    LieAlgebra,
    TwoForm,
    algebra_hash,
    cyclic_sum_terms,
    derived_subalgebra,
    dtheta_residual,
    is_filiform,
    is_nilpotent_algebra,
    jacobi_report,
    lower_central_series,
    nondegenerate,
)
from lieaffine.linalg import Matrix, Subspace, _nullspace

import dense
from dense import (
    ad,
    add,
    bracket,
    bracket_table,
    column,
    dtheta_violations,
    integer_row,
    jacobi_violations,
    rational_table,
    scaled,
    unit_vector,
    zeros,
)

F = Fraction


def _rand_vec(rng, n):
    return tuple(F(rng.randint(-5, 5)) for _ in range(n))


def test_bracket_l4_chain():
    l4 = make_ln(4)
    assert bracket(l4, unit_vector(4, 0), unit_vector(4, 1)) == unit_vector(4, 2)
    assert bracket(l4, unit_vector(4, 0), unit_vector(4, 2)) == unit_vector(4, 3)
    assert bracket(l4, unit_vector(4, 0), unit_vector(4, 3)) == (F(0),) * 4


def test_bracket_vanishes_on_equal_arguments():
    rng = random.Random(0)
    for alg in (make_ln(5), make_qn(6), make_cn(6, [1])[0]):
        for _ in range(10):
            x = _rand_vec(rng, alg.dim)
            assert all(c == 0 for c in bracket(alg, x, x))


def test_bracket_q6_adapted_pair():
    q6z = make_qn(6, adapted=True)
    assert bracket(q6z, unit_vector(6, 1), unit_vector(6, 4)) == tuple(
        -v for v in unit_vector(6, 5)
    )
    # antisymmetry round trip
    assert bracket(q6z, unit_vector(6, 4), unit_vector(6, 1)) == unit_vector(6, 5)


def test_bracket_antisymmetric_on_random_vectors():
    rng = random.Random(1)
    for alg in (make_ln(6), make_qn(8), make_benoist(1)):
        for _ in range(8):
            x = _rand_vec(rng, alg.dim)
            y = _rand_vec(rng, alg.dim)
            xy = bracket(alg, x, y)
            yx = bracket(alg, y, x)
            assert xy == tuple(-v for v in yx)


def test_ad_l4_matrix():
    l4 = make_ln(4)
    ad1 = ad(l4, unit_vector(4, 0))
    assert column(ad1, 1) == unit_vector(4, 2)
    assert column(ad1, 2) == unit_vector(4, 3)
    assert column(ad1, 0) == (F(0),) * 4
    assert column(ad1, 3) == (F(0),) * 4


def test_ad_of_central_element_is_zero():
    l4 = make_ln(4)
    assert ad(l4, unit_vector(4, 3)) == zeros(4)


def test_jacobi_report_l12_empty():
    assert jacobi_report(make_ln(12)) == []


def test_jacobi_report_flags_corrupted_l4():
    # Add [Y2, Y4] = Y3 to L4. Then J(Y1, Y2, Y4) = [Y1, Y3] + [Y4, Y3]
    # = Y4, an exact nonzero residual at the (0, 1, 3) triple.
    bad = LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 3): {2: 1}})
    report = jacobi_report(bad)
    triples = {(i, j, k): res for i, j, k, res in report}
    assert (0, 1, 3) in triples
    assert triples[(0, 1, 3)] == unit_vector(4, 3)


@pytest.mark.parametrize("make", [
    lambda: make_ank(9, 2, [1, 1, 2]), lambda: make_cn(8, [1, 1]),
    lambda: (make_ln(6), None),
], ids=["A9^2(1,1,2)", "C8", "L6"])
def test_jacobi_report_is_kept_and_each_call_returns_a_new_list(make):
    # the constructors that return a report keep it on the algebra; every
    # call hands out an equal list of its own, so mutating one changes no other
    alg, report = make()
    kept = "_jacobi_report" in vars(alg)
    assert kept is (report is not None)
    first, second = jacobi_report(alg), jacobi_report(alg)
    assert type(first) is list and first == second and first is not second
    assert report is None or (report == first and report is not first)
    first.append("mutated")
    first[:0] = [None]
    third = jacobi_report(alg)
    assert third == second and third is not second
    assert type(vars(alg)["_jacobi_report"]) is tuple
    assert list(vars(alg)["_jacobi_report"]) == second


@pytest.mark.parametrize("alg", [
    make_ln(6), make_cn(8, [F(2, 3), F(1, 2)])[0], make_benoist(F(7, 5)),
], ids=["L6", "C8", "B7/5"])
def test_ad_columns_and_their_integer_scaling_read_the_brackets(alg):
    # the table is held over the lcm of its Fraction view's denominators,
    # and ad_columns are its ints over that den, antisymmetry applied
    n = alg.dim
    table = bracket_table(alg)
    view = rational_table(alg)
    assert alg.den == math.lcm(*(c.denominator for col in view.values() for c in col.values()))
    assert alg.structure == {pair: {k: c * alg.den for k, c in col.items()}
                             for pair, col in view.items()}
    ints = alg.ad_columns
    assert ints == [[{k: c * alg.den for k, c in col.items()} for col in row] for row in table]
    assert all(type(c) is int for row in ints for col in row for c in col.values())


def _all_triples_cyclic_terms(alg):
    # every triple i < j < k of the Fraction view scanned, the ones whose
    # three brackets vanish dropped
    n, s = alg.dim, rational_table(alg)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = [(i, m, c) for m, c in s.get((j, k), {}).items()]
                terms += [(j, m, -c) for m, c in s.get((i, k), {}).items()]
                terms += [(k, m, c) for m, c in s.get((i, j), {}).items()]
                if terms:
                    yield (i, j, k), terms


def _random_sparse_algebra(n, pairs, seed):
    rng = random.Random(seed)
    structure = {}
    for _ in range(pairs):
        i, j = sorted(rng.sample(range(n), 2))
        structure[(i, j)] = {rng.randrange(n): F(rng.randint(1, 5), rng.randint(1, 3))}
    return LieAlgebra(n, structure)


def _perturbed(alg, rng):
    # one structure constant set to a seeded rational (a new one, or one replaced)
    n = alg.dim
    i, j = sorted(rng.sample(range(n), 2))
    k = rng.randrange(n)
    structure = rational_table(alg)
    structure.setdefault((i, j), {})[k] = F(rng.choice((-7, -2, 1, 3, 5)), rng.choice((1, 2, 9)))
    return LieAlgebra(n, structure)


def _random_form(rng, n):
    entries = {(i, j): F(rng.randint(-6, 6), rng.choice((1, 4, 15)))
               for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    return TwoForm.from_entries(n, entries)


def _summed_per_triple(terms):
    # {triple: sorted (a, m, c)} with equal (a, m) summed and zero sums dropped
    sums = {}
    for triple, a, m, c in terms:
        acc = sums.setdefault(triple, {})
        acc[a, m] = acc.get((a, m), 0) + c
    return {t: sorted((a, m, c) for (a, m), c in acc.items() if c)
            for t, acc in sums.items() if any(acc.values())}


_CYCLIC_ALGEBRAS = [
    make_abelian(5), make_ln(24), make_qn(24), make_cn(12, [1, -1, 1, 1])[0],
    make_benoist(F(7, 5)), _random_sparse_algebra(9, 4, 1), _random_sparse_algebra(12, 30, 2),
]
_CYCLIC_IDS = ["abelian5", "L24", "Q24", "C12", "B7/5", "random9", "random12"]


@pytest.mark.parametrize("alg", _CYCLIC_ALGEBRAS, ids=_CYCLIC_IDS)
def test_cyclic_terms_match_the_all_triples_scan(alg):
    # with every index a partner of every target, the helper's terms summed
    # per triple are the scan's, on the Fraction view and on the integer
    # table the callers pass, read as an algebra scaled by its den
    everyone = [range(alg.dim)] * alg.dim
    scaled = LieAlgebra(alg.dim, alg.structure)
    for table, oracle in ((rational_table(alg), alg),
                          (alg.structure, scaled)):
        expected = {t: sorted(terms) for t, terms in _all_triples_cyclic_terms(oracle)}
        assert _summed_per_triple(cyclic_sum_terms(table, everyone)) == expected


def _cyclic_counts(alg, forms):
    """(Jacobi fails, open forms): jacobi_report and dtheta_residual checked on alg and each form."""
    report = jacobi_report(alg)
    assert report == jacobi_violations(alg)
    residuals = [dtheta_residual(alg, form) for form in forms]
    assert residuals == [dtheta_violations(alg, form) for form in forms]
    assert all(type(x) is Fraction for *_, residual in report for x in residual)
    assert all(type(x) is Fraction for residual in residuals for *_, x in residual)
    return bool(report), sum(map(bool, residuals))


def test_cyclic_sums_match_all_triples_oracles_on_non_lie_tables_and_open_forms():
    # each algebra and three perturbed tables, with three random forms
    counts = []
    for alg in _CYCLIC_ALGEBRAS:
        rng = random.Random(alg.dim)
        tables = [alg] + [_perturbed(alg, rng) for _ in range(3)]
        forms = [_random_form(rng, alg.dim) for _ in range(3)]
        counts += [_cyclic_counts(table, forms) for table in tables]
    broken, nonclosed = map(sum, zip(*counts))
    assert broken >= 14 and nonclosed >= 60


@pytest.mark.parametrize("name", ["B7/5", "C12", "L12"])
def test_integer_jacobi_and_dtheta_sums_match_fraction_oracles(name):
    # a Lie base and eight perturbed tables, three random forms for each,
    # and on the base a closed one where it has one (L12)
    base = {"B7/5": make_benoist(F(7, 5)), "C12": make_cn(12, [1, -1, 1, 1])[0],
            "L12": make_ln(12)}[name]
    algebras = [base] + [_perturbed(base, random.Random(f"{name}/{s}")) for s in range(8)]
    rng = random.Random(name)
    forms = [[_random_form(rng, base.dim) for _ in range(3)] for _ in algebras]
    forms[0].append(find_symplectic(base))
    counts = [_cyclic_counts(alg, list(filter(None, f))) for alg, f in zip(algebras, forms)]
    broken, nonclosed = map(sum, zip(*counts))
    assert not jacobi_report(base)
    assert broken >= 4
    assert nonclosed >= 20


def _fraction_closed_forms(alg, pairs):
    # one Fraction row per scanned triple, the unknowns th(e_a, e_m) at their
    # pair; a term on a pair outside ``pairs`` has th = 0 and drops
    index = {p: s for s, p in enumerate(pairs)}
    rows = []
    for _, terms in _all_triples_cyclic_terms(alg):
        row = {}
        for a, m, c in terms:
            col = index.get((min(a, m), max(a, m)))
            if a != m and col is not None:
                row[col] = row.get(col, F(0)) + (c if a < m else -c)
        rows.append(row)
    return _nullspace(map(integer_row, rows), len(pairs))


@pytest.mark.parametrize("alg", [
    make_qn(8), make_ln(12), make_abelian(4), _random_sparse_algebra(8, 6, 3),
    _random_sparse_algebra(10, 25, 4), _perturbed(make_ln(12), random.Random(5)),
], ids=["Q8", "L12", "abelian4", "random8", "random10", "L12-perturbed"])
def test_closed_forms_match_the_all_triples_scan(alg):
    # the two spaces find_symplectic solves: every closed form, which the
    # seeded draws read, and the closed forms of one weight class, here of a
    # seeded w with repeated entries; the same canonical rows, dict order
    # included, and the pairs in ascending order
    n = alg.dim
    rng = random.Random(n)
    w = [rng.randint(0, 2) for _ in range(n)]
    c = min(w) + max(w)
    for in_class in (lambda i, j: True, lambda i, j: w[i] + w[j] == c):
        pairs, space = affine._closed_forms(
            alg, [[a for a in range(n) if a != m and in_class(a, m)] for m in range(n)])
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n) if in_class(i, j)]
        expected = _fraction_closed_forms(alg, pairs)
        assert [(p, list(row.items())) for p, row in space.rows] == [
            (p, list(row.items())) for p, row in expected.rows]


def test_jacobi_report_benoist_all_three_points():
    # Residuals are quadratic in the family parameter, so three distinct
    # parameter points certify the identity for every parameter value.
    for t in (0, 1, F(-1, 2)):
        assert jacobi_report(make_benoist(t)) == []


def test_lower_central_series_l4():
    dims = [s.dim for s in lower_central_series(make_ln(4))]
    assert dims == [4, 2, 1, 0]


def test_lower_central_series_abelian():
    dims = [s.dim for s in lower_central_series(make_abelian(3))]
    assert dims == [3, 0]


def test_lower_central_series_c6():
    c6 = make_cn(6, [1])[0]
    dims = [s.dim for s in lower_central_series(c6)]
    assert dims == [6, 4, 3, 2, 1, 0]


def test_series_strictly_decreasing_until_zero_on_catalog():
    for alg in (make_ln(7), make_qn(8), make_qn(8, adapted=True), make_benoist(0)):
        dims = [s.dim for s in lower_central_series(alg)]
        assert all(a > b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == 0
        assert is_nilpotent_algebra(alg)


def test_derived_subalgebra_l4():
    d = derived_subalgebra(make_ln(4))
    assert d.dim == 2
    assert d.basis == (unit_vector(4, 2), unit_vector(4, 3))


def test_derived_subalgebra_abelian():
    assert derived_subalgebra(make_abelian(5)).dim == 0


def test_derived_subalgebra_c6():
    d = derived_subalgebra(make_cn(6, [1])[0])
    assert d.dim == 4
    assert d.basis == tuple(unit_vector(6, i) for i in range(2, 6))


FILTERED_TABLES = [make_abelian(1), make_abelian(2), make_ln(3), make_ln(12), make_qn(10),
                   make_qn(10, adapted=True), make_cn(8, [F(2, 3), F(1, 2)])[0],
                   make_ank(9, 2, [1, 1, 2])[0], make_bnk(10, 3, [F(1, 2), F(3, 4)])[0],
                   make_benoist(F(7, 5))]


@pytest.mark.parametrize("alg", FILTERED_TABLES, ids=[a.name for a in FILTERED_TABLES])
def test_tail_filtered_tables_have_the_unit_rows_as_their_series(alg):
    # C^k g = span(e_(k+1), ..., e_(n-1)) for k >= 1, so [g, g] is read off
    # without the kernel, and equals the dense series, int types included;
    # the non-Lie Ank and Bnk members pass too
    n = alg.dim
    assert alg.tail_filtered
    derived = derived_subalgebra(alg)
    assert [(p, list(row.items())) for p, row in derived.rows] == [
        (k, [(k, 1)]) for k in range(2, n)]
    assert all(type(x) is int for _, row in derived.rows for x in (derived.den, *row.values()))
    series = lower_central_series(alg)
    assert series[1:] == [Subspace(n, [(m, {m: 1}) for m in range(k + 1, n)])
                          for k in range(1, len(series))]
    assert derived is series[1]
    assert series == list(dense.lower_central_series(alg))


@pytest.mark.parametrize("alg", FILTERED_TABLES, ids=[a.name for a in FILTERED_TABLES])
def test_tail_filtered_series_runs_no_elimination(alg, monkeypatch):
    # the unit-row chain decides filiformity and nilpotency on its own; a
    # fresh copy keeps no series from an earlier test
    def no_kernel(rows):
        raise AssertionError("the elimination kernel ran")

    monkeypatch.setattr(linalg, "_gauss_jordan", no_kernel)
    fresh = LieAlgebra(alg.dim, rational_table(alg))
    n = alg.dim
    assert [s.dim for s in lower_central_series(fresh)] == [n, *range(max(n - 2, 0), -1, -1)]
    assert is_nilpotent_algebra(fresh)
    assert is_filiform(fresh) is (n >= 2)


# (table, lower-central-series dimensions) off the filtration
OFF_FILTRATION_TABLES = {
    # e2 central in [e1, e3] = e4 (1-based): (a) holds, (b) fails at e3
    "missing-step": (LieAlgebra(4, {(0, 2): {3: 1}}), [4, 1, 0]),
    # both step brackets, and [e1, e4] = e2 landing below its pair: (a) fails
    "low-target": (LieAlgebra(4, {(0, 1): {2: 1}, (1, 2): {3: 1}, (0, 3): {1: 1}}),
                   [4, 3]),
    "abelian3": (make_abelian(3), [3, 0]),
    # sl2 on (h, e, f): perfect, so the series is [g] and [g, g] is g
    "sl2": (LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}), [3]),
    # [e1, e2] = e2: the series stops at span(e2), which [g, -] maps onto itself
    "affine-line": (LieAlgebra(2, {(0, 1): {1: 1}}), [2, 1]),
    "h3+h3": (LieAlgebra(6, {(0, 1): {2: F(1, 2)}, (3, 4): {5: 1}}), [6, 2, 0]),
}


def test_tables_off_the_filtration_match_the_dense_series():
    # [g, g] is the second term of the kept series (g itself on a perfect
    # algebra), and the kept series is the dense one, which stops at the
    # same term: 0, or a nonzero term that [g, -] maps onto itself
    for name, (alg, dims) in OFF_FILTRATION_TABLES.items():
        assert not alg.tail_filtered, name
        oracle = list(dense.lower_central_series(alg))
        assert [s.dim for s in oracle] == dims, name
        series = lower_central_series(alg)
        assert series == oracle, name
        derived = derived_subalgebra(alg)
        assert derived is alg._lower_central_series[min(1, len(dims) - 1)], name
    missing_step = OFF_FILTRATION_TABLES["missing-step"][0]
    assert derived_subalgebra(missing_step).rows == ((3, {3: 1}),)


def test_is_filiform_families():
    for n in range(3, 9):
        assert is_filiform(make_ln(n))
    assert not is_filiform(make_abelian(4))
    assert is_filiform(make_benoist(0))


def test_dtheta_closed_form_on_l4():
    l4 = make_ln(4)
    th = TwoForm.from_entries(4, {(0, 3): 1, (1, 2): 1})
    assert dtheta_residual(l4, th) == []


def test_dtheta_flags_nonclosed_form():
    # For th = e2* ^ e4*: d th(Y1, Y2, Y3) = th(Y2, [Y3, Y1]) = -th(Y2, Y4) = -1.
    l4 = make_ln(4)
    th = TwoForm.from_entries(4, {(1, 3): 1})
    report = dtheta_residual(l4, th)
    values = {(i, j, k): v for i, j, k, v in report}
    assert values.get((0, 1, 2)) == F(-1)


def test_dtheta_abelian_always_closed():
    rng = random.Random(3)
    alg = make_abelian(5)
    for _ in range(5):
        entries = {
            (i, j): rng.randint(-3, 3) for i in range(5) for j in range(i + 1, 5)
        }
        th = TwoForm.from_entries(5, {k: v for k, v in entries.items() if v})
        assert dtheta_residual(alg, th) == []


def test_dtheta_linear_in_the_form():
    # Adding a multiple of a closed form leaves the residual unchanged.
    l4 = make_ln(4)
    closed = TwoForm.from_entries(4, {(0, 3): 1, (1, 2): 1})
    probe = TwoForm.from_entries(4, {(1, 3): 1})
    combined = TwoForm(add(probe.gram, scaled(closed.gram, F(7))))
    assert dtheta_residual(l4, probe) == dtheta_residual(l4, combined)


def test_nondegenerate_standard_symplectic():
    th = TwoForm.from_entries(4, {(0, 1): 1, (2, 3): 1})
    assert nondegenerate(th)


def test_nondegenerate_odd_dimension_false():
    th = TwoForm.from_entries(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    assert not nondegenerate(th)


def test_nondegenerate_pfaffian_condition():
    # Gram [[0,a,b,c],[-a,0,d,0],[-b,-d,0,0],[-c,0,0,0]] has Pfaffian c*d.
    def gram(a, b, c, d):
        return TwoForm(
            Matrix(
                [
                    [0, a, b, c],
                    [-a, 0, d, 0],
                    [-b, -d, 0, 0],
                    [-c, 0, 0, 0],
                ]
            )
        )

    assert nondegenerate(gram(1, 1, 1, 1))
    assert nondegenerate(gram(5, -2, 3, F(1, 7)))
    assert not nondegenerate(gram(1, 1, 0, 1))
    assert not nondegenerate(gram(1, 1, 1, 0))


@pytest.mark.parametrize("build, message", [
    (lambda: LieAlgebra(3, {(0, 1): [2]}), r"coefficients of pair \(0, 1\)"),
    (lambda: LieAlgebra(3, {(0, 1): 2}), r"coefficients of pair \(0, 1\)"),
    (lambda: LieAlgebra(3, [((0, 1), {2: 1})]), "table must be a mapping"),
], ids=["coeffs-list", "coeffs-int", "table-list"])
def test_algebra_table_that_is_not_a_mapping_is_a_type_error(build, message):
    with pytest.raises(TypeError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: affine.AffineStructure(2, {(0, 1): "1"}), r"coefficients of pair \(0, 1\)"),
    (lambda: affine.AffineStructure(2, [((0, 1), {0: 1})]), "table must be a mapping"),
], ids=["coeffs-string", "table-list"])
def test_affine_table_that_is_not_a_mapping_is_a_type_error(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_twoform_entries_that_are_not_a_mapping_are_a_type_error():
    with pytest.raises(TypeError, match="entries must be a mapping"):
        TwoForm.from_entries(3, [((0, 1), 1)])
    assert TwoForm.from_entries(3, {(0, 1): 1}).gram[0, 1] == 1


def test_twoform_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        TwoForm(Matrix([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        TwoForm(Matrix([[1, 0], [0, 0]]))
    # one entry off antisymmetry in a larger form
    with pytest.raises(ValueError):
        TwoForm(Matrix([[0, 1, 2], [-1, 0, F(1, 3)], [-2, F(-1, 4), 0]]))


@pytest.mark.parametrize("seed", range(6))
def test_twoform_from_entries_equals_the_validated_form(seed):
    # from_entries adopts its Gram columns, antisymmetric by construction,
    # zero values included: the form equals the one TwoForm(gram) checks
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    entries = {(i, j): F(rng.randint(-3, 3), rng.choice((1, 2, 7)))
               for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
    gram = [[F(0)] * n for _ in range(n)]
    for (i, j), x in entries.items():
        gram[i][j], gram[j][i] = x, -x
    adopted = TwoForm.from_entries(n, entries)
    checked = TwoForm(Matrix(gram))
    assert adopted == checked and adopted.dim == checked.dim == n
    assert (adopted.gram.den, adopted.gram.columns) == (checked.gram.den, checked.gram.columns)
    assert all(x for col in adopted.gram.columns for x in col.values())


def test_structure_validation():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 0): {2: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 1): {3: 1}})
    # zero coefficients are dropped, empty pairs removed
    alg = LieAlgebra(3, {(0, 1): {2: 0}})
    assert alg.structure == {}


def _catalog_to_24():
    """Every catalog family at every n up to 24 it takes, Ank and Bnk at k = 2 and 3."""
    for n in range(1, 25):
        yield make_abelian(n)
    for n in range(3, 25):
        yield make_ln(n)
    for n in range(6, 25, 2):
        yield make_qn(n)
        yield make_qn(n, adapted=True)
        yield make_cn(n, [F(i + 1, 3) for i in range((n - 2) // 2 - 1)])[0]
    for n in range(5, 25):
        for k in (2, 3):
            if k <= n - 3:
                yield make_ank(n, k, [F(i + 2, 5) for i in range((n - k + 1) // 2 - 1)])[0]
            if k <= n - 3 and n % 2 == 0:
                yield make_bnk(n, k, [F(i - 1, 2) for i in range(max((n - k) // 2 - 1, 0))])[0]


def _hashed_text(alg):
    # "dim=n", then "[i,j]=k:c,..." for each stored pair i < j, 0-based, in
    # order, each constant a Fraction in lowest terms; joined by "|"
    table = rational_table(alg)
    return "|".join([f"dim={alg.dim}", *(
        f"[{i},{j}]=" + ",".join(f"{k}:{c}" for k, c in sorted(table[i, j].items()))
        for i, j in sorted(table))])


def test_algebra_hash_is_hashlib_sha256_of_the_canonical_text():
    # the builtin SHA-256 that algebra_hash takes gives hashlib's digest of
    # the same text, on the catalog, on Benoist and on a moved table
    moved = dense.change_basis(make_qn(10), dense.rational_basis_change(10, random.Random(3)))
    algebras = [*_catalog_to_24(), *(make_benoist(t) for t in (0, 1, F(-1, 2), F(7, 3))), moved]
    assert moved.den > 1 and not moved.tail_filtered
    for alg in algebras:
        text = _hashed_text(alg).encode("ascii")
        assert algebra_hash(alg) == hashlib.sha256(text).hexdigest(), alg.name


def test_algebra_hash_ignores_labels():
    a = make_ln(5)
    b = LieAlgebra(5, dict(a.structure), name="renamed", basis_names=list("abcde"))
    assert algebra_hash(a) == algebra_hash(b)
    assert algebra_hash(a) != algebra_hash(make_ln(6))
