"""Affine structure constructors, exact verification, synthesis pipeline."""

import functools
import random
from fractions import Fraction

import pytest

from lieaffine import affine, derivations
from lieaffine.affine import (
    STRATEGIES,
    AffineReport,
    AffineStructure,
    Certificate,
    CheckResult,
    _product_tensor,
    find_symplectic,
    from_derived_regular,
    from_regular_derivation,
    from_symplectic,
    reverify_certificate,
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
)
from lieaffine.derivations import (
    TorusReport,
    derivation_space,
    diagonal_derivations,
    find_regular_derivation,
    is_derivation,
    seeded_combinations,
)
from lieaffine.errors import (
    DegenerateFormError,
    LieToolError,
    NoStrategySucceeded,
    NotADerivationError,
    NotClosedError,
    NotLieAlgebraError,
    SchemaError,
    SingularMatrixError,
    SingularOnDerivedError,
)
from lieaffine.liealg import (
    LieAlgebra,
    TwoForm,
    algebra_hash,
    coefficient_table,
    derived_subalgebra,
    dtheta_residual,
    jacobi_report,
    nondegenerate,
)
from lieaffine.linalg import (
    Matrix,
    _monomial_rows,
    _transpose,
    dense_vector,
    integer_scaled,
    nonsingular,
    rank,
    sparse_apply,
    unscaled,
    vector,
)
from lieaffine.serialize import certificate_to_json, matrix_to_json

import dense
from dense import (
    ad,
    apply,
    bracket,
    bracket_basis,
    column,
    from_columns,
    identity,
    invert,
    matmul,
    product,
    restrict,
    solve,
    unit_vector,
    zeros,
)

F = Fraction


def _zero_structure(n):
    return AffineStructure(n, {})


def test_verify_affine_zero_product_on_abelian():
    alg = make_abelian(3)
    report = verify_affine(alg, _zero_structure(3))
    assert report.passed


def test_verify_affine_zero_product_fails_torsion_on_l4():
    l4 = make_ln(4)
    report = verify_affine(l4, _zero_structure(4))
    residuals = {(i, j): r for i, j, r in report.torsion_violations}
    assert residuals[(0, 1)] == tuple(-x for x in unit_vector(4, 2))


def _naive_affine_report(alg, structure):
    """Both axioms evaluated with the dense product oracle on basis tuples."""
    n = alg.dim
    e = [unit_vector(n, i) for i in range(n)]
    dot = functools.partial(product, structure)
    torsion, leftsym = [], []
    for i in range(n):
        for j in range(i + 1, n):
            terms = dot(e[i], e[j]), dot(e[j], e[i]), bracket(alg, e[i], e[j])
            residual = tuple(a - b - c for a, b, c in zip(*terms))
            if any(residual):
                torsion.append((i, j, residual))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                terms = (dot(e[i], dot(e[j], e[k])), dot(e[j], dot(e[i], e[k])),
                         dot(dot(e[i], e[j]), e[k]), dot(dot(e[j], e[i]), e[k]))
                residual = tuple(a - b - c + d for a, b, c, d in zip(*terms))
                if any(residual):
                    leftsym.append((i, j, k, residual))
    return torsion, leftsym


def _tampered(structure, rng, changes):
    n = structure.dim
    gamma = {pair: dict(coeffs) for pair, coeffs in structure.gamma.items()}
    for _ in range(changes):
        i, j, k = (rng.randrange(n) for _ in range(3))
        col = gamma.setdefault((i, j), {})
        col[k] = col.get(k, 0) + F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return AffineStructure(n, gamma)


def test_verify_affine_matches_naive_evaluation():
    l6 = make_ln(6)
    c6 = make_cn(6, [1])[0]
    # brackets with denominators 2 and 3
    c8 = make_cn(8, [F(2, 3), F(1, 2)])[0]
    cases = [
        (l6, synthesize(l6, strategy="regular")[0]),
        (c6, synthesize(c6, strategy="derived-regular")[0]),
        (l6, synthesize(l6, strategy="symplectic")[0]),
        (c8, synthesize(c8, strategy="regular")[0]),
    ]
    rng = random.Random(2024)
    for alg, structure in list(cases):
        for changes in (1, 2, 5, 30):
            cases.append((alg, _tampered(structure, rng, changes)))
    failing = 0
    for alg, structure in cases:
        report = verify_affine(alg, structure)
        torsion, leftsym = _naive_affine_report(alg, structure)
        assert report.torsion_violations == torsion
        assert report.leftsym_violations == leftsym
        failing += not report.passed
    assert failing == len(cases) - 4


def _fraction_verify_affine(alg, structure):
    """verify_affine with every sum and product in Fractions: the oracle of its integer loops."""
    n = alg.dim
    gamma = structure.gamma
    left = [[gamma.get((i, j), {}) for j in range(n)] for i in range(n)]
    neg = [[{k: -x for k, x in col.items()} for col in row] for row in left]
    right = [[left[m][k] for m in range(n)] for k in range(n)]
    torsion, leftsym = [], []
    for i in range(n):
        for j in range(i + 1, n):
            residual = {}
            for v in (left[i][j], neg[j][i], bracket_basis(alg, j, i)):
                for k, x in v.items():
                    residual[k] = residual.get(k, F(0)) + x
            if any(residual.values()):
                torsion.append((i, j, dense_vector(residual, n)))
    for i in range(n):
        for j in range(i + 1, n):
            swapped = sparse_apply([left[j][i], neg[i][j]], {0: F(1), 1: F(1)})
            for k in range(n):
                residual = sparse_apply(left[i], left[j][k])
                sparse_apply(left[j], neg[i][k], residual)
                sparse_apply(right[k], swapped, residual)
                if any(residual.values()):
                    leftsym.append((i, j, k, dense_vector(residual, n)))
    return torsion, leftsym


def _fraction_product_tensor(outer, maps, inner):
    """The gamma of ``_product_tensor`` composed in Fractions: its oracle."""
    n = len(maps)
    return AffineStructure(n, {(i, j): sparse_apply(outer, sparse_apply(m, inner.columns[j]))
                               for i, m in enumerate(maps) for j in range(n)}).gamma


# brackets with integer constants, with denominators 2 and 3, and with
# denominators up to 2000
_DIFFERENTIAL_ALGEBRAS = {
    "L6": make_ln(6),
    "C8": make_cn(8, [F(2, 3), F(1, 2)])[0],
    "B7/5": make_benoist(F(7, 5)),
}


def _fraction_residuals_only(violations):
    return all(type(x) is Fraction for *_, residual in violations for x in residual)


@pytest.mark.parametrize("name", list(_DIFFERENTIAL_ALGEBRAS))
def test_verify_affine_matches_fraction_oracle_on_tampered_structures(name):
    alg = _DIFFERENTIAL_ALGEBRAS[name]
    n = alg.dim
    bases = [_zero_structure(n)]
    for strategy in ("regular", "derived-regular", "symplectic"):
        try:
            bases.append(synthesize(alg, strategy=strategy)[0])
        except NoStrategySucceeded:
            pass
    rng = random.Random(n)
    passed = 0
    for base in bases:
        for changes in (0, 1, 3, 12, 60):
            structure = _tampered(base, rng, changes)
            report = verify_affine(alg, structure)
            torsion, leftsym = _fraction_verify_affine(alg, structure)
            assert report.torsion_violations == torsion
            assert report.leftsym_violations == leftsym
            assert _fraction_residuals_only(torsion + leftsym)
            assert _fraction_residuals_only(report.torsion_violations + report.leftsym_violations)
            passed += report.passed
    assert passed == len(bases) - 1


def _triple_loop_verify_affine(alg, structure):
    """verify_affine as an integer loop over all n^3 / 2 triples: the oracle of the sparse sums."""
    n = alg.dim
    products, d = integer_scaled(structure.gamma.values())
    gamma = dict(zip(structure.gamma, products))
    brackets, dc = alg.integer_structure
    left = [[gamma.get((i, j), {}) for j in range(n)] for i in range(n)]
    neg = [[{k: -x for k, x in col.items()} for col in row] for row in left]
    right = [[left[m][k] for m in range(n)] for k in range(n)]
    torsion, leftsym = [], []
    for i in range(n):
        for j in range(i + 1, n):
            residual = sparse_apply((left[i][j], left[j][i], brackets.get((i, j), {})),
                                    {0: dc, 1: -dc, 2: -d})
            if any(residual.values()):
                torsion.append((i, j, dense_vector(unscaled(residual, d * dc), n)))
    for i in range(n):
        for j in range(i + 1, n):
            swapped = sparse_apply(left[i], {j: -1}, dict(left[j][i]))
            for k in range(n):
                residual = sparse_apply(left[i], left[j][k])
                sparse_apply(left[j], neg[i][k], residual)
                sparse_apply(right[k], swapped, residual)
                if any(residual.values()):
                    leftsym.append((i, j, k, dense_vector(unscaled(residual, d * d), n)))
    return torsion, leftsym


_SYNTHESIZED = {
    "L12-regular": (make_ln(12), "regular"),
    "L12-symplectic": (make_ln(12), "symplectic"),
    "Q10-derived-regular": (make_qn(10), "derived-regular"),
    "C8-derived-regular": (make_cn(8, [1, -1])[0], "derived-regular"),
}


@pytest.mark.parametrize("name", list(_SYNTHESIZED))
def test_verify_affine_matches_triple_loop_on_perturbed_structures(name):
    alg, strategy = _SYNTHESIZED[name]
    base = synthesize(alg, strategy=strategy)[0]
    structures = [base] + [_tampered(base, random.Random(f"{name}/{s}"), 1) for s in range(4)]
    failing = twisted = 0
    for structure in structures:
        report = verify_affine(alg, structure)
        torsion, leftsym = _triple_loop_verify_affine(alg, structure)
        assert report.torsion_violations == torsion
        assert report.leftsym_violations == leftsym
        failing += not report.passed
        twisted += bool(torsion)
    # a perturbation off the diagonal breaks torsion, so e_j.e_i - e_i.e_j
    # leaves the bracket and the swapped-pair sums meet new triples
    assert failing == 4
    assert twisted >= 3


def _assert_canonical(structure):
    # the constructions adopt their table: it must be the one that
    # AffineStructure(...) would make of it, with its pairs in ascending order
    gamma = structure.gamma
    assert gamma == coefficient_table(structure.dim, gamma, lambda i, j: True)
    assert list(gamma) == sorted(gamma)


def _random_columns(rng, n, density):
    return [{r: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 2000)))
             for r in range(n) if rng.random() < density} for _ in range(n)]


@pytest.mark.parametrize("name", list(_DIFFERENTIAL_ALGEBRAS))
def test_product_tensor_matches_fraction_oracle(name):
    alg = _DIFFERENTIAL_ALGEBRAS[name]
    n = alg.dim
    rng = random.Random(n + 1)
    ad = [[bracket_basis(alg, i, q) for q in range(n)] for i in range(n)]
    int_ad, den = alg.integer_ad_columns
    for maps, int_maps in ((ad, int_ad), ([_transpose(cols, n) for cols in ad],
                                          [_transpose(cols, n) for cols in int_ad])):
        for density in (0.2, 0.6):
            outer = _random_columns(rng, n, density)
            inner = Matrix.from_sparse(n, _random_columns(rng, n, density))
            structure = _product_tensor(integer_scaled(outer), int_maps, den, inner)
            _assert_canonical(structure)
            assert structure.gamma == _fraction_product_tensor(outer, maps, inner)


def _all_pairs_product_tensor(outer, maps, d_maps, inner):
    # the loop over all n^2 pairs (i, j), two sparse_apply calls each: the
    # oracle of the sums over nonzero (i, M_i e_m) pairs
    n = len(maps)
    outer, d_outer = integer_scaled(outer)
    inner_cols, d_inner = integer_scaled(inner.columns)
    den = d_outer * d_maps * d_inner
    return AffineStructure(n, {(i, j): unscaled(sparse_apply(outer, sparse_apply(m, col)), den)
                               for i, m in enumerate(maps)
                               for j, col in enumerate(inner_cols)}).gamma


_CONSTRUCTIONS = {
    "L12-regular": (make_ln(12), "regular"),
    "L12-symplectic": (make_ln(12), "symplectic"),
    "Q10-derived-regular": (make_qn(10), "derived-regular"),
    "C8-fractional-regular": (make_cn(8, [F(2, 3), F(1, 2)])[0], "regular"),
    "C8-fractional-derived-regular": (make_cn(8, [F(2, 3), F(1, 2)])[0], "derived-regular"),
}


def _without_weight_pass(patch):
    # the searches skip their diagonal weight candidates, so each witness is
    # a seeded draw with dense columns, which no closed form takes
    for module in (derivations, affine):
        patch.setattr(module, "_weight_candidates", lambda weights: iter(()))


@pytest.mark.parametrize("name", list(_CONSTRUCTIONS))
def test_product_tensor_of_each_construction_matches_all_pairs_loop(monkeypatch, name):
    alg, strategy = _CONSTRUCTIONS[name]
    _without_weight_pass(monkeypatch)
    calls = []
    product_tensor = affine._product_tensor

    def recorded(outer, maps, d_maps, inner):
        structure = product_tensor(outer, maps, d_maps, inner)
        columns, d_outer = outer  # the outer map as integer columns over d_outer
        calls.append(([unscaled(col, d_outer) for col in columns], maps, d_maps, inner,
                      structure))
        return structure

    monkeypatch.setattr(affine, "_product_tensor", recorded)
    built, _ = synthesize(alg, strategy=strategy)
    [(outer, maps, d_maps, inner, structure)] = calls
    assert _monomial_rows(inner) is None
    assert structure is built and structure.gamma
    assert structure.gamma == _all_pairs_product_tensor(outer, maps, d_maps, inner)
    _assert_canonical(structure)
    fraction_maps = [[unscaled(col, d_maps) for col in cols] for cols in maps]
    assert structure.gamma == _fraction_product_tensor(outer, fraction_maps, inner)


def test_product_tensor_drops_a_pair_whose_sum_cancels():
    # e_0.e_0 = M_0(e_0 - e_1) = e_0 - e_0: two nonzero terms that cancel
    maps = [[{0: 1}, {0: 1}], [{}, {}]]
    inner = Matrix([[1, 0], [-1, 1]])
    structure = _product_tensor(([{0: 1}, {1: 1}], 1), maps, 1, inner)
    assert structure.gamma == {(0, 1): {0: F(1)}}
    _assert_canonical(structure)


def _closed_form_algebras():
    algebras = {f"L{n}": lambda n=n: make_ln(n) for n in range(3, 25)}
    for n in range(6, 17, 2):
        algebras[f"Q{n}"] = lambda n=n: make_qn(n)
        algebras[f"Q{n}Z"] = lambda n=n: make_qn(n, adapted=True)
    rng = random.Random(39)
    for n in range(6, 15, 2):
        lams = [rng.choice((1, -1, 2, F(1, 2), F(-3, 2))) for _ in range(n // 2 - 2)]
        algebras[f"C{n}-seeded"] = lambda n=n, lams=lams: make_cn(n, lams)[0]
    algebras["C8-fractional"] = lambda: make_cn(8, [F(2, 3), F(1, 2)])[0]
    algebras["h3+h3"] = lambda: LieAlgebra(6, {(0, 1): {2: F(1, 2)}, (3, 4): {5: 1}})
    # one shared centre vector: [g, g] = span(e3 + e6), a non-unit RREF row
    algebras["h3+h3-shared"] = lambda: LieAlgebra(6, {(0, 1): {2: 1, 5: 1}, (3, 4): {2: 1, 5: 1}})
    return algebras


_CLOSED_FORM_ALGEBRAS = _closed_form_algebras()


def _built(construct, alg, witness):
    try:
        return construct(alg, witness)
    except LieToolError as exc:
        return type(exc)


@pytest.mark.parametrize("name", list(_CLOSED_FORM_ALGEBRAS))
def test_closed_form_products_match_the_generic_product_tensor(monkeypatch, name):
    # each search's witness, and the diagonal derivations of the weight
    # candidates and of seeded small combinations of them, some of which are
    # singular on g or on [g, g]; the generic route, with the monomial tests
    # patched off, is the oracle of the products and of the errors
    alg = _CLOSED_FORM_ALGEBRAS[name]()
    n = alg.dim
    cases = []
    for entry in STRATEGIES.values():
        witness = entry.search(alg, 0, 32)
        if witness is not None:
            cases.append((entry.construct, witness))
    weights = diagonal_derivations(alg)
    rows, _ = weights.integer_rows
    rng = random.Random(name)
    draws = list(affine._weight_candidates(weights))[:6] + [
        dense_vector(sparse_apply(rows, {k: rng.choice((-1, 0, 1, 2)) for k in range(len(rows))}),
                     n) for _ in range(6)]
    for w in draws:
        f = Matrix.diagonal(w)
        cases += [(from_regular_derivation, f), (from_derived_regular, f)]
    closed = [_built(construct, alg, witness) for construct, witness in cases]
    with monkeypatch.context() as patch:
        patch.setattr(affine, "_diagonal_weights", lambda f: None)
        patch.setattr(affine, "_monomial_rows", lambda m: None)
        generic = [_built(construct, alg, witness) for construct, witness in cases]
    built = [x for x in closed if isinstance(x, AffineStructure)]
    assert built and any(x.gamma for x in built)
    for x in built:
        _assert_canonical(x)
    assert [getattr(x, "gamma", x) for x in closed] == [getattr(x, "gamma", x) for x in generic]


# views that the module functions and the checks keep on a LieAlgebra; the
# last is the DerivationSpace that derivations.derivation_space keeps there
_KEPT_VIEWS = ("integer_structure", "integer_ad_columns", "partners", "tail_filtered",
               "_lower_central_series", "_jacobi_report", "_derivation_space")

_SHARED_VIEW_ALGEBRAS = {
    "L12": lambda: make_ln(12),
    "C8-fractional": lambda: make_cn(8, [F(2, 3), F(1, 2)])[0],
    # two Heisenberg algebras: off the lower-central-series filtration
    "h3+h3": lambda: LieAlgebra(6, {(0, 1): {2: F(1, 2)}, (3, 4): {5: 1}}),
}


@pytest.mark.parametrize("name", list(_SHARED_VIEW_ALGEBRAS))
def test_kept_views_equal_fresh_ones_after_every_caller(monkeypatch, name):
    # every caller reads the same kept views; none may mutate them. Each
    # strategy runs on the weight witnesses, which the closed forms take,
    # and on dense seeded ones, which the kernel routes take
    alg = _SHARED_VIEW_ALGEBRAS[name]()
    n = alg.dim
    certs = []
    for weight_pass in (True, False):
        with monkeypatch.context() as patch:
            if not weight_pass:
                _without_weight_pass(patch)
            for strategy in STRATEGIES:
                try:
                    certs.append(synthesize(alg, strategy=strategy)[1])
                except NoStrategySucceeded:
                    pass
    assert len(certs) >= 4
    derivations = [c.witnesses["derivation"] for c in certs if "derivation" in c.witnesses]
    maps = derivations + [c.witnesses["two_form"].gram for c in certs
                          if "two_form" in c.witnesses]
    assert any(_monomial_rows(m) is None for m in maps)
    fresh_maps = [Matrix(m.data) for m in maps]
    assert not jacobi_report(alg)
    assert not any(is_derivation(alg, f) for f in derivations)
    assert derivation_space(alg).flat.dim
    form = find_symplectic(alg) or TwoForm.from_entries(n, {(0, n - 1): 1})
    dtheta_residual(alg, form)
    maps.append(form.gram)
    fresh_maps.append(Matrix(form.gram.data))
    assert all(reverify_certificate(alg, cert).ok for cert in certs)
    fresh = _SHARED_VIEW_ALGEBRAS[name]()
    assert set(vars(alg)) == set(_KEPT_VIEWS)
    for view in _KEPT_VIEWS[:-1]:
        assert vars(alg)[view] == getattr(fresh, view), view
    space, fresh_space = vars(alg)["_derivation_space"], derivation_space(fresh)
    assert derivation_space(alg) is space and space.algebra is alg
    for view in ("flat", "weights", "all_nilpotent"):
        assert getattr(space, view) == getattr(fresh_space, view), view
    assert alg.integer_structure is vars(alg)["integer_structure"]
    assert alg.integer_ad_columns is vars(alg)["integer_ad_columns"]
    assert derived_subalgebra(alg) is vars(alg)["_lower_central_series"][1]
    assert alg.tail_filtered == (name != "h3+h3")
    for m, fresh_m in zip(maps, fresh_maps):
        assert "integer_columns" in vars(m)
        assert m.integer_columns == fresh_m.integer_columns
        assert rank(m) == rank(fresh_m)


_NON_LIE_MEMBERS = pytest.mark.parametrize("member", [
    (make_ank, (9, 2, [1, 1, 2]), 1),
    (make_bnk, (10, 3, [1, 2]), 3),
], ids=["A9^2(1,1,2)", "B10^3(1,2)"])

_SEARCHES = ("find_regular_derivation", "find_derived_regular_derivation", "find_symplectic")


@_NON_LIE_MEMBERS
def test_synthesize_on_a_non_lie_table_names_its_jacobi_violations(member):
    make, args, count = member
    alg, report = make(*args)
    assert len(report) == count
    with pytest.raises(NotLieAlgebraError, match=f"Jacobi identity on {count} basis triple"):
        synthesize(alg)
    assert issubclass(NotLieAlgebraError, LieToolError)


def test_failed_verification_on_a_lie_algebra_stays_an_assertion(monkeypatch):
    # the Jacobi report is empty, so a failed re-verification is a bug
    monkeypatch.setattr(affine, "verify_affine",
                        lambda alg, structure: AffineReport(leftsym_violations=[(0, 1, 2, ())]))
    with pytest.raises(AssertionError, match="failed verification"):
        synthesize(make_ln(6))


@_NON_LIE_MEMBERS
def test_synthesize_refuses_a_non_lie_table_before_any_search(member, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran on a table that is not Lie")

    for name in _SEARCHES:
        monkeypatch.setattr(affine, name, no_search)
    make, args, count = member
    alg, _ = make(*args)
    for strategy in ("auto", *STRATEGIES):
        with pytest.raises(NotLieAlgebraError, match=f"Jacobi identity on {count} basis triple"):
            synthesize(alg, strategy=strategy)


def test_synthesize_reads_the_jacobi_report_once_before_searching(monkeypatch):
    events = []
    monkeypatch.setattr(affine, "jacobi_report",
                        lambda alg: events.append("report") or jacobi_report(alg))
    for name in _SEARCHES:
        monkeypatch.setattr(affine, name, functools.partial(
            lambda search, *args, **kwargs: events.append("search") or search(*args, **kwargs),
            getattr(affine, name)))
    for strategy in ("regular", "derived-regular", "symplectic"):
        events.clear()
        assert synthesize(make_ln(8), strategy=strategy)[1].strategy == strategy
        assert events == ["report", "search"]


def test_synthesize_solves_the_weight_equations_once(monkeypatch):
    # on sl2 + Q every strategy fails, so all three run; the two derivation
    # searches and the symplectic weight pass read the one weight space kept
    # on the algebra, the only solve of width 4 (the closed forms have 2 or 6)
    widths = []
    for module in (derivations, affine):
        monkeypatch.setattr(module, "_nullspace", functools.partial(
            lambda solve, rows, n: widths.append(n) or solve(rows, n), module._nullspace))
    alg = LieAlgebra(4, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}, name="sl2+Q")
    with pytest.raises(NoStrategySucceeded) as failed:
        synthesize(alg)
    assert list(failed.value.reasons) == list(STRATEGIES)
    assert widths.count(4) == 1


def test_from_regular_derivation_l4_hand_values():
    l4 = make_ln(4)
    f = Matrix.diagonal([1, 2, 3, 4])
    ns = from_regular_derivation(l4, f)
    assert product(ns, unit_vector(4, 0), unit_vector(4, 1)) == vector((0, 0, F(2, 3), 0))
    assert product(ns, unit_vector(4, 1), unit_vector(4, 0)) == vector((0, 0, F(-1, 3), 0))
    # difference reproduces the bracket [Y1, Y2] = Y3
    diff = tuple(a - b for a, b in zip(product(ns, unit_vector(4, 0), unit_vector(4, 1)),
                                       product(ns, unit_vector(4, 1), unit_vector(4, 0))))
    assert diff == unit_vector(4, 2)
    assert verify_affine(l4, ns).passed


def test_from_regular_derivation_rejects_bad_inputs():
    l4 = make_ln(4)
    with pytest.raises(NotADerivationError):
        from_regular_derivation(l4, identity(4))
    with pytest.raises(SingularMatrixError):
        from_regular_derivation(l4, Matrix.diagonal([0, 1, 1, 1]))
    # the C6 torus generator is a derivation but singular, so the
    # conjugation construction must refuse it
    c6 = make_cn(6, [1])[0]
    with pytest.raises(SingularMatrixError):
        from_regular_derivation(c6, Matrix.diagonal([0, 1, 1, 1, 1, 2]))


def test_witness_past_the_digit_limit_is_a_tool_error():
    # the product is invariant under scaling f, so a 5001-digit witness
    # builds; its strings exceed Python's int-string digit limit, so writing
    # it must surface as a package error
    l4 = make_ln(4)
    f = find_regular_derivation(l4)
    big = dense.scaled(f, 10 ** 5000)
    structure = from_regular_derivation(l4, big)
    assert structure.gamma == from_regular_derivation(l4, f).gamma
    cert = Certificate(algebra_hash(l4), "regular", 0, 1, "0", [],
                       {"derivation": big, "affine_structure": structure})
    for write in (lambda: matrix_to_json(big), lambda: certificate_to_json(cert)):
        with pytest.raises(LieToolError, match="digit limit"):
            write()


def test_from_regular_scaling_invariance():
    l6 = make_ln(6)
    f = Matrix.diagonal([1, 2, 3, 4, 5, 6])
    base = from_regular_derivation(l6, f)
    for c in (F(2), F(-1, 3)):
        scaled = from_regular_derivation(l6, dense.scaled(f, c))
        assert scaled.gamma == base.gamma


def test_from_derived_regular_c6_hand_values():
    c6 = make_cn(6, [1])[0]
    f = Matrix.diagonal([0, 1, 1, 1, 1, 2])
    ns = from_derived_regular(c6, f)
    assert product(ns, unit_vector(6, 1), unit_vector(6, 4)) == vector((0, 0, 0, 0, 0, F(-1, 2)))
    assert product(ns, unit_vector(6, 1), unit_vector(6, 0)) == (F(0),) * 6
    assert verify_affine(c6, ns).passed


def test_from_derived_regular_rejects_singular_restriction():
    # ad(Y1) is a derivation that acts nilpotently on the derived
    # subalgebra, so its restriction is singular.
    c6 = make_cn(6, [1])[0]
    bad = ad(c6, unit_vector(6, 0))
    with pytest.raises(SingularOnDerivedError,
                       match="^restriction of f to the derived subalgebra is singular$"):
        from_derived_regular(c6, bad)


def test_from_derived_regular_rejects_a_non_derivation():
    with pytest.raises(NotADerivationError,
                       match="^map does not satisfy the derivation identity$"):
        from_derived_regular(make_ln(4), identity(4))


def test_unknown_strategy_is_refused():
    l4 = make_ln(4)
    with pytest.raises(ValueError, match="^unknown strategy 'nope'$"):
        synthesize(l4, strategy="nope")
    _, cert = synthesize(l4)
    with pytest.raises(SchemaError, match="^unknown strategy 'nope'$"):
        reverify_certificate(l4, cert._replace(strategy="nope"))


def test_from_derived_regular_agrees_with_direct_definition():
    # Direct route: x.y has derived-subalgebra coordinates
    # (f restricted)^(-1) applied to [x, f(y)].
    cases = [
        (make_cn(6, [1])[0], Matrix.diagonal([0, 1, 1, 1, 1, 2])),
        (make_ln(4), Matrix.diagonal([1, 2, 3, 4])),
    ]
    for alg, f in cases:
        n = alg.dim
        ns = from_derived_regular(alg, f)
        derived = derived_subalgebra(alg)
        basis = from_columns(derived.basis, n)
        rinv = invert(restrict(derived, f))
        for i in range(n):
            for j in range(n):
                image = bracket(alg, unit_vector(n, i), apply(f, unit_vector(n, j)))
                coords = solve(basis, image)
                assert coords is not None
                direct = apply(rinv, coords)
                embedded = [F(0)] * n
                for c, b in zip(direct, derived.basis):
                    for idx, x in enumerate(b):
                        embedded[idx] += c * x
                assert tuple(embedded) == product(ns, unit_vector(n, i), unit_vector(n, j))


@pytest.mark.parametrize("alg", [
    make_ln(6), make_ln(10), make_qn(8), make_qn(8, adapted=True),
    make_cn(6, [1])[0], make_cn(8, [1, 1])[0],
], ids=["L6", "L10", "Q8", "QnZ8", "C6", "C8"])
def test_regular_product_is_the_derived_regular_product(alg):
    # An invertible derivation maps [g, g] onto itself and every [x, f(y)]
    # lies there, so inverting f on [g, g] alone gives f^{-1}[x, f(y)].
    n = alg.dim
    space = derivation_space(alg)
    witnesses = [find_regular_derivation(space.algebra, seed=seed) for seed in range(3)]
    drawn = (space.matrix(v) for v in seeded_combinations(space.flat, 11, 12))
    witnesses += [f for f in drawn if nonsingular(f)][:3]
    assert len(witnesses) == 6 and None not in witnesses
    for f in witnesses:
        regular = from_regular_derivation(alg, f)
        assert regular.gamma == from_derived_regular(alg, f).gamma
        finv = invert(f)
        for i in range(n):
            conjugated = matmul(matmul(finv, ad(alg, unit_vector(n, i))), f)
            for j in range(n):
                e_j = unit_vector(n, j)
                assert product(regular, unit_vector(n, i), e_j) == column(conjugated, j)


def test_from_derived_regular_on_l4_passes():
    l4 = make_ln(4)
    ns = from_derived_regular(l4, Matrix.diagonal([1, 2, 3, 4]))
    assert verify_affine(l4, ns).passed


def test_from_derived_regular_on_abelian_gives_zero_product():
    # The derived subalgebra is zero, so the empty restriction inverts
    # vacuously and every product collapses to zero.
    alg = make_abelian(3)
    ns = from_derived_regular(alg, identity(3))
    assert all(
        all(x == 0 for x in product(ns, unit_vector(3, i), unit_vector(3, j)))
        for i in range(3) for j in range(3)
    )
    assert verify_affine(alg, ns).passed


def test_from_symplectic_l4_hand_values():
    l4 = make_ln(4)
    th = TwoForm.from_entries(4, {(0, 3): 1, (1, 2): 1})
    ns = from_symplectic(l4, th)
    assert product(ns, unit_vector(4, 0), unit_vector(4, 1)) == unit_vector(4, 2)
    assert product(ns, unit_vector(4, 1), unit_vector(4, 0)) == (F(0),) * 4
    assert verify_affine(l4, ns).passed


def test_from_symplectic_rejects_nonclosed():
    l4 = make_ln(4)
    with pytest.raises(NotClosedError):
        from_symplectic(l4, TwoForm.from_entries(4, {(1, 3): 1}))


def test_from_symplectic_rejects_degenerate():
    alg = make_abelian(4)
    with pytest.raises(DegenerateFormError, match="^the 2-form is degenerate$"):
        from_symplectic(alg, TwoForm.from_entries(4, {(0, 1): 1}))
    # odd dimension: the Gram matrix is singular however the form is chosen
    odd = TwoForm.from_entries(3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    with pytest.raises(DegenerateFormError, match="^the 2-form is degenerate$"):
        from_symplectic(make_abelian(3), odd)


def test_from_symplectic_scaling_invariance():
    l4 = make_ln(4)
    th = TwoForm.from_entries(4, {(0, 3): 1, (1, 2): 1})
    base = from_symplectic(l4, th)
    for c in (F(2), F(-3, 5)):
        scaled = from_symplectic(l4, TwoForm(dense.scaled(th.gram, c)))
        assert scaled.gamma == base.gamma


def test_find_symplectic_l4():
    l4 = make_ln(4)
    th = find_symplectic(l4, seed=0, trials=32)
    assert th is not None
    assert dtheta_residual(l4, th) == []
    assert nondegenerate(th)
    # the closed-form space on L4 forces these two entries to vanish
    assert th.gram[1, 3] == 0
    assert th.gram[2, 3] == 0


def test_find_symplectic_odd_dimension_absent():
    assert find_symplectic(make_benoist(0), seed=0, trials=8) is None


def test_find_symplectic_abelian():
    th = find_symplectic(make_abelian(4), seed=0, trials=32)
    assert th is not None


def test_symplectic_weight_pass_is_bounded_on_a_miss(monkeypatch):
    # every curve point (1, s, ..., s^63) of abelian64 has distinct entries
    # and none is symmetric: the pass reads the 64 basis weights and
    # SYMPLECTIC_CURVE_POINTS curve points, then the seeded search runs
    drawn = []
    real = affine._weight_candidates

    def counted(space):
        for w in real(space):
            drawn.append(w)
            yield w

    monkeypatch.setattr(affine, "_weight_candidates", counted)
    th = find_symplectic(make_abelian(64), trials=1)
    assert th is not None and nondegenerate(th)
    assert len(drawn) == 64 + affine.SYMPLECTIC_CURVE_POINTS


def _has_matching(w, c):
    # brute force: the indices split into pairs of weight sum c
    if not w:
        return True
    return any(w[0] + w[k] == c and _has_matching(w[1:k] + w[k + 1:], c)
               for k in range(1, len(w)))


@pytest.mark.parametrize("seed", range(100))
def test_matching_class_is_the_only_class_with_a_perfect_matching(seed):
    # small random weights, repeats and negative entries included
    rng = random.Random(seed)
    w = [rng.randint(-2, 3) for _ in range(2 * rng.randint(1, 4))]
    matched = {c for c in {x + y for x in w for y in w} if _has_matching(w, c)}
    c = affine._matching_class(w)
    assert matched == (set() if c is None else {c})
    assert (c is not None) == (sorted(w) == sorted(min(w) + max(w) - x for x in w))


def test_construction_soundness_across_catalog():
    cases = []
    for n in (3, 5, 8):
        cases.append(synthesize(make_ln(n), seed=0, trials=32))
    cases.append(synthesize(make_qn(6), seed=0, trials=32))
    cases.append(synthesize(make_cn(6, [1])[0], seed=0, trials=32))
    for structure, cert in cases:
        assert all(c.status == "pass" for c in cert.checks)


def test_torsion_identity_as_tensor_equation():
    for alg, f in (
        (make_ln(5), Matrix.diagonal([1, 2, 3, 4, 5])),
        # sum of the two adapted torus generators, regular with weights
        # (1, 1, 2, 3, 4, 5)
        (make_qn(6, adapted=True), Matrix.diagonal([1, 1, 2, 3, 4, 5])),
    ):
        ns = from_regular_derivation(alg, f)
        n = alg.dim
        for i in range(n):
            for j in range(i + 1, n):
                lhs = tuple(a - b for a, b in zip(
                    product(ns, unit_vector(n, i), unit_vector(n, j)),
                    product(ns, unit_vector(n, j), unit_vector(n, i))))
                assert lhs == bracket(alg, unit_vector(n, i), unit_vector(n, j))


def test_synthesize_l12_regular():
    structure, cert = synthesize(make_ln(12), seed=0, trials=32)
    assert cert.strategy == "regular"
    assert verify_affine(make_ln(12), structure).passed


def test_synthesize_c6_auto_uses_regular_derivation():
    # C6 is isomorphic to Q6 (its central pairing is absorbable, see
    # test_derivations.test_find_regular_derivation_c6_finds_hidden_regular),
    # so auto's first strategy already succeeds.
    c6 = make_cn(6, [1])[0]
    structure, cert = synthesize(c6, seed=0, trials=32)
    assert cert.strategy == "regular"
    assert verify_affine(c6, structure).passed


def test_synthesize_c6_derived_regular_explicit():
    c6 = make_cn(6, [1])[0]
    structure, cert = synthesize(c6, strategy="derived-regular", seed=0, trials=32)
    assert cert.strategy == "derived-regular"
    assert verify_affine(c6, structure).passed
    report = reverify_certificate(c6, cert)
    assert report.ok


def test_synthesize_benoist_no_strategy():
    with pytest.raises(NoStrategySucceeded) as exc_info:
        synthesize(make_benoist(1), seed=0, trials=64)
    reasons = exc_info.value.reasons
    assert set(reasons) == {"regular", "derived-regular", "symplectic"}
    assert "odd dimension" in reasons["symplectic"]


def test_synthesize_symplectic_strategy_on_abelian():
    alg = make_abelian(4)
    structure, cert = synthesize(alg, strategy="symplectic", seed=0, trials=32)
    assert cert.strategy == "symplectic"
    assert verify_affine(alg, structure).passed
    assert reverify_certificate(alg, cert).ok


def test_certificate_embeds_witness_and_structure():
    l6 = make_ln(6)
    structure, cert = synthesize(l6, seed=0, trials=32)
    assert "derivation" in cert.witnesses
    assert cert.witnesses["affine_structure"] is structure
    assert cert.seed == 0 and cert.trials == 32
    assert {c.name for c in cert.checks} == {
        "is_derivation",
        "invertible",
        "torsion",
        "left_symmetry",
    }


def _wrong_witnesses(key):
    """Witnesses that do not fit Ln 4: of the wrong type, or sized for another algebra."""
    form = find_symplectic(make_ln(4))
    pm = Matrix([[(-1) ** (i * j + i) for j in range(80)] for i in range(80)])
    return {
        "derivation": [form, zeros(0, 0), identity(5), pm, Matrix([[1, 0, 0, 0]] * 3)],
        "two_form": [form.gram, find_symplectic(make_ln(6)), TwoForm(zeros(2, 2))],
        "affine_structure": [form.gram, AffineStructure(5, {}), AffineStructure(3, {})],
    }[key]


@pytest.mark.parametrize("strategy, key, checks", [
    ("regular", "derivation", ("is_derivation", "invertible")),
    ("derived-regular", "derivation", ("is_derivation", "restriction_invertible")),
    ("symplectic", "two_form", ("closed", "nondegenerate")),
    ("regular", "affine_structure", ("torsion", "left_symmetry")),
    ("symplectic", "affine_structure", ("torsion", "left_symmetry")),
])
def test_reverify_witness_of_the_wrong_type_is_unknown(strategy, key, checks):
    # a library-built certificate can carry any object; a derivation that is
    # a 2-form, a 2-form that is a matrix, or any witness whose size is not
    # the algebra's dimension leaves its checks unknown, and nothing is run
    # on it (the 80 x 80 +-1 matrix would otherwise cost a rank)
    l4 = make_ln(4)
    _, cert = synthesize(l4, strategy=strategy, seed=0, trials=32)
    for wrong in _wrong_witnesses(key):
        report = reverify_certificate(
            l4, cert._replace(witnesses={**cert.witnesses, key: wrong}))
        statuses = {c.name: (c.status, c.residuals) for c in report.checks}
        assert statuses == {c.name: ("unknown", -1) if c.name in checks else ("pass", 0)
                            for c in cert.checks}, wrong
        assert not report.ok


def test_reverify_detects_wrong_algebra():
    l6 = make_ln(6)
    _, cert = synthesize(l6, seed=0, trials=32)
    report = reverify_certificate(make_ln(7), cert)
    assert not report.hash_match
    assert not report.ok


# --- the records are immutable tuples -------------------------------------

def test_reports_built_with_no_arguments_pass():
    assert AffineReport().passed
    assert TorusReport().passed
    assert not AffineReport(leftsym_violations=[(0, 1, 2, ())]).passed


def test_verify_affine_builds_fresh_lists_for_each_report():
    l4, zero = make_ln(4), AffineStructure(4, {})
    first, second = verify_affine(l4, zero), verify_affine(l4, zero)
    lists = [*first, *second]
    assert len({id(x) for x in lists}) == 4 and all(type(x) is list for x in lists)
    assert first == second and first.torsion_violations
    first.torsion_violations.clear()
    assert second.torsion_violations and not AffineReport().torsion_violations


def test_certificate_replace_makes_a_changed_copy():
    _, cert = synthesize(make_ln(4))
    changed = cert._replace(seed=7)
    assert (changed.seed, cert.seed) == (7, 0)
    assert changed != cert and changed._replace(seed=0) == cert
    with pytest.raises(AttributeError):
        cert.seed = 7


def test_check_result_is_immutable_and_its_repr_pinned():
    result = CheckResult("torsion", "pass", 0)
    assert repr(result) == "CheckResult(name='torsion', status='pass', residuals=0)"
    assert result == CheckResult(name="torsion", status="pass", residuals=0)
    with pytest.raises(AttributeError):
        result.status = "fail"
