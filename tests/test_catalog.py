"""Family constructors: exact bracket tables, parameter validation, tori."""

import random
from fractions import Fraction

import pytest

from lieaffine import cli
from lieaffine.catalog import (
    fill_aij,
    make_abelian,
    make_ank,
    make_benoist,
    make_bnk,
    make_cn,
    make_ln,
    make_qn,
    standard_torus,
)
from lieaffine.derivations import is_derivation
from lieaffine.errors import BadDimension, BadRange, UnknownFamily, WrongLambdaCount
from lieaffine.liealg import LieAlgebra, is_filiform, jacobi_report
from lieaffine.linalg import Matrix

import dense
from dense import rational_table, unit_vector

F = Fraction


def _table(alg):
    return {
        (i + 1, j + 1): {k + 1: c for k, c in coeffs.items()}
        for (i, j), coeffs in rational_table(alg).items()
    }


def test_make_ln_4():
    assert _table(make_ln(4)) == {(1, 2): {3: F(1)}, (1, 3): {4: F(1)}}


def test_make_ln_3_is_heisenberg():
    assert _table(make_ln(3)) == {(1, 2): {3: F(1)}}


def test_make_ln_12_bracket_count_and_filiformity():
    l12 = make_ln(12)
    assert len(l12.structure) == 10
    assert is_filiform(l12)


def test_make_ln_rejects_small_dims():
    with pytest.raises(BadDimension):
        make_ln(2)


def test_make_qn_y_presentation_signs():
    q6 = make_qn(6)
    table = _table(q6)
    assert table[(2, 5)] == {6: F(-1)}
    assert table[(3, 4)] == {6: F(1)}
    assert table[(1, 5)] == {6: F(1)}  # chain reaches Y6 in this presentation


def test_make_qn_adapted_truncates_chain():
    q6z = make_qn(6, adapted=True)
    table = _table(q6z)
    assert (1, 5) not in table
    assert table == {
        (1, 2): {3: F(1)},
        (1, 3): {4: F(1)},
        (1, 4): {5: F(1)},
        (2, 5): {6: F(-1)},
        (3, 4): {6: F(1)},
    }


def test_make_qn_rejects_odd_or_small():
    with pytest.raises(BadDimension):
        make_qn(7)
    with pytest.raises(BadDimension):
        make_qn(4)


def test_fill_aij_band_and_recurrence_steps():
    a = fill_aij(9, 2, [F(1), F(2), F(5)])
    assert a[(2, 3)] == 1 and a[(3, 4)] == 2 and a[(4, 5)] == 5
    # one recurrence step: gap-2 entries copy the band (diagonal is zero)
    assert a[(2, 4)] == 1 and a[(3, 5)] == 2
    # gap-3: a_25 = a_24 - a_34 = lambda1 - lambda2
    assert a[(2, 5)] == F(1) - F(2)


def test_fill_aij_all_zero_lambdas_gives_empty():
    assert fill_aij(9, 2, [0, 0, 0]) == {}


def test_fill_aij_satisfies_displayed_relation():
    # a_ij = a_{i,j+1} + a_{i+1,j} wherever all three targets are in range.
    n, k = 11, 2
    lams = [F(1), F(-3), F(2, 5), F(7)]
    a = fill_aij(n, k, lams)

    def val(i, j):
        if i == j:
            return F(0)
        return a.get((i, j), F(0))

    for i in range(2, n):
        for j in range(i + 1, n):
            if i + j + 1 + k - 2 <= n:
                assert val(i, j) == val(i, j + 1) + val(i + 1, j)


def test_fill_aij_range_checks():
    with pytest.raises(BadRange):
        fill_aij(6, 1, [1])
    with pytest.raises(BadRange):
        fill_aij(6, 4, [1])
    with pytest.raises(BadRange):
        fill_aij(6, 2, [1, 2, 3])  # too many band values for n, k


def test_make_ank_5_2():
    alg, report = make_ank(5, 2, [1])
    assert report == []
    assert _table(alg) == {
        (1, 2): {3: F(1)},
        (1, 3): {4: F(1)},
        (1, 4): {5: F(1)},
        (2, 3): {5: F(1)},
    }
    assert is_filiform(alg)


def test_make_ank_larger_case_jacobi_clean():
    # A_7^2 has no triple (i, j, k >= 2) whose product target stays in
    # range (the minimum sum 2+3+4 already overshoots), so every lambda
    # pair satisfies the Jacobi constraints.
    alg, report = make_ank(7, 2, [1, 2])
    assert report == []
    assert is_filiform(alg)


def test_make_ank_parameter_validation():
    with pytest.raises(BadRange):
        make_ank(5, 3, [1])
    with pytest.raises(WrongLambdaCount):
        make_ank(5, 2, [1, 2])
    with pytest.raises(WrongLambdaCount):
        make_ank(5, 2, [0])


def test_make_bnk_6_2():
    alg, report = make_bnk(6, 2, [1])
    assert report == []
    assert _table(alg) == {
        (1, 2): {3: F(1)},
        (1, 3): {4: F(1)},
        (1, 4): {5: F(1)},
        (2, 5): {6: F(-1)},
        (3, 4): {6: F(1)},
        (2, 3): {5: F(1)},
    }
    assert is_filiform(alg)


def test_make_bnk_8_3_boundary_violation_is_data():
    # The band entry [Y2, Y3] = Y6 targets n-2, so J(Y1, Y2, Y3) needs the
    # product [Y2, Y4] at target n-1, which sits outside the family's
    # bracket range: the residual Y7 is returned as data, never raised.
    alg, report = make_bnk(8, 3, [1])
    triples = {(i, j, k): res for i, j, k, res in report}
    assert triples[(0, 1, 2)] == unit_vector(8, 6)


def test_make_bnk_8_2_lambda_constraints_are_data():
    # J(Y2, Y3, Y4) accumulates -(lambda2 + 2*lambda1) on Y8, a genuine
    # polynomial constraint on the parameters, reported not thrown.
    alg, report = make_bnk(8, 2, [1, 1])
    triples = {(i, j, k): res for i, j, k, res in report}
    assert triples[(1, 2, 3)] == tuple(F(-3) * x for x in unit_vector(8, 7))


def test_make_bnk_rejects_odd_dimension():
    with pytest.raises(BadRange):
        make_bnk(7, 2, [1])


def test_make_cn_6_table():
    alg, report = make_cn(6, [1])
    assert report == []
    assert _table(alg) == {
        (1, 2): {3: F(1)},
        (1, 3): {4: F(1)},
        (1, 4): {5: F(1)},
        (2, 5): {6: F(-1)},
        (3, 4): {6: F(1)},
        (2, 3): {6: F(-1)},
    }


def test_make_cn_8_table():
    alg, report = make_cn(8, [F(1), F(2)])
    assert report == []
    table = _table(alg)
    assert table[(2, 7)] == {8: F(-1)}
    assert table[(3, 6)] == {8: F(1)}
    assert table[(4, 5)] == {8: F(-1)}
    assert table[(2, 5)] == {8: F(-1)}
    assert table[(3, 4)] == {8: F(1)}
    assert table[(2, 3)] == {8: F(-2)}


def test_make_cn_parameter_validation():
    with pytest.raises(WrongLambdaCount):
        make_cn(6, [0])
    with pytest.raises(WrongLambdaCount):
        make_cn(6, [1, 1])
    with pytest.raises(BadRange):
        make_cn(7, [1])
    with pytest.raises(BadRange):
        make_cn(4, [1])


def test_make_benoist_spot_values():
    b0 = make_benoist(0)
    table0 = _table(b0)
    assert table0[(2, 6)] == {8: F(-5), 9: F(2)}
    b1 = make_benoist(1)
    table1 = _table(b1)
    assert table1[(3, 6)][11] == F(-448 + 1525, 2000)
    assert table1[(3, 6)][11] == F(1077, 2000)
    assert table1[(2, 6)] == {8: F(-5), 9: F(2), 10: F(2)}
    assert table1[(5, 6)] == {11: F(1377, 80)}


def test_make_benoist_chain_and_size():
    b = make_benoist(F(1, 3))
    assert b.dim == 11
    chain_pairs = [(1, j) for j in range(2, 11)]
    table = _table(b)
    for pair in chain_pairs:
        assert table[pair] == {pair[1] + 1: F(1)}
    assert len(table) == 9 + 16


def test_standard_torus_ln():
    t = standard_torus("Ln", 5)
    assert t[0] == Matrix.diagonal([0, 1, 1, 1, 1])
    assert t[1] == Matrix.diagonal([1, 2, 3, 4, 5])


def test_standard_torus_qn_adapted():
    t = standard_torus("QnZ", 6)
    assert t[0] == Matrix.diagonal([0, 1, 1, 1, 1, 2])
    assert t[1] == Matrix.diagonal([1, 0, 1, 2, 3, 3])


def test_standard_torus_cn():
    t = standard_torus("Cn", 6)
    assert t == [Matrix.diagonal([0, 1, 1, 1, 1, 2])]


def test_standard_torus_unknown_family():
    for family in ("Qn", "QnAdapted"):
        with pytest.raises(UnknownFamily):
            standard_torus(family, 6)


def test_standard_torus_maps_are_derivations():
    pairs = [
        ("Ln", 7, make_ln(7)),
        ("QnZ", 8, make_qn(8, adapted=True)),
        ("Cn", 8, make_cn(8, [1, 1])[0]),
    ]
    for family, n, alg in pairs:
        for m in standard_torus(family, n):
            assert is_derivation(alg, m) == []


def test_catalog_outputs_jacobi_clean_and_filiform():
    algebras = [
        make_ln(6),
        make_qn(8),
        make_qn(8, adapted=True),
        make_ank(6, 2, [1])[0],
        make_bnk(6, 2, [1])[0],
        make_cn(8, [1, 1])[0],
        make_benoist(F(-1, 2)),
    ]
    for alg in algebras:
        assert jacobi_report(alg) == []
        assert is_filiform(alg)
    assert jacobi_report(make_abelian(4)) == []
    assert not is_filiform(make_abelian(4))


# The catalog builds its tables in ints over one den and adopts them; the
# oracle is the Fraction table of each member, read through the public
# constructor. Equal means field for field, in the table's order.

def _fields(alg):
    return (alg.dim, alg.name, alg.basis_names, alg.den,
            [(pair, list(coeffs.items())) for pair, coeffs in alg.structure.items()])


def _lambdas(rng, count):
    """count seeded lambda values p/q, q in 1..6, zeros among them, not all zero."""
    while True:
        lams = [F(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(count)]
        if not count or any(lams):
            return lams


# each makes a constant of Benoist's table vanish: t, 2t and -t at 0, and
# the three constants (448 + 2475 t), (-448 + 1525 t) and (448 - 3525 t)
BENOIST_ZEROS = [F(0), F(-448, 2475), F(448, 3525), F(448, 1525)]


def test_ln_and_qn_tables_match_the_fraction_oracle():
    for n in range(3, 41):
        assert _fields(make_ln(n)) == _fields(LieAlgebra(*dense.catalog_ln(n)))
    for n in range(6, 41, 2):
        for adapted in (False, True):
            assert (_fields(make_qn(n, adapted=adapted))
                    == _fields(LieAlgebra(*dense.catalog_qn(n, adapted))))


def test_cn_tables_match_the_fraction_oracle():
    rng = random.Random(54)
    for n in range(6, 25, 2):
        for _ in range(6):
            lams = _lambdas(rng, n // 2 - 2)
            alg, report = make_cn(n, lams)
            oracle = LieAlgebra(*dense.catalog_cn(n, lams))
            assert _fields(alg) == _fields(oracle), lams
            assert report == jacobi_report(oracle)
    # a zero lambda drops its shift, and 1/2, 3/4 share the den 4
    alg, _ = make_cn(10, [F(1, 2), F(0), F(3, 4)])
    assert alg.den == 4
    assert _fields(alg) == _fields(LieAlgebra(*dense.catalog_cn(10, [F(1, 2), F(0), F(3, 4)])))


def test_ank_bnk_and_fill_aij_match_the_fraction_oracle():
    rng = random.Random(541)
    seen = {"Ank": [], "Bnk": []}
    for n in range(6, 15):
        for k in range(2, n - 2):
            lams = _lambdas(rng, (n - k + 1) // 2 - 1)
            if lams:
                alg, report = make_ank(n, k, lams)
                oracle = LieAlgebra(*dense.catalog_ank(n, k, lams))
                assert _fields(alg) == _fields(oracle), (n, k, lams)
                assert report == jacobi_report(oracle)
                a = fill_aij(n, k, lams)  # Fractions read off the integer recurrence
                assert list(a.items()) == list(dense.fill_aij(n, k, lams).items())
                assert all(type(x) is Fraction for x in a.values())
                seen["Ank"].append(bool(report))
            if n % 2 == 0:
                lams = _lambdas(rng, max((n - k) // 2 - 1, 0))
                alg, report = make_bnk(n, k, lams)
                oracle = LieAlgebra(*dense.catalog_bnk(n, k, lams))
                assert _fields(alg) == _fields(oracle), (n, k, lams)
                assert report == jacobi_report(oracle)
                seen["Bnk"].append((bool(report), bool(lams)))
    # the draws hold Lie and non-Lie members of both, and Bnk with no lambda
    assert set(seen["Ank"]) == {False, True}
    assert {lie for lie, _ in seen["Bnk"]} == {False, True}
    assert (False, False) in seen["Bnk"]


def test_benoist_tables_match_the_fraction_oracle():
    rng = random.Random(543)
    ts = BENOIST_ZEROS + [F(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(40)]
    for t in ts:
        assert _fields(make_benoist(t)) == _fields(LieAlgebra(*dense.catalog_benoist(t))), t
    # a vanishing constant is dropped, as coefficient_table drops it: at t = 0
    # the four constants t, 2t, -t and -t, at each other zero one constant
    def entries(t):
        return sum(map(len, make_benoist(t).structure.values()))

    assert [entries(F(1)) - entries(t) for t in BENOIST_ZEROS] == [4, 1, 1, 1]


@pytest.fixture
def fractions_formed(monkeypatch):
    """A one-entry list counting the calls of ``Fraction.__new__`` from here on."""
    count = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return count


# rational inputs, formed before any count starts
C12_LAMBDAS = [F(1), F(-1), F(1), F(1)]
T_7_5 = F(7, 5)


def test_catalog_constructors_form_no_fraction(fractions_formed):
    make_ln(24)
    make_qn(16, adapted=True)
    _, report = make_cn(12, C12_LAMBDAS)  # its Jacobi report included
    make_benoist(T_7_5)
    assert report == []
    assert fractions_formed == [0]


def test_benoist_char_nilp_forms_only_the_parsed_t(fractions_formed, capsys):
    # the one Fraction of the command is its parsed --t
    code = cli.main(["der", "char-nilp", "--family", "Benoist", "--t=7/5", "--reproducible"])
    capsys.readouterr()
    assert code == 1
    assert fractions_formed == [1]
