"""Constructors for the filiform algebra families and their diagonal tori.

Brackets are given below in the 1-based indexing of the printed
displays, and each table is written at the package's 0-based keys, so
no pass re-keys it. Each family writes its table as ints over one den:
1 for Ln and Qn, the lcm of the lambda denominators for A_n^k, B_n^k and
C_n, and 2000 q for Benoist at t = p/q. ``liealg._adopted`` takes the
table as it is, so no Fraction is formed past the rational parameters
and the table is not validated a second time; ``liealg.coefficient_table``
stays the one boundary for caller and JSON tables.

The families A_n^k, B_n^k (rank 1) and C_n carry parameters (lambda_1, ...)
that are subject to polynomial constraints coming from the Jacobi
identity. Those constraints are never solved symbolically here: the
constructors build the bracket table for the given parameters and hand
back the exhaustive Jacobi residual report alongside the algebra, leaving
any violation visible to the caller instead of raising.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

from .errors import BadDimension, BadRange, UnknownFamily, WrongLambdaCount
from .liealg import LieAlgebra, _adopted, jacobi_report
from .linalg import Matrix, rat


def _display_algebra(n: int, table: dict, den: int, name: str, letter: str = "Y") -> LieAlgebra:
    """The algebra of an int table {(i, j): {k: c}} over den, 0-based, in the table's order."""
    return _adopted(n, table, den, name, [f"{letter}{i}" for i in range(1, n + 1)])


def _chain(top: int, one: int = 1) -> dict:
    """The chain [Y1, Yj] = Y_{j+1} for j = 2..top, each 1 written as ``one``: den over den."""
    return {(0, j - 1): {j: one} for j in range(2, top + 1)}


def _pairing(n: int, one: int = 1) -> dict:
    """The pairing [Y_i, Y_{n-i+1}] = (-1)^(i+1) Y_n for i = 2..n/2, each 1 written as ``one``."""
    return {(i - 1, n - i): {n - 1: one if i % 2 else -one} for i in range(2, n // 2 + 1)}


def make_ln(n: int) -> LieAlgebra:
    """Filiform model algebra: [Y1, Yj] = Y_{j+1} for j = 2..n-1."""
    if n < 3:
        raise BadDimension(f"Ln requires n >= 3, got {n}")
    return _display_algebra(n, _chain(n - 1), 1, f"L{n}")


def make_qn(n: int, adapted: bool = False) -> LieAlgebra:
    """The second rank-2 filiform family, in either of its two presentations.

    The plain presentation has the full chain [Y1, Yj] = Y_{j+1}
    (j = 2..n-1) plus [Y_i, Y_{n-i+1}] = (-1)^(i+1) Y_n for i = 2..n/2.
    The adapted presentation (basis Z) truncates the chain at j = n-2 and
    keeps the same pair brackets; it is the basis in which the diagonal
    torus below is visible.
    """
    if n < 6 or n % 2:
        raise BadDimension(f"Qn requires even n >= 6, got {n}")
    table = {**_chain(n - 2 if adapted else n - 1), **_pairing(n)}
    if adapted:
        return _display_algebra(n, table, 1, f"Q{n}Z", "Z")
    return _display_algebra(n, table, 1, f"Q{n}")


def _integer_lambdas(lambdas: Sequence) -> Tuple[List[int], int]:
    """(ints, den): the rational lambda values as ints over the lcm of their denominators."""
    lams = [rat(x) for x in lambdas]
    den = lcm(*(x.denominator for x in lams))
    return [x.numerator * (den // x.denominator) for x in lams], den


def _aij(n: int, k: int, lams: List[int]) -> Dict[Tuple[int, int], int]:
    """``fill_aij``'s recurrence on int lambda values over one den; its entries share that den."""
    a = {}
    for idx, lam in enumerate(lams):
        if lam:
            a[(idx + 2, idx + 3)] = lam
    for gap in range(2, n):
        for i in range(2, n):
            j = i + gap
            if j > n or i + j + k - 2 > n:
                break
            val = a.get((i, j - 1), 0) - a.get((i + 1, j - 1), 0)
            if val:
                a[(i, j)] = val
    return a


def fill_aij(n: int, k: int, lambdas: Sequence) -> Dict[Tuple[int, int], Fraction]:
    """Solve the coefficient recurrence a_ij = a_{i,j+1} + a_{i+1,j}.

    The band a_{i,i+1} = lambda_{i-1} (i starting at 2) seeds the table and
    the recurrence, read as a_{i,j} = a_{i,j-1} - a_{i+1,j-1} for growing
    gap j - i, fills everything else. Diagonal entries a_{ii} are zero and
    entries whose bracket target i + j + k - 2 exceeds n are zero and not
    stored; in-range values never depend on out-of-range ones because the
    recurrence only consumes entries with strictly smaller targets. The
    recurrence runs in ints over the lcm of the lambda denominators, as
    the constructors run it.

    Keys are the 1-based pairs (i, j) with i >= 2; absent key means zero.
    """
    if not 2 <= k <= n - 3:
        raise BadRange(f"shift k must satisfy 2 <= k <= n - 3, got k={k}, n={n}")
    lams, den = _integer_lambdas(lambdas)
    t_cap = (n - k + 1) // 2
    if len(lams) > t_cap - 1:
        raise BadRange(
            f"at most {t_cap - 1} lambda values fit n={n}, k={k}; got {len(lams)}"
        )
    return {key: Fraction(val, den) for key, val in _aij(n, k, lams).items()}


def _check_lambdas(lambdas: Sequence, expected: int) -> Tuple[List[int], int]:
    lams, den = _integer_lambdas(lambdas)
    if len(lams) != expected:
        raise WrongLambdaCount(f"expected {expected} lambda value(s), got {len(lams)}")
    if expected and not any(lams):
        raise WrongLambdaCount("lambda parameters must not all vanish")
    return lams, den


def make_ank(n: int, k: int, lambdas: Sequence):
    """Rank-1 family with full chain and products [Y_i, Y_j] = a_ij Y_{i+j+k-2}.

    Returns (algebra, jacobi_report(algebra)); a nonempty report means the
    lambda values violate the Jacobi constraints and is data, not an error.
    """
    if not 2 <= k <= n - 3:
        raise BadRange(f"Ank requires 2 <= k <= n - 3, got k={k}, n={n}")
    t = (n - k + 1) // 2
    lams, den = _check_lambdas(lambdas, t - 1)
    table = _chain(n - 1, den)
    for (i, j), val in _aij(n, k, lams).items():
        table[(i - 1, j - 1)] = {i + j + k - 3: val}
    alg = _display_algebra(n, table, den, f"A{n}^{k}")
    return alg, jacobi_report(alg)


def make_bnk(n: int, k: int, lambdas: Sequence):
    """Rank-1 family on even n with a truncated chain and a Y_n pairing.

    Brackets: [Y1, Yi] = Y_{i+1} for i = 2..n-2,
    [Y_i, Y_{n-i+1}] = (-1)^(i+1) Y_n for i = 2..n/2, the band
    [Y_i, Y_{i+1}] = lambda_{i-1} Y_{2i+k-1} for i = 2..t, and
    [Y_i, Y_j] = a_ij Y_{i+j+k-2} for the remaining pairs whose target
    stays at or below n-2. Returns (algebra, jacobi_report(algebra)).
    """
    if n % 2 or not 2 <= k <= n - 3:
        raise BadRange(f"Bnk requires even n and 2 <= k <= n - 3, got n={n}, k={k}")
    t = (n - k) // 2
    lams, den = _check_lambdas(lambdas, max(t - 1, 0))
    table = {**_chain(n - 2, den), **_pairing(n, den)}
    for (i, j), val in _aij(n, k, lams).items():
        if j == i + 1 or i + j + k - 2 <= n - 2:
            table[(i - 1, j - 1)] = {i + j + k - 3: val}
    alg = _display_algebra(n, table, den, f"B{n}^{k}")
    return alg, jacobi_report(alg)


def make_cn(n: int, lambdas: Sequence):
    """Rank-1 family on n = 2m + 2 whose extra products all land on Y_n.

    Brackets: [Y1, Yi] = Y_{i+1} for i = 2..n-2,
    [Y_i, Y_{n-i+1}] = (-1)^(i+1) Y_n for i = 2..m+1, and for each shift
    s = 1..t the pairs [Y_i, Y_{n-i-2s+1}] = (-1)^(i+1) lambda_s Y_n with
    2 <= i < n-i-2s+1. Returns (algebra, jacobi_report(algebra)).
    """
    if n < 6 or n % 2:
        raise BadRange(f"Cn requires even n >= 6, got {n}")
    m = (n - 2) // 2
    t = m - 1
    lams, den = _check_lambdas(lambdas, t)
    table = {**_chain(n - 2, den), **_pairing(n, den)}
    for s, lam in enumerate(lams, 1):
        if not lam:
            continue
        total = n - 2 * s + 1
        for i in range(2, n):
            j = total - i
            if j <= i:
                break
            table[(i - 1, j - 1)] = {n - 1: lam if i % 2 else -lam}
    alg = _display_algebra(n, table, den, f"C{n}")
    return alg, jacobi_report(alg)


def _over_lcm(table: dict) -> Tuple[dict, int]:
    """(table, D): a 1-based table's (constant, slope) pairs as ints over their lcm D, 0-based."""
    den = lcm(*(x.denominator for coeffs in table.values() for pair in coeffs.values()
                for x in pair))
    return {(i - 1, j - 1): {k - 1: tuple(x.numerator * (den // x.denominator) for x in pair)
                             for k, pair in coeffs.items()}
            for (i, j), coeffs in table.items()}, den


# Benoist's constants c + s t as the pairs (c, s), 1-based, in the
# reference's fractions; scaled once to ints over their lcm D = 2000
_BENOIST, _BENOIST_DEN = _over_lcm({
    **{(1, j): {j + 1: (1, 0)} for j in range(2, 11)},
    (2, 3): {5: (1, 0)},
    (2, 4): {6: (1, 0)},
    (2, 5): {7: (-2, 0), 8: (1, 0), 9: (0, 1)},
    (2, 6): {8: (-5, 0), 9: (2, 0), 10: (0, 2)},
    (2, 7): {9: (Fraction(-13, 5), 0), 10: (Fraction(51, 25), 0),
             11: (Fraction(448, 2000), Fraction(2475, 2000))},
    (2, 8): {10: (Fraction(26, 5), 0), 11: (Fraction(28, 25), 0)},
    (2, 9): {11: (Fraction(19, 16), 0)},
    (3, 4): {7: (3, 0), 8: (-1, 0), 9: (0, -1)},
    (3, 5): {8: (3, 0), 9: (-1, 0), 10: (0, -1)},
    (3, 6): {9: (Fraction(-12, 5), 0), 10: (Fraction(-1, 25), 0),
             11: (Fraction(-448, 2000), Fraction(1525, 2000))},
    (3, 7): {10: (Fraction(-39, 5), 0), 11: (Fraction(23, 25), 0)},
    (3, 8): {11: (Fraction(321, 80), 0)},
    (4, 5): {9: (Fraction(27, 5), 0), 10: (Fraction(-24, 25), 0),
             11: (Fraction(448, 2000), Fraction(-3525, 2000))},
    (4, 6): {10: (Fraction(27, 5), 0), 11: (Fraction(-24, 25), 0)},
    (4, 7): {11: (Fraction(-189, 16), 0)},
    (5, 6): {11: (Fraction(1377, 80), 0)},
})


def make_benoist(t) -> LieAlgebra:
    """The 11-dimensional family with no affine structure, at parameter t.

    All structure constants are affine functions of t; the bracket table is
    fixed, so a Jacobi check at three distinct t values certifies the
    identity for every t (the residuals are quadratic polynomials in t).
    At t = p/q each constant c + s t is (D c q + D s p) / (D q), in ints.
    """
    t = rat(t)
    p, q = t.numerator, t.denominator
    table = {pair: {k: c * q + s * p for k, (c, s) in coeffs.items()}
             for pair, coeffs in _BENOIST.items()}
    return _display_algebra(11, table, _BENOIST_DEN * q, f"Benoist(t={t})", "X")


def make_abelian(n: int) -> LieAlgebra:
    """Abelian algebra of dimension n; every bracket vanishes."""
    if n < 1:
        raise BadDimension(f"abelian algebra needs n >= 1, got {n}")
    return LieAlgebra(n, {}, name=f"abelian{n}")


def standard_torus(family: str, n: int) -> List[Matrix]:
    """The distinguished diagonal derivations of a family, as matrices.

    Ln carries the pair diag(0, 1, ..., 1) and diag(1, 2, ..., n);
    QnZ, the adapted Qn presentation, carries diag(0, 1, ..., 1, 2) and
    diag(1, 0, 1, ..., n-3, n-3); Cn carries the single map
    diag(0, 1, ..., 1, 2). Each is a derivation of the matching algebra.
    """
    if family == "Ln":
        if n < 3:
            raise BadDimension(f"Ln requires n >= 3, got {n}")
        f1 = [0] + [1] * (n - 1)
        f2 = list(range(1, n + 1))
        return [Matrix.diagonal(f1), Matrix.diagonal(f2)]
    if family in ("QnZ", "Cn"):
        if n < 6 or n % 2:
            raise BadDimension(f"{family[:2]} requires even n >= 6, got {n}")
        f1 = Matrix.diagonal([0] + [1] * (n - 2) + [2])
        if family == "Cn":
            return [f1]
        return [f1, Matrix.diagonal([1] + [i - 2 for i in range(2, n)] + [n - 3])]
    raise UnknownFamily(f"no standard torus for family {family!r}")
