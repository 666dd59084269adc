"""Constructors for the filiform algebra families and their diagonal tori.

Bracket tables are written below in the 1-based indexing of the printed
displays and converted to the package's 0-based storage at construction.

The families A_n^k, B_n^k (rank 1) and C_n carry parameters (lambda_1, ...)
that are subject to polynomial constraints coming from the Jacobi
identity. Those constraints are never solved symbolically here: the
constructors build the bracket table for the given parameters and hand
back the exhaustive Jacobi residual report alongside the algebra, leaving
any violation visible to the caller instead of raising.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import BadDimension, BadRange, UnknownFamily, WrongLambdaCount
from .liealg import LieAlgebra, jacobi_report
from .linalg import Matrix, ONE, rat


_Table = Dict[Tuple[int, int], Dict[int, Fraction]]


def _display_algebra(n: int, table: _Table, name: str, letter: str = "Y") -> LieAlgebra:
    """The algebra of a 1-based table {(i, j): {k: c}}, stored 0-based in the table's order."""
    structure = {(i - 1, j - 1): {k - 1: c for k, c in coeffs.items()}
                 for (i, j), coeffs in table.items()}
    return LieAlgebra(n, structure, name=name,
                      basis_names=[f"{letter}{i}" for i in range(1, n + 1)])


def _sign(i: int) -> Fraction:
    """(-1)^(i+1)."""
    return ONE if i % 2 else -ONE


def _chain(top: int) -> _Table:
    """The chain [Y1, Yj] = Y_{j+1} for j = 2..top."""
    return {(1, j): {j + 1: ONE} for j in range(2, top + 1)}


def _pairing(n: int) -> _Table:
    """The pairing [Y_i, Y_{n-i+1}] = (-1)^(i+1) Y_n for i = 2..n/2."""
    return {(i, n - i + 1): {n: _sign(i)} for i in range(2, n // 2 + 1)}


def make_ln(n: int) -> LieAlgebra:
    """Filiform model algebra: [Y1, Yj] = Y_{j+1} for j = 2..n-1."""
    if n < 3:
        raise BadDimension(f"Ln requires n >= 3, got {n}")
    return _display_algebra(n, _chain(n - 1), f"L{n}")


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
        return _display_algebra(n, table, f"Q{n}Z", "Z")
    return _display_algebra(n, table, f"Q{n}")


def fill_aij(n: int, k: int, lambdas: Sequence) -> Dict[Tuple[int, int], Fraction]:
    """Solve the coefficient recurrence a_ij = a_{i,j+1} + a_{i+1,j}.

    The band a_{i,i+1} = lambda_{i-1} (i starting at 2) seeds the table and
    the recurrence, read as a_{i,j} = a_{i,j-1} - a_{i+1,j-1} for growing
    gap j - i, fills everything else. Diagonal entries a_{ii} are zero and
    entries whose bracket target i + j + k - 2 exceeds n are zero and not
    stored; in-range values never depend on out-of-range ones because the
    recurrence only consumes entries with strictly smaller targets.

    Keys are the 1-based pairs (i, j) with i >= 2; absent key means zero.
    """
    if not 2 <= k <= n - 3:
        raise BadRange(f"shift k must satisfy 2 <= k <= n - 3, got k={k}, n={n}")
    lams = [rat(x) for x in lambdas]
    t_cap = (n - k + 1) // 2
    if len(lams) > t_cap - 1:
        raise BadRange(
            f"at most {t_cap - 1} lambda values fit n={n}, k={k}; got {len(lams)}"
        )
    a: Dict[Tuple[int, int], Fraction] = {}
    for idx, lam in enumerate(lams):
        if lam:
            a[(idx + 2, idx + 3)] = lam
    for gap in range(2, n):
        for i in range(2, n):
            j = i + gap
            if j > n or i + j + k - 2 > n:
                break
            val = a.get((i, j - 1), Fraction(0)) - a.get((i + 1, j - 1), Fraction(0))
            if val:
                a[(i, j)] = val
    return a


def _check_lambdas(lambdas: Sequence, expected: int) -> List[Fraction]:
    lams = [rat(x) for x in lambdas]
    if len(lams) != expected:
        raise WrongLambdaCount(f"expected {expected} lambda value(s), got {len(lams)}")
    if expected and not any(lams):
        raise WrongLambdaCount("lambda parameters must not all vanish")
    return lams


def make_ank(n: int, k: int, lambdas: Sequence):
    """Rank-1 family with full chain and products [Y_i, Y_j] = a_ij Y_{i+j+k-2}.

    Returns (algebra, jacobi_report(algebra)); a nonempty report means the
    lambda values violate the Jacobi constraints and is data, not an error.
    """
    if not 2 <= k <= n - 3:
        raise BadRange(f"Ank requires 2 <= k <= n - 3, got k={k}, n={n}")
    t = (n - k + 1) // 2
    lams = _check_lambdas(lambdas, t - 1)
    a = fill_aij(n, k, lams)
    table = _chain(n - 1)
    for (i, j), val in a.items():
        table[(i, j)] = {i + j + k - 2: val}
    alg = _display_algebra(n, table, f"A{n}^{k}")
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
    lams = _check_lambdas(lambdas, max(t - 1, 0))
    a = fill_aij(n, k, lams)
    table = {**_chain(n - 2), **_pairing(n)}
    for (i, j), val in a.items():
        if j == i + 1 or i + j + k - 2 <= n - 2:
            table[(i, j)] = {i + j + k - 2: val}
    alg = _display_algebra(n, table, f"B{n}^{k}")
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
    lams = _check_lambdas(lambdas, t)
    table = {**_chain(n - 2), **_pairing(n)}
    for s in range(1, t + 1):
        lam = lams[s - 1]
        if not lam:
            continue
        total = n - 2 * s + 1
        for i in range(2, n):
            j = total - i
            if j <= i:
                break
            table[(i, j)] = {n: _sign(i) * lam}
    alg = _display_algebra(n, table, f"C{n}")
    return alg, jacobi_report(alg)


def make_benoist(t) -> LieAlgebra:
    """The 11-dimensional family with no affine structure, at parameter t.

    All structure constants are affine functions of t; the bracket table is
    fixed, so a Jacobi check at three distinct t values certifies the
    identity for every t (the residuals are quadratic polynomials in t).
    """
    t = rat(t)
    F = Fraction
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
    return _display_algebra(11, table, f"Benoist(t={t})", "X")


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
