"""Exact rational linear algebra on small matrices.

Everything here works over `fractions.Fraction` (or plain ints where
closure under the operation permits); no floating point is used anywhere.
Matrices are immutable tuples of tuples, vectors are tuples, so results
can be hashed and used as dictionary keys.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def dot(u, v) -> int:
    return sum(map(operator.mul, u, v))  # every descent test and reflection pairs through here


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.add, u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.sub, u, v))


def vec_scale(c: int, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(a: Mat, v) -> Vec:
    return tuple(dot(row, v) for row in a)


def primitive(v: Vec) -> Vec:
    """Divide out the gcd and normalize the first nonzero entry positive."""
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    if g == 0:
        return v
    w = tuple(a // g for a in v)
    for a in w:
        if a != 0:
            return w if a > 0 else tuple(-b for b in w)
    return w


def _as_fraction_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = _as_fraction_rows(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {x : A x = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -m[r][f]
        basis.append(tuple(x))
    return basis


def kernel_basis_int(rows) -> list[Vec]:
    """Right-kernel basis scaled to primitive integer vectors."""
    out = []
    for v in kernel_basis(rows):
        lcm = 1
        for x in v:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        out.append(primitive(tuple(int(x * lcm) for x in v)))
    return out


def solve_exact(rows, rhs) -> tuple[Fraction, ...] | None:
    """One solution of A x = rhs over the rationals, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    if not rows:
        return () if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return tuple(x)


def integer_solution(rows, rhs) -> Vec | None:
    """Like solve_exact but returns None unless the solution is integral.

    Only valid as a uniqueness statement when the columns of A are
    linearly independent (the callers guarantee this).
    """
    x = solve_exact(rows, rhs)
    if x is None or any(f.denominator != 1 for f in x):
        return None
    return tuple(int(f) for f in x)


def leading_minors_positive(rows) -> bool:
    """Whether every leading principal minor of a square matrix is positive.

    Gaussian elimination over the rationals without row exchanges: while
    the earlier pivots are nonzero, the k-th pivot is the quotient of the
    k-th and (k-1)-th leading minors, so all pivots are positive exactly
    when all leading minors are.
    """
    m = _as_fraction_rows(rows)
    for c, row in enumerate(m):
        if row[c] <= 0:
            return False
        for below in m[c + 1:]:
            if below[c]:
                f = below[c] / row[c]
                below[c:] = [x - f * y for x, y in zip(below[c:], row[c:])]
    return True


def det_adjugate(rows) -> tuple[int, Mat]:
    """Determinant and adjugate of an invertible square integer matrix.

    adj(A) A = A adj(A) = det(A) I, so A x = b has the solution
    adj(A) b / det(A), computed in integers.  Gauss-Jordan over the
    rationals; raises ValueError on a singular matrix.
    """
    n = len(rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix has no adjugate inverse")
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        p = m[c][c]
        det *= p
        m[c] = [x / p for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det), tuple(tuple(int(x * det) for x in row[n:]) for row in m)
