"""Exact integer linear algebra on small matrices.

Everything here works over Z, in Python integers: no rationals and no
floating point are used anywhere.  Matrices are immutable tuples of tuples,
vectors are tuples, so results can be hashed and used as dictionary keys.

Every elimination is one routine, `bareiss`: fraction-free Gauss-Jordan
elimination over Z (Bareiss, Math. Comp. 22 (1968)).  Step k takes as
its pivot p_k the entry, in the next column that has one, of the first
row at or below row k that is nonzero there; it moves that row up to row
k and replaces every other row by (p_k * row - row[c] * pivot row) //
p_(k-1), with p_0 = 1.  Invariants:

- every entry is, up to sign, a minor of the input (Sylvester's
  identity), so each division is exact;
- after step k every pivot row holds p_k at its own pivot column and 0
  at the others, so the result is d times the reduced row echelon form,
  with d the last pivot;
- while no rows have been exchanged, p_k is the k-th leading principal
  minor.

The rank and pivot columns, the primitive kernel basis, the solution of
A x = b (as v / d), the determinant (+-d) and the adjugate of a square
matrix are all read off this one pass.
"""

from __future__ import annotations

import operator
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


def bareiss(rows) -> tuple[list[list[int]], list[int], list[int], int]:
    """The fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (m, cols, pivots, swaps): the eliminated rows, the pivot
    column of each of the first len(cols) rows (the rows after them are
    zero), the pivots p_0 = 1, p_1, ... (so d = pivots[-1]) and the
    number of row exchanges.
    """
    m = [list(row) for row in rows]
    cols: list[int] = []
    pivots = [1]
    swaps = 0
    for c in range(len(m[0]) if m else 0):
        r = len(cols)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            swaps += 1
        top, p, prev = m[r], m[r][c], pivots[-1]
        for k, row in enumerate(m):
            if k != r:
                f = row[c]
                m[k] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        cols.append(c)
        pivots.append(p)
    return m, cols, pivots, swaps


def rank(rows) -> int:
    return len(bareiss(rows)[1])


def kernel_basis_int(rows) -> list[Vec]:
    """Basis of the right kernel {x : A x = 0}, as primitive integer vectors.

    One vector per free column f: x_f = d and x_c = -m[r][f] on the pivot
    column c of row r, which A annihilates because m is d times the
    reduced row echelon form of A.
    """
    if not rows:
        return []
    m, cols, pivots, _ = bareiss(rows)
    basis = []
    for f in range(len(rows[0])):
        if f not in cols:
            x = [0] * len(rows[0])
            x[f] = pivots[-1]
            for r, c in enumerate(cols):
                x[c] = -m[r][f]
            basis.append(primitive(tuple(x)))
    return basis


def _solve(rows, rhs) -> tuple[list[int], int] | None:
    """(v, d) with d > 0, A v = d rhs and free coordinates zero; None if
    the system is inconsistent."""
    if not rows:
        return ([], 1) if all(x == 0 for x in rhs) else None
    n = len(rows[0])
    m, cols, pivots, _ = bareiss([list(row) + [b] for row, b in zip(rows, rhs)])
    if n in cols:
        return None
    sign = 1 if pivots[-1] > 0 else -1
    v = [0] * n
    for r, c in enumerate(cols):
        v[c] = sign * m[r][n]
    return v, sign * pivots[-1]


def solve_exact(rows, rhs) -> Vec | None:
    """One solution of A x = rhs, scaled by the least positive integer that
    makes it integral; None if the system is inconsistent.

    Free variables are set to zero, so the result is deterministic.  The
    solution is v / d, and the scale is d / gcd(d, v).
    """
    if (sol := _solve(rows, rhs)) is None:
        return None
    g = gcd(sol[1], *sol[0])
    return tuple(x // g for x in sol[0])


def integer_solution(rows, rhs) -> Vec | None:
    """The solution of A x = rhs with free coordinates zero, or None unless
    it exists and is integral.

    Only valid as a uniqueness statement when the columns of A are
    linearly independent (the callers guarantee this).
    """
    sol = _solve(rows, rhs)
    if sol is None or any(x % sol[1] for x in sol[0]):
        return None
    return tuple(x // sol[1] for x in sol[0])


def leading_minors_positive(rows) -> bool:
    """Whether every leading principal minor of a square matrix is positive.

    Without a row exchange the k-th Bareiss pivot is the k-th leading
    minor, and an exchange or a skipped column means some minor is 0.
    """
    _, cols, pivots, swaps = bareiss(rows)
    return swaps == 0 and len(cols) == len(rows) and all(p > 0 for p in pivots)


def det_adjugate(rows) -> tuple[int, Mat]:
    """Determinant and adjugate of an invertible square integer matrix.

    adj(A) A = A adj(A) = det(A) I, so A x = b has the solution
    adj(A) b / det(A), computed in integers.  Eliminating [A | I] leaves
    [d I | d A^-1] with d = +-det(A), the sign that of the row exchanges;
    raises ValueError on a singular matrix.
    """
    n = len(rows)
    m, cols, pivots, swaps = bareiss(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    )
    if cols != list(range(n)):
        raise ValueError("singular matrix has no adjugate inverse")
    sign = -1 if swaps % 2 else 1
    return sign * pivots[-1], tuple(tuple(sign * x for x in row[n:]) for row in m)
