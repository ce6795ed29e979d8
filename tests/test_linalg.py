import itertools
from math import gcd

import pytest
from hypothesis import given, strategies as st

from kmhecke import linalg


def test_rref_rank():
    assert linalg.rank([[2, -2], [-2, 2]]) == 1
    assert linalg.rank([[2, -1], [-1, 2]]) == 2
    assert linalg.rank([]) == 0


def test_kernel_basis_int():
    ker = linalg.kernel_basis_int([[2, -2], [-2, 2]])
    assert ker == [(1, 1)]
    assert linalg.kernel_basis_int([[2, -1], [-1, 2]]) == []


def test_solve_exact_unique_and_inconsistent():
    # columns (1,0),(0,1): solve x = rhs
    assert linalg.solve_exact([[1, 0], [0, 1]], [3, -2]) == (3, -2)
    assert linalg.solve_exact([[1], [1]], [1, 2]) is None
    assert linalg.integer_solution([[2], [0]], [1, 0]) is None  # x = 1/2


def test_det_adjugate():
    assert linalg.det_adjugate([[2, 2], [0, 2]]) == (4, ((2, -2), (0, 2)))
    assert linalg.det_adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))
    assert linalg.det_adjugate([]) == (1, ())


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_det_adjugate_inverts(rows):
    if linalg.rank(rows) < 3:
        return
    det, adj = linalg.det_adjugate(rows)
    assert det != 0
    scaled = tuple(tuple(det if i == j else 0 for j in range(3)) for i in range(3))
    assert linalg.mat_mul(adj, tuple(map(tuple, rows))) == scaled
    assert linalg.mat_mul(tuple(map(tuple, rows)), adj) == scaled


def test_leading_minors_positive_trichotomy_cases():
    # A2 is finite type: leading minors 2 and 3
    assert linalg.leading_minors_positive([[2, -1], [-1, 2]])
    # affine A1: the determinant is 0
    assert not linalg.leading_minors_positive([[2, -2], [-2, 2]])
    # rank-2 indefinite: the determinant is -5
    assert not linalg.leading_minors_positive([[2, -3], [-3, 2]])
    # a zero pivot stops the elimination; no row exchange hides it
    assert not linalg.leading_minors_positive([[0, 1], [1, 2]])
    assert linalg.leading_minors_positive([])


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_leading_minors_positive_matches_the_minors(rows):
    def det(m):  # Laplace expansion along the first row
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))

    minors = [det([row[:k] for row in rows[:k]]) for k in range(1, 4)]
    assert linalg.leading_minors_positive(rows) == all(d > 0 for d in minors)


def _det(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))


def _minor_rank(rows):
    """The largest k with a nonzero k x k minor."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rs in itertools.combinations(range(nrows), k):
            for cs in itertools.combinations(range(ncols), k):
                if _det([[rows[r][c] for c in cs] for r in rs]):
                    return k
    return 0


_matrices = st.integers(1, 4).flatmap(
    lambda nrows: st.integers(1, 5).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
)
_square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(_matrices)
def test_kernel_vectors_annihilate(rows):
    ker = linalg.kernel_basis_int(rows)
    rank = _minor_rank(rows)
    assert linalg.rank(rows) == rank
    assert len(ker) == len(rows[0]) - rank
    for v in ker:
        assert linalg.mat_vec(tuple(map(tuple, rows)), v) == (0,) * len(rows)
        assert gcd(*v) == 1 and next(x for x in v if x) > 0
    if ker:
        assert _minor_rank(ker) == len(ker)


@given(_square)
def test_det_adjugate_matches_cofactors(rows):
    n = len(rows)
    det = _det(rows)
    if det == 0:
        with pytest.raises(ValueError):
            linalg.det_adjugate(rows)
        return
    # adj(A)[i][j] is the (j, i) cofactor
    cofactor = lambda i, j: (-1) ** (i + j) * _det(
        [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
    )
    adj = tuple(tuple(cofactor(j, i) for j in range(n)) for i in range(n))
    assert linalg.det_adjugate(rows) == (det, adj)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=5))
def test_primitive_is_primitive(vec):
    from math import gcd

    p = linalg.primitive(tuple(vec))
    g = 0
    for x in p:
        g = gcd(g, abs(x))
    assert g in (0, 1)
