import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from kmhecke import linalg
from kmhecke.errors import (
    AsymmetricZero,
    DiagonalNotTwo,
    PairingMismatch,
    PointLengthMismatch,
    PositiveOffDiagonal,
    RealizationShape,
)
from kmhecke.root_system import (
    AFFINE,
    CLASSIFY_MEMO_SIZE,
    FINITE,
    INDEFINITE,
    affine_delta,
    alpha_image_index,
    build_realization,
    central_coroot,
    classify_components,
    classify_gcm,
    datum_from_json,
    datum_to_json,
    dominance_leq,
    height_between,
    q_coords,
    validate_gcm,
)


class TestValidateGCM:
    def test_rank_one(self):
        assert validate_gcm([[2]]).n == 1

    def test_mixed_three_by_three(self):
        gcm = validate_gcm([[2, 0, -2], [0, 2, 0], [-5, 0, 2]])
        assert gcm.n == 3

    def test_asymmetric_zero(self):
        with pytest.raises(AsymmetricZero) as err:
            validate_gcm([[2, -1], [0, 2]])
        assert (err.value.i, err.value.j) in {(0, 1), (1, 0)}

    def test_other_axioms(self):
        with pytest.raises(DiagonalNotTwo):
            validate_gcm([[1]])
        with pytest.raises(PositiveOffDiagonal):
            validate_gcm([[2, 1], [-1, 2]])


class TestBuildRealization:
    def test_nonsingular_is_essential(self):
        d = build_realization(validate_gcm([[2]]))
        assert d.rank_y == 1
        assert d.coroots == ((1,),)
        assert d.roots == ((2,),)

    def test_affine_gets_extra_direction(self):
        d = build_realization(validate_gcm([[2, -2], [-2, 2]]))
        assert d.rank_y == 3  # 2n - rk(A) = 4 - 1
        # both roots see the kernel coordinate, pairing stays the matrix
        for i in range(2):
            for j in range(2):
                assert d.pairing(j, d.coroots[i]) == d.gcm[i, j]

    def test_custom_accepted_and_validated(self, a2):
        assert a2.rank_y == 2
        with pytest.raises(PairingMismatch):
            build_realization(
                validate_gcm([[2, -1], [-1, 2]]),
                (2, [(1, 0), (0, 1)], [(2, -1), (-1, 1)]),
            )

    def test_dependent_families_rejected(self):
        from kmhecke.errors import DependentCoroots, DependentRoots

        gcm = validate_gcm([[2, -2], [-2, 2]])
        with pytest.raises(DependentRoots):
            build_realization(gcm, (2, [(1, 0), (0, 1)], [(2, -2), (-2, 2)]))
        with pytest.raises(DependentCoroots):
            build_realization(
                gcm, (3, [(1, 1, 0), (2, 2, 0)], [(2, -2, 0), (-2, 2, 1)])
            )


    @pytest.mark.parametrize(
        "custom",
        [
            (2, [(1,)], [(1,)]),  # vectors shorter than rank_y
            (1, [(1, 0)], [(2, 0)]),  # vectors longer than rank_y
            (1, [(1,), (0,)], [(2,)]),  # more coroots than the matrix has rows
            (1, [(1,)], []),  # no roots
        ],
    )
    def test_wrong_shape_rejected(self, custom):
        with pytest.raises(RealizationShape):
            build_realization(validate_gcm([[2]]), custom)

    def test_wrong_shape_from_json(self):
        data = {"gcm": [[2, -1], [-1, 2]], "rank_y": 2, "coroots": [[1, 0], [0, 1]], "roots": [[2, -1]]}
        with pytest.raises(RealizationShape):
            datum_from_json(data)


class TestQCoords:
    def test_a2_identity_lattice(self, a2):
        assert q_coords(a2, (1, 2)) == (1, 2)

    def test_dominant_point_not_below_zero(self, mixed3):
        assert q_coords(mixed3, (-2, 1, -1)) == (-2, 1, -1)
        assert not dominance_leq(mixed3, (-2, 1, -1), (0, 0, 0))
        # and it is dominant: alpha_i values all positive
        assert [mixed3.pairing(i, (-2, 1, -1)) for i in range(3)] == [1, 2, 2]

    def test_extra_direction_not_in_coroot_span(self, aff):
        assert q_coords(aff, (0, 0, 1)) is None

    def test_index_four_sublattice(self, det4):
        assert abs(det4._solver[2]) == 4
        assert q_coords(det4, (4, 2, 0)) == (1, 1)
        assert q_coords(det4, (2, 1, 0)) is None  # rational coordinates (1/2, 1/2)
        assert q_coords(det4, (1, 0, 0)) is None
        assert q_coords(det4, (2, 2, 1)) is None  # off the rational span

    def test_wrong_length_rejected(self, a2, aff):
        with pytest.raises(PointLengthMismatch):
            q_coords(a2, (1, 2, 3))
        with pytest.raises(PointLengthMismatch):
            q_coords(aff, (1, 1))

    @given(data=st.data())
    def test_matches_rational_solver(self, a1, a2, aff, chain3, mixed3, det4, data):
        """The stored integer solve agrees with the Fraction RREF solve, None included."""
        datum = data.draw(st.sampled_from([a1, a2, aff, chain3, mixed3, det4]))
        small = st.integers(-6, 6)
        if data.draw(st.booleans()):
            v = tuple(data.draw(st.lists(small, min_size=datum.rank_y, max_size=datum.rank_y)))
        else:
            # an integer coroot combination, scaled down by 1 or 2 and nudged
            coeffs = data.draw(st.lists(small, min_size=datum.n, max_size=datum.n))
            v = [sum(c * co[r] for c, co in zip(coeffs, datum.coroots)) for r in range(datum.rank_y)]
            shrink = data.draw(st.sampled_from([1, 2]))
            v = [x // shrink for x in v]
            k = data.draw(st.integers(0, datum.rank_y - 1))
            v[k] += data.draw(st.sampled_from([0, 0, 1]))
            v = tuple(v)
        cmat = tuple(
            tuple(datum.coroots[i][r] for i in range(datum.n)) for r in range(datum.rank_y)
        )
        want = linalg.integer_solution(cmat, v)
        assert q_coords(datum, v) == want


class TestDominance:
    def test_strict_dominance_pair(self, a2):
        assert dominance_leq(a2, (0, -1), (1, 1))

    def test_reflexive(self, a2):
        assert dominance_leq(a2, (3, -2), (3, -2))

    def test_wrong_length_rejected(self, a2):
        # (1, 1, 7) - (0, 0) would otherwise truncate to the coroot sum (1, 1)
        for lo, hi in (((0, 0), (1, 1, 7)), ((0, 0, 3), (1, 1)), ((0,), (1, 1))):
            with pytest.raises(PointLengthMismatch):
                dominance_leq(a2, lo, hi)
            with pytest.raises(PointLengthMismatch):
                height_between(a2, lo, hi)

    def test_hypothesis_partial_order(self, a2):
        rng = random.Random(7)
        pts = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(40)]
        for x in pts:
            assert dominance_leq(a2, x, x)
        for x in pts:
            for y in pts:
                if dominance_leq(a2, x, y) and dominance_leq(a2, y, x):
                    assert x == y
        for x, y, z in zip(pts, pts[1:], pts[2:]):
            if dominance_leq(a2, x, y) and dominance_leq(a2, y, z):
                assert dominance_leq(a2, x, z)


class TestClassify:
    def test_finite(self):
        d = build_realization(validate_gcm([[2, -1], [-1, 2]]))
        (comp,) = classify_components(d).components
        assert comp.kind == FINITE

    def test_affine_with_kernel(self, aff):
        (comp,) = classify_components(aff).components
        assert comp.kind == AFFINE
        assert comp.delta_coeffs == (1, 1)
        assert affine_delta(aff, comp) == (0, 0, 2)
        assert central_coroot(aff, comp) == (1, 1, 0)

    def test_mixed_matrix_components(self, mixed3):
        report = classify_components(mixed3)
        by_indices = {c.indices: c.kind for c in report.components}
        assert by_indices == {(0, 2): INDEFINITE, (1,): FINITE}

    def test_kind_stable_under_permutation(self):
        base = [[2, 0, -2], [0, 2, 0], [-5, 0, 2]]
        perm = [1, 2, 0]
        permuted = [[base[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        kinds = lambda m: sorted(
            c.kind for c in classify_components(build_realization(validate_gcm(m))).components
        )
        assert kinds(base) == kinds(permuted)


# --- an independent oracle for the trichotomy ---
# Kac, Infinite dimensional Lie algebras, Thm. 4.3: an indecomposable GCM A
# is of exactly one type, and each type has a certificate checked here in
# exact arithmetic: Finite, A^-1 (1, ..., 1) > 0; Affine, delta > 0 with
# A delta = 0 (and k > 0 with A^T k = 0); Indefinite, some v > 0 with A v < 0.

_SEARCH = {m: sorted(itertools.product(range(1, 13), repeat=m), key=max) for m in range(1, 5)}


def _check_certificates(matrix):
    gcm = validate_gcm(matrix)
    report = classify_gcm(gcm)
    assert sorted(i for c in report.components for i in c.indices) == list(range(gcm.n))
    for comp in report.components:
        sub = gcm.submatrix(comp.indices).entries
        m = len(comp.indices)
        if comp.kind == FINITE:
            u = linalg.solve_exact(sub, (1,) * m)
            assert u is not None and all(x > 0 for x in u), (matrix, comp)
            assert comp.delta_coeffs is None and comp.coroot_kernel is None
        elif comp.kind == AFFINE:
            delta, k = comp.delta_coeffs, comp.coroot_kernel
            assert all(x > 0 for x in delta) and linalg.mat_vec(sub, delta) == (0,) * m
            assert all(x > 0 for x in k) and linalg.mat_vec(tuple(zip(*sub)), k) == (0,) * m
        else:
            assert comp.kind == INDEFINITE
            assert any(all(x < 0 for x in linalg.mat_vec(sub, v)) for v in _SEARCH[m]), (matrix, comp)
            assert comp.delta_coeffs is None and comp.coroot_kernel is None
    return report


def _small_gcms():
    """Every GCM of rank <= 3 with off-diagonal entries in 0..-4."""
    pair_values = [(0, 0)] + [(a, b) for a in range(-4, 0) for b in range(-4, 0)]
    for n in (1, 2, 3):
        pairs = list(itertools.combinations(range(n), 2))
        for values in itertools.product(pair_values, repeat=len(pairs)):
            m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), (a, b) in zip(pairs, values):
                m[i][j], m[j][i] = a, b
            yield m


def _from_edges(n, edges):
    """The GCM with A[i][j] = a, A[j][i] = b for each edge (i, j, a, b)."""
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a, b in edges:
        m[i][j], m[j][i] = a, b
    return m


def _chain(n):
    return [(i, i + 1, -1, -1) for i in range(n - 1)]


def _finite_families():
    for n in range(1, 11):
        yield f"A{n}", _from_edges(n, _chain(n))
    for n in range(2, 11):
        yield f"B{n}", _from_edges(n, _chain(n - 1) + [(n - 2, n - 1, -2, -1)])
        yield f"C{n}", _from_edges(n, _chain(n - 1) + [(n - 2, n - 1, -1, -2)])
    for n in range(4, 11):
        yield f"D{n}", _from_edges(n, _chain(n - 1) + [(n - 3, n - 1, -1, -1)])
    for n in (6, 7, 8):
        yield f"E{n}", _from_edges(n, _chain(n - 1) + [(2, n - 1, -1, -1)])
    yield "F4", _from_edges(4, [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)])
    yield "G2", [[2, -1], [-3, 2]]


def _cyclic_affine(n):
    """Affine A~n on n + 1 nodes: a cycle, or the double bond for n = 1."""
    if n == 1:
        return [[2, -2], [-2, 2]]
    return _from_edges(n + 1, _chain(n + 1) + [(0, n, -1, -1)])


INDEFINITE_6 = [
    [2, -3, 0, -2, -3, -2], [-1, 2, -2, -1, 0, 0], [0, -3, 2, -3, 0, 0],
    [-1, -2, -1, 2, 0, -3], [-3, 0, 0, 0, 2, -3], [-3, 0, 0, -3, -3, 2],
]


class TestTrichotomyOracle:
    def test_every_small_gcm(self):
        count = 0
        for matrix in _small_gcms():
            _check_certificates(matrix)
            count += 1
        assert count == 4931

    @pytest.mark.parametrize("name, matrix", list(_finite_families()))
    def test_finite_families(self, name, matrix):
        assert _check_certificates(matrix).kinds == (FINITE,)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclic_affine(self, n):
        (comp,) = _check_certificates(_cyclic_affine(n)).components
        assert comp.kind == AFFINE and comp.delta_coeffs == (1,) * (n + 1)

    def test_singular_indefinite(self):
        """A one-dimensional kernel that is not one-signed, (1, 1, -1, -1), is no affine delta."""
        matrix = [[2, -2, 0, 0], [-3, 2, -1, 0], [0, -1, 2, -3], [0, 0, -2, 2]]
        assert linalg.kernel_basis_int(matrix) == [(1, 1, -1, -1)]
        assert _check_certificates(matrix).kinds == (INDEFINITE,)

    @pytest.mark.parametrize(
        "matrix, kind", [(_cyclic_affine(5), AFFINE), (INDEFINITE_6, INDEFINITE)]
    )
    def test_rank_six_decided_quickly(self, matrix, kind):
        """Fourier-Motzkin elimination took 14 s and 159 s on these two (2-CPU VM).

        The bound catches a search that is exponential in the rank.
        """
        t0 = time.perf_counter()
        report = classify_gcm.__wrapped__(validate_gcm(matrix))
        assert time.perf_counter() - t0 < 2.0
        assert report.kinds == (kind,)


def test_classify_memo_is_bounded():
    """Past its bound the memo evicts, and an evicted GCM is classified the same again."""
    gcms = [validate_gcm(m) for m in itertools.islice(_small_gcms(), CLASSIFY_MEMO_SIZE + 16)]
    first = [classify_gcm(g) for g in gcms[:16]]
    for g in gcms[16:]:
        classify_gcm(g)
    assert classify_gcm.cache_info().currsize == CLASSIFY_MEMO_SIZE
    assert [classify_gcm(g) for g in gcms[:16]] == first


class TestAlphaImageIndex:
    def test_a1_coroot_lattice(self):
        d = build_realization(validate_gcm([[2]]), (1, [(1,)], [(2,)]))
        assert alpha_image_index(d, 0) == 2

    def test_a2(self, a2):
        assert alpha_image_index(a2, 0) == 1
        assert alpha_image_index(a2, 1) == 1

    def test_a1_default(self, a1):
        assert alpha_image_index(a1, 0) == 2


def test_q_coords_reconstruct(mixed3):
    rng = random.Random(3)
    for _ in range(25):
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        q = q_coords(mixed3, v)
        rebuilt = tuple(
            sum(q[i] * mixed3.coroots[i][r] for i in range(3)) for r in range(3)
        )
        assert rebuilt == v


def test_json_round_trip(aff, a2):
    for d in (aff, a2):
        assert datum_from_json(datum_to_json(d)) == d
    # omitted coroots/roots mean default realization
    assert datum_from_json({"gcm": [[2, -2], [-2, 2]]}) == aff
