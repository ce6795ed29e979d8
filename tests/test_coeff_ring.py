from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmhecke import coeff_ring
from kmhecke.coeff_ring import MASKS_MEMO_SIZE, PARAM_RING_MEMO_SIZE, SUM_HALF, LaurentPoly, pack
from kmhecke.coeff_ring import build_param_ring, param_ring_for, require_summable
from kmhecke.errors import CoordinateOutOfRange, OddExponent, ZeroSpecialization
from kmhecke.root_system import build_realization, validate_gcm


class TestParamClasses:
    def test_a2_single_class(self, a2):
        classes = build_param_ring(a2)
        assert classes.nclasses == 1
        assert classes.names() == ("σ",)

    def test_a1_coroot_lattice_two_singletons(self):
        d = build_realization(validate_gcm([[2]]), (1, [(1,)], [(2,)]))
        classes = build_param_ring(d)
        assert classes.nclasses == 2
        assert not classes.same_class(0)

    def test_affine_default_two_merged_pairs(self, aff):
        classes = build_param_ring(aff)
        assert classes.nclasses == 2
        assert classes.same_class(0) and classes.same_class(1)
        assert classes.class_index(0) != classes.class_index(1)


def polys(nvars=2):
    exps = st.tuples(*(st.integers(min_value=-2, max_value=2) for _ in range(nvars)))
    return st.dictionaries(exps, st.integers(min_value=-4, max_value=4), max_size=4).map(
        lambda d: LaurentPoly(nvars, d)
    )


class TestLaurentArith:
    def test_difference_of_squares(self):
        s = LaurentPoly.variable(1, 0)
        sinv = LaurentPoly.variable(1, 0, -1)
        lhs = (s - sinv) * (s + sinv)
        assert lhs == LaurentPoly(1, {(2,): 1, (-2,): -1})

    def test_eval_sq(self):
        s2 = LaurentPoly.variable(1, 0, 2)
        assert (s2 + LaurentPoly.const(1, 1)).eval_sq([4]) == 5
        assert (s2 - LaurentPoly.variable(1, 0, -2)).eval_sq([4]) == Fraction(15, 4)
        with pytest.raises(OddExponent):
            LaurentPoly.variable(1, 0).eval_sq([4])
        with pytest.raises(ZeroSpecialization):
            s2.eval_sq([0])

    def test_square_of_difference(self):
        s = LaurentPoly.variable(1, 0)
        sinv = LaurentPoly.variable(1, 0, -1)
        assert (s - sinv) ** 2 == LaurentPoly(1, {(2,): 1, (0,): -2, (-2,): 1})

    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a

    @given(polys(1), polys(1))
    @settings(max_examples=40)
    def test_eval_sq_is_morphism(self, a, b):
        # restrict to even-exponent polynomials by squaring the exponents
        def evenize(p):
            return LaurentPoly(1, {tuple(2 * x for x in e): c for e, c in p.coeffs.items()})

        a, b = evenize(a), evenize(b)
        assert (a * b).eval_sq([3]) == a.eval_sq([3]) * b.eval_sq([3])
        assert (a + b).eval_sq([3]) == a.eval_sq([3]) + b.eval_sq([3])

    def test_no_zero_terms_after_normalization(self):
        p = LaurentPoly(1, {(1,): 1}) - LaurentPoly(1, {(1,): 1})
        assert p.is_zero() and p.coeffs == {}


class TestExactDiv:
    def test_poincare_style(self):
        one_plus_s2 = LaurentPoly(1, {(0,): 1, (2,): 1})
        f = one_plus_s2 * LaurentPoly(1, {(1,): 2, (-3,): 5})
        assert f.exact_div(one_plus_s2) == LaurentPoly(1, {(1,): 2, (-3,): 5})

    def test_not_divisible(self):
        one_plus_s2 = LaurentPoly(1, {(0,): 1, (2,): 1})
        assert LaurentPoly(1, {(0,): 1, (2,): 2}).exact_div(one_plus_s2) is None

    @given(polys(1), polys(1))
    @settings(max_examples=40)
    def test_div_inverts_mul(self, a, b):
        if b.is_zero():
            return
        q = (a * b).exact_div(b)
        assert q == a


def test_json_round_trip():
    p = LaurentPoly(2, {(1, -2): 3, (0, 0): -1})
    assert LaurentPoly.from_json(2, p.to_json()) == p


def test_param_ring_cached(a2):
    assert param_ring_for(a2) is param_ring_for(a2)


def test_param_ring_memo_is_bounded():
    """Past its bound the memo evicts, and an evicted datum gets equal classes again."""
    data = [
        build_realization(validate_gcm([[2, -a], [-b, 2]]))
        for a in range(1, 13)
        for b in range(1, 13)
    ]
    assert len(data) > PARAM_RING_MEMO_SIZE + 8
    first = [param_ring_for(d) for d in data[:8]]
    for d in data[8:]:
        param_ring_for(d)
    assert param_ring_for.cache_info().currsize == PARAM_RING_MEMO_SIZE
    assert [param_ring_for(d) for d in data[:8]] == first


def test_masks_memo_is_bounded():
    """Vector lengths past the bound evict the earliest, which are rebuilt equal and still refuse."""
    masks = coeff_ring._masks
    assert masks.cache_parameters()["maxsize"] == MASKS_MEMO_SIZE
    first = [masks(n, SUM_HALF) for n in range(1, 5)]
    for n in range(5, MASKS_MEMO_SIZE + 9):
        require_summable(pack((SUM_HALF - 1,) * n), n)
    assert masks.cache_info().currsize == MASKS_MEMO_SIZE
    assert [masks(n, SUM_HALF) for n in range(1, 5)] == first
    with pytest.raises(CoordinateOutOfRange):
        require_summable(pack((0, SUM_HALF, 0)), 3)
