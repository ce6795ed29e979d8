"""The packed coefficient form against a tuple-keyed reference.

`LaurentPoly` and `BLElement` store every coefficient as a packed
`{int: int}` map.  The reference below is the straightforward arithmetic
on `{exponent tuple: int}` maps; the packed operations must agree with it
exactly, including a refused division.  The element operations must agree
with the same operations done on decoded `.terms`, decoded copies must be
detached from the element, and the cached product tables, whose maps are
shared with elements, must never change.
"""

import copy

import pytest
from hypothesis import assume, given, settings, strategies as st

from kmhecke import hecke_bl
from kmhecke.coeff_ring import FACTOR_HALF, SUM_HALF, LaurentPoly, mul, pack, param_ring_for
from kmhecke.coeff_ring import require_factors, require_summable
from kmhecke.errors import CoordinateOutOfRange, ExponentLengthMismatch, PointLengthMismatch
from kmhecke.hecke_bl import BLElement, commute_Hi_past_Z, mult_bl
from kmhecke.weyl import element_from_word, identity


# --- tuple-keyed reference ---------------------------------------------------


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(f, n, k):
    if k < 0:
        if len(f) != 1:
            raise ValueError("only monomials are invertible")
        ((e, c),) = f.items()
        if c not in (1, -1):
            raise ValueError("only unit-coefficient monomials are invertible")
        return ref_pow({tuple(-x for x in e): c}, n, -k)
    out = {(0,) * n: 1}
    base = f
    while k:
        if k & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base)
        k >>= 1
    return out


def ref_exact_div(f, g, n):
    if not f:
        return {}
    shift_f = tuple(min(e[k] for e in f) for k in range(n))
    shift_g = tuple(min(e[k] for e in g) for k in range(n))
    f = {tuple(a - s for a, s in zip(e, shift_f)): c for e, c in f.items()}
    g = {tuple(a - s for a, s in zip(e, shift_g)): c for e, c in g.items()}
    lt_g = max(g)
    cg = g[lt_g]
    quotient = {}
    while f:
        lt_f = max(f)
        diff = tuple(a - b for a, b in zip(lt_f, lt_g))
        if any(d < 0 for d in diff):
            return None
        c, rem = divmod(f[lt_f], cg)
        if rem != 0:
            return None
        quotient[diff] = c
        for e, ce in g.items():
            key = tuple(a + b for a, b in zip(diff, e))
            val = f.get(key, 0) - c * ce
            if val:
                f[key] = val
            else:
                f.pop(key, None)
    unshift = tuple(a - b for a, b in zip(shift_f, shift_g))
    return {tuple(a + b for a, b in zip(e, unshift)): c for e, c in quotient.items()}


# --- LaurentPoly -------------------------------------------------------------


def coeff_maps(n, max_size=4):
    exps = st.tuples(*(st.integers(min_value=-6, max_value=6) for _ in range(n)))
    return st.dictionaries(exps, st.integers(min_value=-5, max_value=5), max_size=max_size).map(
        lambda d: {e: c for e, c in d.items() if c}
    )


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    return n, draw(coeff_maps(n)), draw(coeff_maps(n))


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_add_mul_neg_match_reference(args):
    n, f, g = args
    pf, pg = LaurentPoly(n, f), LaurentPoly(n, g)
    assert pf.coeffs == f
    assert (pf + pg).coeffs == ref_add(f, g)
    assert (pf - pg).coeffs == ref_add(f, {e: -c for e, c in g.items()})
    assert (pf * pg).coeffs == ref_mul(f, g)
    assert (pf * 3).coeffs == {e: 3 * c for e, c in f.items()}
    assert (pf * 0).is_zero()


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            coeff_maps(n),
            st.tuples(*(st.integers(min_value=-6, max_value=6) for _ in range(n))),
            st.sampled_from((1, -1, 3)),
        )
    )
)
@settings(max_examples=120, deadline=None)
def test_mul_by_one_term_matches_reference(args):
    """`mul` with a single-term factor of coefficient 1, -1 or 3, on either side."""
    n, f, e, c = args
    pf, pt = LaurentPoly(n, f).packed, LaurentPoly(n, {e: c}).packed
    for p, q, want in ((pf, pt, ref_mul(f, {e: c})), (pt, pf, ref_mul({e: c}, f))):
        got = mul(p, q)
        assert LaurentPoly.from_packed(n, got).coeffs == want
        assert 0 not in got.values()


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(st.just(n), coeff_maps(n, max_size=3), st.integers(-3, 3))
    )
)
@settings(max_examples=120, deadline=None)
def test_pow_matches_reference(args):
    n, f, k = args
    try:
        want = ref_pow(f, n, k)
    except ValueError:
        with pytest.raises(ValueError):
            LaurentPoly(n, f) ** k
        return
    assert (LaurentPoly(n, f) ** k).coeffs == want


@given(poly_pairs(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_exact_div_matches_reference(args, multiple):
    n, f, g = args
    assume(g)
    if multiple:
        f = ref_mul(f, g)
    want = ref_exact_div(f, g, n)
    got = LaurentPoly(n, f).exact_div(LaurentPoly(n, g))
    if want is None:
        assert got is None
    else:
        assert got is not None and got.coeffs == want
    if multiple:
        assert want is not None


_EDGES = [-2 * SUM_HALF, -SUM_HALF - 1, -SUM_HALF, -1, 0, SUM_HALF - 1, SUM_HALF, 2 * SUM_HALF - 1]
_ENTRIES = st.one_of(st.sampled_from(_EDGES), st.integers(-2 * SUM_HALF, 2 * SUM_HALF - 1))


@given(st.lists(_ENTRIES, min_size=1, max_size=4))
def test_summable_mask_matches_the_entries(e):
    """The one-mask test of `require_summable` accepts exactly the vectors whose entries fit."""
    if all(-SUM_HALF <= x < SUM_HALF for x in e):
        require_summable(pack(e), len(e))
    else:
        with pytest.raises(CoordinateOutOfRange):
            require_summable(pack(e), len(e))


_FACTOR_EDGES = [-2 * FACTOR_HALF, -FACTOR_HALF - 1, -FACTOR_HALF, 0, FACTOR_HALF - 1, FACTOR_HALF]
_FACTOR_ENTRIES = st.one_of(st.sampled_from(_FACTOR_EDGES), st.integers(-SUM_HALF, SUM_HALF))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.tuples(*[_FACTOR_ENTRIES] * n), max_size=3), max_size=3)
)))
def test_factor_mask_matches_the_exponents(args):
    """The one-mask test of `require_factors` accepts exactly the maps whose exponents fit."""
    n, maps = args
    packed = [{pack(e): 1 for e in m} for m in maps]
    if all(-FACTOR_HALF <= x < FACTOR_HALF for m in maps for e in m for x in e):
        require_factors(packed, n)
    else:
        with pytest.raises(CoordinateOutOfRange):
            require_factors(packed, n)


def test_products_refuse_exponents_that_would_carry(a1):
    """Each of these products used to return an exponent that had carried into the next one."""
    classes = param_ring_for(a1)
    big, one_up = LaurentPoly(2, {(8388607, 0): 1}), LaurentPoly(2, {(1, 0): 1})
    raised = BLElement(a1, classes, {((0,), identity(a1)): one_up})
    products = (
        lambda: big * one_up,
        lambda: big ** 2,
        lambda: LaurentPoly(2, {(-8388608, 0): 1}) ** -1,
        lambda: raised.scale(big),
        lambda: mult_bl(raised, BLElement(a1, classes, {((0,), identity(a1)): big})),
    )
    for product in products:
        with pytest.raises(CoordinateOutOfRange):
            product()


def test_quotients_refuse_exponents_that_would_carry():
    """sigma^(2^23 - 1) / sigma^(-1) and 1 / sigma^(-2^23) used to return sigma^(-2^23)."""
    big, low = LaurentPoly(1, {(8388607,): 1}), LaurentPoly(1, {(-1,): 1})
    one, lowest = LaurentPoly(1, {(0,): 1}), LaurentPoly(1, {(-8388608,): 1})
    for num, den in ((big, low), (one, lowest), (low, big), (LaurentPoly(1, {(FACTOR_HALF,): 1}), low)):
        with pytest.raises(CoordinateOutOfRange):
            num.exact_div(den)
    edge = LaurentPoly(1, {(FACTOR_HALF - 1,): 1})
    assert edge.exact_div(low) == LaurentPoly(1, {(FACTOR_HALF,): 1})


def test_decoded_coeffs_are_detached():
    p = LaurentPoly(2, {(1, -2): 3, (0, 0): -1})
    decoded = p.coeffs
    decoded[(5, 5)] = 7
    decoded[(1, -2)] = 0
    assert p == LaurentPoly(2, {(1, -2): 3, (0, 0): -1})
    assert p.coeffs == {(1, -2): 3, (0, 0): -1}


def test_exponent_vector_of_the_wrong_length_is_refused():
    # packed, (1, 0, 0) would read as the 2-variable (1, 0) and (0, 0, 5) as (0, 0)
    for exps in ((1, 0, 0), (0, 0, 5), (1,)):
        with pytest.raises(ExponentLengthMismatch):
            LaurentPoly(2, {exps: 1})


# --- BLElement ---------------------------------------------------------------


def test_point_of_the_wrong_length_is_refused(a2):
    classes = param_ring_for(a2)
    e = element_from_word(a2, ())
    for lam in ((1, 2, 3, 4), (1, 2, 0), (1,)):
        with pytest.raises(PointLengthMismatch):
            BLElement(a2, classes, {(lam, e): classes.one()})


def _terms(datum, words):
    classes = param_ring_for(datum)
    n = classes.nclasses
    key = st.tuples(
        st.tuples(*(st.integers(-3, 3) for _ in range(datum.rank_y))), st.sampled_from(words)
    )
    return st.dictionaries(key, coeff_maps(n, max_size=3), max_size=4).map(
        lambda d: {
            (lam, element_from_word(datum, word)): LaurentPoly(n, c) for (lam, word), c in d.items()
        }
    )


def _ref_sum(x, y, sign=1):
    out = dict(x)
    for k, p in y.items():
        out[k] = out.get(k, p * 0) + p * sign
    return {k: p for k, p in out.items() if not p.is_zero()}


@pytest.mark.parametrize("name", ["a2", "aff"])
def test_element_operations_match_terms(request, name):
    datum = request.getfixturevalue(name)
    classes = param_ring_for(datum)
    words = [(), (0,), (1,), (0, 1)]

    @given(_terms(datum, words), _terms(datum, words), coeff_maps(classes.nclasses, 3))
    @settings(max_examples=80, deadline=None)
    def check(tx, ty, c):
        x, y = BLElement(datum, classes, tx), BLElement(datum, classes, ty)
        nonzero = {k: p for k, p in tx.items() if not p.is_zero()}
        assert x.terms == nonzero
        assert (x + y).terms == _ref_sum(x.terms, y.terms)
        assert (x - y).terms == _ref_sum(x.terms, y.terms, -1)
        poly = LaurentPoly(classes.nclasses, c)
        scaled = {k: p * poly for k, p in x.terms.items()}
        assert x.scale(poly).terms == {k: p for k, p in scaled.items() if not p.is_zero()}
        assert (x == y) == (x.terms == y.terms)
        again = (x + y) - y
        assert again == x and hash(again) == hash(x)
        assert BLElement(datum, classes, x.terms) == x

    check()


def test_decoded_terms_are_detached(aff):
    classes = param_ring_for(aff)
    x = commute_Hi_past_Z(aff, classes, 0, (2, 0, 1))
    before = x.terms
    decoded = x.terms
    decoded.clear()
    again = x.terms
    key = next(iter(again))
    again[key] = classes.const(5)
    assert x.terms == before and not x.is_zero()
    assert x.coeff(*key) == before[key]


def test_cached_tables_survive_element_arithmetic(aff):
    classes = param_ring_for(aff)
    points = [(2, 0, 1), (-1, 1, 0)]
    commute_args = [(aff, classes, i, aff.pairing(i, nu)) for i in (0, 1) for nu in points]
    elements = [commute_Hi_past_Z(aff, classes, i, nu) for i in (0, 1) for nu in points]
    h01 = element_from_word(aff, (0, 1))
    h10 = element_from_word(aff, (1, 0))
    ids = [w.id for w in (h01, h10)]
    hh_args = [(aff, classes, t, v) for t in ids for v in ids]
    cached = [hecke_bl._commute_packed(*a) for a in commute_args]
    cached += [hecke_bl._h_times_h_packed(*a) for a in hh_args]
    saved = copy.deepcopy(cached)

    h = BLElement.basis(aff, classes, (0, 0, 0), h01) + BLElement.basis(aff, classes, (1, 0, 0), h10)
    total = BLElement.zero(aff, classes)
    for el in elements:
        total = total + el - el.scale(classes.sigma(0)) + mult_bl(el, h) + mult_bl(h, el)
    assert not mult_bl(total, elements[0] + h).is_zero()

    again = [hecke_bl._commute_packed(*a) for a in commute_args]
    again += [hecke_bl._h_times_h_packed(*a) for a in hh_args]
    assert all(a is b for a, b in zip(again, cached))
    assert again == saved
