"""The BL product kernel against the previous kernel, and its bounded tables.

`mult_bl` reads H_u Z^mu from a memo built one letter of u per entry, and
folds in H_v once per Weyl part v of its right factor.  The reference
below is the kernel it replaced: every basis product H_u Z^mu H_v is
computed on its own, peeling every letter of u and then folding in H_v
for that v alone.  Both must give the same packed elements exactly.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from kmhecke import hecke_bl
from kmhecke.coeff_ring import LaurentPoly, mul, mul_acc, pack, param_ring_for
from kmhecke.hecke_bl import CACHE_SIZE, BLElement, commute_Hi_past_Z, mult_bl
from kmhecke.weyl import ID_CAP, STORES, element_from_word

FIXTURES = ["a1", "a2", "aff", "chain3", "mixed3"]


# --- the previous kernel -----------------------------------------------------


def ref_basis_product(datum, classes, uid, pmu, vid):
    """H_u * Z^mu H_v, peeling one letter of u at a time, then folding in H_v."""
    elems = STORES[datum].elems
    one = classes.one().packed
    state = {pmu * ID_CAP: one}
    for i in reversed(elems[uid].word):
        smi = classes.sigma_minus_inverse(i).packed
        nxt = defaultdict(lambda: defaultdict(int))
        for key, c in state.items():
            tid = key % ID_CAP
            pnu = (key - tid) // ID_CAP
            prnu, window = hecke_bl._commute_packed(datum, classes, i, pnu)
            base = prnu * ID_CAP
            for tid3, c3 in hecke_bl._h_times_basis_packed(i, elems[tid], one, smi):
                mul_acc(nxt[base + tid3], c, c3)
            for ppt, coeff in window:
                mul_acc(nxt[ppt * ID_CAP + tid], c, coeff)
        state = hecke_bl._settle(nxt)
    if vid != 0:
        shifted = defaultdict(lambda: defaultdict(int))
        for key, c in state.items():
            tid = key % ID_CAP
            base = key - tid
            for tid2, c2 in hecke_bl._h_times_h_packed(datum, classes, tid, vid):
                mul_acc(shifted[base + tid2], c, c2)
        state = hecke_bl._settle(shifted)
    return state


def ref_mult_bl(a, b):
    """Bilinear extension of `ref_basis_product`, one basis product per pair of terms."""
    datum, classes = a.datum, a.classes
    out = defaultdict(lambda: defaultdict(int))
    for key_a, pa in a.packed.items():
        uid = key_a % ID_CAP
        shift = key_a - uid
        for key_b, pb in b.packed.items():
            vid = key_b % ID_CAP
            base = ref_basis_product(datum, classes, uid, (key_b - vid) // ID_CAP, vid)
            c = mul(pa, pb)
            for key, cz in base.items():
                mul_acc(out[key + shift], c, cz)
    return BLElement.from_packed(datum, classes, hecke_bl._settle(out))


# --- strategies --------------------------------------------------------------


def _elements(datum, words, max_terms=4):
    """Elements whose Weyl parts come from `words`; equal keys add up."""
    classes = param_ring_for(datum)
    n = classes.nclasses
    lam = st.tuples(*(st.integers(-2, 2) for _ in range(datum.rank_y)))
    coeff = st.dictionaries(
        st.tuples(*(st.integers(-2, 2) for _ in range(n))), st.integers(-3, 3), max_size=2
    )

    def build(terms):
        out = BLElement.zero(datum, classes)
        for pt, word, c in terms:
            w = element_from_word(datum, word)
            out = out + BLElement.basis(datum, classes, pt, w, LaurentPoly(n, c))
        return out

    term = st.tuples(lam, st.sampled_from(words), coeff)
    return st.lists(term, min_size=1, max_size=max_terms).map(build)


def _words(datum):
    return st.lists(st.integers(0, datum.n - 1), max_size=3).map(tuple)


@pytest.mark.parametrize("name", FIXTURES)
def test_mult_bl_matches_the_previous_kernel(request, name):
    datum = request.getfixturevalue(name)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def check(data):
        words_a = data.draw(st.lists(_words(datum), min_size=1, max_size=3))
        # few Weyl parts on the right, so that terms of b share v
        words_b = data.draw(st.lists(_words(datum), min_size=1, max_size=2))
        a = data.draw(_elements(datum, words_a))
        b = data.draw(_elements(datum, words_b, max_terms=5))
        assert mult_bl(a, b) == ref_mult_bl(a, b)

    check()


@pytest.mark.parametrize("name", FIXTURES)
def test_cancelling_terms_match_the_previous_kernel(request, name):
    """H_i * (H_i Z^mu): the window terms of H_i Z^mu share v = e, and most of the product cancels."""
    datum = request.getfixturevalue(name)
    classes = param_ring_for(datum)
    for i in range(datum.n):
        h = BLElement.h_word(datum, classes, [i])
        for mu in ((1,) * datum.rank_y, (-2,) + (1,) * (datum.rank_y - 1)):
            b = commute_Hi_past_Z(datum, classes, i, mu)
            got = mult_bl(h, b)
            assert got == ref_mult_bl(h, b)
            z = BLElement.z_monomial(datum, classes, mu)
            assert got == b.scale(classes.sigma_minus_inverse(i)) + z


# --- bounded tables ----------------------------------------------------------


def test_product_tables_share_one_bound():
    for table in (
        hecke_bl._basis_product_packed,
        hecke_bl._commute_packed,
        hecke_bl._h_times_h_packed,
    ):
        assert table.cache_parameters()["maxsize"] == CACHE_SIZE


def test_memo_overfilled_past_its_bound_gives_the_same_products(a2, aff):
    memo = hecke_bl._basis_product_packed
    pairs = []
    for datum in (a2, aff):
        classes = param_ring_for(datum)
        for word in ((0,), (1, 0), (0, 1, 0)):
            h = BLElement.h_word(datum, classes, word)
            for mu in ((2,) + (-1,) * (datum.rank_y - 1), (-1,) * datum.rank_y):
                z = BLElement.basis(datum, classes, mu, element_from_word(datum, (1,)))
                pairs.append((h, z, mult_bl(h, z), mult_bl(z, h)))

    # H_e Z^mu for CACHE_SIZE + 1 points not used above evicts every earlier entry
    classes = param_ring_for(a2)
    for k in range(CACHE_SIZE + 1):
        memo(a2, classes, 0, pack((k, 100)))
    assert memo.cache_info().currsize <= CACHE_SIZE

    misses = memo.cache_info().misses
    for h, z, hz, zh in pairs:
        assert mult_bl(h, z) == hz and mult_bl(z, h) == zh
    assert memo.cache_info().misses > misses  # the products were recomputed
    assert memo.cache_info().currsize <= CACHE_SIZE


# --- long words --------------------------------------------------------------


def test_long_word_times_one(aff):
    """A cold memo on a word of 1,500 letters; one recursion per letter would overflow the stack."""
    classes = param_ring_for(aff)
    w = element_from_word(aff, (0, 1) * 750)
    assert w.length == 1500
    h = BLElement.basis(aff, classes, (0, 0, 0), w)
    assert mult_bl(h, BLElement.unit(aff, classes)) == h
