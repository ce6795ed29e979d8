"""The BL product kernel against the previous kernel, and its bounded tables.

`mult_bl` reads H_u Z^mu from a memo built one letter of u per entry and
keyed on the pairings of mu, and folds in H_v once per Weyl part v of its
right factor.  The reference below is an earlier kernel: every basis
product H_u Z^mu H_v is computed on its own, at absolute points, peeling
every letter of u and then folding in H_v for that v alone.  Both must
give the same packed elements exactly.
"""

import copy
from collections import defaultdict

import pytest
from hypothesis import Phase, given, settings, strategies as st

from kmhecke import hecke_bl, linalg
from kmhecke.coeff_ring import SUM_HALF, LaurentPoly, pack, param_ring_for, unpack
from kmhecke.hecke_bl import CACHE_SIZE, BLElement, commute_Hi_past_Z, mult_bl
from kmhecke.weyl import ID_CAP, STORES, element_from_word, left_mul

FIXTURES = ["a1", "a2", "aff", "chain3", "mixed3"]
# The properties that compare against `ref_mult_bl` do not shrink a failing
# example: every shrink step runs the slow reference, and a wrong kernel would
# keep the suite busy for minutes before it reports.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


# --- the previous kernel -----------------------------------------------------
#
# A copy of the kernel `mult_bl` replaced, with absolute points in its keys
# and no tables, so that it shares no code with the kernel it checks.


def ref_mul_acc(tgt, p, q):
    """tgt += p * q for packed maps; `tgt` is a defaultdict(int)."""
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            tgt[e1 + e2] += c1 * c2


def ref_settle(acc):
    """Drop zero coefficients, then keys whose coefficient vanished."""
    return {k: d for k, dz in acc.items() if (d := {e: c for e, c in dz.items() if c})}


def ref_smi(classes, i, primed=False):
    """sigma - sigma^{-1} for the class of sigma_i (of sigma_i' when primed), as a packed map."""
    n, k = classes.nclasses, classes.class_index(i, primed)
    return (LaurentPoly.variable(n, k, 1) - LaurentPoly.variable(n, k, -1)).packed


def ref_commute(datum, classes, i, pnu):
    """H_i * Z^nu as (packed reflected point, (packed window point, coefficient) pairs)."""
    nu = unpack(pnu, datum.rank_y)
    m = datum.pairing(i, nu)
    pco = pack(datum.coroots[i])
    prnu = pack(tuple(x - m * c for x, c in zip(nu, datum.coroots[i])), SUM_HALF)
    c_even, c_odd = ref_smi(classes, i), ref_smi(classes, i, primed=True)
    window = []
    if m > 0:
        for h in range(m):
            window.append((pnu - h * pco, c_even if h % 2 == 0 else c_odd))
    else:
        for h in range(1, -m + 1):
            neg = {e: -c for e, c in (c_even if h % 2 == 0 else c_odd).items()}
            window.append((pnu + h * pco, neg))
    return prnu, window


def ref_h_times_basis(i, w, one, smi):
    """H_i * H_w as (id, packed coefficient) pairs."""
    riw = left_mul(i, w)
    if riw.length > w.length:
        return ((riw.id, one),)
    return ((w.id, smi), (riw.id, one))


def ref_h_times_h(datum, classes, tid, vid):
    """H_t * H_v, peeling letters of t from the inside out."""
    elems = STORES[datum].elems
    one = classes.one().packed
    out = {vid: one}
    for i in reversed(elems[tid].word):
        smi = ref_smi(classes, i)
        nxt = defaultdict(lambda: defaultdict(int))
        for wid, c in out.items():
            for wid2, c2 in ref_h_times_basis(i, elems[wid], one, smi):
                ref_mul_acc(nxt[wid2], c, c2)
        out = ref_settle(nxt)
    return out.items()


def ref_basis_product(datum, classes, uid, pmu, vid):
    """H_u * Z^mu H_v, peeling one letter of u at a time, then folding in H_v."""
    elems = STORES[datum].elems
    one = classes.one().packed
    state = {pmu * ID_CAP: one}
    for i in reversed(elems[uid].word):
        smi = ref_smi(classes, i)
        nxt = defaultdict(lambda: defaultdict(int))
        for key, c in state.items():
            tid = key % ID_CAP
            pnu = (key - tid) // ID_CAP
            prnu, window = ref_commute(datum, classes, i, pnu)
            base = prnu * ID_CAP
            for tid3, c3 in ref_h_times_basis(i, elems[tid], one, smi):
                ref_mul_acc(nxt[base + tid3], c, c3)
            for ppt, coeff in window:
                ref_mul_acc(nxt[ppt * ID_CAP + tid], c, coeff)
        state = ref_settle(nxt)
    if vid != 0:
        shifted = defaultdict(lambda: defaultdict(int))
        for key, c in state.items():
            tid = key % ID_CAP
            base = key - tid
            for tid2, c2 in ref_h_times_h(datum, classes, tid, vid):
                ref_mul_acc(shifted[base + tid2], c, c2)
        state = ref_settle(shifted)
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
            c = defaultdict(int)
            ref_mul_acc(c, pa, pb)
            for key, cz in base.items():
                ref_mul_acc(out[key + shift], c, cz)
    return BLElement.from_packed(datum, classes, ref_settle(out))


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
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
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


def test_central_translates_read_one_memo_entry(aff):
    """C = (1, 1, 0) pairs to 0 with both roots of affine A1, so Z^C is central and
    Z^lam H_u * Z^(mu + kC) H_v = Z^(lam + kC) H_u * Z^mu H_v, from the same H_u Z^mu entry."""
    classes = param_ring_for(aff)
    memo = hecke_bl._basis_product_packed
    point = st.tuples(*(st.integers(-2, 2) for _ in range(aff.rank_y)))
    word = st.lists(st.integers(0, 1), max_size=3).map(tuple)

    def basis(lam, word, c):
        return BLElement.basis(aff, classes, lam, element_from_word(aff, word), classes.const(c))

    @given(point, point, word, word, st.integers(-3, 3), st.sampled_from((-2, 1, 3)))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def check(lam, mu, u, v, k, c):
        kc = (k, k, 0)
        moved_left = mult_bl(basis(linalg.vec_add(lam, kc), u, c), basis(mu, v, 1))
        misses = memo.cache_info().misses
        x, y = basis(lam, u, c), basis(linalg.vec_add(mu, kc), v, 1)
        moved_right = mult_bl(x, y)
        assert memo.cache_info().misses == misses
        assert moved_left == moved_right == ref_mult_bl(x, y)

    check()


def _small_maps(max_size):
    return st.dictionaries(st.integers(-5, 5), st.integers(-3, 3).filter(bool), min_size=1, max_size=max_size)


@given(
    _small_maps(1),
    st.dictionaries(st.integers(0, 8), _small_maps(3), max_size=5),
    st.dictionaries(st.integers(0, 8), _small_maps(3), max_size=4),
    st.integers(0, 2),
)
@settings(max_examples=100, deadline=None)
def test_acc_of_one_term_matches_the_reference(p, terms, existing, shift):
    """`_acc` with a single-term p, into keys it creates and keys the accumulator already holds."""
    want = defaultdict(lambda: defaultdict(int))
    for k, d in existing.items():
        want[k].update(d)
    for key, q in terms.items():
        ref_mul_acc(want[key + shift], p, q)
    acc = {k: dict(d) for k, d in existing.items()}
    hecke_bl._acc(acc, terms.items(), shift, p)
    assert ref_settle(acc) == ref_settle(want)


# --- the grouped view of a memo entry ----------------------------------------
#
# A memo entry carries its terms grouped by equal coefficient, built when the
# entry is filled.  On every read `mult_bl` multiplies each shared coefficient
# by the factor once and adds the product at every key of its group.


@pytest.mark.parametrize("name", ("a1", "a2", "aff"))
def test_repeated_reads_of_one_entry_match_the_previous_kernel(request, name):
    """a's terms share u and b's terms share mu, so one product reads the entry of
    (u, pairings of mu) once per pair of terms: four to nine times, from an empty memo."""
    datum = request.getfixturevalue(name)
    classes = param_ring_for(datum)
    n = classes.nclasses
    point = st.tuples(*(st.integers(-2, 2) for _ in range(datum.rank_y)))

    exps = st.tuples(*(st.integers(-2, 2) for _ in range(n)))
    coeff = st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=2).map(
        lambda d: LaurentPoly(n, d)
    )

    elems = st.lists(_words(datum), min_size=2, max_size=3).map(
        lambda ws: list({element_from_word(datum, w): None for w in ws})
    ).filter(lambda vs: len(vs) >= 2)

    @given(_words(datum), st.lists(point, min_size=2, max_size=3, unique=True), point, elems,
           st.lists(coeff, min_size=3, max_size=3), st.lists(coeff, min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    def check(u, lams, mu, vs, ca, cb):
        w = element_from_word(datum, u)
        a = BLElement(datum, classes, {(lam, w): c for lam, c in zip(lams, ca)})
        b = BLElement(datum, classes, {(mu, v): c for v, c in zip(vs, cb)})
        want = ref_mult_bl(a, b)
        hecke_bl._basis_product_packed.cache_clear()
        for _ in range(3):  # a cold memo, then the entry as the first call left it
            assert mult_bl(a, b) == want

    check()


def test_grouped_contributions_cancel(aff):
    """C = (1, 1, 0) is central on affine A1.  With X = H_u Z^mu and f = sigma_1 + 1,
    (Z^C H_u - H_u)(f Z^mu + f Z^(mu + C)) = f^2 (Z^2C X - X): the two f^2 Z^C X parts,
    both read from the entry of X, cancel at every key, on a cold memo and on later reads."""
    classes = param_ring_for(aff)
    f = classes.sigma(0) + classes.one()
    u = element_from_word(aff, (0, 1))
    mu, c = (2, -1, 0), (1, 1, 0)
    e = element_from_word(aff, ())
    a = BLElement(aff, classes, {(c, u): f, ((0, 0, 0), u): -f})
    b = BLElement(aff, classes, {(mu, e): f, (linalg.vec_add(mu, c), e): f})
    x = mult_bl(BLElement.basis(aff, classes, (0, 0, 0), u), BLElement.z_monomial(aff, classes, mu))
    want = (mult_bl(BLElement.z_monomial(aff, classes, linalg.vec_scale(2, c)), x) - x).scale(f * f)
    hecke_bl._basis_product_packed.cache_clear()
    for _ in range(3):
        assert mult_bl(a, b) == want == ref_mult_bl(a, b)


def test_every_key_of_a_group_gets_its_product(a1):
    """H_1 Z^mu with alpha_1(mu) = 4 has a window of four terms whose coefficients
    alternate between two maps, so its entry groups two keys under each of them.
    Adding a group's product at its first key only would lose half the window."""
    classes = param_ring_for(a1)
    mu = next((x,) for x in range(1, 10) if a1.pairing(0, (x,)) == 4)
    f = classes.sigma(0) + classes.one()
    h = BLElement.basis(a1, classes, (0,), element_from_word(a1, (0,)), f)
    z = BLElement.basis(a1, classes, mu, element_from_word(a1, ()), f)
    want = ref_mult_bl(h, z)
    assert len(want.packed) == 5
    hecke_bl._basis_product_packed.cache_clear()
    for _ in range(3):
        assert mult_bl(h, z) == want
    entry = hecke_bl._basis_product_packed(a1, classes, h.support_w().pop().id, (4,))
    state, (singles, groups) = entry[0], entry[4]
    assert len(singles) == 1 and [len(keys) for _, keys in groups] == [2, 2]
    assert dict(singles) | {k: q for q, keys in groups for k in keys} == state


def test_evicted_grouped_entry_is_rebuilt(a2):
    """An entry read three times, evicted by an overfill and rebuilt, is a new
    entry with an equal grouped view and gives the same products on every read."""
    memo = hecke_bl._basis_product_packed
    classes = param_ring_for(a2)
    f = classes.sigma(0) - classes.const(2)
    h = BLElement.basis(a2, classes, (0, 0), element_from_word(a2, (0, 1, 0)), f)
    z = BLElement.basis(a2, classes, (3, -1), element_from_word(a2, (1,)), f)
    want = ref_mult_bl(h, z)
    uid, pairs = h.support_w().pop().id, (7, -5)
    memo.cache_clear()
    for _ in range(3):
        assert mult_bl(h, z) == want
    first = memo(a2, classes, uid, pairs)

    for k in range(CACHE_SIZE + 1):
        memo(a2, classes, 0, (k, 100))
    assert memo.cache_info().currsize <= CACHE_SIZE
    misses = memo.cache_info().misses
    for _ in range(3):
        assert mult_bl(h, z) == want
    rebuilt = memo(a2, classes, uid, pairs)
    assert memo.cache_info().misses > misses  # the entry was rebuilt
    assert rebuilt is not first and rebuilt == first


# --- the fold by Weyl part ---------------------------------------------------
#
# `mult_bl` folds H_v into all keys of one Weyl part t at once, and a memo
# fill reads H_i H_t once per Weyl part t.  A coefficient-1 term of H_t H_v
# moves each coefficient to its new key without a multiplication; in
# `mult_bl`, whose accumulator is its own, the last such move hands the
# accumulator's map to the result itself.


def _fold_shape(a, b):
    """(several, meets) for a * b: some H_t H_v of the fold has several terms,
    and the folds of two different t land on one key."""
    datum, classes = a.datum, a.classes
    several = meets = False
    for vid in {k % ID_CAP for k in b.packed}:
        part = {k - vid: p for k, p in b.packed.items() if k % ID_CAP == vid}
        folded = ref_mult_bl(a, BLElement.from_packed(datum, classes, part))  # a * b_v, H_v not yet in
        t_of = {}
        for key in folded.packed:
            tid = key % ID_CAP
            prods = list(ref_h_times_h(datum, classes, tid, vid))
            several |= len(prods) > 1
            for wid, _ in prods:
                meets |= t_of.setdefault(key - tid + wid, tid) != tid
    return several, meets


def _maps(obj):
    """Every dict held anywhere inside a table entry."""
    if isinstance(obj, dict):
        yield obj
        for x in obj.values():
            yield from _maps(x)
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _maps(x)


# Found by a search for products that fail when the fold hands a map over before
# another fold adds at its key and the map is read again (a2 and aff), or when a
# fill moves an entry's map into the next entry without a copy (aff, the third).
FOLD_CASES = {
    "a2": [
        ([((0, 0), (), "f"), ((0, 0), (1,), "f"), ((0, 1), (0, 1, 0), "f")],
         [((1, 0), (0, 1), "g"), ((2, -1), (0, 1, 0), "f")]),
    ],
    "aff": [
        ([((0, 0, 0), (0, 1), "f"), ((0, 1, 0), (0, 1), "f"), ((1, 0, 0), (1, 0), "g")],
         [((1, 0, 0), (1, 0), "f"), ((2, -1, 0), (), "g"), ((2, -1, 0), (0, 1, 0), "f")]),
        ([((-3, 1, 3), (1, 0, 1), "f"), ((0, -3, -1), (0, 1, 0, 1), "g"), ((1, 0, 0), (0,), "g")],
         [((-3, 1, 3), (1, 0), "f"), ((-1, -2, 3), (1, 0, 1), "f"), ((0, -3, -1), (0, 1, 0, 1), "f")]),
    ],
}


@pytest.mark.parametrize("name", FOLD_CASES)
def test_fold_shares_no_map_and_changes_no_table(request, name, monkeypatch):
    """Products whose right factor has two Weyl parts besides e, whose folds have several
    terms and meet at one key from two different t: they match the reference, leave every
    table entry they read as it was, and no two keys of their results share a map."""
    datum = request.getfixturevalue(name)
    classes = param_ring_for(datum)
    memo = hecke_bl._basis_product_packed
    read = {}  # id -> (entry, its deep copy when first read)
    for table_name in ("_basis_product_packed", "_commute_packed", "_h_times_h_packed"):
        def recorded(*args, table=getattr(hecke_bl, table_name)):
            entry = table(*args)
            if id(entry) not in read:
                read[id(entry)] = entry, copy.deepcopy(entry)
            return entry

        monkeypatch.setattr(hecke_bl, table_name, recorded)

    coeffs = {"f": classes.sigma(0) + classes.one(), "g": classes.const(2) - classes.sigma(1)}

    def el(terms):
        return BLElement(datum, classes, {(lam, element_from_word(datum, w)): coeffs[c] for lam, w, c in terms})

    results = []
    for terms_a, terms_b in FOLD_CASES[name]:
        a, b = el(terms_a), el(terms_b)
        assert len(b.support_w() - {element_from_word(datum, ())}) >= 2
        assert _fold_shape(a, b) == (True, True)
        want = ref_mult_bl(a, b)
        memo.cache_clear()
        for _ in range(3):  # a cold memo, then warm reads of the same entries
            got = mult_bl(a, b)
            assert got == want
            results.append(got)

    ours = [p for r in results for p in r.packed.values()]
    assert len({id(p) for p in ours}) == len(ours)
    held = {id(m) for entry, _ in read.values() for m in _maps(entry)}
    assert not held & {id(p) for p in ours}
    assert read
    for entry, snapshot in read.values():
        assert entry == snapshot


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

    # H_e Z^mu for CACHE_SIZE + 1 pairing vectors not used above evicts every earlier entry
    classes = param_ring_for(a2)
    for k in range(CACHE_SIZE + 1):
        memo(a2, classes, 0, (k, 100))
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
