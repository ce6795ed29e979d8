"""The per-datum Weyl element store against matrix arithmetic and the Poincare series.

The reference below multiplies the Y-matrices and the inverse root-action
matrices of two elements and strips a canonical word from the product by
the column signs of the inverse matrix, with nothing memoized.
`multiply`, `element_from_word`, `inverse`, `bruhat_interval` and
`parabolic_elements`, which fold the store's memoized `left_mul` over
words and read descents from the regular point an element carries, must
give the same matrices and canonical words, `left_descents` the same
descents, and `bruhat_leq` and `all_reduced_words` the same answers.  The
number of elements of each length, found by a breadth-first walk over
matrices, must equal the Poincare series.  The store must also keep one
object and one id per element, cache nothing for a bad index, refuse to
grow past its id cap, and keep its ids out of another datum's elements.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from kmhecke import linalg, weyl
from kmhecke.coeff_ring import param_ring_for
from kmhecke.errors import BudgetExceeded, SimpleIndexOutOfRange
from kmhecke.hecke_bl import BLElement
from kmhecke.root_system import build_realization, validate_gcm
from kmhecke.weyl import (
    STORES,
    all_reduced_words,
    bruhat_leq,
    bruhat_interval,
    element_from_word,
    identity,
    inverse,
    left_descents,
    left_mul,
    multiply,
    parabolic_elements,
    parabolic_is_finite,
)


# --- matrix reference ---------------------------------------------------------


def ref_reflection(datum, i):
    """(Y-matrix, canonical word, inverse root-action matrix) of r_i."""
    m, n = datum.rank_y, datum.n
    co, ro, a = datum.coroots[i], datum.roots[i], datum.gcm.entries
    matrix = tuple(
        tuple((1 if r == c else 0) - co[r] * ro[c] for c in range(m)) for r in range(m)
    )
    qinv = tuple(
        tuple((1 if r == c else 0) - (a[i][c] if r == i else 0) for c in range(n))
        for r in range(n)
    )
    return matrix, (i,), qinv


def ref_identity(datum):
    return linalg.identity_matrix(datum.rank_y), (), linalg.identity_matrix(datum.n)


def ref_strip(datum, qinv):
    ident = linalg.identity_matrix(datum.n)
    word = []
    while qinv != ident:
        i = next(i for i in range(datum.n) if all(row[i] <= 0 for row in qinv))
        word.append(i)
        qinv = linalg.mat_mul(qinv, ref_reflection(datum, i)[2])
    return tuple(word)


def ref_multiply(datum, a, b):
    matrix = linalg.mat_mul(a[0], b[0])
    qinv = linalg.mat_mul(b[2], a[2])
    return matrix, ref_strip(datum, qinv), qinv


def ref_from_word(datum, word):
    w = ref_identity(datum)
    for i in word:
        w = ref_multiply(datum, w, ref_reflection(datum, i))
    return w


def ref_bruhat_interval(datum, word):
    elems = {ref_identity(datum)}
    for i in word:
        r = ref_reflection(datum, i)
        elems |= {ref_multiply(datum, x, r) for x in elems}
    return elems


def ref_parabolic(datum, j):
    gens = [ref_reflection(datum, i) for i in sorted(set(j))]
    elems = {ref_identity(datum)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = ref_multiply(datum, x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elems, key=lambda w: (len(w[1]), w[1]))


def ref_reduced_words(datum, qinv, prefix=()):
    if qinv == linalg.identity_matrix(datum.n):
        return {prefix}
    out = set()
    for i in range(datum.n):
        if all(row[i] <= 0 for row in qinv):
            shorter = linalg.mat_mul(qinv, ref_reflection(datum, i)[2])
            out |= ref_reduced_words(datum, shorter, prefix + (i,))
    return out


def ref_descents(qinv):
    """i is a left descent of w iff column i of the inverse root-action matrix is nonpositive."""
    return [i for i in range(len(qinv)) if all(row[i] <= 0 for row in qinv)]


def pair(ref):
    return ref[0], ref[1]


def same(w, ref):
    return (w.matrix, w.word) == pair(ref) and left_descents(w) == ref_descents(ref[2])


# --- differential test --------------------------------------------------------


@pytest.fixture(scope="module")
def data(a1, a2, aff, chain3, mixed3, det4):
    return {"a1": a1, "a2": a2, "aff": aff, "chain3": chain3, "mixed3": mixed3, "det4": det4}


NAMES = st.sampled_from(["a1", "a2", "aff", "chain3", "mixed3", "det4"])


def words(datum, max_size):
    return st.lists(st.integers(0, datum.n - 1), max_size=max_size)


@given(NAMES, st.data())
@settings(max_examples=120, deadline=None)
def test_products_match_matrix_reference(data, name, draw):
    datum = data[name]
    u = draw.draw(words(datum, 6))
    v = draw.draw(words(datum, 6))
    x, y = element_from_word(datum, u), element_from_word(datum, v)
    ref_x, ref_y = ref_from_word(datum, u), ref_from_word(datum, v)
    assert same(x, ref_x)
    assert same(multiply(x, y), ref_multiply(datum, ref_x, ref_y))
    assert same(inverse(x), ref_from_word(datum, tuple(reversed(x.word))))
    interval = ref_bruhat_interval(datum, x.word)
    assert {(w.matrix, w.word) for w in bruhat_interval(x)} == {pair(r) for r in interval}
    assert bruhat_leq(y, x) == (ref_y in interval)
    assert all_reduced_words(x) == ref_reduced_words(datum, ref_x[2])


@given(NAMES, st.data())
@settings(max_examples=60, deadline=None)
def test_parabolic_elements_match_matrix_reference(data, name, draw):
    datum = data[name]
    j = tuple(draw.draw(st.sets(st.integers(0, datum.n - 1))))
    if not parabolic_is_finite(datum, j):
        j = j[:1]
    elems, ref = parabolic_elements(datum, j), ref_parabolic(datum, j)
    assert len(elems) == len(ref) and all(same(w, r) for w, r in zip(elems, ref))


# --- Poincare series -----------------------------------------------------------


@pytest.mark.parametrize(
    "gcm, counts, finite",
    [
        ([[2, -1], [-1, 2]], [1, 2, 2, 1], True),  # A2
        ([[2, -1], [-2, 2]], [1, 2, 2, 2, 1], True),  # B2
        ([[2, -2], [-2, 2]], [1] + [2] * 8, False),  # affine A1: (1 + t) / (1 - t)
        # affine A2: (1 + t + t^2) / (1 - t)^2, up to length 8
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [1, 3] + [3 * k for k in range(2, 9)], False),
    ],
)
def test_lengths_follow_the_poincare_series(gcm, counts, finite):
    """Layer k of the Cayley graph, walked over Y-matrices, has counts[k] elements of length k."""
    datum = build_realization(validate_gcm(gcm))
    gens = [ref_reflection(datum, i)[0] for i in range(datum.n)]
    layer = {linalg.identity_matrix(datum.rank_y): ()}  # matrix -> a shortest word
    seen = set(layer)
    for k, count in enumerate(counts):
        assert len(layer) == count
        for m, word in layer.items():
            w = element_from_word(datum, word)
            assert w.matrix == m and w.length == k
        nxt = {}
        for m, word in layer.items():
            for i, g in enumerate(gens):
                y = linalg.mat_mul(g, m)
                if y not in seen:
                    seen.add(y)
                    nxt[y] = (i,) + word
        layer = nxt
    assert (not layer) == finite


# --- canonical elements -------------------------------------------------------


def test_elements_are_canonical(a2, aff):
    w = element_from_word(aff, (0, 1))
    assert left_mul(0, w) is left_mul(0, w)
    assert left_mul(0, left_mul(0, w)) is w
    assert element_from_word(a2, (0, 1, 0)) is element_from_word(a2, (1, 0, 1))
    r0 = element_from_word(aff, (0,))
    assert multiply(r0, element_from_word(aff, (0, 1))) is element_from_word(aff, (1,))
    store = STORES[aff]
    assert store.elems[0] is identity(aff)
    assert all(store.elems[x.id] is x for x in store.elems)
    assert len({x.matrix for x in store.elems}) == len(store.elems)


def test_copies_resolve_to_the_stored_element(aff):
    w = element_from_word(aff, (1, 0, 1))
    assert copy.deepcopy(w) is w
    assert pickle.loads(pickle.dumps(w)) is w


@pytest.mark.parametrize("i", [2, 7, -1])
def test_out_of_range_index_caches_nothing(aff, i):
    w = element_from_word(aff, (0, 1))
    size = len(STORES[aff].elems)
    for call in (lambda: left_mul(i, w), lambda: element_from_word(aff, (0, i))):
        with pytest.raises(SimpleIndexOutOfRange):
            call()
    assert i not in w._left and i not in identity(aff)._left
    assert len(STORES[aff].elems) == size


def test_id_cap(monkeypatch, aff):
    size = len(STORES[aff].elems)
    monkeypatch.setattr(weyl, "ID_CAP", size)
    w = identity(aff)
    with pytest.raises(BudgetExceeded):
        for k in range(4 * size + 4):  # affine A1 is infinite, so a new element comes
            w = left_mul(k % 2, w)
    assert len(STORES[aff].elems) == size


def test_bl_element_refuses_an_element_of_another_datum(a2, aff):
    # store ids number one datum's elements, so a foreign id would decode to another element
    with pytest.raises(ValueError):
        BLElement.basis(a2, param_ring_for(a2), (0, 0), element_from_word(aff, (0,)))
