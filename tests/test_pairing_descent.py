"""The descent loop in pairing coordinates against the point-based loop it replaced.

`ref_descend` and `ref_project` are the dominance projection as it read
before `weyl._descend` worked on pairing vectors: the point itself is
reflected and every pairing is recomputed as a dot product at each step,
and the affine level is read from the invariant form on Y.  They are kept
here as a reference only.  `dominant_representative` must give the same
dominant point, reflection word and status, including the UNKNOWN answers
of small budgets on indefinite data; `_descend` must stop past the same
limits; and each element's pairing vector must be that of w.rho, whose
point-based descent spells the element's canonical word.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kmhecke import linalg, weyl
from kmhecke.root_system import (
    AFFINE,
    INDEFINITE,
    affine_delta,
    build_realization,
    classify_components,
    validate_gcm,
)
from kmhecke.weyl import (
    DEFAULT_TITS_BUDGET,
    IN_TITS_CONE,
    NOT_IN_TITS_CONE,
    UNKNOWN,
    dominant_representative,
    element_from_word,
    face_point,
    reflect,
)


def ref_descend(datum, point, limit):
    """(dominant point, word) of the point-based loop, or None past `limit` reflections."""
    word = []
    while (i := next((i for i in range(datum.n) if datum.pairing(i, point) < 0), None)) is not None:
        if limit is not None and len(word) >= limit:
            return None
        point = reflect(datum, i, point)
        word.append(i)
    return point, tuple(word)


def ref_project(datum, lam, budget):
    """(dominant, word, status) as the point-based projection computed them."""
    decided = True
    for comp in classify_components(datum).components:
        vals = [datum.pairing(i, lam) for i in comp.indices]
        if comp.kind == AFFINE:
            level = linalg.dot(affine_delta(datum, comp), lam)
            if level < 0 or (level == 0 and any(v != 0 for v in vals)):
                return None, None, NOT_IN_TITS_CONE
        elif comp.kind == INDEFINITE and any(v != 0 for v in vals):
            decided = False
    found = ref_descend(datum, lam, None if decided else budget)
    if found is None:
        return None, None, UNKNOWN
    return (*found, IN_TITS_CONE)


@pytest.fixture(scope="module")
def data(a1, a2, aff, chain3, mixed3, det4):
    b2 = build_realization(validate_gcm([[2, -2], [-1, 2]]))
    return {"a1": a1, "a2": a2, "b2": b2, "aff": aff, "chain3": chain3, "mixed3": mixed3, "det4": det4}


NAMES = st.sampled_from(["a1", "a2", "b2", "aff", "chain3", "mixed3", "det4"])
BUDGETS = st.one_of(st.integers(0, 40), st.just(DEFAULT_TITS_BUDGET))


def points(datum, bound=6):
    return st.tuples(*[st.integers(-bound, bound)] * datum.rank_y)


@given(NAMES, st.data(), BUDGETS)
@settings(max_examples=300, deadline=None)
def test_projection_matches_point_reference(data, name, draw, budget):
    datum = data[name]
    lam = draw.draw(points(datum))
    rep = dominant_representative(datum, lam, budget)
    assert (rep.dominant, rep.word, rep.status) == ref_project(datum, lam, budget)


@given(NAMES, st.data(), st.integers(0, 25))
@settings(max_examples=300, deadline=None)
def test_descend_stops_past_the_same_limits(data, name, draw, limit):
    datum = data[name]
    lam = draw.draw(points(datum))
    found = weyl._descend(datum, [datum.pairing(i, lam) for i in range(datum.n)], limit)
    ref = ref_descend(datum, lam, limit)
    if ref is None:
        assert found is None
    else:
        mults, word = found
        moved = linalg.vec_sub(lam, linalg.mat_vec(tuple(zip(*datum.coroots)), mults))
        assert (moved, word) == ref


@pytest.mark.parametrize(
    "name, lam, budget, status",
    [
        ("chain3", (-4, -4, -5), 5, UNKNOWN),
        ("mixed3", (1, 1, -3), 5, UNKNOWN),
        ("aff", (1, -3, 0), 5, NOT_IN_TITS_CONE),
        ("aff", (2, -5, 1), 0, IN_TITS_CONE),  # the budget binds only indefinite data
    ],
)
def test_each_status_matches_point_reference(data, name, lam, budget, status):
    rep = dominant_representative(data[name], lam, budget)
    assert rep.status == status
    assert (rep.dominant, rep.word, rep.status) == ref_project(data[name], lam, budget)


@given(NAMES, st.data())
@settings(max_examples=120, deadline=None)
def test_element_pairings_are_those_of_w_rho(data, name, draw):
    datum = data[name]
    w = element_from_word(datum, draw.draw(st.lists(st.integers(0, datum.n - 1), max_size=8)))
    rho = face_point(datum, (), range(datum.n))  # alpha_i(rho) = k > 0 for every i
    image = w.apply(rho)
    k = datum.pairing(0, rho)
    assert [k * x for x in w.pairings] == [datum.pairing(j, image) for j in range(datum.n)]
    assert ref_descend(datum, image, None)[1] == w.word
