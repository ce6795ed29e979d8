"""The memo tables behind the certification engine's point tests.

Dominance comparisons, cone enumerations and orbit walks are pure, so
they are memoized in bounded `lru_cache` tables.  A memoized answer must
equal the unmemoized one whatever form the points come in, a refusal must
be raised on every call rather than cached, a returned list must not be
shared with the table, and each table must be bounded.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kmhecke import completed, linalg, root_system, weyl
from kmhecke.completed import Region, mult_truncated
from kmhecke.errors import PointLengthMismatch
from kmhecke.root_system import dominance_coords, height_between, q_coords
from kmhecke.weyl import orbit_enumerate

from test_certificate_oracle import _strategies

TABLES = (
    root_system._dominance_coords,
    completed._cone_points,
    completed._allowed_window,
    weyl._orbit_memo,
)


def _height_by_solve(datum, lo, hi):
    q = q_coords(datum, linalg.vec_sub(tuple(hi), tuple(lo)))
    if q is None or not all(c >= 0 for c in q):
        return None
    return sum(q)


@pytest.mark.parametrize("name", ("a2", "aff"))
def test_memoized_height_matches_the_solve(request, name):
    datum = request.getfixturevalue(name)
    point = st.lists(st.integers(-4, 4), min_size=datum.rank_y, max_size=datum.rank_y)

    @given(point, point, st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def check(lo, hi, lo_tuple, hi_tuple):
        lo = tuple(lo) if lo_tuple else lo
        hi = tuple(hi) if hi_tuple else hi
        want = _height_by_solve(datum, lo, hi)
        assert height_between(datum, lo, hi) == want
        assert height_between(datum, list(lo), tuple(hi)) == want  # now a hit
        q = dominance_coords(datum, lo, hi)
        assert (q is None) == (want is None)
        if q is not None:
            assert sum(q) == want

    check()


def test_wrong_length_is_refused_on_every_call(aff):
    assert height_between(aff, (0, 0, 0), (1, 1, 0)) == 2
    for _ in range(3):
        for lo, hi in (((0, 0), (1, 1, 0)), ((0, 0, 0), (1, 1)), ((0, 0, 0, 0), (1, 1, 0))):
            with pytest.raises(PointLengthMismatch):
                height_between(aff, lo, hi)
            with pytest.raises(PointLengthMismatch):
                dominance_coords(aff, lo, hi)
        assert height_between(aff, [0, 0, 0], [1, 1, 0]) == 2


def test_enumerate_returns_a_fresh_list(a2):
    region = Region.cone([(1, 1)], 2)
    first = region.enumerate(a2)
    want = list(first)
    first.append((99, 99))
    first.sort(reverse=True)
    assert region.enumerate(a2) == want
    assert region.enumerate(a2) is not region.enumerate(a2)


def test_large_cones_are_walked_but_not_kept(a2, monkeypatch):
    region = Region.cone([(1, 1), (2, 1)], 3)
    want = region.enumerate(a2)
    completed._cone_points.cache_clear()
    monkeypatch.setattr(completed, "REGION_MEMO_POINTS", 5)
    assert region.enumerate(a2) == want
    assert completed._cone_points.cache_info().currsize == 0


@pytest.mark.parametrize("limit, kept", ((19, 0), (20, 1)))
def test_cone_at_the_point_bound_is_kept(a2, monkeypatch, limit, kept):
    """REGION_MEMO_POINTS is the candidate count of the largest cone kept:
    two generators at height 3 on A2 have 2 * C(5, 2) = 20 candidates."""
    region = Region.cone([(1, 1), (2, 1)], 3)
    want = region.enumerate(a2)
    completed._cone_points.cache_clear()
    monkeypatch.setattr(completed, "REGION_MEMO_POINTS", limit)
    assert region.enumerate(a2) == want
    assert completed._cone_points.cache_info().currsize == kept


def test_orbit_caps_do_not_share_an_entry(a2):
    weyl._orbit_memo.cache_clear()
    caps = ((None, None, 100_000), (1, None, 100_000), (None, 3, 100_000), (None, None, 2))
    got = [orbit_enumerate(a2, (1, 1), *c) for c in caps]
    assert weyl._orbit_memo.cache_info().currsize == len(caps)
    assert [len(r) for r in got] == [6, 3, 5, 2]
    assert [r.complete for r in got] == [True, False, False, False]
    for c, r in zip(caps, got):
        assert r == weyl._orbit_walk(a2, (1, 1), *c)
    assert orbit_enumerate(a2, (1, 1), max_count=None) == got[0]
    assert weyl._orbit_memo.cache_info().currsize == len(caps) + 1
    assert orbit_enumerate(a2, [1, 1]) is got[0]


@pytest.mark.parametrize("max_count", (None, 4, 5, 6, 7, 100))
def test_large_orbits_are_walked_but_not_kept(a2, monkeypatch, max_count):
    """Past ORBIT_MEMO_POINTS the table keeps no orbit, and each answer is the walk's."""
    monkeypatch.setattr(weyl, "ORBIT_MEMO_POINTS", 5)
    weyl._orbit_memo.cache_clear()
    for lam in ((1, 1), (2, 1), (1, 0), (0, 0)):
        for length in (None, 1, 2):
            want = weyl._orbit_walk(a2, lam, length, None, max_count)
            assert orbit_enumerate(a2, lam, max_length=length, max_count=max_count) == want
            assert orbit_enumerate(a2, lam, max_length=length, max_count=max_count) == want
    first = orbit_enumerate(a2, (1, 1), max_count=max_count)
    assert (orbit_enumerate(a2, (1, 1), max_count=max_count) is first) == (len(first) <= 5)
    with pytest.raises(PointLengthMismatch):
        orbit_enumerate(a2, (1, 1, 1))


def test_every_table_is_bounded():
    for table in TABLES:
        assert isinstance(table.cache_info().maxsize, int)
    assert completed.REGION_MEMO_POINTS * completed.REGION_MEMO_SIZE <= 1 << 20
    assert weyl.ORBIT_MEMO_POINTS * weyl.ORBIT_MEMO_SIZE <= 1 << 20


@pytest.mark.parametrize("name", ("a1", "a2", "aff"))
def test_product_generators_are_the_maximal_sums(request, name):
    """The kept generators are pairwise incomparable, and every sum of a
    left and a right generator lies below one of them, so they bound the
    same points as all the sums."""
    datum = request.getfixturevalue(name)
    factors, _ = _strategies(datum)

    @given(factors, factors)
    @settings(max_examples=60, deadline=None)
    def check(a, b):
        if any(u.word for u in a.certificate.w_part) and not b.certificate.dominant:
            return  # the windows of the explicit right factor take the place of its generators
        got = mult_truncated(a, b, Region.explicit(())).certificate.generators
        for g in got:
            assert not any(h != g and height_between(datum, g, h) is not None for h in got)
        for ga in a.certificate.generators:
            for gb in b.certificate.generators:
                s = linalg.vec_add(ga, gb)
                assert s in got or any(height_between(datum, s, g) is not None for g in got)

    check()

