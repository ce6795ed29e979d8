import itertools
import random

import pytest
from hypothesis import given, strategies as st

from kmhecke import root_system, weyl
from kmhecke.errors import (
    BudgetExceeded,
    FaceIsMinimal,
    FaceIsSpherical,
    OutsideTitsCone,
    PointLengthMismatch,
)
from kmhecke.root_system import dominance_leq
from kmhecke.weyl import (
    IN_TITS_CONE,
    NOT_IN_TITS_CONE,
    PROJECTION_MEMO_SIZE,
    all_reduced_words,
    bruhat_leq,
    dominant_representative,
    element_from_word,
    face_point,
    identity,
    infinite_orbit_witness,
    inverse,
    multiply,
    orbit_enumerate,
    orbit_is_finite,
    parabolic_elements,
    simple_reflection,
    suborbit_is_finite,
    tits_cone_status,
)


class TestSimpleReflection:
    def test_a2_matrix(self, a2):
        assert simple_reflection(a2, 0).matrix == ((-1, 1), (0, 1))

    def test_involution(self, aff):
        for i in range(2):
            r = simple_reflection(aff, i)
            assert multiply(r, r) == identity(aff)

    def test_a1_negates_coroot(self, a1):
        r = simple_reflection(a1, 0)
        assert r.apply((1,)) == (-1,)

    def test_repr_spells_the_word(self, a2):
        assert repr(identity(a2)) == "W(e)"
        assert repr(element_from_word(a2, (0, 1))) == "W(r1*r2)"


class TestMultiply:
    def test_square_is_identity(self, a2):
        r = simple_reflection(a2, 0)
        prod = multiply(r, r)
        assert prod.length == 0

    def test_length_two(self, a2):
        w = multiply(simple_reflection(a2, 0), simple_reflection(a2, 1))
        assert w.length == 2 and w.word == (0, 1)

    def test_braid_matrices_agree(self, a2):
        assert element_from_word(a2, [0, 1, 0]) == element_from_word(a2, [1, 0, 1])

    def test_length_subadditive(self, aff):
        rng = random.Random(11)
        for _ in range(40):
            a = element_from_word(aff, [rng.randrange(2) for _ in range(rng.randint(0, 4))])
            b = element_from_word(aff, [rng.randrange(2) for _ in range(rng.randint(0, 4))])
            ab = multiply(a, b)
            assert ab.length <= a.length + b.length
            assert (ab.length - a.length - b.length) % 2 == 0


def _brute_force_leq(u, w):
    """Subword oracle: some reduced word of u is a subword of w's stored word."""
    words_u = all_reduced_words(u)
    word_w = w.word
    for wu in words_u:
        for positions in itertools.combinations(range(len(word_w)), len(wu)):
            if tuple(word_w[p] for p in positions) == wu:
                return True
    return len(words_u) == 0


class TestBruhat:
    def test_identity_below_everything(self, a2):
        e = identity(a2)
        for word in ([], [0], [0, 1], [0, 1, 0]):
            assert bruhat_leq(e, element_from_word(a2, word))

    def test_incomparable_generators(self, a2):
        assert not bruhat_leq(simple_reflection(a2, 1), simple_reflection(a2, 0))

    def test_generator_below_long_word(self, a2):
        assert bruhat_leq(simple_reflection(a2, 1), element_from_word(a2, [0, 1, 0]))

    def test_matches_brute_force_small(self, aff):
        elems = {identity(aff)}
        frontier = [identity(aff)]
        for _ in range(5):
            frontier = [
                multiply(x, simple_reflection(aff, i)) for x in frontier for i in range(2)
            ]
            elems.update(frontier)
        elems = sorted(elems, key=lambda w: (w.length, w.word))
        for u in elems:
            for w in elems:
                assert bruhat_leq(u, w) == _brute_force_leq(u, w)


class TestReducedWords:
    def test_longest_a2(self, a2):
        w0 = element_from_word(a2, [0, 1, 0])
        assert all_reduced_words(w0) == {(0, 1, 0), (1, 0, 1)}

    def test_identity(self, a2):
        assert all_reduced_words(identity(a2)) == {()}

    def test_unique_chain(self, a2):
        assert all_reduced_words(element_from_word(a2, [0, 1])) == {(0, 1)}


class TestDominantRepresentative:
    def test_a2_antidominant(self, a2):
        rep = dominant_representative(a2, (-1, -1))
        assert rep.status == IN_TITS_CONE
        assert rep.dominant == (1, 1)
        assert rep.minimizer.word == (0, 1, 0)

    def test_already_dominant(self, a2):
        rep = dominant_representative(a2, (1, 1))
        assert rep.dominant == (1, 1) and rep.minimizer.length == 0

    def test_negative_level_outside(self, aff):
        rep = dominant_representative(aff, (0, 0, -1))
        assert rep.status == NOT_IN_TITS_CONE
        assert rep.dominant is None

    def test_minimizer_is_minimal(self, a2):
        # brute force: the minimal length over all w with w(mu) = lam
        elems = set()
        frontier = [identity(a2)]
        while frontier:
            nxt = []
            for x in frontier:
                for i in range(2):
                    y = multiply(x, simple_reflection(a2, i))
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        for lam in [(-1, -1), (0, -1), (-1, 0), (1, 1), (2, -1)]:
            rep = dominant_representative(a2, lam)
            best = min(
                (w.length for w in elems if w.apply(rep.dominant) == lam), default=None
            )
            assert rep.minimizer.length == best
            assert rep.minimizer.apply(rep.dominant) == lam


class TestProjectionMemo:
    def test_memo_is_bounded_and_alone(self):
        assert weyl._project.cache_info().maxsize == PROJECTION_MEMO_SIZE
        assert not hasattr(weyl, "_cached_status")
        assert not hasattr(root_system, "_coroot_rows")

    def test_memo_stays_within_its_bound(self, a1):
        for k in range(PROJECTION_MEMO_SIZE + 10):
            tits_cone_status(a1, (k,))
        assert weyl._project.cache_info().currsize <= PROJECTION_MEMO_SIZE

    @pytest.mark.parametrize("name", ["a2", "aff"])
    def test_lazy_witness(self, request, name):
        datum = request.getfixturevalue(name)
        rng = random.Random(11)
        seen = 0
        for _ in range(200):
            lam = tuple(rng.randint(-6, 6) for _ in range(datum.rank_y))
            rep = dominant_representative(datum, lam)
            if rep.status != IN_TITS_CONE:
                assert rep.minimizer is None and rep.word is None
                continue
            seen += 1
            w = rep.minimizer
            assert w.apply(rep.dominant) == lam
            # the stored word is reduced and spells the same element
            assert element_from_word(datum, w.word).length == len(w.word) == len(rep.word)
            assert element_from_word(datum, rep.word) == w
        assert seen > 50

    def test_repeated_call_returns_equal_report(self, aff):
        first = dominant_representative(aff, (2, -3, 1))
        again = dominant_representative(aff, [2, -3, 1])
        assert again == first and again.minimizer == first.minimizer
        assert tits_cone_status(aff, (2, -3, 1)) == first.status

    def test_wrong_length_point_rejected_and_not_cached(self, a2):
        before = weyl._project.cache_info().currsize
        for lam in [(1, -2, 7), (1,), ()]:
            with pytest.raises(PointLengthMismatch):
                dominant_representative(a2, lam)
            with pytest.raises(PointLengthMismatch):
                tits_cone_status(a2, lam)
            with pytest.raises(PointLengthMismatch):
                orbit_enumerate(a2, lam)
        assert weyl._project.cache_info().currsize == before


def test_apply_refuses_a_point_of_the_wrong_length(a2):
    r0 = simple_reflection(a2, 0)
    assert r0.apply((1, 0)) == (-1, 0)
    for v in [(1, 0, 7), (1,), ()]:
        with pytest.raises(PointLengthMismatch):
            r0.apply(v)


class TestIndefiniteSemiDecision:
    def test_unknown_status_and_error(self):
        from kmhecke.errors import TitsConeUndecided
        from kmhecke.root_system import build_realization, validate_gcm
        from kmhecke.weyl import UNKNOWN

        ind = build_realization(
            validate_gcm([[2, -3], [-3, 2]]), (2, [(1, 0), (0, 1)], [(2, -3), (-3, 2)])
        )
        # (-1,-1) pairs positively with both roots: dominant on the spot
        assert dominant_representative(ind, (-1, -1)).status == IN_TITS_CONE
        # its negative lies in the opposite cone: the walk never ends
        rep = dominant_representative(ind, (1, 1), budget=40)
        assert rep.status == UNKNOWN and rep.dominant is None
        with pytest.raises(TitsConeUndecided):
            orbit_is_finite(ind, (1, 1), budget=40)


class TestOrbits:
    def test_a2_regular_orbit(self, a2):
        res = orbit_enumerate(a2, (1, 1))
        assert res.complete
        assert res.points == ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1))

    def test_fixed_point(self, aff):
        res = orbit_enumerate(aff, (1, 1, 0))
        assert res.points == ((1, 1, 0),) and res.complete

    def test_capped_translation_orbit(self, aff):
        res = orbit_enumerate(aff, (0, 0, 1), max_count=5)
        assert len(res.points) == 5 and not res.complete

    def test_length_cap_complete_iff_closed(self, a2):
        assert len(orbit_enumerate(a2, (1, 1), max_length=3)) == 6
        assert orbit_enumerate(a2, (1, 1), max_length=3).complete
        assert not orbit_enumerate(a2, (1, 1), max_length=2).complete


class TestOrbitFiniteness:
    def test_finite_type_always(self, a2):
        assert orbit_is_finite(a2, (2, -1))

    def test_central_direction(self, aff):
        assert orbit_is_finite(aff, (1, 1, 0))

    def test_level_one_infinite(self, aff):
        assert not orbit_is_finite(aff, (0, 0, 1))

    def test_outside_the_tits_cone_refused(self, aff):
        with pytest.raises(OutsideTitsCone):
            orbit_is_finite(aff, (0, 0, -1))

    def test_agrees_with_bfs_doubling(self, aff, a2):
        rng = random.Random(5)
        samples = [(a2, tuple(rng.randint(-2, 2) for _ in range(2))) for _ in range(6)]
        samples += [(aff, (1, 1, 0)), (aff, (2, 2, 0)), (aff, (0, 0, 1)), (aff, (1, 0, 1))]
        for datum, lam in samples:
            rep = dominant_representative(datum, lam)
            if rep.status != IN_TITS_CONE:
                continue
            if orbit_is_finite(datum, lam):
                assert orbit_enumerate(datum, lam).complete
            else:
                for cap in (8, 16, 32, 64):
                    assert not orbit_enumerate(datum, lam, max_count=cap).complete


def test_orbit_dominance_bound(a2, aff):
    """Every orbit point of a dominant element stays below it."""
    for datum, lam in [(a2, (1, 1)), (a2, (2, 0)), (aff, (1, 1, 0)), (aff, (2, 2, 1))]:
        rep = dominant_representative(datum, lam)
        assert rep.status == IN_TITS_CONE
        res = orbit_enumerate(datum, lam, max_count=60)
        for mu in res.points:
            assert dominance_leq(datum, mu, rep.dominant)


def test_sum_of_dominants_bound(a2):
    """(lam + mu)^{++} <= lam^{++} + mu^{++} on random finite-type points."""
    rng = random.Random(13)
    for _ in range(60):
        lam = tuple(rng.randint(-3, 3) for _ in range(2))
        mu = tuple(rng.randint(-3, 3) for _ in range(2))
        tot = tuple(a + b for a, b in zip(lam, mu))
        top = dominant_representative(a2, tot).dominant
        bound = tuple(
            a + b
            for a, b in zip(
                dominant_representative(a2, lam).dominant,
                dominant_representative(a2, mu).dominant,
            )
        )
        assert dominance_leq(a2, top, bound)


def test_faithfulness_regression(aff):
    rng = random.Random(23)
    for _ in range(40):
        word = [rng.randrange(2) for _ in range(rng.randint(0, 6))]
        w = element_from_word(aff, word)
        again = element_from_word(aff, w.word)
        assert again == w and again.word == w.word
        assert inverse(inverse(w)) == w


@st.composite
def _face_systems(draw):
    """A default realization of a random GCM of rank 1-4, with disjoint J_zero, J_pos."""
    n = draw(st.integers(1, 4))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            m[i][j], m[j][i] = draw(st.integers(-4, -1)), draw(st.integers(-4, -1))
    datum = root_system.build_realization(root_system.validate_gcm(m))
    side = draw(st.lists(st.sampled_from(["zero", "pos", None]), min_size=n, max_size=n))
    return datum, [i for i in range(n) if side[i] == "zero"], [i for i in range(n) if side[i] == "pos"]


@given(_face_systems())
def test_face_point_lies_on_the_face(case):
    datum, j_zero, j_pos = case
    u = face_point(datum, j_zero, j_pos)
    if not j_zero and not j_pos:
        return
    assert len(u) == datum.rank_y
    assert all(datum.pairing(i, u) == 0 for i in j_zero)
    assert all(datum.pairing(i, u) > 0 for i in j_pos)


class TestInfiniteOrbitWitness:
    def test_chain3_witness(self, chain3):
        w = infinite_orbit_witness(chain3, (0, 1), (2,))
        assert w.word == (2,)
        u = face_point(chain3, (0, 1), (2,))
        assert u == (-1, -1, 0)
        image = w.apply(u)
        assert image == (-1, -1, -1)
        assert not suborbit_is_finite(chain3, (0, 1), image)
        # cross-check by bounded closure under W_{J_zero}
        seen = {image}
        frontier = [image]
        from kmhecke.weyl import reflect

        for _ in range(6):
            frontier = [reflect(chain3, j, p) for p in frontier for j in (0, 1)]
            seen.update(frontier)
        assert len(seen) > 6

    def test_coroot_orbit_infinite(self, chain3):
        assert not suborbit_is_finite(chain3, (0, 1), chain3.coroots[2])
        seen = {chain3.coroots[2]}
        from kmhecke.weyl import reflect

        frontier = list(seen)
        for _ in range(8):
            frontier = [reflect(chain3, j, p) for p in frontier for j in (0, 1)]
            seen.update(frontier)
        assert len(seen) > 8

    def test_spherical_raises(self, chain3):
        with pytest.raises(FaceIsSpherical):
            infinite_orbit_witness(chain3, (2,), (0, 1))
        with pytest.raises(FaceIsMinimal):
            infinite_orbit_witness(chain3, (0, 1, 2), ())

    def test_witness_through_a_vertex_outside_j_pos(self, chain3):
        # on the chain 0-1-2-3 only coroot 2 has an infinite W_{01}-orbit, and 2 is not in J_pos
        chain4 = root_system.build_realization(
            root_system.validate_gcm([[2, -2, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
        )
        w = infinite_orbit_witness(chain4, (0, 1), (3,))
        assert not suborbit_is_finite(chain4, (0, 1), w.apply(face_point(chain4, (0, 1), (3,))))
        assert infinite_orbit_witness(chain3, (0, 1)) == infinite_orbit_witness(chain3, (0, 1), (2,))

    def test_graph_path_is_a_shortest_path(self, chain3, mixed3):
        assert weyl._gcm_graph_path(chain3.gcm, (0,), 2) == [0, 1, 2]
        assert weyl._gcm_graph_path(chain3.gcm, (2,), 0) == [2, 1, 0]
        assert weyl._gcm_graph_path(chain3.gcm, (0, 1), 2) == [1, 2]
        assert weyl._gcm_graph_path(mixed3.gcm, (1,), 0) is None


def test_parabolic_elements_a2(a2):
    full = parabolic_elements(a2, (0, 1))
    assert len(full) == 6
    assert len(parabolic_elements(a2, (0, 1), cap=6)) == 6
    with pytest.raises(BudgetExceeded):
        parabolic_elements(a2, (0, 1), cap=5)
    assert len(parabolic_elements(a2, (0,))) == 2
    assert len(parabolic_elements(a2, ())) == 1
