import random

import pytest

from kmhecke import hecke_bl
from kmhecke.coeff_ring import param_ring_for
from kmhecke.errors import BudgetExceeded, SimpleIndexOutOfRange
from kmhecke.hecke_bl import (
    BLElement,
    commute_Hi_past_Z,
    is_in_H,
    mult_bl,
    r_window,
)
from kmhecke.root_system import build_realization, validate_gcm
from kmhecke.weyl import bruhat_interval, element_from_word, identity, multiply

from conftest import random_bl_element


def _zh(datum, lam, word=()):
    classes = param_ring_for(datum)
    return BLElement.basis(datum, classes, lam, element_from_word(datum, word))


class TestCommute:
    def test_a2_positive_pairing(self, a2):
        classes = param_ring_for(a2)
        res = commute_Hi_past_Z(a2, classes, 0, (1, 1))
        sm = classes.sigma_minus_inverse(0)
        expected = _zh(a2, (0, 1), (0,)) + _zh(a2, (1, 1)).scale(sm)
        assert res == expected

    def test_zero_pairing_central_direction(self, aff):
        classes = param_ring_for(aff)
        res = commute_Hi_past_Z(aff, classes, 0, (1, 1, 0))
        assert res == _zh(aff, (1, 1, 0), (0,))

    def test_a1_unequal_parameters_negative_pairing(self, a1):
        classes = param_ring_for(a1)
        res = commute_Hi_past_Z(a1, classes, 0, (-1,))
        expected = (
            _zh(a1, (1,), (0,))
            - _zh(a1, (1,)).scale(classes.sigma_minus_inverse(0))
            - _zh(a1, (0,)).scale(classes.sigma_minus_inverse(0, primed=True))
        )
        assert res == expected

    def test_out_of_range_index_is_refused_before_caching(self, a2):
        classes = param_ring_for(a2)
        cached = hecke_bl._commute_packed.cache_info().currsize
        for i in (-1, 2):
            with pytest.raises(SimpleIndexOutOfRange):
                commute_Hi_past_Z(a2, classes, i, (1, 1))
        assert hecke_bl._commute_packed.cache_info().currsize == cached


class TestMultBL:
    def test_quadratic_relation(self, a2):
        classes = param_ring_for(a2)
        h1 = _zh(a2, (0, 0), (0,))
        expected = h1.scale(classes.sigma_minus_inverse(0)) + BLElement.unit(a2, classes)
        assert mult_bl(h1, h1) == expected

    def test_z_monomials_add(self, a2):
        assert mult_bl(_zh(a2, (1, 0)), _zh(a2, (-2, 1))) == _zh(a2, (-1, 1))

    def test_composed_example(self, a2):
        classes = param_ring_for(a2)
        h1 = _zh(a2, (0, 0), (0,))
        z_h2 = _zh(a2, (1, 1), (1,))
        expected = _zh(a2, (0, 1), (0, 1)) + _zh(a2, (1, 1), (1,)).scale(
            classes.sigma_minus_inverse(0)
        )
        assert mult_bl(h1, z_h2) == expected

    def test_braid_relation(self, a2):
        h1 = _zh(a2, (0, 0), (0,))
        h2 = _zh(a2, (0, 0), (1,))
        assert mult_bl(mult_bl(h1, h2), h1) == mult_bl(mult_bl(h2, h1), h2)

    def test_associativity_randomized(self, a1, a2, aff):
        rng = random.Random(101)
        for datum in (a1, a2, aff):
            for _ in range(12):
                a = random_bl_element(datum, rng, nterms=2, lam_bound=2, word_len=2)
                b = random_bl_element(datum, rng, nterms=2, lam_bound=2, word_len=2)
                c = random_bl_element(datum, rng, nterms=2, lam_bound=2, word_len=2)
                assert mult_bl(mult_bl(a, b), c) == mult_bl(a, mult_bl(b, c))


class TestWindowBudget:
    """With the coroot (2,) and the root (1,), H_1 Z^(x) has a window of x
    terms and R_{r_1}(x) x + 1 points, so every length meets the cap."""

    @pytest.fixture(scope="class")
    def odd(self):
        return build_realization(validate_gcm([[2]]), (1, [(2,)], [(1,)]))

    def test_windows_up_to_the_cap_are_built(self, odd):
        classes = param_ring_for(odd)
        cap = hecke_bl.WINDOW_CAP
        assert len(commute_Hi_past_Z(odd, classes, 0, (cap,)).packed) == cap + 1
        with pytest.raises(BudgetExceeded):
            commute_Hi_past_Z(odd, classes, 0, (cap + 1,))

    def test_r_window_segments_share_the_cap(self, odd):
        r1 = element_from_word(odd, [0])
        cap = hecke_bl.WINDOW_CAP
        assert len(r_window(odd, r1, (cap,))) == cap + 1
        with pytest.raises(BudgetExceeded):
            r_window(odd, r1, (cap + 1,))
        with pytest.raises(BudgetExceeded):  # 4194304 points, refused before any is built
            r_window(odd, r1, (4194303,))

    def test_r_window_recursion_budget_is_exact(self, a2, monkeypatch):
        """R_{w0}(1, 1) on A2 recurses through both descents of w0 = s1 s2 s1; the second branch
        starts with three elements already visited, so a budget of 3 refuses it and 4 does not."""
        w0 = element_from_word(a2, [0, 1, 0])
        monkeypatch.setattr(hecke_bl, "R_WINDOW_CAP", 4)
        assert len(r_window(a2, w0, (1, 1))) == 7
        monkeypatch.setattr(hecke_bl, "R_WINDOW_CAP", 3)
        with pytest.raises(BudgetExceeded):
            r_window(a2, w0, (1, 1))


class TestRWindow:
    def test_single_reflection(self, a2):
        assert r_window(a2, element_from_word(a2, [0]), (1, 1)) == frozenset(
            {(1, 1), (0, 1)}
        )

    def test_identity(self, a2):
        assert r_window(a2, identity(a2), (3, -2)) == frozenset({(3, -2)})

    def test_union_over_both_words(self, a2):
        w0 = element_from_word(a2, [0, 1, 0])

        def one_word(word, lam):
            pts = {tuple(lam)}
            for i in reversed(word):
                out = set()
                for x in pts:
                    m = a2.pairing(i, x)
                    step = 1 if m >= 0 else -1
                    for h in range(0, m + step, step):
                        out.add(
                            tuple(
                                a - h * c for a, c in zip(x, a2.coroots[i])
                            )
                        )
                pts = out
            return pts

        brute = one_word([0, 1, 0], (1, 1)) | one_word([1, 0, 1], (1, 1))
        assert r_window(a2, w0, (1, 1)) == frozenset(brute)


class TestSupportContainment:
    def test_sampled_products(self, a2, aff):
        rng = random.Random(3)
        for datum in (a2, aff):
            classes = param_ring_for(datum)
            for _ in range(25):
                u = element_from_word(
                    datum, [rng.randrange(datum.n) for _ in range(rng.randint(0, 3))]
                )
                v = element_from_word(
                    datum, [rng.randrange(datum.n) for _ in range(rng.randint(0, 2))]
                )
                mu = tuple(rng.randint(-2, 2) for _ in range(datum.rank_y))
                prod = mult_bl(
                    BLElement.basis(datum, classes, datum.zero(), u),
                    BLElement.basis(datum, classes, mu, v),
                )
                window = r_window(datum, u, mu)
                allowed_w = {multiply(x, v) for x in bruhat_interval(u)}
                for lam, w in prod.support():
                    assert lam in window
                    assert w in allowed_w


class TestIsInH:
    def test_unit(self, a2):
        assert is_in_H(BLElement.unit(a2, param_ring_for(a2)))

    def test_finite_type_everything(self, a1):
        assert is_in_H(_zh(a1, (-1,)))

    def test_negative_level_not_in_h(self, aff):
        assert not is_in_H(_zh(aff, (0, 0, -1)))


def test_h_closed_under_product(aff):
    """Products of Y+-supported elements stay Y+-supported (affine: decidable)."""
    rng = random.Random(17)
    classes = param_ring_for(aff)
    done = 0
    while done < 20:
        a = random_bl_element(aff, rng, nterms=2, lam_bound=2, word_len=2)
        b = random_bl_element(aff, rng, nterms=2, lam_bound=2, word_len=2)
        if not (is_in_H(a) and is_in_H(b)):
            continue
        assert is_in_H(mult_bl(a, b))
        done += 1


def test_bl4_residual_identity(a1, a2, aff):
    """Cross-multiplied commutation relation, no division involved."""
    rng = random.Random(29)
    for datum in (a1, a2, aff):
        classes = param_ring_for(datum)
        for i in range(datum.n):
            for _ in range(8):
                lam = tuple(rng.randint(-3, 3) for _ in range(datum.rank_y))
                ri_lam = tuple(
                    a - datum.pairing(i, lam) * c for a, c in zip(lam, datum.coroots[i])
                )
                lhs = commute_Hi_past_Z(datum, classes, i, lam) - _zh(
                    datum, ri_lam, (i,)
                )
                assert all(w.length == 0 for _, w in lhs.support())
                co = datum.coroots[i]
                two_down = tuple(-2 * c for c in co)
                one_down = tuple(-c for c in co)
                left = mult_bl(
                    lhs, BLElement.unit(datum, classes) - _zh(datum, two_down)
                )
                numer = _zh(datum, datum.zero()).scale(
                    classes.sigma_minus_inverse(i)
                ) + _zh(datum, one_down).scale(classes.sigma_minus_inverse(i, True))
                right = mult_bl(numer, _zh(datum, lam) - _zh(datum, ri_lam))
                assert left == right


def test_element_json_round_trip(a2):
    rng = random.Random(31)
    classes = param_ring_for(a2)
    el = random_bl_element(a2, rng)
    assert BLElement.from_json(a2, classes, el.to_json()) == el
