"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Every test prints a single PASS line when its criterion holds; any
mismatch is a hard assertion failure (nothing is rounded or retried).
"""

import itertools
import random
import time

import pytest

from kmhecke.coeff_ring import LaurentPoly, param_ring_for
from kmhecke.completed import (
    AFCertificate,
    CENTRAL,
    NOT_CENTRAL,
    EFunction,
    Region,
    TruncatedElement,
    center_test,
    compute_source_region,
    e_function_expand,
    mult_truncated,
)
from kmhecke.hecke_bl import BLElement, commute_Hi_past_Z, is_in_H, mult_bl, r_window
from kmhecke.parahoric import (
    CosetLabel,
    coset_sum_of_label,
    double_coset,
    face_type,
    nonspherical_failure_stream,
    parahoric_product,
    poincare_polynomial,
    tree_orbit_size,
)
from kmhecke.root_system import dominance_leq
from kmhecke.weyl import (
    IN_TITS_CONE,
    all_reduced_words,
    bruhat_leq,
    bruhat_interval,
    dominant_representative,
    element_from_word,
    identity,
    inverse,
    multiply,
    orbit_enumerate,
    simple_reflection,
)

from conftest import random_bl_element

C = (1, 1, 0)
D = (0, 0, 1)


def _h(datum, word):
    return BLElement.h_word(datum, param_ring_for(datum), word)


def _z(datum, lam):
    return BLElement.z_monomial(datum, param_ring_for(datum), lam)


def test_criterion_1_bl_soundness(a1, a2, aff):
    """Associativity, quadratic and braid relations on random triples.

    200 seeded triples per fixture, 600 in all, each checked exactly in
    this process.
    """
    t0 = time.time()
    for datum in (a1, a2, aff):
        classes = param_ring_for(datum)
        for i in range(datum.n):
            h = _h(datum, [i])
            expected = h.scale(classes.sigma_minus_inverse(i)) + BLElement.unit(
                datum, classes
            )
            assert mult_bl(h, h) == expected
    assert mult_bl(mult_bl(_h(a2, [0]), _h(a2, [1])), _h(a2, [0])) == mult_bl(
        mult_bl(_h(a2, [1]), _h(a2, [0])), _h(a2, [1])
    )

    failures = []
    for name, datum in (("a1", a1), ("a2", a2), ("aff", aff)):
        for seed in range(1000, 1200):
            rng = random.Random(seed)
            x, y, z = (random_bl_element(datum, rng, nterms=3, lam_bound=3, word_len=3) for _ in range(3))
            if mult_bl(mult_bl(x, y), z) != mult_bl(x, mult_bl(y, z)):
                failures.append((name, seed))
    assert not failures, f"associativity failed at {failures}"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: BL soundness on 600 random triples in {elapsed:.1f}s")


def test_criterion_2_bl4_cross_multiplied(a1, a2, aff):
    """The commutation relation, cross-multiplied so no division appears."""
    for datum in (a1, a2, aff):
        classes = param_ring_for(datum)
        seen_pairings = {i: set() for i in range(datum.n)}
        span = range(-3, 4)
        for lam in itertools.product(span, repeat=datum.rank_y):
            for i in range(datum.n):
                m = datum.pairing(i, lam)
                if abs(m) > 6:
                    continue
                seen_pairings[i].add(m)
                ri_lam = tuple(
                    a - m * c for a, c in zip(lam, datum.coroots[i])
                )
                lhs = commute_Hi_past_Z(datum, classes, i, lam) - BLElement.basis(
                    datum, classes, ri_lam, element_from_word(datum, [i])
                )
                assert all(w.length == 0 for _, w in lhs.support())
                co = datum.coroots[i]
                left = mult_bl(
                    lhs,
                    BLElement.unit(datum, classes)
                    - _z(datum, tuple(-2 * c for c in co)),
                )
                numer = BLElement.unit(datum, classes).scale(
                    classes.sigma_minus_inverse(i)
                ) + _z(datum, tuple(-c for c in co)).scale(
                    classes.sigma_minus_inverse(i, True)
                )
                right = mult_bl(numer, _z(datum, lam) - _z(datum, ri_lam))
                assert left == right
        for i in range(datum.n):
            covered = {abs(m) for m in seen_pairings[i]}
            assert covered >= set(range(0, 7)) or covered >= {0, 2, 4, 6}
    print("\nACCEPTANCE 2 PASS: cross-multiplied commutation identity, |pairing| <= 6")


def test_criterion_3_support_containment(a1, a2, aff):
    """Exhaustive window containment for l(u) <= 3, |alpha_i(mu)| <= 4."""
    checked = 0
    for datum in (a1, a2, aff):
        classes = param_ring_for(datum)
        elements = {identity(datum)}
        frontier = [identity(datum)]
        for _ in range(3):
            frontier = [
                multiply(x, simple_reflection(datum, i))
                for x in frontier
                for i in range(datum.n)
            ]
            elements.update(frontier)
        us = sorted({w for w in elements if w.length <= 3}, key=lambda w: w.word)
        vs = sorted({w for w in elements if w.length <= 2}, key=lambda w: w.word)
        span = range(-2, 3)
        mus = [
            mu
            for mu in itertools.product(span, repeat=datum.rank_y)
            if all(abs(datum.pairing(i, mu)) <= 4 for i in range(datum.n))
        ]
        # the sample hits every pairing value in [-4, 4] for every i
        for i in range(datum.n):
            values = {datum.pairing(i, mu) for mu in mus}
            step = 2 if len({v % 2 for v in values}) == 1 else 1
            assert values >= set(range(-4, 5, step))
        for u in us:
            for mu in mus:
                window = r_window(datum, u, mu)
                for v in vs:
                    prod = mult_bl(
                        BLElement.basis(datum, classes, datum.zero(), u),
                        BLElement.basis(datum, classes, mu, v),
                    )
                    allowed_w = {multiply(x, v) for x in bruhat_interval(u)}
                    for lam, w in prod.support():
                        assert lam in window
                        assert w in allowed_w
                    checked += 1
    print(f"\nACCEPTANCE 3 PASS: support containment on {checked} basis products")


def test_criterion_4_closure_of_h(aff):
    """Products of Tits-cone supported elements stay Tits-cone supported."""
    rng = random.Random(77)
    done = 0
    while done < 100:
        x = random_bl_element(aff, rng, nterms=2, lam_bound=2, word_len=2)
        y = random_bl_element(aff, rng, nterms=2, lam_bound=2, word_len=2)
        if not (is_in_H(x) and is_in_H(y)):
            continue
        assert is_in_H(mult_bl(x, y))
        done += 1
    print("\nACCEPTANCE 4 PASS: closure of H on 100 random products (affine A1)")


def test_criterion_5_completed_product(a1):
    """Telescoping of the geometric series against 1 - Z^{-alpha}, exactly."""
    classes = param_ring_for(a1)
    e = identity(a1)
    weak = AFCertificate(((0,),), (e,), dominant=False)
    b = BLElement.unit(a1, classes) - _z(a1, (-1,))
    tb = TruncatedElement.from_bl(b)

    def series(height):
        region = Region.cone([(0,)], height)
        coeffs = {((-h,), e): classes.one() for h in range(height + 1)}
        return TruncatedElement(a1, classes, region, coeffs, weak)

    for height in range(0, 21, 4):
        target = Region.cone([(0,)], height)
        src_a, _ = compute_source_region(a1, target, weak, tb.certificate)
        res = mult_truncated(series(src_a.height), tb, target)
        assert res.coeffs == {((0,), e): classes.one()}
        doubled = mult_truncated(series(2 * src_a.height + 2), tb, target)
        assert doubled.coeffs == res.coeffs
    print("\nACCEPTANCE 5 PASS: telescoping identity exact on heights 0..20, region-stable")


def test_criterion_6_center(a2, aff):
    """Orbit sums are central, the level direction is not, and a monomial
    Z^lam is central exactly when W fixes lam."""
    classes2 = param_ring_for(a2)
    a = e_function_expand(
        EFunction.single(a2, classes2, (1, 1)), Region.cone([(1, 1)], 6)
    )
    assert center_test(a).status == CENTRAL

    classesa = param_ring_for(aff)
    for k in (1, 2):
        ck = tuple(k * x for x in C)
        t = e_function_expand(
            EFunction.single(aff, classesa, ck), Region.cone([ck], 6)
        )
        assert center_test(t).status == CENTRAL

    zd = TruncatedElement.from_bl(BLElement.z_monomial(aff, classesa, D))
    verdict = center_test(zd)
    assert verdict.status == NOT_CENTRAL
    assert verdict.probe is not None and verdict.coordinate is not None

    rng = random.Random(99)
    checked = 0
    while checked < 50:
        datum = rng.choice([a2, aff])
        lam = tuple(rng.randint(-2, 2) for _ in range(datum.rank_y))
        if dominant_representative(datum, lam).status != IN_TITS_CONE:
            continue
        z = TruncatedElement.from_bl(BLElement.z_monomial(datum, param_ring_for(datum), lam))
        w_fixed = all(datum.pairing(i, lam) == 0 for i in range(datum.n))
        assert center_test(z).status == (CENTRAL if w_fixed else NOT_CENTRAL)
        checked += 1
    print("\nACCEPTANCE 6 PASS: center tests with explicit witness; Z^lam central iff W-fixed at 50 points")


def test_criterion_7_invariant_series(a2, aff):
    """Invariant series live in Y+; distinct orbit sums stay distinct."""
    from kmhecke.weyl import in_y_plus

    classes2 = param_ring_for(a2)
    classesa = param_ring_for(aff)
    for datum, classes, lam, height in (
        (a2, classes2, (2, 2), 8),
        (aff, classesa, (2, 2, 1), 5),
    ):
        out = e_function_expand(
            EFunction.single(datum, classes, lam), Region.cone([lam], height)
        )
        assert all(in_y_plus(datum, mu) for (mu, _) in out.coeffs)

    doms = [
        lam
        for lam in itertools.product(range(0, 5), repeat=2)
        if sum(lam) <= 4 and all(a2.pairing(i, lam) >= 0 for i in range(2))
    ]
    region = Region.cone([(4, 4)], 16)
    expansions = {}
    for lam in doms:
        out = e_function_expand(EFunction.single(a2, classes2, lam), region)
        key = frozenset(out.coeffs)
        assert key not in expansions
        expansions[key] = lam
    print(f"\nACCEPTANCE 7 PASS: Y+ supports; injectivity on {len(doms)} orbit sums")


def test_criterion_8_parahoric(a1, aff):
    """Identity law, symmetrizer square, divisibility, Iwahori and
    commutative specializations."""
    classes1 = param_ring_for(a1)
    face = face_type(a1, (0,))
    e_label, _ = double_coset(face, (0,), identity(a1))
    labels = [double_coset(face, (h,), identity(a1))[0] for h in range(0, 4)]
    for lbl in labels:
        assert parahoric_product(face, e_label, lbl) == {lbl: classes1.one()}
        assert parahoric_product(face, lbl, e_label) == {lbl: classes1.one()}

    x = coset_sum_of_label(face, e_label)
    assert mult_bl(x, x) == x.scale(poincare_polynomial(face))

    for l1 in labels:
        for l2 in labels:
            assert parahoric_product(face, l1, l2) == parahoric_product(face, l2, l1)

    iwahori = face_type(aff, ())
    classesa = param_ring_for(aff)
    assert poincare_polynomial(iwahori) == classesa.one()
    points = [
        lam
        for lam in itertools.product(range(-2, 4), range(-2, 4), range(0, 2))
        if max(abs(x) for x in lam) <= 3
        and dominant_representative(aff, lam).status == IN_TITS_CONE
    ]
    test_labels = [CosetLabel(lam, w) for lam in points[:6] for w in [(), (0,), (1,)]]
    for l1 in test_labels[:8]:
        for l2 in test_labels[:8]:
            constants = parahoric_product(iwahori, l1, l2)  # P_F = 1: must divide
            x1 = coset_sum_of_label(iwahori, l1)
            x2 = coset_sum_of_label(iwahori, l2)
            rebuilt = BLElement.zero(aff, classesa)
            for lbl, c in constants.items():
                rebuilt = rebuilt + coset_sum_of_label(iwahori, lbl).scale(c)
            assert rebuilt == mult_bl(x1, x2)
    print("\nACCEPTANCE 8 PASS: parahoric identity, divisibility, Iwahori, commutativity")


def test_criterion_9_obstruction(chain3):
    """25 verified distinct elements for the affine face; spherical faces error."""
    from kmhecke.errors import FaceIsMinimal, FaceIsSpherical

    face = face_type(chain3, (0, 1))
    t0 = time.time()
    stream = nonspherical_failure_stream(face, 25)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    assert len({el.point for el in stream.elements}) == 25
    u = stream.face_interior_point
    for el in stream.elements:
        xw = multiply(element_from_word(chain3, el.fixer_word), stream.witness)
        assert inverse(xw).apply(el.point) == u

    for j_zero in [(), (0,), (1,), (2,), (0, 2), (1, 2)]:
        with pytest.raises(FaceIsSpherical):
            nonspherical_failure_stream(face_type(chain3, j_zero), 3)
    with pytest.raises(FaceIsMinimal):
        nonspherical_failure_stream(face_type(chain3, (0, 1, 2)), 3)
    print(f"\nACCEPTANCE 9 PASS: 25 verified obstruction elements in {elapsed:.2f}s")


def test_criterion_10_tree_counting():
    """Alternating wall-tree orbit sizes, symbolic and specialized."""
    for l in range(1, 7):
        poly = tree_orbit_size(l)
        n_qp = (l - 1 + 1) // 2
        n_q = (l - 1) // 2
        assert poly == LaurentPoly.monomial((n_q, n_qp))
        assert n_q + n_qp == l - 1
    assert [tree_orbit_size(l, 2, 2) for l in range(1, 7)] == [1, 2, 4, 8, 16, 32]
    print("\nACCEPTANCE 10 PASS: tree counting pattern and 2-adic specialization")


def test_criterion_11_weyl_engine(a2, aff):
    """Bruhat vs brute force, |W(A2)| = 6, and the dominance bound."""

    def brute(u, w):
        for wu in all_reduced_words(u):
            for pos in itertools.combinations(range(len(w.word)), len(wu)):
                if tuple(w.word[p] for p in pos) == wu:
                    return True
        return u.length == 0

    def ball(datum, radius):
        elems = {identity(datum)}
        frontier = [identity(datum)]
        for _ in range(radius):
            frontier = [
                multiply(x, simple_reflection(datum, i))
                for x in frontier
                for i in range(datum.n)
            ]
            elems.update(frontier)
        return sorted(elems, key=lambda w: (w.length, w.word))

    a2_all = ball(a2, 5)
    assert len(a2_all) == 6  # exhaustive closure of W(A2)
    for u in a2_all:
        for w in a2_all:
            assert bruhat_leq(u, w) == brute(u, w)
    aff_ball = [w for w in ball(aff, 4) if w.length <= 4]
    for u in aff_ball:
        for w in aff_ball:
            assert bruhat_leq(u, w) == brute(u, w)

    for datum, lam in ((a2, (1, 1)), (a2, (2, 1)), (aff, C), (aff, (2, 1, 1))):
        rep = dominant_representative(datum, lam)
        assert rep.status == IN_TITS_CONE
        for mu in orbit_enumerate(datum, lam, max_count=80).points:
            assert dominance_leq(datum, mu, rep.dominant)
    print("\nACCEPTANCE 11 PASS: Bruhat oracle agreement, |W(A2)|=6, dominance bounds")
