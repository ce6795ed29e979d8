import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from kmhecke import completed
from kmhecke.coeff_ring import param_ring_for
from kmhecke.completed import (
    AFCertificate,
    CENTRAL,
    EFunction,
    INCONCLUSIVE,
    NOT_CENTRAL,
    Region,
    TruncatedElement,
    bimodule_act,
    center_test,
    _reverse_window,
    compute_source_region,
    e_function_expand,
    mult_truncated,
    truncated_from_json,
)
from kmhecke.errors import CapExceeded, InsufficientSource, NotDominant
from kmhecke.hecke_bl import BLElement, commute_Hi_past_Z, mult_bl
from kmhecke.root_system import (
    build_realization,
    dominance_leq,
    height_between,
    q_coords,
    validate_gcm,
)
from kmhecke.weyl import (
    element_from_word,
    identity,
    in_y_plus,
    left_descents,
    left_mul,
    orbit_enumerate,
    orbit_is_finite,
)

C = (1, 1, 0)  # the central coroot direction of affine A1
D = (0, 0, 1)  # the extra basis direction


def _unit_coeffs(datum, points):
    classes = param_ring_for(datum)
    e = identity(datum)
    return {(tuple(p), e): classes.one() for p in points}


def geometric_series(a1, height):
    """Truncation of sum_h Z^{-h alpha^v} with a weak certificate."""
    classes = param_ring_for(a1)
    region = Region.cone([(0,)], height)
    cert = AFCertificate(((0,),), (identity(a1),), dominant=False)
    coeffs = _unit_coeffs(a1, [(-h,) for h in range(height + 1)])
    return TruncatedElement(a1, classes, region, coeffs, cert)


class TestRegion:
    def test_a2_height_one(self, a2):
        # (1,1) minus each simple coroot, all inside Y+ = Y in finite type
        assert Region.cone([(1, 1)], 1).enumerate(a2) == [
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_height_zero_is_generators(self, a2, aff):
        assert Region.cone([(2, -1)], 0).enumerate(a2) == [(2, -1)]
        assert Region.cone([D], 0).enumerate(aff) == [D]

    def test_affine_delta_filter(self, aff):
        # below the central direction everything has level zero, so only
        # the inessential points survive the Tits-cone filter: c itself
        # and c - alpha_0^v - alpha_1^v = 0
        assert Region.cone([C], 2).enumerate(aff) == [(0, 0, 0), C]

    def test_explicit_and_membership(self, a2):
        reg = Region.explicit([(0, 0), (1, 1)])
        assert reg.contains(a2, (1, 1)) and not reg.contains(a2, (0, 1))


class TestMultTruncated:
    def test_agrees_with_finite_product(self, a2):
        classes = param_ring_for(a2)
        x = BLElement.basis(a2, classes, (1, 0), element_from_word(a2, [0]))
        y = BLElement.basis(a2, classes, (0, 1), element_from_word(a2, [1]))
        tx, ty = TruncatedElement.from_bl(x), TruncatedElement.from_bl(y)
        target = Region.cone([(1, 1)], 4)
        res = mult_truncated(tx, ty, target)
        full = mult_bl(x, y)
        pts = set(target.enumerate(a2))
        assert res.coeffs == {
            (lam, w): c for (lam, w), c in full.terms.items() if lam in pts
        }

    def test_telescoping(self, a1):
        classes = param_ring_for(a1)
        b = BLElement.unit(a1, classes) - BLElement.z_monomial(a1, classes, (-1,))
        tb = TruncatedElement.from_bl(b)
        for height in (0, 5, 20):
            target = Region.cone([(0,)], height)
            src_a, _ = compute_source_region(a1, target, geometric_series(a1, 0).certificate, tb.certificate)
            ta = geometric_series(a1, src_a.height)
            res = mult_truncated(ta, tb, target)
            assert res.coeffs == {((0,), identity(a1)): classes.one()}

    def test_region_stability(self, a1):
        classes = param_ring_for(a1)
        b = BLElement.unit(a1, classes) - BLElement.z_monomial(a1, classes, (-1,))
        tb = TruncatedElement.from_bl(b)
        target = Region.cone([(0,)], 6)
        small = mult_truncated(geometric_series(a1, 7), tb, target)
        big = mult_truncated(geometric_series(a1, 14), tb, target)
        assert small.coeffs == big.coeffs

    def test_insufficient_source_detected(self, a1):
        classes = param_ring_for(a1)
        b = BLElement.unit(a1, classes) - BLElement.z_monomial(a1, classes, (-1,))
        tb = TruncatedElement.from_bl(b)
        target = Region.cone([(0,)], 6)
        with pytest.raises(InsufficientSource) as refused:
            mult_truncated(geometric_series(a1, 4), tb, target)
        factor, lam, w = refused.value.needed
        assert factor == "left" and w == identity(a1)
        assert lam not in geometric_series(a1, 4).region.enumerate(a1)

    def test_weak_right_certificate_refused(self, a1):
        """Windows from the left require dominant bounds on the right."""
        classes = param_ring_for(a1)
        r = element_from_word(a1, [0])
        cert = AFCertificate(((0,),), (r,), dominant=True)
        left = TruncatedElement(
            a1, classes, Region.cone([(0,)], 0), {((0,), r): classes.one()}, cert
        )
        with pytest.raises(InsufficientSource) as refused:
            mult_truncated(left, geometric_series(a1, 6), Region.cone([(0,)], 0))
        # the right factor as a whole, for the left Weyl part with windows
        assert refused.value.needed == ("right", None, r)

    def test_central_commutation_on_target(self, a1):
        classes = param_ring_for(a1)
        ea = e_function_expand(
            EFunction.single(a1, classes, (1,)), Region.cone([(1,)], 8)
        )
        h1 = TruncatedElement.from_bl(BLElement.h_word(a1, classes, [0]))
        target = Region.cone([(1,)], 4)
        assert mult_truncated(ea, h1, target).coeffs == mult_truncated(h1, ea, target).coeffs


class TestComputeSourceRegion:
    def test_trivial_target(self, a2):
        e = identity(a2)
        cert = AFCertificate(((0, 0),), (e,), dominant=True)
        src_a, src_b = compute_source_region(a2, Region.cone([(0, 0)], 0), cert, cert)
        assert src_a.generators == ((0, 0),) and src_a.height == 0
        assert src_b.generators == ((0, 0),) and src_b.height == 0

    def test_monotone_in_target(self, a1):
        e = identity(a1)
        cert_a = AFCertificate(((0,),), (e,), dominant=False)
        cert_b = AFCertificate(((0,),), (e,), dominant=True)
        heights = []
        for n in range(4):
            src_a, src_b = compute_source_region(
                a1, Region.cone([(0,)], n), cert_a, cert_b
            )
            heights.append((src_a.height, src_b.height))
        assert heights == sorted(heights)

    def test_a2_worked_instance(self, a2):
        e = identity(a2)
        r1 = element_from_word(a2, [0])
        cert_a = AFCertificate(((1, 1),), (e, r1), dominant=True)
        cert_b = AFCertificate(((0, 0),), (e,), dominant=True)
        src_a, src_b = compute_source_region(
            a2, Region.cone([(1, 1)], 1), cert_a, cert_b, u_cap=1
        )
        # bounded by target height + max window diameter (= max alpha_i over gens)
        diameter = max(a2.pairing(i, (1, 1)) for i in range(2))
        assert src_a.height <= 1 + diameter + 1
        assert src_b.height <= 1 + diameter + 1


    def test_length_three_commutator(self, aff):
        """H_{010} E((0,0,1)) = E((0,0,1)) H_{010} on the height-2 cone, on affine A1."""
        classes = param_ring_for(aff)
        f = EFunction.single(aff, classes, D)
        cert_e = e_function_expand(f, Region.cone([D], 0)).certificate
        target = Region.cone([D], 2)
        hw = TruncatedElement.from_bl(BLElement.h_word(aff, classes, (0, 1, 0)))
        _, src_e = compute_source_region(aff, target, hw.certificate, cert_e)
        left = mult_truncated(hw, e_function_expand(f, src_e), target)
        src_e2, _ = compute_source_region(aff, target, cert_e, hw.certificate)
        right = mult_truncated(e_function_expand(f, src_e2), hw, target)
        assert left.coeffs and left.coeffs == right.coeffs


class TestBimodule:
    def test_zero_shift_identity(self, aff):
        classes = param_ring_for(aff)
        a = e_function_expand(EFunction.single(aff, classes, C), Region.cone([C], 3))
        assert bimodule_act(aff.zero(), a, "left").coeffs == a.coeffs

    def test_shift_round_trip(self, a2):
        classes = param_ring_for(a2)
        a = e_function_expand(
            EFunction.single(a2, classes, (1, 1)), Region.cone([(1, 1)], 4)
        )
        mu = (1, 0)
        neg = tuple(-x for x in mu)
        back = bimodule_act(mu, bimodule_act(neg, a, "left"), "left")
        assert back.coeffs == a.coeffs

    def test_right_action_matches_commutation(self, a1):
        classes = param_ring_for(a1)
        h1 = TruncatedElement.from_bl(BLElement.h_word(a1, classes, [0]))
        moved = bimodule_act((1,), h1, "right")
        assert moved.region is None
        assert BLElement(a1, classes, dict(moved.coeffs)) == commute_Hi_past_Z(
            a1, classes, 0, (1,)
        )

    def test_actions_match_finite_products(self, a2):
        """On finite elements both actions agree with the plain product."""
        classes = param_ring_for(a2)
        el = BLElement.basis(a2, classes, (1, 0), element_from_word(a2, [0, 1]))
        t = TruncatedElement.from_bl(el)
        mu = (1, 1)
        z = BLElement.z_monomial(a2, classes, mu)
        left = bimodule_act(mu, t, "left")
        right = bimodule_act(mu, t, "right")
        assert BLElement(a2, classes, dict(left.coeffs)) == mult_bl(z, el)
        assert BLElement(a2, classes, dict(right.coeffs)) == mult_bl(el, z)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_dominant_shift_keeps_no_dominant_bound(self, a1, side):
        """Z^(-1) E(1) = 1 + Z^(-2).  Shifted from a truncation that knows
        only Z^(1), the coefficient at Z^(-2) is unknown; the shift used to
        keep the dominant reading, which called it 0."""
        classes = param_ring_for(a1)
        a = e_function_expand(EFunction.single(a1, classes, (1,)), Region.cone([(1,)], 0))
        shifted = bimodule_act((-1,), a, side)
        assert not shifted.certificate.dominant
        unit = TruncatedElement.from_bl(BLElement.unit(a1, classes))
        with pytest.raises(InsufficientSource) as refused:
            mult_truncated(shifted, unit, Region.cone([(0,)], 2))
        assert refused.value.needed == ("left", (-2,), identity(a1))

    def test_left_shift_may_leave_y_plus(self, aff):
        classes = param_ring_for(aff)
        unit = TruncatedElement.from_bl(BLElement.unit(aff, classes))
        shifted = bimodule_act((0, 0, -1), unit, "left")
        assert shifted.in_bl_bar
        assert ((0, 0, -1), identity(aff)) in shifted.coeffs


class TestEFunction:
    def test_a2_orbit_sum(self, a2):
        classes = param_ring_for(a2)
        res = e_function_expand(
            EFunction.single(a2, classes, (1, 1)), Region.cone([(1, 1)], 3)
        )
        pts = sorted(lam for (lam, _) in res.coeffs)
        assert pts == [(-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
        assert all(c.is_one() for c in res.coeffs.values())

    def test_zero_weight_is_unit(self, a2):
        classes = param_ring_for(a2)
        res = e_function_expand(
            EFunction.single(a2, classes, (0, 0)), Region.cone([(0, 0)], 2)
        )
        assert res.coeffs == {((0, 0), identity(a2)): classes.one()}

    def test_affine_central_fixed_point(self, aff):
        classes = param_ring_for(aff)
        res = e_function_expand(EFunction.single(aff, classes, C), Region.cone([C], 4))
        assert res.coeffs == {(C, identity(aff)): classes.one()}

    def test_not_dominant_rejected(self, a2):
        classes = param_ring_for(a2)
        with pytest.raises(NotDominant):
            e_function_expand(
                EFunction.single(a2, classes, (-1, 0)), Region.cone([(0, 0)], 1)
            )

    def test_support_always_in_tits_cone(self, aff):
        from kmhecke.weyl import in_y_plus

        classes = param_ring_for(aff)
        res = e_function_expand(
            EFunction.single(aff, classes, (2, 2, 0)), Region.cone([(2, 2, 0)], 5)
        )
        assert all(in_y_plus(aff, lam) for (lam, _) in res.coeffs)

    def test_injective_on_small_orbits(self, a2):
        classes = param_ring_for(a2)
        doms = [
            (a, b)
            for a in range(0, 3)
            for b in range(0, 3)
            if all(a2.pairing(i, (a, b)) >= 0 for i in range(2))
        ]
        region = Region.cone([(4, 4)], 12)
        seen = {}
        for lam in doms:
            out = e_function_expand(EFunction.single(a2, classes, lam), region)
            key = tuple(sorted(out.coeffs))
            assert key not in seen, f"E({lam}) collides with E({seen.get(key)})"
            seen[key] = lam


class TestCenter:
    def test_e_expansion_central(self, a2):
        classes = param_ring_for(a2)
        a = e_function_expand(
            EFunction.single(a2, classes, (1, 1)), Region.cone([(1, 1)], 6)
        )
        assert center_test(a).status == CENTRAL

    def test_z_d_not_central_with_witness(self, aff):
        classes = param_ring_for(aff)
        a = TruncatedElement.from_bl(BLElement.z_monomial(aff, classes, D))
        verdict = center_test(a)
        assert verdict.status == NOT_CENTRAL
        assert verdict.probe is not None and verdict.coordinate is not None
        # the witness is the generator pairing nontrivially with d
        assert verdict.probe.support_w() == {element_from_word(aff, [0])}

    def test_unit_central(self, a2):
        classes = param_ring_for(a2)
        assert center_test(TruncatedElement.from_bl(BLElement.unit(a2, classes))).status == CENTRAL

    def test_clipped_orbit_inconclusive(self, a2):
        classes = param_ring_for(a2)
        region = Region.cone([(2, 2)], 1)
        e = identity(a2)
        cert = AFCertificate(((2, 2),), (e,), dominant=False)
        a = TruncatedElement(
            a2, classes, region, {((2, 2), e): classes.one()}, cert
        )
        assert center_test(a).status == INCONCLUSIVE

    def test_skipped_probe_is_listed(self, a1):
        """H_0's commutator with a weakly certified series cannot be
        certified; the verdict names that probe and no other."""
        classes = param_ring_for(a1)
        verdict = center_test(geometric_series(a1, 3))
        assert verdict.skipped == (BLElement.h_word(a1, classes, [0]),)
        assert verdict.status == INCONCLUSIVE
        assert center_test(TruncatedElement.from_bl(BLElement.unit(a1, classes))).skipped == ()

    def test_center_products_commute(self, a2):
        classes = param_ring_for(a2)
        big = Region.cone([(3, 3)], 12)
        ea = e_function_expand(EFunction.single(a2, classes, (1, 1)), big)
        eb = e_function_expand(EFunction.single(a2, classes, (2, 1)), big)
        target = Region.cone([(3, 2)], 3)
        left = mult_truncated(ea, eb, target)
        right = mult_truncated(eb, ea, target)
        assert left.coeffs == right.coeffs
        # support generators bounded by the sum of the dominant weights
        from kmhecke.root_system import dominance_leq

        for g in left.certificate.generators:
            assert dominance_leq(a2, g, (3, 2))


class TestCenterOfH:
    def test_finite_type_membership(self, a2):
        """On finite A2 the orbit sum of (1, 1), a finite element, is central."""
        classes = param_ring_for(a2)
        orbit = BLElement.zero(a2, classes)
        for mu in orbit_enumerate(a2, (1, 1)):
            orbit = orbit + BLElement.z_monomial(a2, classes, mu)
        assert center_test(TruncatedElement.from_bl(orbit)).status == CENTRAL

    def test_affine_central_direction(self, aff):
        classes = param_ring_for(aff)
        z = TruncatedElement.from_bl(BLElement.z_monomial(aff, classes, C))
        assert center_test(z).status == CENTRAL

    def test_affine_level_direction(self, aff):
        classes = param_ring_for(aff)
        z = TruncatedElement.from_bl(BLElement.z_monomial(aff, classes, D))
        assert center_test(z).status == NOT_CENTRAL

    def test_z_lambda_central_iff_w_fixed(self, a2, aff):
        """Z^lam is central exactly when W fixes lam, over all of [-2, 2]^r in Y+."""
        b2 = build_realization(validate_gcm([[2, -2], [-1, 2]]))
        fixed = 0
        for datum in (a2, b2, aff):
            classes = param_ring_for(datum)
            for lam in itertools.product(range(-2, 3), repeat=datum.rank_y):
                if not in_y_plus(datum, lam):
                    continue
                z = TruncatedElement.from_bl(BLElement.z_monomial(datum, classes, lam))
                w_fixed = all(datum.pairing(i, lam) == 0 for i in range(datum.n))
                fixed += w_fixed
                assert center_test(z).status == (CENTRAL if w_fixed else NOT_CENTRAL), lam
        assert fixed == 7  # the origin of a2 and b2, and 5 multiples of C on aff


class TestStrictnessFixtures:
    def test_completion_strictly_larger(self, a1):
        """Truncations of sum Z^{-mu} grow without bound: an element outside H."""
        sizes = [len(geometric_series(a1, n).coeffs) for n in (2, 5, 9, 14)]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
        from kmhecke.weyl import in_y_plus

        assert all(in_y_plus(a1, lam) for (lam, _) in geometric_series(a1, 9).coeffs)

    def test_invariants_finite_vs_affine(self, a2, aff):
        # finite type: full invariant support is finite (a polynomial)
        classes = param_ring_for(a2)
        out = e_function_expand(
            EFunction.single(a2, classes, (2, 1)), Region.cone([(2, 1)], 20)
        )
        orbit = orbit_enumerate(a2, (2, 1))
        assert sorted(lam for (lam, _) in out.coeffs) == list(orbit.points)
        # affine: a non-inessential dominant weight has infinite orbit
        assert not orbit_is_finite(aff, (1, 0, 1))


def test_truncated_json_round_trip(a2):
    classes = param_ring_for(a2)
    a = e_function_expand(
        EFunction.single(a2, classes, (1, 1)), Region.cone([(1, 1)], 3)
    )
    again = truncated_from_json(a2, classes, a.to_json())
    assert again.coeffs == a.coeffs and again.region == a.region



# dominant points of each datum from which certificates are drawn, and the
# tops of the targets (the points themselves, where a product of two
# certificates can reach them)
_A1_POINTS = ((0,), (1,), (2,))
_A2_POINTS = ((0, 0), (1, 1), (2, 1), (1, 2))
_DATA = (
    (build_realization(validate_gcm([[2]])), _A1_POINTS, _A1_POINTS),
    (
        build_realization(
            validate_gcm([[2, -1], [-1, 2]]), (2, [(1, 0), (0, 1)], [(2, -1), (-1, 2)])
        ),
        _A2_POINTS,
        _A2_POINTS,
    ),
    # affine A1, whose windows reach orbit points without bound; levels add
    # under products, so the targets sit at level 2
    (
        build_realization(validate_gcm([[2, -2], [-2, 2]])),
        ((0, 0, 1), (1, 1, 1)),
        ((0, 0, 2), (1, 1, 2), (2, 2, 2)),
    ),
)


@st.composite
def _certified_product(draw):
    """Certificates on A1, A2 or affine A1 with Weyl parts in {e, r_1}, and a cone target."""
    datum, points, tops = draw(st.sampled_from(_DATA))
    e, r1 = identity(datum), element_from_word(datum, [0])

    def cert(dominant):
        gens = draw(st.lists(st.sampled_from(points), min_size=1, max_size=2, unique=True))
        w_part = draw(st.sampled_from(((e,), (r1,), (e, r1))))
        return AFCertificate(tuple(sorted(gens)), w_part, dominant or draw(st.booleans()))

    cert_a = cert(False)
    # windows from the left need dominant bounds on the right
    cert_b = cert(any(u.word for u in cert_a.w_part))
    target = Region.cone([draw(st.sampled_from(tops))], draw(st.integers(0, 3)))
    return datum, cert_a, cert_b, target, draw(st.integers(0, 2**16))


def _factor(datum, cert, region, rng):
    """Coefficients exact on `region`, and a finite series that agrees with
    them there and adds terms the certificate allows up to two heights
    further down."""
    classes = param_ring_for(datum)
    exact, wider = {}, {}
    for lam in Region.cone(region.generators, region.height + 2).enumerate(datum):
        for w in cert.w_part:
            c = rng.randint(-2, 2)
            if c and cert.allows_y(datum, lam):
                wider[(lam, w)] = classes.const(c)
                if region.contains(datum, lam):
                    exact[(lam, w)] = classes.const(c)
    return TruncatedElement(datum, classes, region, exact, cert), BLElement(datum, classes, wider)


@settings(max_examples=60, deadline=None)
@given(_certified_product())
def test_source_region_suffices_for_the_certified_product(case):
    """Factors exact on the regions of compute_source_region are never
    refused, and their product on the target is that of any series which
    agrees with them there and obeys the certificates."""
    datum, cert_a, cert_b, target, seed = case
    rng = random.Random(seed)
    src_a, src_b = compute_source_region(datum, target, cert_a, cert_b)
    a, wide_a = _factor(datum, cert_a, src_a, rng)
    b, wide_b = _factor(datum, cert_b, src_b, rng)
    got = mult_truncated(a, b, target)
    points = set(target.enumerate(datum))
    want = {k: p for k, p in mult_bl(wide_a, wide_b).terms.items() if k[0] in points}
    assert got.coeffs == want


# --- a brute-force oracle for the reverse window ---

def _elements_up_to(datum, length):
    """Every Weyl element of length at most `length`."""
    layer = [identity(datum)]
    out = list(layer)
    for _ in range(length):
        layer = list({left_mul(i, x) for x in layer for i in range(datum.n)} - set(out))
        layer = [y for y in layer if y.length <= length]
        out += layer
    return out


def _reach_below(datum, u, mu, kappa):
    """The points of R_u(mu) in [-2, 2]^rank_y reached along chains of
    window segments whose every point lies below kappa in dominance order."""
    memo = {}

    def rec(v):
        if v not in memo:
            if not v.word:
                memo[v] = {mu} if dominance_leq(datum, mu, kappa) else set()
            else:
                memo[v] = set()
                for i in left_descents(v):
                    co = datum.coroots[i]
                    for x in rec(left_mul(i, v)):
                        m = datum.pairing(i, x)
                        ends = [tuple(a - h * c for a, c in zip(x, co)) for h in (0, m)]
                        # the points below one kappa are convex, so both ends decide
                        if not all(dominance_leq(datum, p, kappa) for p in ends):
                            continue
                        # the last segment only matters near [-2, 2]^rank_y
                        if v == u and any(min(e) > 2 or max(e) < -2 for e in zip(*ends)):
                            continue
                        step = 1 if m >= 0 else -1
                        memo[v].update(
                            tuple(a - h * c for a, c in zip(x, co)) for h in range(0, m + step, step)
                        )
        return memo[v]

    return {p for p in rec(u) if all(-2 <= a <= 2 for a in p)}


@pytest.mark.parametrize(
    "name, kappa, depth", [("a1", (2,), 12), ("a2", (1, 1), 12), ("aff", (0, 0, 1), 26)]
)
def test_reverse_window_matches_brute_force(request, name, kappa, depth):
    """For words of length <= 3 and nu in [-2, 2]^rank_y, the mu that
    `_reverse_window` returns and whose chain to nu stays below kappa are
    exactly those found by enumerating mu = kappa - (a coroot sum with
    coefficients <= depth); the equality also shows that the box is deep
    enough.  The engine prunes by height only, so it may return more.
    The source region of a target {nu} contains each such mu that the
    certificate allows."""
    datum = request.getfixturevalue(name)
    box = [
        tuple(k - sum(c * co[r] for c, co in zip(cs, datum.coroots)) for r, k in enumerate(kappa))
        for cs in itertools.product(range(depth + 1), repeat=datum.n)
    ]
    cert_b = AFCertificate((kappa,), (identity(datum),), dominant=True)
    for u in _elements_up_to(datum, 3):
        reach = {mu: _reach_below(datum, u, mu, kappa) for mu in box}
        sources = {}
        for mu in box:
            for nu in reach[mu]:
                sources.setdefault(nu, set()).add(mu)
        cert_a = AFCertificate((datum.zero(),), (u,))
        for nu in itertools.product(range(-2, 3), repeat=datum.rank_y):
            got = _reverse_window(datum, u, nu, (kappa,))
            for mu in got - reach.keys():
                reach[mu] = _reach_below(datum, u, mu, kappa)
            want = sources.get(nu, set())
            assert {mu for mu in got if nu in reach[mu]} == want
            if want:
                _, src_b = compute_source_region(datum, Region.explicit([nu]), cert_a, cert_b)
                for mu in want:
                    assert src_b.contains(datum, mu) or not cert_b.allows_y(datum, mu)



@pytest.mark.parametrize("name, kappa", [("a1", (2,)), ("a2", (1, 1)), ("aff", (0, 0, 1))])
def test_reverse_window_stays_within_height_budget(request, name, kappa):
    """No mu that `_reverse_window` returns lies higher above nu than the
    budget, the height of kappa over nu: the room left after a step up by
    j is room - j."""
    datum = request.getfixturevalue(name)
    for u in _elements_up_to(datum, 3):
        for nu in itertools.product(range(-2, 3), repeat=datum.rank_y):
            budget = height_between(datum, nu, kappa)
            if budget is None:
                continue
            for mu in _reverse_window(datum, u, nu, (kappa,)):
                assert sum(q_coords(datum, tuple(m - n for m, n in zip(mu, nu)))) <= budget

# --- the filtered reverse-window memo and the per-point test of `knows` ---

def _direct_window(datum, u, nu, generators, dominant):
    """The memo's answer, from `_reverse_window` and `allows_y` called directly."""
    cert = AFCertificate(generators, (), dominant)
    return [mu for mu in _reverse_window(datum, u, nu, generators) if cert.allows_y(datum, mu)]


# by datum: left generator, words of the left Weyl parts, right generator, target top
_WALKS = {
    "a1": ((0,), ((), (0,)), (1,), (2,)),
    "a2": ((0, 0), ((), (0,), (0, 1)), (1, 1), (2, 2)),
    "aff": ((0, 0, 0), ((0,), (0, 1)), D, D),
}


def _certified_walk(datum, name):
    """compute_source_region, mult_truncated on its regions, and every
    (rho, needed) that `_unknowns` yields for factors one height short."""
    ga, words, gb, top = _WALKS[name]
    cert_a = AFCertificate((ga,), tuple(element_from_word(datum, w) for w in words))
    cert_b = AFCertificate((gb,), (identity(datum),), dominant=True)
    target = Region.cone([top], 2)
    src_a, src_b = compute_source_region(datum, target, cert_a, cert_b)
    rng = random.Random(5)
    a, _ = _factor(datum, cert_a, src_a, rng)
    b, _ = _factor(datum, cert_b, src_b, rng)
    got = mult_truncated(a, b, target).coeffs
    short_a, _ = _factor(datum, cert_a, replace(src_a, height=max(src_a.height - 1, 0)), rng)
    short_b, _ = _factor(datum, cert_b, replace(src_b, height=max(src_b.height - 1, 0)), rng)
    unknowns = list(completed._unknowns(target.enumerate(datum), short_a, short_b))
    return (src_a, src_b), got, unknowns


@pytest.mark.parametrize("name", ("a1", "a2", "aff"))
def test_window_memo_cold_and_warm_match_the_direct_walk(request, name, monkeypatch):
    datum = request.getfixturevalue(name)
    completed._allowed_window.cache_clear()
    cold = _certified_walk(datum, name)
    assert completed._allowed_window.cache_info().currsize > 0
    warm = _certified_walk(datum, name)
    assert completed._allowed_window.cache_info().hits > 0
    monkeypatch.setattr(completed, "_allowed_window", _direct_window)
    want = _certified_walk(datum, name)
    assert cold == warm == want
    assert want[1] and want[2]  # a product to compare, and refusals with their `needed`


def test_window_memo_keeps_the_dominant_flag_apart(a2):
    """Equal generators, different `dominant`: each certificate gets its own
    filtered window, whichever comes first."""
    e = identity(a2)
    cert_a = AFCertificate(((0, 0),), (element_from_word(a2, [0]), element_from_word(a2, [0, 1])))
    strong, weak = (AFCertificate(((1, 1),), (e,), dominant=d) for d in (True, False))
    points = list(itertools.product(range(-2, 3), repeat=2))
    completed._allowed_window.cache_clear()
    differ = False
    for cert_b in (strong, weak, strong, weak):
        for rho in points:
            for lam, u, mus in completed._contributions(a2, rho, cert_a, cert_b):
                nu = tuple(r - x for r, x in zip(rho, lam))
                assert list(mus) == [
                    mu for mu in _reverse_window(a2, u, nu, cert_b.generators)
                    if cert_b.allows_y(a2, mu)
                ]
                other = weak if cert_b is strong else strong
                differ |= list(mus) != _direct_window(a2, u, nu, other.generators, other.dominant)
    assert differ


def test_window_memo_stores_no_refusal(aff, monkeypatch):
    cert_a = AFCertificate((aff.zero(),), (element_from_word(aff, [0, 1]),))
    cert_b = AFCertificate((D,), (identity(aff),), dominant=True)
    target = Region.cone([D], 2)
    completed._allowed_window.cache_clear()
    monkeypatch.setattr(completed, "REVERSE_WINDOW_CAP", 2)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            compute_source_region(aff, target, cert_a, cert_b)
        assert completed._allowed_window.cache_info().currsize == 0
    monkeypatch.undo()
    got = compute_source_region(aff, target, cert_a, cert_b)
    monkeypatch.setattr(completed, "_allowed_window", _direct_window)
    assert got == compute_source_region(aff, target, cert_a, cert_b)


def test_reverse_window_cap_counts_the_nodes_it_visits(a1, monkeypatch):
    """A search of two nodes, (r_1, nu) and (e, nu), is answered under a cap
    of 2 and refused under a cap of 1."""
    r1 = element_from_word(a1, [0])
    monkeypatch.setattr(completed, "REVERSE_WINDOW_CAP", 2)
    assert _reverse_window(a1, r1, (0,), ((0,),)) == {(0,)}
    monkeypatch.setattr(completed, "REVERSE_WINDOW_CAP", 1)
    with pytest.raises(CapExceeded):
        _reverse_window(a1, r1, (0,), ((0,),))


@pytest.mark.parametrize("in_bl_bar", (False, True))
def test_point_test_answers_as_a_fresh_element(aff, in_bl_bar):
    """`knows` asked twice, in either order, answers as a freshly built equal
    element, at Weyl parts in and out of the certificate."""
    classes = param_ring_for(aff)
    e, r0, r1 = (element_from_word(aff, w) for w in ((), (0,), (1,)))
    region = Region.cone([(1, 1, 1)], 2)
    cert = AFCertificate(((1, 1, 1),), (e, r0), dominant=False)
    coeffs = {(lam, w): classes.one() for lam in region.enumerate(aff) for w in (e, r0)}

    def fresh():
        return TruncatedElement(aff, classes, region, coeffs, cert, in_bl_bar)

    box = itertools.product(range(-1, 4), range(-1, 4), range(0, 3))
    queries = [(lam, w) for lam in box for w in (e, r0, r1)]
    want = {q: fresh().knows(*q) for q in queries}
    assert len(set(want.values())) == 2
    assert any(want[(lam, e)] != want[(lam, r1)] for lam, _ in queries)
    for order in (queries, queries[::-1]):
        a = fresh()
        for _ in range(2):
            assert [a.knows(*q) for q in order] == [want[q] for q in order]
