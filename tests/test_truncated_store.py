"""The completion's one coefficient store: a truncation keeps a `BLElement`.

The packed reads of `BLElement` (`coeff`, `support`, `support_y`,
`support_w`, `restrict_y`) are checked against the same reads of the
decoded `.terms`; the left Y-action, now the product Z^mu * a, against the
coordinate shift it replaced, which this file keeps as the reference; and
the certification walk's reads of an explicit factor against their counts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kmhecke import completed, linalg
from kmhecke.coeff_ring import LaurentPoly, param_ring_for
from kmhecke.completed import (
    AFCertificate,
    EFunction,
    Region,
    TruncatedElement,
    bimodule_act,
    e_function_expand,
    mult_truncated,
)
from kmhecke.errors import InsufficientSource, PointLengthMismatch
from kmhecke.hecke_bl import BLElement
from kmhecke.weyl import IN_TITS_CONE, element_from_word, identity, tits_cone_status

WORDS = ((), (0,), (1,), (0, 1), (1, 0))


def _strategies(datum):
    """Random elements over `datum`, and random points of its lattice."""
    classes = param_ring_for(datum)
    n = classes.nclasses
    point = st.tuples(*(st.integers(-3, 3) for _ in range(datum.rank_y)))
    poly = st.dictionaries(
        st.tuples(*(st.integers(-2, 2) for _ in range(n))), st.integers(-3, 3), max_size=2
    )
    terms = st.dictionaries(st.tuples(point, st.sampled_from(WORDS)), poly, max_size=5)
    elements = terms.map(
        lambda d: BLElement(
            datum,
            classes,
            {(lam, element_from_word(datum, w)): LaurentPoly(n, c) for (lam, w), c in d.items()},
        )
    )
    return elements, point


@pytest.mark.parametrize("name", ["a2", "aff"])
def test_packed_reads_match_terms(request, name):
    datum = request.getfixturevalue(name)
    zero = param_ring_for(datum).zero()
    elements, point = _strategies(datum)

    @given(elements, st.lists(point, max_size=6), st.sampled_from(WORDS), st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def check(x, probes, word, nkeep):
        terms = x.terms
        assert x.support() == set(terms)
        assert x.support_y() == {lam for lam, _ in terms}
        assert x.support_w() == {w for _, w in terms}
        w = element_from_word(datum, word)
        for lam, v in [(lam, w) for lam in probes] + list(terms):
            assert x.coeff(lam, v) == terms.get((lam, v), zero)
        keep = set(probes[:nkeep]) | {lam for lam, _ in list(terms)[:nkeep]}
        kept = x.restrict_y(keep)
        assert kept.terms == {k: p for k, p in terms.items() if k[0] in keep}
        assert x.terms == terms  # restricting made a new element

    check()


def test_packed_reads_refuse_points_of_the_wrong_length(a2):
    x = BLElement.z_monomial(a2, param_ring_for(a2), (1, 0))
    for lam in ((1,), (1, 0, 0)):
        with pytest.raises(PointLengthMismatch):
            x.coeff(lam, identity(a2))
        with pytest.raises(PointLengthMismatch):
            x.restrict_y([lam])


def _shift_reference(mu, a: TruncatedElement) -> TruncatedElement:
    """The left action as it was before it became the product Z^mu * a."""
    datum = a.datum
    coeffs = {(linalg.vec_add(lam, mu), w): p for (lam, w), p in a.coeffs.items()}
    region = None if a.region is None else a.region.translated(mu)
    gens = tuple(sorted(linalg.vec_add(g, mu) for g in a.certificate.generators))
    dominant = a.certificate.dominant and all(datum.pairing(i, mu) >= 0 for i in range(datum.n))
    cert = AFCertificate(gens, a.certificate.w_part, dominant)
    leaves = any(tits_cone_status(datum, lam) != IN_TITS_CONE for (lam, _) in coeffs)
    return TruncatedElement(
        datum, a.classes, region, coeffs, cert, in_bl_bar=a.in_bl_bar or leaves
    )


def _same(got: TruncatedElement, want: TruncatedElement):
    assert got == want
    assert got.coeffs == want.coeffs
    assert got.certificate == want.certificate
    assert got.in_bl_bar == want.in_bl_bar


@pytest.mark.parametrize("name", ["a2", "aff"])
def test_left_action_matches_the_shift(request, name):
    datum = request.getfixturevalue(name)
    classes = param_ring_for(datum)
    elements, point = _strategies(datum)

    @given(elements, point, st.sampled_from(("none", "explicit", "cone")), st.booleans())
    @settings(max_examples=80, deadline=None)
    def check(x, mu, shape, in_bl_bar):
        # mu ranges over dominant and non-dominant points alike
        cert = AFCertificate((datum.zero(),), (), dominant=in_bl_bar)
        region = {
            "none": None,
            "explicit": Region.explicit(x.support_y() | {datum.zero()}),
            "cone": Region.cone(sorted(x.support_y()) or [datum.zero()], 0, require_tits=False),
        }[shape]
        a = TruncatedElement(datum, classes, region, x, cert, in_bl_bar)
        _same(bimodule_act(mu, a, "left"), _shift_reference(mu, a))

    check()


@pytest.mark.parametrize("name, weight", [("a2", (1, 1)), ("aff", (0, 0, 1)), ("aff", (1, 1, 1))])
def test_left_action_of_orbit_sums_matches_the_shift(request, name, weight):
    datum = request.getfixturevalue(name)
    classes = param_ring_for(datum)
    a = e_function_expand(EFunction.single(datum, classes, weight), Region.cone([weight], 3))
    for mu in [(0,) * datum.rank_y, weight, tuple(-x for x in weight)] + [
        tuple(1 if j == i else -1 for j in range(datum.rank_y)) for i in range(datum.rank_y)
    ]:
        _same(bimodule_act(mu, a, "left"), _shift_reference(mu, a))


def test_coeffs_is_a_detached_copy(a2):
    classes = param_ring_for(a2)
    a = e_function_expand(EFunction.single(a2, classes, (1, 1)), Region.cone([(1, 1)], 3))
    before = a.coeffs
    got = a.coeffs
    got.clear()
    again = a.coeffs
    key = next(iter(again))
    again[key] = classes.const(7)
    assert a.coeffs == before and a.coeff(*key) == before[key]
    with pytest.raises(AttributeError):
        a.coeffs = {}


def test_constructor_packs_a_dictionary_once(a2, aff):
    classes = param_ring_for(a2)
    e, r1 = identity(a2), element_from_word(a2, [0])
    coeffs = {((1, 0), e): classes.const(2), ((0, 1), r1): classes.one(), ((1, 1), e): classes.zero()}
    cert = AFCertificate(((1, 1),), (e,), dominant=True)
    from_dict = TruncatedElement(a2, classes, None, coeffs, cert)
    from_element = TruncatedElement(a2, classes, None, BLElement(a2, classes, coeffs), cert)
    assert from_dict == from_element and from_dict.known == from_element.known
    assert ((1, 1), e) not in from_dict.coeffs  # zero coefficients are not stored
    assert from_dict.certificate.w_part == (e, r1)
    foreign = BLElement.unit(aff, param_ring_for(aff))
    with pytest.raises(ValueError):
        TruncatedElement(a2, classes, None, foreign, cert)


def _with_weyl_part(a1, height):
    """Coefficients on a cone below 0 at H_e and H_{r_1}, with a weak certificate."""
    classes = param_ring_for(a1)
    e, r1 = identity(a1), element_from_word(a1, [0])
    region = Region.cone([(0,)], height)
    coeffs = {(lam, w): classes.one() for lam in region.enumerate(a1) for w in (e, r1)}
    return TruncatedElement(a1, classes, region, coeffs, AFCertificate(((0,),), (e, r1), False))


def test_forward_windows_are_computed_once_per_walk(a1, monkeypatch):
    calls = []
    real = completed.r_window

    def counting(datum, w, lam, *args, **kwargs):
        calls.append((w, lam))
        return real(datum, w, lam, *args, **kwargs)

    monkeypatch.setattr(completed, "r_window", counting)
    a = _with_weyl_part(a1, 8)
    classes = param_ring_for(a1)
    b = TruncatedElement.from_bl(
        BLElement.unit(a1, classes) + BLElement.z_monomial(a1, classes, (1,))
    )
    target = Region.cone([(1,)], 4)
    mult_truncated(a, b, target)
    assert len(target.enumerate(a1)) > 1
    assert len(calls) == len(set(calls)) == len(a.certificate.w_part) * len(b.known.support_y())
    calls.clear()
    bimodule_act((1,), a, "right")
    assert len(calls) == len(set(calls)) == len(a.certificate.w_part)


def test_right_action_refusal_names_the_coefficient(a1):
    a = _with_weyl_part(a1, 2)
    with pytest.raises(InsufficientSource) as refused:
        bimodule_act((1,), a, "right", target=Region.cone([(1,)], 6))
    factor, lam, w = refused.value.needed
    assert factor == "left" and w in a.certificate.w_part
    assert not a.knows(lam, w) and lam not in a.region.enumerate(a1)
    # the certified points of the same action are accepted as a target
    exact = bimodule_act((1,), a, "right")
    again = bimodule_act((1,), a, "right", target=exact.region)
    assert again.coeffs == exact.coeffs


def test_right_action_leaving_the_tits_cone_is_marked(aff):
    """A finite truncation moved out of the Tits cone on the right is marked
    `in_bl_bar`, as on the left, so the completed product refuses it."""
    classes = param_ring_for(aff)
    unit = TruncatedElement.from_bl(BLElement.unit(aff, classes))
    moved = bimodule_act((0, 0, -1), unit, "right")
    assert moved.region is None and moved.in_bl_bar
    with pytest.raises(ValueError):
        mult_truncated(moved, unit, Region.explicit([(0, 0, -1)]))
    assert not bimodule_act((0, 0, 1), unit, "right").in_bl_bar
