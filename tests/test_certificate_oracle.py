"""An oracle for the support certificates the completion derives.

A certificate claims that every Y-support point of its element lies below
one of its generators in dominance order (every dominant representative
too, when `dominant` is set) and that every Weyl part lies in `w_part`.
These tests build finite factors whose certificates are true, either plain
(the support points themselves) or dominant (`TruncatedElement.from_bl`),
and check each certificate that `mult_truncated` and both sides of
`bimodule_act` derive from them against the exact product `mult_bl`.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kmhecke.coeff_ring import LaurentPoly, param_ring_for
from kmhecke.completed import (
    AFCertificate,
    Region,
    TruncatedElement,
    bimodule_act,
    mult_truncated,
    truncated_from_json,
)
from kmhecke.hecke_bl import BLElement, mult_bl
from kmhecke.root_system import height_between
from kmhecke.weyl import IN_TITS_CONE, dominant_representative, element_from_word, tits_cone_status

GOLDEN = Path(__file__).parent / "golden"
NAMES = ("a1", "a2", "aff")
WORDS = ((), (0,), (1,), (0, 1), (1, 0), (0, 1, 0))


def _strategies(datum):
    """Finite factors supported in the Tits cone with true certificates, and points."""
    classes = param_ring_for(datum)
    n = classes.nclasses
    words = [w for w in WORDS if all(i < datum.n for i in w)]
    point = st.tuples(*(st.integers(-2, 2) for _ in range(datum.rank_y)))
    poly = st.dictionaries(
        st.tuples(*(st.integers(-1, 1) for _ in range(n))), st.integers(-2, 2), min_size=1, max_size=2
    )
    terms = st.dictionaries(st.tuples(point, st.sampled_from(words)), poly, max_size=3)

    def build(d, dominant):
        x = BLElement(
            datum,
            classes,
            {
                (lam, element_from_word(datum, w)): LaurentPoly(n, c)
                for (lam, w), c in d.items()
                if tits_cone_status(datum, lam) == IN_TITS_CONE
            },
        )
        if dominant:
            return TruncatedElement.from_bl(x)
        gens = tuple(sorted(x.support_y())) or (datum.zero(),)
        return TruncatedElement(datum, classes, None, x, AFCertificate(gens, (), False))

    return st.builds(build, terms, st.booleans()), point


def _assert_bounds(cert: AFCertificate, exact: BLElement):
    datum = exact.datum

    def below(lam):
        return any(height_between(datum, lam, g) is not None for g in cert.generators)

    for lam in exact.support_y():
        assert below(lam), f"{lam} lies below no generator of {cert}"
        if cert.dominant:
            rep = dominant_representative(datum, lam)
            if rep.status == IN_TITS_CONE:
                assert below(rep.dominant), f"{rep.dominant}, the top of {lam}, escapes {cert}"
    assert exact.support_w() <= set(cert.w_part), f"a Weyl part escapes {cert}"


@pytest.mark.parametrize("name", NAMES)
def test_product_certificates_bound_the_exact_product(request, name):
    datum = request.getfixturevalue(name)
    factors, _ = _strategies(datum)

    @given(factors, factors)
    @settings(max_examples=100, deadline=None)
    def check(a, b):
        exact = mult_bl(a.known, b.known)
        got = mult_truncated(a, b, Region.explicit(exact.support_y()))
        assert got.known == exact
        _assert_bounds(got.certificate, exact)

    check()


@pytest.mark.parametrize("name", NAMES)
def test_action_certificates_bound_the_exact_product(request, name):
    """mu ranges over dominant and non-dominant points, and on aff over
    points outside the Tits cone."""
    datum = request.getfixturevalue(name)
    classes = param_ring_for(datum)
    factors, point = _strategies(datum)

    @given(factors, point, st.sampled_from(("left", "right")))
    @settings(max_examples=100, deadline=None)
    def check(a, mu, side):
        z = BLElement.z_monomial(datum, classes, mu)
        exact = mult_bl(z, a.known) if side == "left" else mult_bl(a.known, z)
        got = bimodule_act(mu, a, side)
        assert got.known == exact
        _assert_bounds(got.certificate, exact)

    check()


def test_golden_product_with_a_plain_right_certificate(a1):
    """The factors of the golden case `complete_mul_h_weak_z`: H_1 times Z^(-1),
    whose certificate is true but not dominant."""
    classes = param_ring_for(a1)
    a, b = (
        truncated_from_json(a1, classes, json.loads((GOLDEN / name).read_text(encoding="utf-8")))
        for name in ("a1_h1.json", "a1_z_weak.json")
    )
    exact = mult_bl(a.known, b.known)
    _assert_bounds(mult_truncated(a, b, Region.cone([(0,)], 1)).certificate, exact)
