"""center_test's structural verdict against the per-point reference.

`_reference_verdict` is the structural check as it read before orbits
with no stored coefficient were skipped: it enumerates every orbit that
meets the region and reads `knows` and the stored coefficient at each of
its points.  It is kept here as a reference only.  On every datum used
below each finite orbit has at most 8 points, far below the enumeration
cap, so the two must agree exactly: status, detail, and any refusal.
"""

import random
import sys
from collections import Counter

from kmhecke import completed, weyl
from kmhecke.coeff_ring import param_ring_for
from kmhecke.completed import (
    AFCertificate,
    CENTRAL,
    INCONCLUSIVE,
    CenterVerdict,
    EFunction,
    Region,
    TruncatedElement,
    _structural_verdict,
    e_function_expand,
)
from kmhecke.errors import KacMoodyError
from kmhecke.hecke_bl import BLElement
from kmhecke.root_system import build_realization, validate_gcm
from kmhecke.weyl import (
    IN_TITS_CONE,
    dominant_representative,
    element_from_word,
    identity,
    orbit_enumerate,
    orbit_is_finite,
)

CASES_PER_DATUM = 90


def _reference_verdict(a: TruncatedElement, support_y) -> CenterVerdict:
    datum = a.datum
    if any(w.word for w in a.known.support_w()):
        return CenterVerdict(
            INCONCLUSIVE,
            detail="nontrivial Weyl support in the region but no certified witness",
        )
    if a.region is None:
        points = sorted(support_y)
    else:
        points = a.region.enumerate(datum)
    e = identity(datum)
    seen_orbits = set()
    for lam in points:
        rep = dominant_representative(datum, lam)
        if rep.status != IN_TITS_CONE:
            continue
        if rep.dominant in seen_orbits:
            continue
        seen_orbits.add(rep.dominant)
        if not orbit_is_finite(datum, rep.dominant):
            if not a.coeff(lam, e).is_zero():
                return CenterVerdict(
                    INCONCLUSIVE,
                    detail=f"orbit of {rep.dominant} is infinite; invariance not checkable",
                )
            continue
        orbit = orbit_enumerate(datum, rep.dominant)
        if not orbit.complete:
            return CenterVerdict(INCONCLUSIVE, detail="orbit enumeration capped")
        values = []
        for mu in orbit:
            if not a.knows(mu, e):
                return CenterVerdict(
                    INCONCLUSIVE,
                    detail=f"orbit of {rep.dominant} leaves the region at {mu}",
                )
            values.append(a.known.coeff(mu, e))
        if any(v != values[0] for v in values):
            return CenterVerdict(
                INCONCLUSIVE,
                detail=f"coefficients on the orbit of {rep.dominant} differ "
                "but no probe witnessed it on a certified coordinate",
            )
    return CenterVerdict(CENTRAL)


def _outcome(verdict_fn, a):
    try:
        return verdict_fn(a, a.known.support_y())
    except KacMoodyError as exc:
        return (type(exc).__name__, str(exc))


def _data(request):
    b2 = build_realization(validate_gcm([[2, -2], [-1, 2]]))
    return {
        "a1": request.getfixturevalue("a1"),
        "a2": request.getfixturevalue("a2"),
        "b2": b2,
        "aff": request.getfixturevalue("aff"),
    }


def _box(datum, rng, bound=3):
    return tuple(rng.randint(-bound, bound) for _ in range(datum.rank_y))


def _dominant(datum, rng):
    while True:
        rep = dominant_representative(datum, _box(datum, rng, 2))
        if rep.status == IN_TITS_CONE:
            return rep.dominant


def _region(datum, rng):
    """A cone (Tits-restricted or not) or an explicit point set, or None."""
    pick = rng.random()
    if pick < 0.15:
        return None
    gens = [_dominant(datum, rng) for _ in range(rng.randint(1, 2))]
    cone = Region.cone(gens, rng.randint(0, 4), require_tits=rng.random() < 0.7)
    if pick < 0.8:
        return cone
    points = cone.enumerate(datum)
    return Region.explicit(rng.sample(points, max(1, len(points) // 2)))


def _certificate(datum, rng):
    gens = tuple(
        _dominant(datum, rng) if rng.random() < 0.7 else _box(datum, rng, 2)
        for _ in range(rng.randint(1, 2))
    )
    words = rng.choice([(), ((),), ((), (0,))])
    w_part = tuple(element_from_word(datum, w) for w in words)
    return AFCertificate(gens, w_part, dominant=rng.random() < 0.6)


def _known(datum, classes, rng, points, cert):
    """Orbit-invariant blocks, sometimes broken, plus stray coefficients.

    Stray points are drawn from the whole region, so some sit where the
    certificate says zero; a few carry a nontrivial Weyl part.
    """
    e = identity(datum)
    known = {}
    tits = [p for p in points if dominant_representative(datum, p).status == IN_TITS_CONE]
    for _ in range(rng.randint(0, 2)):
        if not tits:
            break
        top = dominant_representative(datum, rng.choice(tits)).dominant
        c = classes.const(rng.choice([-2, -1, 1, 3]))
        for p in tits:
            if dominant_representative(datum, p).dominant == top:
                known[(p, e)] = c
        if rng.random() < 0.2:
            p = rng.choice([p for p in tits if dominant_representative(datum, p).dominant == top])
            known[(p, e)] = c + classes.one()
    for _ in range(rng.choice([0, 0, 1, 2])):
        if points:
            known[(rng.choice(points), e)] = classes.const(rng.choice([-1, 2]))
    if points and rng.random() < 0.08:
        known[(rng.choice(points), element_from_word(datum, (0,)))] = classes.one()
    if not cert.w_part and rng.random() < 0.5:
        known = {}  # an empty w_part: nothing stored, nothing in the certificate
    return {k: v for k, v in known.items() if not v.is_zero()}


def _random_element(datum, rng):
    classes = param_ring_for(datum)
    cert = _certificate(datum, rng)
    region = _region(datum, rng)
    in_bl_bar = rng.random() < 0.2
    if region is None:
        box = [_box(datum, rng, 2) for _ in range(6)]
        points = [p for p in box if dominant_representative(datum, p).status == IN_TITS_CONE]
    else:
        points = region.enumerate(datum)
    known = _known(datum, classes, rng, points, cert)
    if region is None and rng.random() < 0.5 and known:
        return TruncatedElement.from_bl(BLElement(datum, classes, known))
    return TruncatedElement(datum, classes, region, known, cert, in_bl_bar=in_bl_bar)


def _orbit_sums(datum, rng):
    """E(lam) on cones, the shape `center_test` sees most, with its
    certificate kept, made non-dominant, or made too small."""
    classes = param_ring_for(datum)
    lam = _dominant(datum, rng)
    t = e_function_expand(
        EFunction.single(datum, classes, lam, classes.const(rng.choice([-1, 2]))),
        Region.cone([lam], rng.randint(0, 5)),
    )
    pick = rng.random()
    if pick < 0.4:
        return t
    cert = t.certificate
    if pick < 0.7:
        cert = AFCertificate(cert.generators, cert.w_part, dominant=False)
    else:
        cert = AFCertificate((datum.zero(),), cert.w_part, dominant=True)
    return TruncatedElement(datum, classes, t.region, t.known, cert)


def test_matches_reference_on_seeded_elements(request, monkeypatch):
    data = _data(request)
    statuses = Counter()
    enumerated = Counter()

    def counting(side):
        def walk(datum, lam, *args):
            enumerated[side] += 1
            return weyl.orbit_enumerate(datum, lam, *args)

        return walk

    monkeypatch.setattr(sys.modules[__name__], "orbit_enumerate", counting("reference"))
    monkeypatch.setattr(completed, "orbit_enumerate", counting("change"))
    for name, datum in data.items():
        rng = random.Random(f"orbit-verdict-{name}")
        for k in range(CASES_PER_DATUM):
            a = _orbit_sums(datum, rng) if k % 3 == 0 else _random_element(datum, rng)
            want = _outcome(_reference_verdict, a)
            got = _outcome(_structural_verdict, a)
            assert got == want, (name, k, a.region, a.certificate, a.known.terms)
            if isinstance(want, CenterVerdict):
                statuses[want.status] += 1
                if "leaves the region" in want.detail:
                    statuses["leaves"] += 1
                elif want.detail:
                    statuses[want.detail.split()[-1]] += 1
    # every branch of the reference is reached, so agreement is not vacuous
    assert statuses[CENTRAL] > 50 and statuses[INCONCLUSIVE] > 50
    for branch in ("witness", "checkable", "leaves", "coordinate"):
        assert statuses[branch], (branch, statuses)
    # and the skip is taken: the reference enumerates orbits that the change does not
    assert enumerated["change"] < enumerated["reference"], enumerated
