"""bl_assoc: (xy)z and x(yz) for small Bernstein-Lusztig triples, from cold caches.

The triples have the shape of acceptance criterion 1: at most 3 terms,
|lambda_i| <= 3, words of length <= 3, coefficients in {-2, -1, 1, 2, 3}.
Their skeletons (terms, words, relative coefficients, and so the pairings
of every lambda with the simple roots, which set the size of every
commutation window and which terms cancel) come from a fixed catalogue,
so every seed does the same work.  The seed picks only what leaves the
work unchanged: a scalar factor of each element.  (Moving a lambda, even
by the central direction, changes which basis products the triples share
through the caches, and so the work.)
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from common import build

CATALOGUE_SEED = 1706
# (datum, number of triples, largest |alpha_i(lambda)| allowed in a term)
CATALOGUE = (("aff", 72, 3), ("a2", 36, 9))
MAX_TERMS, LAM_BOUND, WORD_LEN = 3, 3, 3
COEFFS = (-2, -1, 1, 2, 3)
SCALARS = (-3, -2, -1, 1, 2, 3)


def _skeleton_element(datum, rng, coeff_rng, pair_cap):
    terms = []
    for _ in range(rng.randint(1, MAX_TERMS)):
        while True:
            lam = tuple(rng.randint(-LAM_BOUND, LAM_BOUND) for _ in range(datum.rank_y))
            if max(abs(datum.pairing(i, lam)) for i in range(datum.n)) <= pair_cap:
                break
        word = tuple(rng.randrange(datum.n) for _ in range(rng.randint(0, WORD_LEN)))
        terms.append((lam, word, coeff_rng.choice(COEFFS)))
    return terms


def catalogue(km):
    """The fixed skeletons: a list of (datum name, datum, (x, y, z))."""
    rng, coeff_rng = random.Random(CATALOGUE_SEED), random.Random(CATALOGUE_SEED + 1)
    out = []
    for name, count, pair_cap in CATALOGUE:
        datum = build(km, name)
        for _ in range(count):
            triple = tuple(_skeleton_element(datum, rng, coeff_rng, pair_cap) for _ in range(3))
            out.append((name, datum, triple))
    return out


def _dress(km, datum, skeleton, scalar):
    """The element of a skeleton, every coefficient times `scalar`."""
    classes = km.coeff_ring.param_ring_for(datum)
    out = km.hecke_bl.BLElement.zero(datum, classes)
    for lam, word, coeff in skeleton:
        w = km.weyl.element_from_word(datum, word)
        out = out + km.hecke_bl.BLElement.basis(datum, classes, lam, w, classes.const(scalar * coeff))
    return out


def setup(km, seed, small=False):
    rng = random.Random(seed)
    triples = []
    for _, datum, skeleton in catalogue(km):
        triples.append(tuple(_dress(km, datum, s, rng.choice(SCALARS)) for s in skeleton))
    if small:
        triples = triples[:3] + triples[-3:]
    hb = km.hecke_bl  # looked up per call, so a traced run sees its wrappers

    def op(x, y, z):
        return lambda: (hb.mult_bl(hb.mult_bl(x, y), z), hb.mult_bl(x, hb.mult_bl(y, z)))

    data = {name: build(km, name) for name in ("aff", "a2")}
    return SimpleNamespace(ops=[op(*t) for t in triples], data=data)


def evidence(km, inp):
    """The defining relations, recomputed outside the timed ops."""
    BL = km.hecke_bl.BLElement
    mult = km.hecke_bl.mult_bl
    out = {"quadratic": [], "braid": None}
    for name, datum in inp.data.items():
        classes = km.coeff_ring.param_ring_for(datum)
        for i in range(datum.n):
            h = BL.h_word(datum, classes, [i])
            rhs = h.scale(classes.sigma_minus_inverse(i)) + BL.unit(datum, classes)
            out["quadratic"].append((f"{name} H_{i}^2", mult(h, h), rhs))
    a2 = inp.data["a2"]
    classes = km.coeff_ring.param_ring_for(a2)
    h0, h1 = BL.h_word(a2, classes, [0]), BL.h_word(a2, classes, [1])
    out["braid"] = (mult(mult(h0, h1), h0), mult(mult(h1, h0), h1))
    return out


def check_associativity(km, inp, outs, ev):
    return [f"op {k}: (xy)z != x(yz)" for k, o in enumerate(outs) if o is not None and o[0] != o[1]]


def check_quadratic(km, inp, outs, ev):
    return [f"{label} != (s - 1/s) H + 1" for label, lhs, rhs in ev["quadratic"] if lhs != rhs]


def check_braid(km, inp, outs, ev):
    lhs, rhs = ev["braid"]
    return [] if lhs == rhs else ["A2 braid relation H_1 H_2 H_1 = H_2 H_1 H_2 fails"]


CHECKS = {
    "associativity": check_associativity,
    "quadratic": check_quadratic,
    "braid": check_braid,
}


def _bump(km, el):
    return el + km.hecke_bl.BLElement.unit(el.datum, el.classes)


def _corrupt_assoc(km, inp, outs, ev):
    left, right = outs[0]
    outs[0] = (_bump(km, left), right)


def _corrupt_quadratic(km, inp, outs, ev):
    label, lhs, rhs = ev["quadratic"][0]
    ev["quadratic"][0] = (label, _bump(km, lhs), rhs)


def _corrupt_braid(km, inp, outs, ev):
    lhs, rhs = ev["braid"]
    ev["braid"] = (lhs, _bump(km, rhs))


CORRUPTIONS = {
    "associativity": _corrupt_assoc,
    "quadratic": _corrupt_quadratic,
    "braid": _corrupt_braid,
}
