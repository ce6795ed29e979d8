"""completion: certified commutators H_w E(lam) = E(lam) H_w, and center tests.

On affine A1 each op computes H_w E(lam) and E(lam) H_w on the cone target
of lam at one height, each side through `compute_source_region`,
`e_function_expand` and `mult_truncated`.  Further ops run `center_test`
on A2 orbit sums and on Z^d (d = (0, 0, 1)).  The op list is fixed, so
every seed does the same work; the seed picks the scalar coefficients of
E(lam), of the A2 orbit sums and of Z^d.  (The diagram automorphism is
no free choice here: the engine always reflects at the smallest index
first, so mirrored inputs cost different amounts.)
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from common import build

AFF_LAMBDAS = ((0, 0, 1), (1, 1, 1))
# word of w -> target heights; H_{01} at height 3 takes ~1 s, at height 4 ~4 s
HEIGHTS = {(): (1, 2, 3, 4), (0,): (1, 2, 3, 4), (1,): (1, 2, 3, 4), (0, 1): (1, 2)}
A2_LAMBDAS = ((1, 1), (2, 1), (1, 2))
A2_HEIGHTS = (6, 10, 14, 18)
D = (0, 0, 1)
SCALARS = (-3, -2, -1, 1, 2, 3)
TELESCOPE_HEIGHTS = (0, 3, 6)


def setup(km, seed, small=False):
    rng = random.Random(seed)
    c = km.completed
    aff, a2 = build(km, "aff"), build(km, "a2")
    caff, ca2 = km.coeff_ring.param_ring_for(aff), km.coeff_ring.param_ring_for(a2)

    def commutator(h, f, cert_e, target):
        def op():
            hw = c.TruncatedElement.from_bl(h)
            _, src_e = c.compute_source_region(aff, target, hw.certificate, cert_e)
            left = c.mult_truncated(hw, c.e_function_expand(f, src_e), target)
            src_e2, _ = c.compute_source_region(aff, target, cert_e, hw.certificate)
            right = c.mult_truncated(c.e_function_expand(f, src_e2), hw, target)
            return {"left": left.coeffs, "right": right.coeffs,
                    "source": (src_e.height, src_e2.height)}
        return op

    def center(element_fn):
        return lambda: c.center_test(element_fn()).status

    ops, kinds = [], []
    for lam in AFF_LAMBDAS:
        f = c.EFunction.single(aff, caff, lam, caff.const(rng.choice(SCALARS)))
        cert_e = c.e_function_expand(f, c.Region.cone([lam], 0)).certificate
        for word, heights in HEIGHTS.items():
            h = km.hecke_bl.BLElement.h_word(aff, caff, word)
            for height in heights:
                ops.append(commutator(h, f, cert_e, c.Region.cone([lam], height)))
                kinds.append(("commutator", lam, word, height))
    for lam in A2_LAMBDAS:
        for height in A2_HEIGHTS:
            f = c.EFunction.single(a2, ca2, lam, ca2.const(rng.choice(SCALARS)))
            region = c.Region.cone([lam], height)
            ops.append(center(lambda f=f, region=region: c.e_function_expand(f, region)))
            kinds.append(("orbit_sum", lam, None, height))
    zd = km.hecke_bl.BLElement.z_monomial(aff, caff, D).scale(caff.const(rng.choice(SCALARS)))
    ops.append(center(lambda: c.TruncatedElement.from_bl(zd)))
    kinds.append(("z_d", D, None, 0))
    if small:
        keep = [
            k for k, (what, lam, word, height) in enumerate(kinds)
            if what == "commutator" and lam == AFF_LAMBDAS[0] and len(word) < 2 and height <= 2
        ]
        keep += [[what for what, *_ in kinds].index("orbit_sum"), len(kinds) - 1]
        ops, kinds = [ops[k] for k in keep], [kinds[k] for k in keep]
    return SimpleNamespace(ops=ops, kinds=kinds)


def evidence(km, inp):
    """(sum_{h <= N} Z^{-h alpha}) (1 - Z^{-alpha}) on A1, at a few heights N."""
    c = km.completed
    a1 = build(km, "a1")
    classes = km.coeff_ring.param_ring_for(a1)
    e = km.weyl.identity(a1)
    weak = c.AFCertificate(((0,),), (e,), dominant=False)
    BL = km.hecke_bl.BLElement
    tb = c.TruncatedElement.from_bl(BL.unit(a1, classes) - BL.z_monomial(a1, classes, (-1,)))
    out = []
    for height in TELESCOPE_HEIGHTS:
        target = c.Region.cone([(0,)], height)
        src, _ = c.compute_source_region(a1, target, weak, tb.certificate)
        series = c.TruncatedElement(
            a1, classes, c.Region.cone([(0,)], src.height),
            {((-h,), e): classes.one() for h in range(src.height + 1)}, weak,
        )
        got = c.mult_truncated(series, tb, target).coeffs
        out.append((height, got, {((0,), e): classes.one()}))
    return {"telescope": out}


def check_commute(km, inp, outs, ev):
    return [
        f"op {k} {kind}: H_w E != E H_w"
        for k, (kind, o) in enumerate(zip(inp.kinds, outs))
        if kind[0] == "commutator" and o is not None and o["left"] != o["right"]
    ]


def check_center(km, inp, outs, ev):
    want = {"orbit_sum": "Central", "z_d": "NotCentral"}
    return [
        f"op {k} {kind}: center_test says {o}, expected {want[kind[0]]}"
        for k, (kind, o) in enumerate(zip(inp.kinds, outs))
        if kind[0] in want and o is not None and o != want[kind[0]]
    ]


def check_monotone(km, inp, outs, ev):
    runs = {}
    for kind, o in zip(inp.kinds, outs):
        if kind[0] == "commutator" and o is not None:
            runs.setdefault(kind[1:3], []).append((kind[3], o["source"]))
    bad = []
    for key, seq in runs.items():
        seq.sort()
        for (h0, s0), (h1, s1) in zip(seq, seq[1:]):
            if any(b < a for a, b in zip(s0, s1)):
                bad.append(f"{key}: source region shrinks from height {h0} to {h1}")
    return bad


def check_telescope(km, inp, outs, ev):
    return [f"telescoping fails at height {h}" for h, got, want in ev["telescope"] if got != want]


CHECKS = {
    "commute": check_commute,
    "center": check_center,
    "monotone": check_monotone,
    "telescope": check_telescope,
}


def _first(inp, outs, kind):
    return next(k for k, kd in enumerate(inp.kinds) if kd[0] == kind and outs[k] is not None)


def _corrupt_commute(km, inp, outs, ev):
    k = _first(inp, outs, "commutator")
    right = dict(outs[k]["right"])
    key = next(iter(right))
    right[key] = right[key] + right[key]
    outs[k] = dict(outs[k], right=right)


def _corrupt_center(km, inp, outs, ev):
    outs[_first(inp, outs, "z_d")] = "Central"


def _corrupt_monotone(km, inp, outs, ev):
    ks = [k for k, kd in enumerate(inp.kinds) if kd[0] == "commutator"]
    k = next(k for k in ks if any(
        inp.kinds[j][1:3] == inp.kinds[k][1:3] and inp.kinds[j][3] < inp.kinds[k][3] for j in ks
    ))
    outs[k] = dict(outs[k], source=(-1, -1))


def _corrupt_telescope(km, inp, outs, ev):
    h, got, want = ev["telescope"][-1]
    ev["telescope"][-1] = (h, {}, want)


CORRUPTIONS = {
    "commute": _corrupt_commute,
    "center": _corrupt_center,
    "monotone": _corrupt_monotone,
    "telescope": _corrupt_telescope,
}
