"""The Bernstein-Lusztig presentation of the Iwahori-Hecke algebra.

Elements are finite sums  sum  c_{lam,w} Z^lam H_w  with Laurent-polynomial
coefficients.  The product is driven by four relations: Z-monomials
multiply additively, H_i against H_w follows the quadratic/braid rule, and
commuting H_i past Z^nu expands over a lattice window between nu and its
reflection.  The negative-pairing window is derived from the defining
commutation relation by expanding the geometric sum exactly (which fixes
the sign of the window terms; associativity tests arbitrate).
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from . import linalg
from .coeff_ring import LaurentPoly, ParamClasses
from .errors import BudgetExceeded
from .root_system import Point, RootDatum
from .weyl import (
    WeylElement,
    identity,
    in_y_plus,
    left_descents,
    multiply,
    simple_reflection,
)

Key = tuple[Point, WeylElement]
Terms = dict[Key, LaurentPoly]


class BLElement:
    """A finite linear combination of basis symbols Z^lam H_w."""

    __slots__ = ("datum", "classes", "terms", "_raw")

    def __init__(self, datum: RootDatum, classes: ParamClasses, terms: Terms | None = None):
        self.datum = datum
        self.classes = classes
        self.terms = {k: p for k, p in (terms or {}).items() if not p.is_zero()}
        self._raw = None  # packed engine form, filled lazily

    # --- constructors ---

    @classmethod
    def zero(cls, datum, classes) -> "BLElement":
        return cls(datum, classes)

    @classmethod
    def unit(cls, datum, classes) -> "BLElement":
        return cls.basis(datum, classes, datum.zero(), identity(datum))

    @classmethod
    def basis(cls, datum, classes, lam, w: WeylElement, coeff: LaurentPoly | None = None):
        c = coeff if coeff is not None else classes.one()
        return cls(datum, classes, {(tuple(lam), w): c})

    @classmethod
    def z_monomial(cls, datum, classes, lam) -> "BLElement":
        return cls.basis(datum, classes, lam, identity(datum))

    @classmethod
    def h_word(cls, datum, classes, word) -> "BLElement":
        from .weyl import element_from_word

        return cls.basis(datum, classes, datum.zero(), element_from_word(datum, word))

    # --- structure ---

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set[Key]:
        return set(self.terms)

    def support_y(self) -> set[Point]:
        return {lam for lam, _ in self.terms}

    def support_w(self) -> set[WeylElement]:
        return {w for _, w in self.terms}

    def coeff(self, lam, w: WeylElement) -> LaurentPoly:
        return self.terms.get((tuple(lam), w), self.classes.zero())

    def __eq__(self, other):
        return (
            isinstance(other, BLElement)
            and self.datum == other.datum
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset((k[0], k[1], p) for k, p in self.terms.items()))

    # --- linear operations ---

    def _compat(self, other: "BLElement"):
        if self.datum != other.datum or self.classes != other.classes:
            raise ValueError("elements live over different data")

    def __add__(self, other: "BLElement") -> "BLElement":
        self._compat(other)
        out = dict(self.terms)
        for k, p in other.terms.items():
            out[k] = out.get(k, self.classes.zero()) + p
        return BLElement(self.datum, self.classes, out)

    def __neg__(self) -> "BLElement":
        return BLElement(self.datum, self.classes, {k: -p for k, p in self.terms.items()})

    def __sub__(self, other: "BLElement") -> "BLElement":
        return self + (-other)

    def scale(self, poly: LaurentPoly) -> "BLElement":
        return BLElement(self.datum, self.classes, {k: p * poly for k, p in self.terms.items()})

    def __mul__(self, other: "BLElement") -> "BLElement":
        return mult_bl(self, other)

    def __repr__(self):
        return f"BL({self.render()})"

    # --- rendering / serialization ---

    def render(self) -> str:
        if not self.terms:
            return "0"
        names = self.classes.names()
        parts = []
        for (lam, w), poly in sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].word)):
            sym = []
            if any(lam):
                sym.append("Z^(" + ",".join(str(x) for x in lam) + ")")
            if w.word:
                sym.append("H_" + "".join(str(i + 1) for i in w.word))
            symbol = "·".join(sym)
            coeff = poly.render(names)
            if not symbol:
                parts.append(coeff)
            elif poly.is_one():
                parts.append(symbol)
            elif len(poly.coeffs) == 1 and "-" not in coeff and "+" not in coeff:
                parts.append(f"{coeff}·{symbol}")
            else:
                parts.append(f"({coeff})·{symbol}")
        return " + ".join(parts)

    def to_json(self):
        return [
            {"lambda": list(lam), "word": list(w.word), "coeff": poly.to_json()}
            for (lam, w), poly in sorted(
                self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].word)
            )
        ]

    @classmethod
    def from_json(cls, datum, classes, data) -> "BLElement":
        from .weyl import element_from_word

        terms: Terms = {}
        for entry in data:
            lam = tuple(int(x) for x in entry["lambda"])
            w = element_from_word(datum, entry["word"])
            poly = LaurentPoly.from_json(classes.nclasses, entry["coeff"])
            key = (lam, w)
            terms[key] = terms.get(key, classes.zero()) + poly
        return cls(datum, classes, terms)


# --- packed polynomial kernel --------------------------------------------
#
# The product engine spends nearly all its time combining coefficient
# polynomials.  Internally a monomial's exponent vector is packed into a
# single integer in balanced base 2^24 digits, so multiplying monomials is
# integer addition and coefficients are plain {int: int} dictionaries
# accumulated in place.  LaurentPoly objects appear only at the API
# boundary; exponents stay far below the 2^23 digit bound at any scale
# this package reaches.  Cached tables are never mutated.

_BITS = 24
_BASE = 1 << _BITS
_HALF = _BASE >> 1


def _pack_exps(e) -> int:
    r = 0
    for x in reversed(e):
        r = r * _BASE + x
    return r


def _unpack_exps(r: int, n: int):
    out = []
    for _ in range(n):
        d = ((r + _HALF) % _BASE) - _HALF
        out.append(d)
        r = (r - d) // _BASE
    return tuple(out)


def _pack_poly(coeffs: dict) -> dict:
    return {_pack_exps(e): c for e, c in coeffs.items()}


def _unpack_poly(p: dict, n: int) -> dict:
    return {_unpack_exps(k, n): c for k, c in p.items()}


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    get = out.get
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            v = get(e)
            out[e] = c1 * c2 if v is None else v + c1 * c2
    return out


def _pacc(dst: dict, key, p: dict):
    tgt = dst.get(key)
    if tgt is None:
        dst[key] = dict(p)
        return
    get = tgt.get
    for e, c in p.items():
        tgt[e] = get(e, 0) + c


def _pacc_mul(dst: dict, key, p: dict, q: dict):
    """dst[key] += p * q without allocating the intermediate product."""
    tgt = dst.get(key)
    if tgt is None:
        tgt = dst[key] = defaultdict(int)
    if len(q) == 1:
        ((e2, c2),) = q.items()
        if c2 == 1:
            for e1, c1 in p.items():
                tgt[e1 + e2] += c1
        else:
            for e1, c1 in p.items():
                tgt[e1 + e2] += c1 * c2
        return
    if len(p) == 1:
        _pacc_mul(dst, key, q, p)
        return
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            tgt[e1 + e2] += c1 * c2


def _wrap_terms(datum, classes, raw: dict) -> BLElement:
    """Decode int-keyed engine output into proper basis keys and polynomials."""
    n = classes.nclasses
    rank = datum.rank_y
    elems = _interner(datum).elems
    terms = {}
    clean: dict = {}
    for k, d in raw.items():
        d2 = {e: c for e, c in d.items() if c}
        if not d2:
            continue
        wid = k % _WCAP
        point = _unpack_exps((k - wid) // _WCAP, rank)
        terms[(point, elems[wid])] = LaurentPoly(n, _unpack_poly(d2, n))
        clean[k] = d2
    el = BLElement(datum, classes, terms)
    el._raw = clean
    return el


def _packed_of(el: BLElement) -> dict:
    """The int-keyed packed form of an element, cached on the instance."""
    raw = el._raw
    if raw is None:
        raw = {}
        for (lam, w), poly in el.terms.items():
            key = _pack_exps(lam) * _WCAP + _intern(el.datum, w)
            raw[key] = _pack_poly(poly.coeffs)
        el._raw = raw
    return raw


# Weyl elements are interned per datum so that engine states are keyed by
# single integers: key = packed_point * _WCAP + element_id.

_WCAP = 1 << 20


class _Interner:
    __slots__ = ("ids", "elems")

    def __init__(self):
        self.ids: dict[WeylElement, int] = {}
        self.elems: list[WeylElement] = []


_INTERNERS: dict[RootDatum, _Interner] = {}


def _interner(datum: RootDatum) -> _Interner:
    reg = _INTERNERS.get(datum)
    if reg is None:
        reg = _INTERNERS[datum] = _Interner()
    return reg


def _intern(datum: RootDatum, w: WeylElement) -> int:
    reg = _interner(datum)
    wid = reg.ids.get(w)
    if wid is None:
        wid = len(reg.elems)
        if wid >= _WCAP:
            raise BudgetExceeded(_WCAP, "interned Weyl elements")
        reg.ids[w] = wid
        reg.elems.append(w)
    return wid


@lru_cache(maxsize=None)
def _commute_packed(datum: RootDatum, classes: ParamClasses, i: int, pnu: int):
    """H_i * Z^nu as (packed reflected point, packed window terms).

    With m = alpha_i(nu): H_i Z^nu = Z^{r_i nu} H_i + window.  For m > 0
    the window sits at nu - h alpha_i^v (0 <= h < m); for m < 0 at
    nu + h alpha_i^v (1 <= h <= -m) with a global minus sign (the exact
    geometric expansion of the defining relation).  When sigma_i and
    sigma_i' differ the two coefficients alternate (the pairing is even).
    """
    nu = _unpack_exps(pnu, datum.rank_y)
    m = datum.pairing(i, nu)
    pco = _pack_exps(datum.coroots[i])
    window = []
    if m != 0:
        c_plain = _pack_poly(classes.sigma_minus_inverse(i, primed=False).coeffs)
        if classes.same_class(i):
            c_even = c_odd = c_plain
        else:
            c_even = c_plain
            c_odd = _pack_poly(classes.sigma_minus_inverse(i, primed=True).coeffs)
        if m > 0:
            for h in range(m):
                window.append((pnu - h * pco, c_even if h % 2 == 0 else c_odd))
        else:
            for h in range(1, -m + 1):
                neg = {e: -c for e, c in (c_even if h % 2 == 0 else c_odd).items()}
                window.append((pnu + h * pco, neg))
    return pnu - m * pco, tuple(window)


def commute_Hi_past_Z(
    datum: RootDatum, classes: ParamClasses, i: int, nu: Point
) -> BLElement:
    """H_i * Z^nu rewritten in the Z H basis (see `_commute_packed`)."""
    rid = _intern(datum, simple_reflection(datum, i))  # validates i before caching
    prnu, window = _commute_packed(datum, classes, i, _pack_exps(tuple(nu)))
    eid = _intern(datum, identity(datum))
    raw: dict = {prnu * _WCAP + rid: _pack_poly(classes.one().coeffs)}
    for ppt, coeff in window:
        _pacc(raw, ppt * _WCAP + eid, coeff)
    return _wrap_terms(datum, classes, raw)


@lru_cache(maxsize=None)
def _h_times_basis_packed(datum: RootDatum, classes: ParamClasses, i: int, wid: int):
    """H_i * H_w by the quadratic relation; ids and packed coefficients."""
    w = _interner(datum).elems[wid]
    riw = multiply(simple_reflection(datum, i), w)
    one = _pack_poly(classes.one().coeffs)
    if riw.length == w.length + 1:
        return ((_intern(datum, riw), one),)
    return (
        (wid, _pack_poly(classes.sigma_minus_inverse(i).coeffs)),
        (_intern(datum, riw), one),
    )


@lru_cache(maxsize=None)
def _h_times_h_packed(datum: RootDatum, classes: ParamClasses, tid: int, vid: int):
    """H_t * H_v, peeling letters of t from the inside out."""
    t = _interner(datum).elems[tid]
    out: dict[int, dict] = {vid: _pack_poly(classes.one().coeffs)}
    for i in reversed(t.word):
        nxt: dict[int, dict] = {}
        for wid, c in out.items():
            for wid2, c2 in _h_times_basis_packed(datum, classes, i, wid):
                tgt = nxt.get(wid2)
                prod = _pmul(c, c2)
                if tgt is None:
                    nxt[wid2] = prod
                else:
                    for e, cc in prod.items():
                        tgt[e] = tgt.get(e, 0) + cc
        out = {}
        for wid2, d in nxt.items():
            d = {e: c for e, c in d.items() if c}
            if d:
                out[wid2] = d
    return tuple(out.items())


@lru_cache(maxsize=None)
def _basis_product_packed(
    datum: RootDatum, classes: ParamClasses, uid: int, pmu: int, vid: int
):
    """H_u * Z^mu H_v, peeling one letter of u at a time.

    States are keyed packed_point * _WCAP + element_id; the whole walk is
    integer arithmetic.  Window terms carry the identity Weyl part, so
    only the reflected term needs a quadratic-relation fold.
    """
    reg = _interner(datum)
    u = reg.elems[uid]
    eid = _intern(datum, identity(datum))
    state: dict = {pmu * _WCAP + eid: _pack_poly(classes.one().coeffs)}
    for i in reversed(u.word):
        nxt: dict = {}
        for key, c in state.items():
            tid = key % _WCAP
            pnu = (key - tid) // _WCAP
            prnu, window = _commute_packed(datum, classes, i, pnu)
            base = prnu * _WCAP
            for tid3, c3 in _h_times_basis_packed(datum, classes, i, tid):
                _pacc_mul(nxt, base + tid3, c, c3)
            for ppt, coeff in window:
                _pacc_mul(nxt, ppt * _WCAP + tid, c, coeff)
        state = {k: d for k, d in nxt.items() if any(d.values())}
    if vid != eid:
        shifted: dict = {}
        for key, c in state.items():
            tid = key % _WCAP
            base = key - tid
            for tid2, c2 in _h_times_h_packed(datum, classes, tid, vid):
                _pacc_mul(shifted, base + tid2, c, c2)
        state = {k: d for k, d in shifted.items() if any(d.values())}
    return state


def mult_bl(a: BLElement, b: BLElement) -> BLElement:
    """Bilinear extension of the basis products."""
    a._compat(b)
    datum, classes = a.datum, a.classes
    out: dict = {}
    for key_a, pa in _packed_of(a).items():
        uid = key_a % _WCAP
        shift = key_a - uid
        for key_b, pb in _packed_of(b).items():
            vid = key_b % _WCAP
            base = _basis_product_packed(
                datum, classes, uid, (key_b - vid) // _WCAP, vid
            )
            c = _pmul(pa, pb)
            for key, cz in base.items():
                _pacc_mul(out, key + shift, c, cz)
    return _wrap_terms(datum, classes, out)


def r_window(datum: RootDatum, w: WeylElement, lam, cap: int = 10_000) -> frozenset[Point]:
    """The finite set R_w(lam), over the shared-prefix DAG of reduced words."""
    memo: dict[WeylElement, frozenset[Point]] = {}

    def segment(i: int, x: Point) -> list[Point]:
        m = datum.pairing(i, x)
        co = datum.coroots[i]
        step = 1 if m >= 0 else -1
        return [linalg.vec_sub(x, linalg.vec_scale(h, co)) for h in range(0, m + step, step)]

    def rec(v: WeylElement) -> frozenset[Point]:
        if v in memo:
            return memo[v]
        if len(memo) >= cap:
            raise BudgetExceeded(cap, "window recursion")
        if not v.word:
            res = frozenset({tuple(lam)})
        else:
            pts: set[Point] = set()
            for i in left_descents(v):
                inner = rec(multiply(simple_reflection(datum, i), v))
                for x in inner:
                    pts.update(segment(i, x))
            res = frozenset(pts)
        memo[v] = res
        return res

    return rec(w)


def is_in_H(element: BLElement, budget: int = 1000) -> bool:
    """Whether every Y-support point lies in the Tits cone (so the element is in H)."""
    for lam in element.support_y():
        if not in_y_plus(element.datum, lam, budget):
            return False
    return True
