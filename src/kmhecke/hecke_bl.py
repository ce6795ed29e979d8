"""The Bernstein-Lusztig presentation of the Iwahori-Hecke algebra.

Elements are finite sums  sum  c_{lam,w} Z^lam H_w  with Laurent-polynomial
coefficients.  The product is driven by four relations: Z-monomials
multiply additively, H_i against H_w follows the quadratic/braid rule, and
commuting H_i past Z^nu expands over a lattice window between nu and its
reflection.  The negative-pairing window is derived from the defining
commutation relation by expanding the geometric sum exactly, which fixes
the sign of its terms.

A product of basis symbols is Z^lam H_u * Z^mu H_v = Z^lam (H_u Z^mu) H_v.
The relations see mu only through its pairings alpha_j(mu): when every
alpha_j(delta) is 0, Z^delta is central and H_u Z^(mu + delta) is
Z^delta H_u Z^mu.  So `_basis_product_packed` memoizes H_u Z^mu once per
u and pairing vector, one letter of u per entry, with its points stored
as offsets from mu, and `mult_bl` adds lam + mu to them.  Each entry also
keeps the box of every offset its chain reached, and `mult_bl` refuses a
mu that the box carries out of the packed range.  An entry's many terms
share few distinct coefficients, so each entry also keeps them grouped by
coefficient, and `mult_bl` multiplies its factor by each shared
coefficient once and adds that product at every key of the group.  The
window of H_i Z^nu, whose coefficients alternate between two maps, is
grouped the same way for the memo's own fills.  `mult_bl` folds in H_v
once for each Weyl part v of its right factor, reading the memo of
H_t H_v once per Weyl part t of the terms it folds; its coefficient-1
term moves their coefficients unmultiplied.  A memo fill reads H_i H_t
once per t too.  `tests/test_bl_oracle.py` checks `mult_bl` against an
independent model: on A1 with Y the coroot lattice, the
Iwahori-Matsumoto Hecke algebra of the affine Weyl group of type A1,
computed from alternating words and the quadratic relation alone.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from . import linalg
from .coeff_ring import SUM_HALF, LaurentPoly, ParamClasses, add, mul, pack, unpack
from .coeff_ring import require_factors, require_summable
from .errors import BudgetExceeded, CoordinateOutOfRange, PointLengthMismatch, json_ints, json_value
from .root_system import Point, RootDatum
from .weyl import (
    ID_CAP,
    WeylElement,
    element_from_word,
    identity,
    in_y_plus,
    left_descents,
    left_mul,
    simple_reflection,
)
from .weyl import STORES as _INTERNERS  # the traced benchmark reads this name

Key = tuple[Point, WeylElement]
Terms = dict[Key, LaurentPoly]


def _pack_point(rank: int, lam) -> int:
    if len(lam) != rank:
        raise PointLengthMismatch(lam, rank)
    return pack(lam)


def _key(datum: RootDatum, lam, w: WeylElement) -> int:
    """The packed key of Z^lam H_w in an element over `datum`."""
    if w.datum is not datum and w.datum != datum:  # ids number one datum's store
        raise ValueError("element belongs to a different root datum")
    return _pack_point(datum.rank_y, lam) * ID_CAP + w.id


class BLElement:
    """A finite linear combination of basis symbols Z^lam H_w.

    Stored as one map `packed`: pack(lam) * ID_CAP + the store id of w to
    the packed map of its nonzero coefficient.  `terms` decodes it on read;
    `coeff`, `support_y`, `support_w` and `restrict_y` read the keys.
    """

    __slots__ = ("datum", "classes", "packed")

    def __init__(self, datum: RootDatum, classes: ParamClasses, terms: Terms | None = None):
        packed = {}
        for (lam, w), poly in (terms or {}).items():
            key = _key(datum, lam, w)
            if poly.packed:
                packed[key] = poly.packed
        self.datum, self.classes, self.packed = datum, classes, packed

    # --- constructors ---

    @classmethod
    def from_packed(cls, datum, classes, packed: dict) -> "BLElement":
        """Wrap a packed store of nonzero maps that no one mutates afterwards."""
        el = cls.__new__(cls)
        el.datum, el.classes, el.packed = datum, classes, packed
        return el

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
        return cls.basis(datum, classes, datum.zero(), element_from_word(datum, word))

    # --- structure ---

    @property
    def terms(self) -> Terms:
        rank, n = self.datum.rank_y, self.classes.nclasses
        elems = _INTERNERS[self.datum].elems
        out = {}
        for k, p in self.packed.items():
            out[(unpack(k // ID_CAP, rank), elems[k % ID_CAP])] = LaurentPoly.from_packed(n, p)
        return out

    def is_zero(self) -> bool:
        return not self.packed

    def support(self) -> set[Key]:
        rank, elems = self.datum.rank_y, _INTERNERS[self.datum].elems
        return {(unpack(k // ID_CAP, rank), elems[k % ID_CAP]) for k in self.packed}

    def support_y(self) -> set[Point]:
        return {unpack(p, self.datum.rank_y) for p in {k // ID_CAP for k in self.packed}}

    def support_w(self) -> set[WeylElement]:
        return {_INTERNERS[self.datum].elems[i] for i in {k % ID_CAP for k in self.packed}}

    def coeff(self, lam, w: WeylElement) -> LaurentPoly:
        p = self.packed.get(_key(self.datum, lam, w), {})
        return LaurentPoly.from_packed(self.classes.nclasses, p)

    def restrict_y(self, keep) -> "BLElement":
        """The terms whose point lies in `keep`, a collection of points."""
        pts = {_pack_point(self.datum.rank_y, lam) for lam in keep}
        out = {k: p for k, p in self.packed.items() if k // ID_CAP in pts}
        return BLElement.from_packed(self.datum, self.classes, out)

    def __eq__(self, other):
        return (
            isinstance(other, BLElement)
            and self.datum == other.datum
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash(frozenset((k, frozenset(p.items())) for k, p in self.packed.items()))

    # --- linear operations ---

    def _compat(self, other: "BLElement"):
        if self.datum != other.datum or self.classes != other.classes:
            raise ValueError("elements live over different data")

    def __add__(self, other: "BLElement") -> "BLElement":
        self._compat(other)
        out = dict(self.packed)
        for k, p in other.packed.items():
            out[k] = add(out[k], p) if k in out else p
        out = {k: p for k, p in out.items() if p}
        return BLElement.from_packed(self.datum, self.classes, out)

    def __neg__(self) -> "BLElement":
        return self.scale(self.classes.const(-1))

    def __sub__(self, other: "BLElement") -> "BLElement":
        return self + (-other)

    def scale(self, poly: LaurentPoly) -> "BLElement":
        require_factors((*self.packed.values(), poly.packed), poly.nvars)
        out = {k: pq for k, p in self.packed.items() if (pq := mul(p, poly.packed))}
        return BLElement.from_packed(self.datum, self.classes, out)

    def __mul__(self, other: "BLElement") -> "BLElement":
        return mult_bl(self, other)

    def __repr__(self):
        return f"BL({self.render()})"

    # --- rendering / serialization ---

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].word))

    def render(self) -> str:
        if not self.packed:
            return "0"
        names = self.classes.names()
        parts = []
        for (lam, w), poly in self._sorted_terms():
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
            elif poly.is_monomial() and "-" not in coeff and "+" not in coeff:
                parts.append(f"{coeff}·{symbol}")
            else:
                parts.append(f"({coeff})·{symbol}")
        return " + ".join(parts)

    def to_json(self):
        return [
            {"lambda": list(lam), "word": list(w.word), "coeff": poly.to_json()}
            for (lam, w), poly in self._sorted_terms()
        ]

    @classmethod
    def from_json(cls, datum, classes, data) -> "BLElement":
        terms: Terms = {}
        for entry in json_value(data, list, "an element"):
            entry = json_value(entry, dict, "an element term")
            lam = json_ints(entry["lambda"], "a point coordinate")
            w = element_from_word(datum, json_ints(entry["word"], "a word letter"))
            poly = LaurentPoly.from_json(classes.nclasses, entry["coeff"])
            key = (lam, w)
            terms[key] = terms.get(key, classes.zero()) + poly
        return cls(datum, classes, terms)


# --- the product kernel ---------------------------------------------------
#
# The product engine spends nearly all its time combining coefficient
# polynomials, so it runs entirely in the packed form of `coeff_ring`.
# Weyl elements are numbered by the store of `weyl`, so states are keyed,
# like element stores, by single integers packed_point * ID_CAP + element
# id.  The engine accumulates only into maps it has just created, inline;
# its one intermediate product is a factor times one distinct coefficient
# (below).  Cached tables and element stores share their maps and never
# mutate them.  The three tables are bounded, so a long-lived process
# keeps at most CACHE_SIZE entries in each; an evicted entry is
# recomputed on demand.
#
# The Bernstein relation sees a point only through its pairings: H_i Z^nu
# depends on m = alpha_i(nu), and moves nu by -m alpha_i^v and along the
# window between.  So H_u Z^mu, translated by any delta with
# alpha_j(delta) = 0 for every j, is H_u Z^{mu + delta}.  The H_u Z^mu
# memo is keyed on u and the pairing vector (alpha_j(mu))_j, and its keys
# hold offsets from mu; `_commute_packed` is keyed on (i, m) and returns
# offsets from nu.  `mult_bl` adds lam + mu to each memo key.
#
# Packed vectors are added to one another without a check, so no sum may
# carry into the next coordinate.  The points of the left factor and
# every point a product reaches lie in -SUM_HALF .. SUM_HALF - 1 (2^22).
# Each memo entry carries a box: the least and greatest value, coordinate
# by coordinate, of every offset its chain reached, reflections included
# (window points lie between), and offset 0.  `mult_bl` refuses
# (CoordinateOutOfRange) when mu + box leaves that range, which is exactly
# when mu or a point of the chain from mu would; it tests the box only
# where mu plus the entry's largest offset could leave the range.  The
# memo refuses a box wider than the range, which no mu fits; every offset
# it stores thus fits a packed digit.  A window has |alpha_i(nu)| terms;
# one longer than WINDOW_CAP is refused (BudgetExceeded) before any term
# is built, and so is a segment of `r_window`, which spans the same range.
# A window refused inside the memo carries the box reached before it, so
# that `mult_bl` refuses the points first, in the order of the chain.
#
# A memo entry is the tuple (state, lo, hi, reach, view).  Its terms share
# few distinct coefficient maps (on the `bl_assoc` benchmark, 44,667 maps
# held in the memo have 457 distinct values), so `view` holds the state
# split by `_group_by_coefficient`: (coefficient, keys) groups for the
# maps that several keys share, and the other terms as they are.  The
# fill builds it from the entry alone, by `frozenset` of each map's
# items.  `mult_bl` reads an entry only through its view:
# `_acc_grouped` multiplies a factor by each shared coefficient once and
# adds the product at each of its keys; the other terms are accumulated
# one by one, since grouping them would only add a pass.  On `bl_assoc`
# a group pays even for a factor of one term: the product is formed
# once, and a key that the accumulator lacks gets a copy of it in one
# step.  On `parahoric_cli`, whose factors are all one term and whose
# keys are mostly in the accumulator already, grouped reads measured
# slower (op_tail_ms about 1.04x; ROADMAP item 9).  Building the
# view at fill time also groups the entries that only feed longer words
# (15 % of the fills of a `bl_assoc` round, 3 % on `completion`, none on
# `parahoric_cli`) and those `mult_bl` reads once (21 % of the entries it
# reads on `bl_assoc`, none on the other two); delaying the view to a
# later read measured no faster.  The view lives and is evicted with its
# entry; no table spans entries.  The box check runs before any
# accumulation, so refusals are the same on every read.
# `_commute_packed` hands its window over in the same form: its
# coefficients alternate between two maps.
#
# The fold of H_v works per Weyl part: on a `bl_assoc` round its 54,466
# keys have 2,050 distinct parts t, so `mult_bl` buckets them by t and
# `_fold` applies H_t H_v to a whole bucket.  A memo fill keeps its key
# order instead, since that order decides which refusal of a chain is met
# first; it reads H_i H_t once per t, and copies the maps it re-keys,
# which belong to the entry before.

CACHE_SIZE = 1 << 15  # entries of each product table
WINDOW_CAP = 1 << 16  # terms of one commutation window
R_WINDOW_CAP = 10_000  # Weyl elements one `r_window` recursion may visit
_FILL_STRIDE = 64  # letters between the suffixes a long miss of the H_u Z^mu memo fills first


def _acc(acc: dict, terms, shift: int, p: dict):
    """acc[key + shift] += p * q for every (key, q) of `terms`.

    Every map of `acc` is created here, and may end up holding zeros; p
    and every q are zero-free and only read.
    """
    get = acc.get
    pitems = p.items()
    for key, q in terms:
        k = key + shift
        t = get(k)
        if t is None:
            t = acc[k] = {}
        tget = t.get
        qitems = q.items()
        for e1, c1 in pitems:
            for e2, c2 in qitems:
                e = e1 + e2
                t[e] = tget(e, 0) + c1 * c2


def _acc_grouped(acc: dict, view, shift: int, p: dict):
    """acc[key + shift] += p * q for every term of a view of `_group_by_coefficient`.

    The single terms go through `_acc`.  For each (q, keys) group, p * q
    is formed once and added at each key; a key that `acc` lacks gets a
    copy of it.  Like `_acc`, this creates every map of `acc` it touches
    first and only reads p and every q.
    """
    singles, groups = view
    _acc(acc, singles, shift, p)
    get = acc.get
    pitems = p.items()
    for q, keys in groups:
        pq: dict = {}
        pqget = pq.get
        qitems = q.items()
        for e1, c1 in pitems:
            for e2, c2 in qitems:
                e = e1 + e2
                pq[e] = pqget(e, 0) + c1 * c2
        pqitems = pq.items()
        for key in keys:
            k = key + shift
            t = get(k)
            if t is None:
                acc[k] = pq.copy()
            else:
                tget = t.get
                for e, c in pqitems:
                    t[e] = tget(e, 0) + c


def _group_by_coefficient(terms) -> tuple:
    """(singles, groups) for the (key, coefficient) pairs `terms`.

    `groups` holds one (coefficient, keys) pair for each coefficient that
    two or more keys share, compared by value; `singles` holds the (key,
    coefficient) pairs of the rest, which have nothing to share.
    """
    keys_of: dict = {}
    for key, q in terms:
        fq = frozenset(q.items())
        if fq in keys_of:
            keys_of[fq][1].append(key)
        else:
            keys_of[fq] = (q, [key])
    singles = tuple((keys[0], q) for q, keys in keys_of.values() if len(keys) == 1)
    groups = tuple((q, tuple(keys)) for q, keys in keys_of.values() if len(keys) > 1)
    return singles, groups


def _fold(acc: dict, terms: list, prods, one: dict):
    """acc[key + w] += q * h for every (key, q) of `terms` and (w, h) of `prods`.

    A pair whose h equals `one` adds each q unmultiplied: a copy of q at a
    key that `acc` lacks, an addition otherwise.  The maps q are the
    caller's and are read here for the last time, so the last such pair,
    run after every other read of them, takes them over without a copy.
    """
    units = []
    for w, h in prods:
        if h == one:
            units.append(w)
        else:
            _acc(acc, terms, w, h)
    get = acc.get
    while units:
        w = units.pop()
        last = not units
        for key, q in terms:
            k = key + w
            t = get(k)
            if t is None:
                acc[k] = q if last else q.copy()
            else:
                tget = t.get
                for e, c in q.items():
                    t[e] = tget(e, 0) + c


def _settle(acc: dict) -> dict:
    """Drop zero coefficients, then keys whose coefficient vanished."""
    out = {}
    for k, d in acc.items():
        if 0 in d.values():
            d = {e: c for e, c in d.items() if c}
            if not d:
                continue
        out[k] = d
    return out


def _require_reach(mu: Point, lo, hi):
    """Refuse unless mu + lo and mu + hi lie in -SUM_HALF .. SUM_HALF - 1."""
    for x, l, h in zip(mu, lo, hi):
        for y in (x + l, x + h):
            if not -SUM_HALF <= y < SUM_HALF:
                raise CoordinateOutOfRange(
                    f"a commutation chain from {mu} reaches entry {y}, "
                    f"outside {-SUM_HALF}..{SUM_HALF - 1}"
                )


@lru_cache(maxsize=CACHE_SIZE)
def _commute_packed(datum: RootDatum, classes: ParamClasses, i: int, m: int):
    """H_i * Z^nu for alpha_i(nu) = m, relative to nu: (reflection, window).

    H_i Z^nu = Z^{r_i nu} H_i + window, with r_i nu = nu - m alpha_i^v.
    For m > 0 the window sits at nu - h alpha_i^v (0 <= h < m); for m < 0
    at nu + h alpha_i^v (1 <= h <= -m) with a global minus sign (the exact
    geometric expansion of the defining relation).  When sigma_i and
    sigma_i' differ the two coefficients alternate (the pairing is even).
    The window is given grouped by coefficient, for `_acc_grouped`.
    Offsets from nu are packed and scaled by ID_CAP, so that they add to
    a state key directly.
    """
    if abs(m) > WINDOW_CAP:
        raise BudgetExceeded(WINDOW_CAP, f"a commutation window of {abs(m)} terms")
    step = pack(datum.coroots[i]) * ID_CAP
    c_even, c_odd = classes.smi_packed(i), classes.smi_packed(i, primed=True)
    if m >= 0:
        window = [(-h * step, c_odd if h % 2 else c_even) for h in range(m)]
    else:
        n_even = {e: -c for e, c in c_even.items()}
        n_odd = {e: -c for e, c in c_odd.items()}
        window = [(h * step, n_odd if h % 2 else n_even) for h in range(1, 1 - m)]
    return -m * step, _group_by_coefficient(window)


def commute_Hi_past_Z(
    datum: RootDatum, classes: ParamClasses, i: int, nu: Point
) -> BLElement:
    """H_i * Z^nu rewritten in the Z H basis (see `_commute_packed`)."""
    pnu = _pack_point(datum.rank_y, nu)
    rid = simple_reflection(datum, i).id  # validates i before caching
    m = datum.pairing(i, nu)
    _, window = _commute_packed(datum, classes, i, m)
    # the window lies between nu and its reflection, so this bounds it too
    prnu = pack(linalg.vec_sub(nu, linalg.vec_scale(m, datum.coroots[i])), SUM_HALF)
    packed = {prnu * ID_CAP + rid: classes.one_packed}
    base = pnu * ID_CAP
    singles, groups = window
    packed.update((base + off, coeff) for off, coeff in singles)
    packed.update((base + off, coeff) for coeff, offs in groups for off in offs)
    return BLElement.from_packed(datum, classes, packed)


def _h_times_basis_packed(i: int, w: WeylElement, one: dict, smi: dict):
    """H_i * H_w as (id, packed coefficient) pairs; `smi` is sigma_i - sigma_i^{-1}."""
    riw = left_mul(i, w)
    if riw.length > w.length:
        return ((riw.id, one),)
    return ((w.id, smi), (riw.id, one))


@lru_cache(maxsize=CACHE_SIZE)
def _h_times_h_packed(datum: RootDatum, classes: ParamClasses, tid: int, vid: int):
    """H_t * H_v, peeling letters of t from the inside out."""
    elems = _INTERNERS[datum].elems
    one = classes.one_packed
    out: dict[int, dict] = {vid: one}
    for i in reversed(elems[tid].word):
        smi = classes.smi_packed(i)
        nxt: dict[int, dict] = {}
        for wid, c in out.items():
            _acc(nxt, _h_times_basis_packed(i, elems[wid], one, smi), 0, c)
        out = _settle(nxt)
    return tuple(out.items())


@lru_cache(maxsize=CACHE_SIZE)
def _basis_product_packed(datum: RootDatum, classes: ParamClasses, uid: int, pairs: tuple):
    """H_u * Z^mu for every mu with alpha_j(mu) = pairs[j], as (state, lo, hi, reach, view).

    `state` maps pack(offset) * ID_CAP + element id t to a coefficient c:
    H_u Z^mu is the sum of c Z^{mu + offset} H_t.  `lo` and `hi` bound,
    coordinate by coordinate, every offset the chain reached, 0 included,
    and `reach` is the largest of their absolute values.  `view` is
    `state` grouped by `_group_by_coefficient` (see the comment above
    `CACHE_SIZE`).

    With i the first letter of u's canonical word, r_i u has the rest of
    the word, so an entry is one H_i step on the entry for r_i u:
    H_i Z^nu H_t = Z^{r_i nu} H_i H_t + (window of nu) H_t, where
    alpha_i(nu) is pairs[i] plus the pairing of nu's offset.  A miss thus
    costs one letter when the shorter suffixes are cached.  A miss on a
    word longer than _FILL_STRIDE first asks for the suffix whose length
    is the largest multiple of the stride below its own, so a cold chain
    of k letters recurses about k / _FILL_STRIDE + _FILL_STRIDE calls
    deep, not k.
    """
    elems = _INTERNERS[datum].elems
    u = elems[uid]
    word = u.word
    rank = datum.rank_y
    if not word:
        zero = (0,) * rank
        state = {0: classes.one_packed}
        return state, zero, zero, 0, _group_by_coefficient(state.items())
    if len(word) > _FILL_STRIDE:
        v = u
        for i in word[: (len(word) - 1) % _FILL_STRIDE + 1]:
            v = left_mul(i, v)
        _basis_product_packed(datum, classes, v.id, pairs)
    i = word[0]
    state, lo, hi, _, _ = _basis_product_packed(datum, classes, left_mul(i, u).id, pairs)
    lo, hi = list(lo), list(hi)
    one, smi = classes.one_packed, classes.smi_packed(i)
    root, co, m0 = datum.roots[i], datum.coroots[i], pairs[i]
    nxt: dict[int, dict] = {}
    nget = nxt.get
    h_of: dict = {}  # Weyl part t -> H_i H_t
    for key, c in state.items():
        tid = key % ID_CAP
        base = key - tid
        off = unpack(base // ID_CAP, rank)
        m = m0 + linalg.dot(root, off)
        try:
            refl, window = _commute_packed(datum, classes, i, m)
        except BudgetExceeded as exc:
            exc.reached = (tuple(lo), tuple(hi))  # read by mult_bl
            raise
        for k, x in enumerate(off):
            y = x - m * co[k]
            if y < lo[k]:
                lo[k] = y
            elif y > hi[k]:
                hi[k] = y
        ht = h_of.get(tid)
        if ht is None:
            ht = h_of[tid] = _h_times_basis_packed(i, elems[tid], one, smi)
        if len(ht) == 1:  # H_i H_t = H_{r_i t}: c moves unmultiplied, and the entry keeps its map
            k = base + refl + ht[0][0]
            t = nget(k)
            if t is None:
                nxt[k] = c.copy()
            else:
                tget = t.get
                for e, x in c.items():
                    t[e] = tget(e, 0) + x
        else:
            _acc(nxt, ht, base + refl, c)
        _acc_grouped(nxt, window, base + tid, c)
    for l, h in zip(lo, hi):
        if h - l >= 2 * SUM_HALF:
            raise CoordinateOutOfRange(
                f"a commutation chain spans {h - l} in one coordinate; "
                f"no point keeps it within {-SUM_HALF}..{SUM_HALF - 1}"
            )
    state = _settle(nxt)
    view = _group_by_coefficient(state.items())
    return state, tuple(lo), tuple(hi), max(-min(lo), max(hi)), view


def mult_bl(a: BLElement, b: BLElement) -> BLElement:
    """The product a * b, by Z^lam H_u * Z^mu H_v = Z^lam (H_u Z^mu) H_v.

    b's terms are grouped by their Weyl part v.  For each group the
    products Z^lam (H_u Z^mu) of every term of a with every term of the
    group are accumulated from the memo of H_u Z^mu, shifted by lam + mu,
    settled, and H_v is folded in through `_fold`, one bucket of keys
    per Weyl part t and one lookup of H_t H_v per bucket.  The group
    v = e needs no fold and accumulates into the result directly.  A
    memo entry's terms are accumulated by distinct coefficient, through
    its grouped view and `_acc_grouped`.
    """
    a._compat(b)
    datum, classes = a.datum, a.classes
    rank, one = datum.rank_y, classes.one_packed
    for shift in {k // ID_CAP for k in a.packed}:
        require_summable(shift, rank)
    require_factors((*a.packed.values(), *b.packed.values()), classes.nclasses)
    groups = defaultdict(list)
    for key_b, pb in b.packed.items():
        vid = key_b % ID_CAP
        pmu = key_b // ID_CAP
        mu = unpack(pmu, rank)
        pairs = tuple(linalg.dot(root, mu) for root in datum.roots)
        # mu + an offset of absolute value at most `slack` cannot leave the range;
        # a mu outside it has slack < 0 <= reach, so the box check refuses it
        slack = SUM_HALF - 1 - max(map(abs, mu), default=0)
        groups[vid].append((pmu, mu, pairs, slack, pb))
    out: dict[int, dict] = {}
    for vid, group in groups.items():
        acc = {} if vid else out
        for key_a, pa in a.packed.items():
            uid = key_a % ID_CAP
            lam = key_a - uid
            for pmu, mu, pairs, slack, pb in group:
                try:
                    entry = _basis_product_packed(datum, classes, uid, pairs)
                except BudgetExceeded as exc:
                    if hasattr(exc, "reached"):
                        _require_reach(mu, *exc.reached)
                    raise
                _, lo, hi, reach, view = entry
                if reach > slack:
                    _require_reach(mu, lo, hi)
                _acc_grouped(acc, view, lam + pmu * ID_CAP, mul(pa, pb))
        if vid:
            by_t = defaultdict(list)  # Weyl part t -> (key - t, c), settled
            for key, c in acc.items():
                if 0 in c.values():
                    c = {e: x for e, x in c.items() if x}
                    if not c:
                        continue
                tid = key % ID_CAP
                by_t[tid].append((key - tid, c))
            for tid, terms in by_t.items():  # acc's maps are this call's to hand over
                _fold(out, terms, _h_times_h_packed(datum, classes, tid, vid), one)
    return BLElement.from_packed(datum, classes, _settle(out))


def r_window(datum: RootDatum, w: WeylElement, lam) -> frozenset[Point]:
    """The finite set R_w(lam), over the shared-prefix DAG of reduced words."""
    memo: dict[WeylElement, frozenset[Point]] = {}

    def segment(i: int, x: Point) -> list[Point]:
        m = datum.pairing(i, x)
        if abs(m) > WINDOW_CAP:
            raise BudgetExceeded(WINDOW_CAP, f"a window segment of {abs(m) + 1} points")
        co = datum.coroots[i]
        step = 1 if m >= 0 else -1
        return [linalg.vec_sub(x, linalg.vec_scale(h, co)) for h in range(0, m + step, step)]

    def rec(v: WeylElement) -> frozenset[Point]:
        if v in memo:
            return memo[v]
        if len(memo) >= R_WINDOW_CAP:
            raise BudgetExceeded(R_WINDOW_CAP, "window recursion")
        if not v.word:
            res = frozenset({tuple(lam)})
        else:
            pts: set[Point] = set()
            for i in left_descents(v):
                inner = rec(left_mul(i, v))
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
