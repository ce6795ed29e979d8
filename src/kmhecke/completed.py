"""Truncations of the completed Hecke algebra and its center.

An element of the completion is an infinite series with almost-finite
support: finitely many Weyl components, and Y-support dominated by
finitely many generators.  We never materialize the series; a
TruncatedElement stores its exact coefficients on a declared region as
one `BLElement`, together with a support certificate, and every operation
certifies, from the certificates alone, that no coefficient outside the
known regions can reach the requested target before it multiplies what
it knows with `mult_bl` (the left Y-action is the product Z^mu * a).

The product's finiteness book-keeping needs one genuine strengthening of
the support bounds: when the left factor has Weyl components other than
the identity, the commutation windows pull the right factor's support
toward the target from unboundedly deep orbit points unless the right
certificate also dominates the *dominant representatives* of its support
(the `dominant` flag).  Without that flag such products are refused
rather than silently truncated; there are explicit series for which the
coefficient sums genuinely diverge.

One rule, `_product_certificate`, bounds the support of every product,
and both Y-actions take their certificate from it as products with Z^mu,
certified by (mu,) and dominant when mu is.  The generators of a * b are
the sums ga + gb when the left factor has no Weyl part other than e or
the right certificate is dominant (every point of R_u(mu) lies below
mu^{++}).  Otherwise the right factor is explicit, and they are the sums
ga + nu over nu in R_u(mu), for u in the left Weyl part and mu in the
right support; that product drops the dominant reading.  Only the sums
maximal in dominance order are kept.

The finiteness argument is written once, as the walk `_contributions`:
for a target point rho it yields each (lam, u, mus) through which the two
factors can reach rho.  `compute_source_region` collects what it yields;
`mult_truncated` and the right action of `bimodule_act` with a target
(which refuse), `center_test` and the right action without one (which
keep the certified points) check it through `_unknowns`.  Each filtered
reverse window comes from one bounded memo keyed on (u, nu) and the right
certificate's bounds, and each element keeps its `knows` point answers.

`center_test` enumerates an orbit only when it stores a coefficient or
the certificate allows its dominant point: a dominant certificate reads
only that point, so it certifies every other orbit zero throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb

from . import linalg
from .coeff_ring import LaurentPoly, ParamClasses
from .errors import (
    CapExceeded,
    InsufficientSource,
    NotDominant,
    TitsConeUndecided,
    json_ints,
    json_value,
)
from .hecke_bl import BLElement, mult_bl, r_window
from .root_system import (
    Point,
    RootDatum,
    dominance_coords,
    height_between,
)
from .weyl import (
    IN_TITS_CONE,
    WeylElement,
    bruhat_interval,
    dominant_representative,
    element_from_word,
    identity,
    in_y_plus,
    left_descents,
    left_mul,
    multiply,
    orbit_enumerate,
    orbit_is_finite,
    tits_cone_status,
)

CENTRAL = "Central"
NOT_CENTRAL = "NotCentral"
INCONCLUSIVE = "Inconclusive"
REVERSE_WINDOW_CAP = 50_000  # (element, point) nodes one reverse-window search may visit
REVERSE_MEMO_SIZE = 1 << 12  # (u, nu, certificate bounds) entries of the filtered-window memo
REGION_MEMO_SIZE = 1 << 7  # (region, datum) entries of the cone-enumeration memo
REGION_MEMO_POINTS = 1 << 12  # candidate points of the largest cone it keeps


@dataclass(frozen=True)
class Region:
    """Where coefficients are known exactly.

    Either a dominance-and-height truncated cone (`generators`, `height`),
    optionally restricted to the Tits cone, or an explicit finite point
    set.  Cones are the shape all the finiteness arguments are phrased in;
    point sets appear as images of shifted or filtered regions.
    """

    generators: tuple[Point, ...] | None = None
    height: int | None = None
    require_tits: bool = True
    points: frozenset[Point] | None = None

    def __post_init__(self):
        if (self.points is None) == (self.generators is None):
            raise ValueError("exactly one of generators/points must be given")
        if self.generators is not None and (self.height is None or self.height < 0):
            raise ValueError("cone regions need a nonnegative height budget")

    @classmethod
    def cone(cls, generators, height: int, require_tits: bool = True) -> "Region":
        return cls(tuple(tuple(g) for g in generators), height, require_tits, None)

    @classmethod
    def explicit(cls, points) -> "Region":
        return cls(None, None, True, frozenset(tuple(p) for p in points))

    def contains(self, datum: RootDatum, lam) -> bool:
        lam = tuple(lam)
        if self.points is not None:
            return lam in self.points
        for g in self.generators:
            d = height_between(datum, lam, g)
            if d is not None and d <= self.height:
                if not self.require_tits or in_y_plus(datum, lam):
                    return True
        return False

    def enumerate(self, datum: RootDatum) -> list[Point]:
        """The region's points in sorted order, as a fresh list."""
        if self.points is not None:
            return sorted(self.points)
        walk = _cone_points
        if len(self.generators) * comb(self.height + datum.n, datum.n) > REGION_MEMO_POINTS:
            walk = _cone_points.__wrapped__  # too many candidates to keep
        return list(walk(self, datum))

    def translated(self, mu) -> "Region":
        mu = tuple(mu)
        if self.points is not None:
            return Region.explicit({linalg.vec_add(p, mu) for p in self.points})
        return Region.cone(
            tuple(linalg.vec_add(g, mu) for g in self.generators),
            self.height,
            require_tits=False,
        )

    def to_json(self):
        if self.points is not None:
            return {"points": [list(p) for p in sorted(self.points)]}
        return {
            "gens": [list(g) for g in self.generators],
            "height": self.height,
            "require_tits": self.require_tits,
        }

    @classmethod
    def from_json(cls, data) -> "Region":
        if "points" in json_value(data, dict, "a region"):
            points = json_value(data["points"], list, "region points")
            return cls.explicit(tuple(json_ints(p, "a point coordinate") for p in points))
        gens = json_value(data["gens"], list, "region generators")
        return cls.cone(
            tuple(json_ints(g, "a generator coordinate") for g in gens),
            json_value(data["height"], int, "a region height"),
            json_value(data.get("require_tits", True), bool, "require_tits"),
        )


@lru_cache(maxsize=REGION_MEMO_SIZE)
def _cone_points(region: Region, datum: RootDatum) -> tuple[Point, ...]:
    seen: set[Point] = set()
    for g in region.generators:
        for q in _bounded_compositions(datum.n, region.height):
            lam = tuple(g)
            for i, c in enumerate(q):
                lam = linalg.vec_sub(lam, linalg.vec_scale(c, datum.coroots[i]))
            if lam in seen:
                continue
            if not region.require_tits or in_y_plus(datum, lam):
                seen.add(lam)
    return tuple(sorted(seen))


def _bounded_compositions(n: int, budget: int):
    """All q in N^n with sum(q) <= budget."""
    if n == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _bounded_compositions(n - 1, budget - first):
            yield (first,) + rest


@dataclass(frozen=True)
class AFCertificate:
    """Global support bounds for an element of the completion.

    Certifies supp_W inside `w_part` and every Y-support point below some
    generator in dominance order.  When `dominant` is set, generators
    additionally bound the dominant representatives of the Y-support;
    that stronger reading is what the product's finiteness engine needs
    on its right-hand factor whenever the left factor has windows.  The
    certificate of a product, and of either Y-action, comes from one
    rule, `_product_certificate`: generators add when the left factor has
    no Weyl part or the right certificate is dominant, and otherwise the
    explicit right factor's windows take the place of its generators.
    """

    generators: tuple[Point, ...]
    w_part: tuple[WeylElement, ...]
    dominant: bool = False

    def allows_y(self, datum: RootDatum, lam) -> bool:
        """Whether a support point at lam is compatible with the bounds.

        The dominant reading also constrains the dominant representative,
        which certifies far more points as zero (whole orbits whose top
        exceeds every generator).
        """
        if self.dominant:
            rep = dominant_representative(datum, lam)
            if rep.status == IN_TITS_CONE:
                return any(
                    height_between(datum, rep.dominant, g) is not None
                    for g in self.generators
                )
        return any(height_between(datum, lam, g) is not None for g in self.generators)

    def to_json(self):
        return {
            "gens": [list(g) for g in self.generators],
            "w_part": [list(w.word) for w in self.w_part],
            "dominant": self.dominant,
        }


class TruncatedElement:
    """Exact coefficients on a region, plus an almost-finite certificate.

    The known coefficients are one `BLElement`, `known` (a dictionary
    {(lam, w): LaurentPoly} in its place is packed once).  A region of None
    means the element is finite and `known` *is* the element.  `in_bl_bar`
    marks elements of the bimodule completion whose Y-support may leave the
    Tits cone (they arise from translating by non-dominant monomials).
    `_point_known` keeps `knows`'s point answers: an element never changes.
    """

    __slots__ = ("datum", "classes", "region", "known", "certificate", "in_bl_bar", "_point_known")

    def __init__(
        self,
        datum: RootDatum,
        classes: ParamClasses,
        region: Region | None,
        known,
        certificate: AFCertificate,
        in_bl_bar: bool = False,
    ):
        if not isinstance(known, BLElement):
            known = BLElement(datum, classes, known)
        elif known.datum != datum or known.classes != classes:
            raise ValueError("coefficients live over different data")
        self.datum = datum
        self.classes = classes
        self.region = region
        self.known = known
        ws = tuple(
            sorted(
                set(certificate.w_part) | known.support_w(),
                key=lambda w: (w.length, w.word),
            )
        )
        self.certificate = replace(certificate, w_part=ws)
        self.in_bl_bar = in_bl_bar
        self._point_known: dict[Point, bool] = {}
        if self.region is not None:
            for lam in known.support_y():
                if not self.region.contains(datum, lam):
                    raise ValueError(f"coefficient at {lam} lies outside the region")

    @property
    def coeffs(self):
        """The known coefficients decoded to a fresh {(lam, w): LaurentPoly} map."""
        return self.known.terms

    # --- exactness bookkeeping ---

    def knows(self, lam, w: WeylElement) -> bool:
        """Whether the coefficient at (lam, w) is determined by this truncation."""
        return self.region is None or w not in self.certificate.w_part or self._knows_point(lam)

    def _knows_point(self, lam) -> bool:
        """The point test of `knows`, made once per point of this element."""
        lam = tuple(lam)
        got = self._point_known.get(lam)
        if got is None:
            datum = self.datum
            got = self._point_known[lam] = (
                (not self.in_bl_bar and tits_cone_status(datum, lam) != IN_TITS_CONE)
                or not self.certificate.allows_y(datum, lam)
                or self.region.contains(datum, lam)
            )
        return got

    def coeff(self, lam, w: WeylElement) -> LaurentPoly:
        got = self.known.coeff(lam, w)
        if got.is_zero() and not self.knows(lam, w):
            raise InsufficientSource(f"coefficient at ({lam}, {w}) is outside the known region")
        return got

    @classmethod
    def from_bl(cls, element: BLElement) -> "TruncatedElement":
        """Wrap a finite element; certificate generators are the dominant reps
        (the constructor adds the Weyl support to the certificate)."""
        gens: set[Point] = set()
        for lam in element.support_y():
            rep = dominant_representative(element.datum, lam)
            if rep.status != IN_TITS_CONE:
                raise ValueError("finite elements of the completion must be supported in Y+")
            gens.add(rep.dominant)
        if not gens:
            gens = {element.datum.zero()}
        cert = AFCertificate(tuple(sorted(gens)), (), dominant=True)
        return cls(element.datum, element.classes, None, element, cert)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedElement)
            and self.region == other.region
            and self.known == other.known  # compares the data too
        )

    def to_json(self):
        return {
            "region": None if self.region is None else self.region.to_json(),
            "certificate": self.certificate.to_json(),
            "coeffs": self.known.to_json(),
            "in_bl_bar": self.in_bl_bar,
        }


def truncated_from_json(datum: RootDatum, classes: ParamClasses, data) -> TruncatedElement:
    """Read `TruncatedElement.to_json` output; the coefficients are read as a `BLElement`."""
    data = json_value(data, dict, "a truncated element")
    region = None if data.get("region") is None else Region.from_json(data["region"])
    cert_data = json_value(data["certificate"], dict, "a certificate")
    gens = json_value(cert_data["gens"], list, "certificate generators")
    words = json_value(cert_data["w_part"], list, "certificate words")
    cert = AFCertificate(
        tuple(json_ints(g, "a generator coordinate") for g in gens),
        tuple(element_from_word(datum, json_ints(w, "a word letter")) for w in words),
        json_value(cert_data.get("dominant", False), bool, "dominant"),
    )
    known = BLElement.from_json(datum, classes, data["coeffs"])
    in_bl_bar = json_value(data.get("in_bl_bar", False), bool, "in_bl_bar")
    return TruncatedElement(datum, classes, region, known, cert, in_bl_bar)


# --- the product's certification engine ---

def _dominance_interval(datum: RootDatum, lo: Point, hi: Point) -> list[Point]:
    q = dominance_coords(datum, lo, hi)
    if q is None:
        return []
    out = []
    for combo in itertools.product(*(range(c + 1) for c in q)):
        x = tuple(lo)
        for i, c in enumerate(combo):
            x = linalg.vec_add(x, linalg.vec_scale(c, datum.coroots[i]))
        out.append(x)
    return out


def _reverse_window(datum: RootDatum, u: WeylElement, nu: Point, kappas):
    """All mu with nu in R_u(mu), pruned by the dominance bounds `kappas`.

    Sound because every point of every intermediate window (and its
    reflection) is dominated by mu^{++}, hence by some kappa; that turns
    the two unbounded string directions into finite ranges.
    """
    caps = [height_between(datum, nu, k) for k in kappas]
    caps = [c for c in caps if c is not None]
    if not caps:
        return set()
    budget = max(caps)  # max height climb above nu allowed for any chain point

    best_room: dict[tuple[WeylElement, Point], int] = {}
    results: set[Point] = set()

    def rec(v: WeylElement, x: Point, room: int):
        key = (v, x)
        if best_room.get(key, -1) >= room:
            return
        if len(best_room) >= REVERSE_WINDOW_CAP:
            raise CapExceeded("reverse window search exceeded its cap")
        best_room[key] = room
        if not v.word:
            results.add(x)
            return
        for i in left_descents(v):
            rest = left_mul(i, v)
            m = datum.pairing(i, x)
            co = datum.coroots[i]
            # x' = x + j co with x on the segment [x', r_i x'].  Every chain
            # point and its reflection is dominated by some kappa, so the
            # remaining climb `room` caps j above, and the reflection
            # height h(x) - m - j caps it below.
            for j in range(max(0, -m), room + 1):
                xp = linalg.vec_add(x, linalg.vec_scale(j, co))
                rec(rest, xp, room - j)
            for j in range(-m - room, min(0, -m) + 1):
                xp = linalg.vec_add(x, linalg.vec_scale(j, co))
                rec(rest, xp, room - j)

    rec(u, tuple(nu), budget)
    return results


@lru_cache(maxsize=REVERSE_MEMO_SIZE)
def _allowed_window(datum: RootDatum, u: WeylElement, nu: Point, generators, dominant: bool):
    """`_reverse_window` cut to what a certificate with these bounds allows,
    in the search's order; a refusal propagates and is not stored."""
    cert = AFCertificate(generators, (), dominant)
    return tuple(
        mu for mu in _reverse_window(datum, u, nu, generators) if cert.allows_y(datum, mu)
    )


def _require_certifiable(cert_a: AFCertificate, u_cap: int, cert_b: AFCertificate | None):
    """The preconditions under which the walk below is finite.

    `cert_b` is the right certificate that bounds the reverse windows, or
    None when the right factor is explicit and the windows run forward.
    A refusal sets `needed` to ("right", None, u): the right factor as a
    whole, for the first left Weyl part u that has windows.
    """
    for u in cert_a.w_part:
        if u.length > u_cap:
            raise CapExceeded(f"left Weyl support length {u.length} exceeds u_cap={u_cap}")
    windowed = [u for u in cert_a.w_part if u.word]
    if cert_b is not None and not cert_b.dominant and windowed:
        raise InsufficientSource(
            "left factor has nontrivial Weyl support; the right factor's certificate "
            "must carry dominant support bounds for the product to be certifiable",
            needed=("right", None, windowed[0]),
        )


def _contributions(datum: RootDatum, rho: Point, cert_a, cert_b, left=None, windows=None):
    """Every (lam, u, mus) through which Z^lam H_u * Z^mu H_v can reach rho.

    With `windows`, the forward windows (u, mu, R_u(mu)) of an explicit
    right factor, each source mu comes alone.  Otherwise lam ranges over
    the left factor's explicit support `left` ({u: its lams}) or, without
    one, over the dominance intervals of the two certificates, and the mus
    are the reverse window of rho - lam under u, cut to what `cert_b`
    allows.  For u = e the window is the single point rho - lam, unfiltered.
    """
    if windows is not None:
        for u, mu, nus in windows:
            for nu in nus:
                yield linalg.vec_sub(rho, nu), u, (mu,)
        return
    if left is None:
        lams: set[Point] = set()
        for ga in cert_a.generators:
            for gb in cert_b.generators:
                lams.update(_dominance_interval(datum, linalg.vec_sub(rho, gb), ga))
    for u in cert_a.w_part:
        for lam in lams if left is None else left.get(u, ()):
            nu = linalg.vec_sub(rho, lam)
            if not u.word:
                yield lam, u, (nu,)
                continue
            yield lam, u, _allowed_window(datum, u, nu, cert_b.generators, cert_b.dominant)


def _unknowns(points, a: TruncatedElement, b: TruncatedElement):
    """Each target point that an unknown coefficient can reach, as
    (rho, (factor, lam, w)) with the first such coefficient, factor being
    "left" or "right".  An explicit factor's support, and the forward
    windows from it, are read once per call."""
    if a.region is None and b.region is None:
        return
    datum, cert_a, cert_b = a.datum, a.certificate, b.certificate
    left = windows = None
    if a.region is None:
        left = {}
        for lam, u in a.known.support():
            left.setdefault(u, set()).add(lam)
    if b.region is None:
        right = b.known.support_y()
        windows = [(u, mu, r_window(datum, u, mu)) for u in cert_a.w_part for mu in right]
    for rho in points:
        for lam, u, mus in _contributions(datum, rho, cert_a, cert_b, left, windows):
            if windows is None:
                mus = [
                    mu
                    for mu in mus
                    if (u.word or cert_b.allows_y(datum, mu))
                    and (b.in_bl_bar or tits_cone_status(datum, mu) == IN_TITS_CONE)
                ]
                if not mus:
                    continue
            unknown = (("right", mu, v) for mu in mus for v in cert_b.w_part if not b.knows(mu, v))
            missing = ("left", lam, u) if not a.knows(lam, u) else next(unknown, None)
            if missing is not None:
                yield rho, missing
                break


def _require_known(points, a: TruncatedElement, b: TruncatedElement):
    """Refuse, naming the coefficient in `needed`, the first target point
    that an unknown coefficient can reach."""
    for rho, missing in _unknowns(points, a, b):
        factor, lam, w = missing
        raise InsufficientSource(
            f"{factor} factor unknown at ({lam}, {w}) for target {rho}", needed=missing
        )


def _product_certificate(a: TruncatedElement, b: TruncatedElement) -> AFCertificate:
    """Support bounds of a * b, by the one rule stated in the module docstring.

    A term Z^lam H_u * Z^mu H_v lands on lam + R_u(mu) at Weyl parts x v
    with x <= u.  When a has a Weyl part other than e and b's certificate
    is not dominant, `_require_certifiable` has made sure that b is
    explicit, so its windows are read from its support.
    """
    cert_a, cert_b = a.certificate, b.certificate
    if cert_b.dominant or not any(u.word for u in cert_a.w_part):
        tops, dominant = cert_b.generators, cert_a.dominant and cert_b.dominant
    else:
        right = b.known.support_y()
        tops = {nu for u in cert_a.w_part for mu in right for nu in r_window(a.datum, u, mu)}
        dominant = False
    gens = {linalg.vec_add(ga, t) for ga in cert_a.generators for t in tops}
    # keep the maximal sums: the union of their down-sets is the same
    gens = [
        g for g in gens
        if not any(h != g and height_between(a.datum, g, h) is not None for h in gens)
    ]
    ws: set[WeylElement] = set()
    for u in cert_a.w_part:
        interval = bruhat_interval(u)
        for v in cert_b.w_part:
            ws |= {multiply(x, v) for x in interval}
    return AFCertificate(
        tuple(sorted(gens)), tuple(sorted(ws, key=lambda w: (w.length, w.word))), dominant
    )


def mult_truncated(
    a: TruncatedElement, b: TruncatedElement, target: Region, u_cap: int = 8
) -> TruncatedElement:
    """Exact coefficients of a * b on the target region.

    Certifies first, from the two certificates, that nothing outside the
    known regions can contribute to any target coefficient, then sums the
    finite product of the known coefficients and restricts.
    """
    if a.datum != b.datum or a.classes != b.classes:
        raise ValueError("factors live over different data")
    if a.in_bl_bar or b.in_bl_bar:
        raise ValueError("the completed product is defined on Y+-supported elements")
    points = target.enumerate(a.datum)
    _require_certifiable(a.certificate, u_cap, None if b.region is None else b.certificate)
    _require_known(points, a, b)
    known = mult_bl(a.known, b.known).restrict_y(points)
    return TruncatedElement(a.datum, a.classes, target, known, _product_certificate(a, b))


def compute_source_region(
    datum: RootDatum,
    target: Region,
    cert_a: AFCertificate,
    cert_b: AFCertificate,
    u_cap: int = 8,
) -> tuple[Region, Region]:
    """Regions on which the factors must be exact for the target to be exact.

    Collects the lam and mu of every contribution the certification walk
    finds from the two certificates, and wraps them in dominance-height
    cones; monotone in the target.
    """
    _require_certifiable(cert_a, u_cap, cert_b)
    need_a: set[Point] = set()
    need_b: set[Point] = set()
    for rho in target.enumerate(datum):
        for lam, _, mus in _contributions(datum, rho, cert_a, cert_b):
            if mus:
                need_a.add(lam)
                need_b.update(mus)

    def wrap(points, gens):
        drop = 0
        for p in points:
            ds = [height_between(datum, p, g) for g in gens]
            ds = [d for d in ds if d is not None]
            if ds:
                drop = max(drop, min(ds))
        return Region.cone(gens, drop)

    return wrap(need_a, cert_a.generators), wrap(need_b, cert_b.generators)


# --- the Y-bimodule action ---

def bimodule_act(
    mu, a: TruncatedElement, side: str, target: Region | None = None
) -> TruncatedElement:
    """Translate by a Z-monomial of arbitrary sign.

    On the left the product Z^mu * a shifts the coefficients wholesale and
    the region follows; on the right each Weyl component drags a
    commutation window across mu, so exactness survives only where every
    pulled-back source is known (computed pointwise; pass a target to
    choose the output coordinates, and be refused at its first uncertified
    point).  Both sides take their certificate from `_product_certificate`,
    with Z^mu certified by (mu,), dominant when mu is.
    """
    mu = tuple(mu)
    datum, classes = a.datum, a.classes
    zmu = BLElement.z_monomial(datum, classes, mu)
    dominant = all(datum.pairing(i, mu) >= 0 for i in range(datum.n))
    z = TruncatedElement(datum, classes, None, zmu, AFCertificate((mu,), (), dominant))
    if side == "left":
        known = mult_bl(zmu, a.known)
        region = None if a.region is None else a.region.translated(mu)
        cert = _product_certificate(z, a)
    elif side == "right":
        # a * Z^mu, exact wherever every pulled-back source is known
        known = mult_bl(a.known, zmu)
        cert = _product_certificate(a, z)
        region = None
        if a.region is not None:
            if target is not None:
                certified = target.enumerate(datum)
                _require_known(certified, a, z)
            else:
                # every point a term of a * Z^mu lands on, also where the terms cancel
                lands = {
                    w: mult_bl(BLElement.basis(datum, classes, datum.zero(), w), zmu).support_y()
                    for w in a.known.support_w()
                }
                support = a.known.support()
                points = {linalg.vec_add(lam, nu) for lam, w in support for nu in lands[w]}
                certified = points - {rho for rho, _ in _unknowns(points, a, z)}
            known, region = known.restrict_y(certified), Region.explicit(certified)
    else:
        raise ValueError("side must be 'left' or 'right'")
    leaves = any(tits_cone_status(datum, lam) != IN_TITS_CONE for lam in known.support_y())
    return TruncatedElement(datum, classes, region, known, cert, in_bl_bar=a.in_bl_bar or leaves)


# --- orbit sums: the E-basis of the invariant completion ---

@dataclass(frozen=True)
class EFunction:
    """Finitely many dominant weights with coefficients (almost-finite in Y^{++})."""

    datum: RootDatum
    classes: ParamClasses
    coeffs: tuple[tuple[Point, LaurentPoly], ...]

    @classmethod
    def single(cls, datum, classes, lam, coeff: LaurentPoly | None = None) -> "EFunction":
        return cls(datum, classes, ((tuple(lam), coeff or classes.one()),))


def e_function_expand(f: EFunction, target: Region) -> TruncatedElement:
    """Coefficients of sum_lam x_lam E(lam) on the target region.

    E(lam) is the orbit sum of lam; a target point rho picks up x_lam
    exactly when its dominant representative is lam.
    """
    datum, classes = f.datum, f.classes
    table = {}
    for lam, c in f.coeffs:
        rep = dominant_representative(datum, lam)
        if rep.status != IN_TITS_CONE or rep.dominant != tuple(lam):
            raise NotDominant(lam)
        table[tuple(lam)] = c
    e = identity(datum)
    coeffs = {}
    for rho in target.enumerate(datum):
        rep = dominant_representative(datum, rho)
        if rep.status != IN_TITS_CONE:
            raise TitsConeUndecided(rho, 0)
        c = table.get(rep.dominant)
        if c is not None:
            coeffs[(rho, e)] = c
    cert = AFCertificate(tuple(sorted(table)), (e,), dominant=True)
    return TruncatedElement(datum, classes, target, coeffs, cert)


# --- center ---

@dataclass(frozen=True)
class CenterVerdict:
    status: str
    probe: BLElement | None = None
    coordinate: tuple[Point, WeylElement] | None = None
    detail: str = ""
    skipped: tuple[BLElement, ...] = ()


def _probe_elements(a: TruncatedElement, z_probes) -> list[BLElement]:
    datum, classes = a.datum, a.classes
    probes = [BLElement.h_word(datum, classes, [i]) for i in range(datum.n)]
    if z_probes is None:
        z_probes = a.certificate.generators
    for mu in z_probes:
        if in_y_plus(datum, mu):
            probes.append(BLElement.z_monomial(datum, classes, mu))
    return probes


def center_test(
    a: TruncatedElement, z_probes=None, u_cap: int = 8
) -> CenterVerdict:
    """Decide centrality of a truncated element as far as its region allows.

    Any certified coordinate where a probe fails to commute gives
    NotCentral.  Central needs the structural characterization: identity
    Weyl support and orbit-invariant coefficients, with every relevant
    orbit finite and fully determined by the region and certificate.
    Everything else is Inconclusive: a truncation can only ever verify
    centrality up to what it sees.  The verdict lists in `skipped` the
    probes the walk refused to certify.

    The structural check enumerates an orbit only when its verdict could
    depend on it: an orbit that holds no stored coefficient, under a
    dominant certificate that refuses its dominant point, is certified
    zero at every point and is passed over unenumerated.  Such an orbit of
    more than 100,000 points therefore reads Central (exactly), where a
    capped enumeration would read Inconclusive.
    """
    support_y = a.known.support_y()
    skipped: list[BLElement] = []
    for p in _probe_elements(a, z_probes):
        tp = TruncatedElement.from_bl(p)
        lhs = mult_bl(a.known, p)
        rhs = mult_bl(p, a.known)
        cands = lhs.support_y() | rhs.support_y() | support_y
        try:
            _require_certifiable(a.certificate, u_cap, None)
            refused = {rho for rho, _ in _unknowns(cands, a, tp)}
            _require_certifiable(tp.certificate, u_cap, None if a.region is None else a.certificate)
            refused |= {rho for rho, _ in _unknowns(cands, tp, a)}
        except (InsufficientSource, CapExceeded):
            skipped.append(p)
            continue
        differ = (lhs - rhs).restrict_y(cands - refused)
        if not differ.is_zero():
            key = min(differ.support(), key=lambda k: (k[0], k[1].word))
            return CenterVerdict(
                NOT_CENTRAL,
                probe=p,
                coordinate=key,
                detail=f"a*x and x*a differ at {key[0]} H_{key[1].word}",
                skipped=tuple(skipped),
            )
    return replace(_structural_verdict(a, support_y), skipped=tuple(skipped))


def _structural_verdict(a: TruncatedElement, support_y) -> CenterVerdict:
    """The structural certification for a Central verdict."""
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
    stored = {dominant_representative(datum, lam).dominant for lam in support_y}
    seen_orbits: set[Point] = set()
    for lam in points:
        rep = dominant_representative(datum, lam)
        if rep.status != IN_TITS_CONE:
            continue
        if rep.dominant in seen_orbits:
            continue
        seen_orbits.add(rep.dominant)
        if (
            rep.dominant not in stored
            and a.certificate.dominant
            and not a.certificate.allows_y(datum, rep.dominant)
        ):
            continue  # every point of the orbit is certified zero
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

