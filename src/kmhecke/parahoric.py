"""Hecke algebras of spherical faces, modeled by double-coset sums in H.

A face datum is a subset J_zero of simple indices (pairings vanishing on
the face direction); the face is spherical when the parabolic W_F it
generates is finite, and only then does the double-coset algebra exist.
Coset sums are taken in the T-normalization T_(mu,x) = sigma_x Z^mu H_x,
so a product of two coset sums is a combination of coset sums whose
coefficients the Poincare polynomial of W_F divides; the structure
constants are those quotients.  For
a non-spherical face the same recipe provably fails: the module exposes
the constructive witness, a stream of pairwise-distinct elements of one
would-be structure-constant set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff_ring import LaurentPoly, param_ring_for
from .errors import (
    FaceIsMinimal,
    FaceIsSpherical,
    NonSpherical,
    NotDivisible,
    OutsideTitsCone,
    SimpleIndexOutOfRange,
)
from .hecke_bl import BLElement, mult_bl
from .root_system import Point, RootDatum
from .weyl import (
    WeylElement,
    element_from_word,
    face_point,
    height_drop,
    in_y_plus,
    infinite_orbit_witness,
    inverse,
    multiply,
    parabolic_elements,
    parabolic_is_finite,
    reflect,
)


@dataclass(frozen=True)
class FaceType:
    datum: RootDatum
    j_zero: tuple[int, ...]
    j_pos: tuple[int, ...]
    spherical: bool


def face_type(datum: RootDatum, j_zero) -> FaceType:
    """Classify the face with vanishing pairings exactly on j_zero."""
    j_zero = tuple(sorted(set(j_zero)))
    for i in j_zero:
        if not 0 <= i < datum.n:
            raise SimpleIndexOutOfRange(i, datum.n)
    j_pos = tuple(i for i in range(datum.n) if i not in j_zero)
    return FaceType(datum, j_zero, j_pos, parabolic_is_finite(datum, j_zero))


@dataclass(frozen=True)
class CosetLabel:
    """Canonical representative of a double coset W_F (t_lam w) W_F.

    Minimal under (height drop of the Y-part from its dominant
    representative, Y-part, word); two labels agree iff the cosets do.
    """

    lam: Point
    word: tuple[int, ...]

    def to_json(self):
        return {"lambda": list(self.lam), "word": list(self.word)}


def _fixer_elements(face: FaceType) -> list[WeylElement]:
    if not face.spherical:
        raise NonSpherical(face.j_zero)
    return parabolic_elements(face.datum, face.j_zero)


def double_coset(
    face: FaceType, lam, w: WeylElement
) -> tuple[CosetLabel, tuple[tuple[Point, WeylElement], ...]]:
    """Enumerate W_F (t_lam w) W_F inside Y x| W^v and pick the canonical label.

    In the semidirect product, x t_lam w y = t_{x(lam)} (x w y), so the
    coset is the finite set of such pairs; its size divides |W_F|^2.
    """
    datum = face.datum
    wf = _fixer_elements(face)
    lam = tuple(lam)
    pairs = {(x.apply(lam), multiply(multiply(x, w), y)) for x in wf for y in wf}

    def key(pair):
        mu, x = pair
        drop = height_drop(datum, mu)
        if drop is None and not in_y_plus(datum, mu):  # in_y_plus raises when undecided
            raise OutsideTitsCone(lam)  # Y+ is W-invariant, so lam lies outside too
        return (drop, mu, x.word)

    pairs = tuple(sorted(pairs, key=key))
    return CosetLabel(pairs[0][0], pairs[0][1].word), pairs


def coset_sum(face: FaceType, pairs) -> BLElement:
    """X_D = sum of sigma_x Z^mu H_x over the coset."""
    datum = face.datum
    classes = param_ring_for(datum)
    terms = {}
    for mu, x in pairs:
        terms[(tuple(mu), x)] = classes.word_monomial(x.word)
    return BLElement(datum, classes, terms)


def coset_sum_of_label(face: FaceType, label: CosetLabel) -> BLElement:
    _, pairs = double_coset(face, label.lam, element_from_word(face.datum, label.word))
    return coset_sum(face, pairs)


def poincare_polynomial(face: FaceType) -> LaurentPoly:
    """P_F = sum over W_F of the squared parameter monomials."""
    classes = param_ring_for(face.datum)
    total = classes.zero()
    for x in _fixer_elements(face):
        total = total + classes.word_monomial(x.word, power=2)
    return total


def decompose_in_coset_sums(face: FaceType, element: BLElement) -> dict[CosetLabel, LaurentPoly]:
    """Write an element as a combination of coset sums, or fail loudly.

    The smallest remaining key names a double coset; the multiple of its
    coset sum that clears that key is subtracted, until nothing is left.
    Reaching a coset a second time means the element is no such
    combination.  So an answer always rebuilds the element exactly, and
    the normalization of a coset sum is read from `coset_sum` alone.
    """
    result: dict[CosetLabel, LaurentPoly] = {}
    remaining = element
    while not remaining.is_zero():
        lam, x = min(remaining.support(), key=lambda k: (k[0], k[1].word))
        label, pairs = double_coset(face, lam, x)
        if label in result:
            raise NotDivisible(
                f"element is not a combination of coset sums (left over at {lam} H_{x.word})"
            )
        x_d = coset_sum(face, pairs)
        result[label] = remaining.coeff(lam, x) * x_d.coeff(lam, x) ** -1
        remaining = remaining - x_d.scale(result[label])
    return result


def parahoric_product(
    face: FaceType, d1: CosetLabel, d2: CosetLabel
) -> dict[CosetLabel, LaurentPoly]:
    """Structure constants of X_{d1} * X_{d2}: its coset-sum coefficients over P_F.

    The product of two coset sums must be a combination of coset sums
    whose coefficients P_F divides; failure of either the grouping or a
    division is a model-consistency error and is reported, never rounded
    away.
    """
    prod = mult_bl(coset_sum_of_label(face, d1), coset_sum_of_label(face, d2))
    pf = poincare_polynomial(face)
    constants: dict[CosetLabel, LaurentPoly] = {}
    for label, a in decompose_in_coset_sums(face, prod).items():
        c = a.exact_div(pf)
        if c is None:
            raise NotDivisible(
                f"coset-sum coefficient at {label.lam} H_{label.word} is not divisible by P_F"
            )
        constants[label] = c
    return constants


def tree_orbit_size(l: int, q=None, qprime=None):
    """Size of a sphere orbit in the semi-homogeneous wall tree.

    An alternating product q' q q' ... with exactly l - 1 factors,
    starting with q'.  Symbolic (two-variable Laurent polynomial) when
    neither parameter is given; giving only one raises ValueError.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if (q is None) != (qprime is None):
        raise ValueError("give both q and q' or neither")
    n_qp = (l - 1 + 1) // 2
    n_q = (l - 1) // 2
    if q is None:
        return LaurentPoly.monomial((n_q, n_qp))
    return (q ** n_q) * (qprime ** n_qp)


@dataclass(frozen=True)
class ObstructionElement:
    """One verified element of the infinite would-be structure-constant set."""

    point: Point
    fixer_word: tuple[int, ...]

    def to_json(self):
        return {"point": list(self.point), "fixer_word": list(self.fixer_word)}


@dataclass(frozen=True)
class ObstructionStream:
    witness: WeylElement
    face_interior_point: Point
    elements: tuple[ObstructionElement, ...]


def nonspherical_failure_stream(face: FaceType, count: int) -> ObstructionStream:
    """Produce `count` distinct elements of W_F . w . F for the witness w.

    Each element is returned as the point x w u for a fixed interior
    point u of the face and some x in W_F, and verified on the spot:
    (x w)^{-1} carries the point back to u, and x fixes u, which restates
    the two distance identities making the set a subset of the sphere
    intersection whose cardinality would be the structure constant.
    """
    datum = face.datum
    if face.spherical:
        raise FaceIsSpherical(face.j_zero)
    if not face.j_pos:
        raise FaceIsMinimal()
    u = face_point(datum, face.j_zero, face.j_pos)
    w = infinite_orbit_witness(datum, face.j_zero, face.j_pos, u)
    base = w.apply(u)

    elements: list[ObstructionElement] = []
    seen: dict[Point, tuple[int, ...]] = {tuple(base): ()}
    queue: list[Point] = [tuple(base)]
    order: list[Point] = [tuple(base)]
    while len(order) < count and queue:
        nxt = []
        for p in queue:
            for j in face.j_zero:
                p2 = reflect(datum, j, p)
                if p2 not in seen:
                    seen[p2] = (j,) + seen[p]
                    nxt.append(p2)
                    order.append(p2)
        queue = nxt
        if not nxt and len(order) < count:
            raise AssertionError("witness orbit closed early; obstruction violated")

    for p in order[:count]:
        xword = seen[p]
        x = element_from_word(datum, xword)
        xw = multiply(x, w)
        if inverse(xw).apply(p) != tuple(u):
            raise AssertionError("distance identity back to the base face failed")
        if x.apply(u) != tuple(u):
            raise AssertionError("fixer element moved the face point")
        elements.append(ObstructionElement(p, xword))
    return ObstructionStream(w, tuple(u), tuple(elements))
