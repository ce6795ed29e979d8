"""Weyl group elements, length combinatorics, orbits and Tits-cone tests.

Each datum has one element store, `STORES[datum]`, that creates every
element once, with a small integer id (its index; the identity is 0) by
which the Hecke-algebra kernel keys its tables.  An element carries its
integer matrix on Y (the action is faithful), its canonical reduced word
and the pairings alpha_j(w.rho) of the image of a regular dominant rho,
so i is a left descent of w iff w^{-1}(alpha_i) is a negative root, iff
alpha_i(w.rho) < 0 (Bjorner-Brenti, ch. 4).

Every product is a fold over a word of one memoized left multiplication,
`left_mul(i, w) = r_i w`; only a miss multiplies matrices.  A new element
longer than w whose smallest left descent is i gets the word (i,) + the
word of w; any other new element gets its word from `_descend`.  Stores
are never emptied, so `ID_CAP` (2^20 elements per datum) holds for the
life of the process.

`_descend` is the one descent loop, in pairing coordinates: a point v is
its vector p = (alpha_j(v))_j, and reflecting v at i subtracts p_i times
row i of the Cartan matrix from p (Kac, 3.7).  It reflects at the smallest
negative p_i until none is left.  From the pairings of w.rho it spells the
canonical word of w; from any point it is the projection to the dominant
chamber (`dominant_representative`), memoized in one bounded table keyed
on (datum, point, budget), which `tits_cone_status` reads too.  The
projection keeps its reflection word and builds the minimal-length witness
from it only when `minimizer` is read, so callers that need just the
dominant point or the status do no Weyl-group multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import linalg
from .errors import (
    BudgetExceeded,
    FaceIsMinimal,
    FaceIsSpherical,
    OutsideTitsCone,
    PointLengthMismatch,
    SimpleIndexOutOfRange,
    TitsConeUndecided,
)
from .root_system import (
    AFFINE,
    FINITE,
    INDEFINITE,
    GCM,
    Point,
    RootDatum,
    _graph_components,
    classify_components,
    classify_gcm,
    height_between,
)

IN_TITS_CONE = "InTitsCone"
NOT_IN_TITS_CONE = "NotInTitsCone"
UNKNOWN = "Unknown"

DEFAULT_TITS_BUDGET = 1000
PROJECTION_MEMO_SIZE = 1 << 14  # entries of the dominant-projection memo
ORBIT_MEMO_SIZE = 1 << 7  # entries of the orbit memo
ORBIT_MEMO_POINTS = 1 << 12  # points of the largest orbit it keeps
ID_CAP = 1 << 20  # element ids per datum, for the life of the process


class WeylElement:
    """A Weyl group element; its store builds one object per element, so equality is identity.

    `pairings` is (alpha_j(w.rho))_j for a regular dominant rho, so
    pairings[i] < 0 exactly when i is a left descent of w.  Hashing the
    Y-matrix keeps set orders independent of creation order.
    """

    __slots__ = ("datum", "matrix", "word", "pairings", "id", "_left", "_hash")

    def __init__(self, datum: RootDatum, matrix, word, pairings, wid: int):
        self.datum = datum
        self.matrix = matrix
        self.word = word
        self.pairings = pairings
        self.id = wid
        self._left: dict[int, WeylElement] = {}  # i -> r_i * self, filled by left_mul
        self._hash = hash(matrix)

    @property
    def length(self) -> int:
        return len(self.word)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # a copy or an unpickled element resolves to the receiving store's object
        return element_from_word, (self.datum, self.word)

    def __repr__(self):
        if not self.word:
            return "W(e)"
        return "W(" + "*".join(f"r{i + 1}" for i in self.word) + ")"

    def apply(self, v) -> Point:
        v = tuple(v)
        if len(v) != self.datum.rank_y:  # linalg.dot stops at the shorter vector
            raise PointLengthMismatch(v, self.datum.rank_y)
        return linalg.mat_vec(self.matrix, v)


class ElementStore:
    """The Weyl elements of one datum created so far, by id and by Y-matrix."""

    __slots__ = ("elems", "by_matrix")

    def __init__(self, datum: RootDatum):
        # alpha_i(rho) = 1 for every i: such a rho exists over Q, the roots being independent
        e = WeylElement(datum, linalg.identity_matrix(datum.rank_y), (), (1,) * datum.n, 0)
        self.elems = [e]
        self.by_matrix = {e.matrix: e}


class _Stores(dict):
    def __missing__(self, datum: RootDatum) -> ElementStore:
        store = self[datum] = ElementStore(datum)
        return store


STORES: dict[RootDatum, ElementStore] = _Stores()


def _reflect_y(datum: RootDatum, i: int, matrix):
    """r_i times a Y-matrix: each column v becomes v - alpha_i(v) alpha_i^v."""
    pairs = [datum.pairing(i, col) for col in zip(*matrix)]
    return tuple(
        tuple(m - c * p for m, p in zip(row, pairs)) for row, c in zip(matrix, datum.coroots[i])
    )


def reflect(datum: RootDatum, i: int, v) -> Point:
    v = tuple(v)
    return linalg.vec_sub(v, linalg.vec_scale(datum.pairing(i, v), datum.coroots[i]))


def _descend(datum: RootDatum, p, limit: int | None):
    """Reflect at the smallest negative entry of `p`, the pairings of a point v, until none is left.

    Returns the c with v - sum_i c_i alpha_i^v dominant and the indices
    reflected at, in order, or None if more than `limit` reflections would
    be needed.  From w.rho the indices spell the canonical word of w: each
    is the smallest left descent of what is left.
    """
    rows = datum.gcm.entries  # row i: alpha_j(alpha_i^v) for every j
    mults = [0] * datum.n
    word = []
    while True:
        for i, c in enumerate(p):
            if c < 0:
                break
        else:
            return mults, tuple(word)
        if limit is not None and len(word) >= limit:
            return None
        p = [x - c * a for x, a in zip(p, rows[i])]
        mults[i] += c
        word.append(i)


def left_descents(w: WeylElement) -> list[int]:
    """Indices i with l(r_i w) = l(w) - 1."""
    return [i for i, x in enumerate(w.pairings) if x < 0]


def left_mul(i: int, w: WeylElement) -> WeylElement:
    """The element r_i w, memoized on w; a miss is the only place a product is computed."""
    x = w._left.get(i)
    if x is not None:
        return x
    datum = w.datum
    if not 0 <= i < datum.n:
        raise SimpleIndexOutOfRange(i, datum.n)
    store = STORES[datum]
    matrix = _reflect_y(datum, i, w.matrix)
    x = store.by_matrix.get(matrix)
    if x is None:
        wid = len(store.elems)
        if wid >= ID_CAP:
            raise BudgetExceeded(ID_CAP, "Weyl elements of one root datum")
        c = w.pairings[i]
        pairings = tuple(p - c * a for p, a in zip(w.pairings, datum.gcm.entries[i]))
        if pairings[i] < 0 and all(p >= 0 for p in pairings[:i]):  # longer, smallest descent i
            word = (i,) + w.word
        else:
            word = _descend(datum, pairings, None)[1]  # one reflection per letter of r_i w
        x = WeylElement(datum, matrix, word, pairings, wid)
        store.elems.append(x)
        store.by_matrix[matrix] = x
    w._left[i] = x
    x._left[i] = w  # r_i r_i w = w
    return x


def identity(datum: RootDatum) -> WeylElement:
    return STORES[datum].elems[0]


def simple_reflection(datum: RootDatum, i: int) -> WeylElement:
    return left_mul(i, identity(datum))


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    """Group product: the letters of a's word applied to b by `left_mul`."""
    if a.datum != b.datum:
        raise ValueError("elements belong to different root data")
    for i in reversed(a.word):
        b = left_mul(i, b)
    return b


def element_from_word(datum: RootDatum, word) -> WeylElement:
    w = identity(datum)
    for i in reversed(tuple(word)):
        w = left_mul(i, w)
    return w


def inverse(w: WeylElement) -> WeylElement:
    return element_from_word(w.datum, tuple(reversed(w.word)))


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the lifting property.

    Peeling the last letter i of (a reduced word of) w: if i is a right
    descent of u then u <= w iff u r_i <= w r_i, otherwise u <= w iff
    u <= w r_i.  The answer is independent of the stored word of w.
    """
    if u.datum != w.datum:
        raise ValueError("elements belong to different root data")
    if u.length > w.length:
        return False
    datum = u.datum
    x = inverse(u)  # the right descents of u are the left descents of x
    for i in reversed(w.word):
        if not x.word:
            return True
        if x.pairings[i] < 0:
            x = left_mul(i, x)
    return not x.word


def all_reduced_words(w: WeylElement, cap: int = 10_000) -> set[tuple[int, ...]]:
    """Every reduced word of w, by branching over left descents."""
    out: set[tuple[int, ...]] = set()

    def rec(x, prefix):
        if len(out) >= cap:
            raise BudgetExceeded(cap, "reduced word enumeration")
        if not x.word:
            out.add(tuple(prefix))
            return
        for i in left_descents(x):
            prefix.append(i)
            rec(left_mul(i, x), prefix)
            prefix.pop()

    rec(w, [])
    return out


def bruhat_interval(u: WeylElement) -> set[WeylElement]:
    """The full interval [1, u]: all products of subwords of one reduced word."""
    elems = {identity(u.datum)}
    for i in reversed(u.word):
        elems |= {left_mul(i, x) for x in elems}
    return elems


# --- Tits cone and dominance projections ---

@dataclass(frozen=True)
class DominantReport:
    """The dominant point of a projection, the reflections that reach it, and its status.

    `word` lists the simple reflections applied to the input, in order;
    `minimizer` is the minimal-length w with w(dominant) = input, built
    from that word (the store gives it its canonical word) each time it
    is read.
    """

    datum: RootDatum = field(repr=False)
    dominant: Point | None
    word: tuple[int, ...] | None
    status: str

    @property
    def minimizer(self) -> WeylElement | None:
        if self.word is None:
            return None
        return element_from_word(self.datum, self.word)


def dominant_representative(
    datum: RootDatum, lam, budget: int = DEFAULT_TITS_BUDGET
) -> DominantReport:
    """Project lam to the dominant chamber, recording a minimal-length witness.

    `_descend` reflects at the smallest i with alpha_i(lam) < 0.  Membership
    in the Tits cone is decided exactly on finite components (always
    inside) and affine components (sign of the invariant form delta);
    indefinite components are semi-decided within `budget` steps.
    """
    return _project(datum, tuple(lam), budget)


@lru_cache(maxsize=PROJECTION_MEMO_SIZE)
def _project(datum: RootDatum, lam: Point, budget: int) -> DominantReport:
    if len(lam) != datum.rank_y:
        raise PointLengthMismatch(lam, datum.rank_y)
    p = [datum.pairing(i, lam) for i in range(datum.n)]
    decided = True
    for comp in classify_components(datum).components:
        vals = [p[i] for i in comp.indices]
        if comp.kind == AFFINE:
            level = linalg.dot(comp.delta_coeffs, vals)  # delta = sum_i a_i alpha_i
            if level < 0 or (level == 0 and any(vals)):
                return DominantReport(datum, None, None, NOT_IN_TITS_CONE)
        elif comp.kind == INDEFINITE and any(vals):
            decided = False

    found = _descend(datum, p, None if decided else budget)
    if found is None:
        return DominantReport(datum, None, None, UNKNOWN)
    mults, word = found
    dominant = tuple(x - linalg.dot(mults, col) for x, col in zip(lam, zip(*datum.coroots)))
    return DominantReport(datum, dominant, word, IN_TITS_CONE)


def tits_cone_status(datum: RootDatum, lam, budget: int = DEFAULT_TITS_BUDGET) -> str:
    return _project(datum, tuple(lam), budget).status


def height_drop(datum: RootDatum, lam) -> int | None:
    """Height of dom(lam) - lam, or None unless lam is known to lie in the Tits cone."""
    rep = dominant_representative(datum, lam)
    if rep.status != IN_TITS_CONE:
        return None
    return height_between(datum, lam, rep.dominant)


def in_y_plus(datum: RootDatum, lam, budget: int = DEFAULT_TITS_BUDGET) -> bool:
    st = tits_cone_status(datum, lam, budget)
    if st == UNKNOWN:
        raise TitsConeUndecided(tuple(lam), budget)
    return st == IN_TITS_CONE


@dataclass(frozen=True)
class OrbitResult:
    points: tuple[Point, ...]
    complete: bool

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def orbit_enumerate(
    datum: RootDatum,
    lam,
    max_length: int | None = None,
    max_height_drop: int | None = None,
    max_count: int | None = 100_000,
) -> OrbitResult:
    """Breadth-first orbit of lam under the simple reflections.

    Complete means the walk closed with no cap ever rejecting a point.
    The height cap bounds |h(mu - lam)|, exact because every orbit point
    differs from lam by an integer coroot vector.
    """
    start = tuple(lam)
    if len(start) != datum.rank_y:
        raise PointLengthMismatch(start, datum.rank_y)
    got = _orbit_memo(datum, start, max_length, max_height_drop, max_count)
    if got is None:
        got = _orbit_walk(datum, start, max_length, max_height_drop, max_count)
    return got


@lru_cache(maxsize=ORBIT_MEMO_SIZE)
def _orbit_memo(
    datum: RootDatum, start: Point, max_length, max_height_drop, max_count
) -> OrbitResult | None:
    """The walk's result when it has at most ORBIT_MEMO_POINTS points, else None.

    Past that size the walk is cut at ORBIT_MEMO_POINTS + 1 points; until
    then the count cap is not reached, so a smaller result is the full one.
    """
    if max_count is not None and max_count <= ORBIT_MEMO_POINTS:
        return _orbit_walk(datum, start, max_length, max_height_drop, max_count)
    got = _orbit_walk(datum, start, max_length, max_height_drop, ORBIT_MEMO_POINTS + 1)
    return got if len(got) <= ORBIT_MEMO_POINTS else None


def _orbit_walk(datum: RootDatum, start: Point, max_length, max_height_drop, max_count):
    seen: dict[Point, int] = {start: 0}  # point -> height offset from start
    frontier = [start]
    depth = 0
    pruned = False
    while frontier:
        if max_length is not None and depth >= max_length:
            for p in frontier:
                if any(reflect(datum, i, p) not in seen for i in range(datum.n)):
                    pruned = True
                    break
            break
        nxt = []
        for p in frontier:
            hp = seen[p]
            for i in range(datum.n):
                step = -datum.pairing(i, p)  # h(r_i p) - h(p)
                q = reflect(datum, i, p)
                if q in seen:
                    continue
                hq = hp + step
                if max_height_drop is not None and abs(hq) > max_height_drop:
                    pruned = True
                    continue
                if max_count is not None and len(seen) >= max_count:
                    pruned = True
                    continue
                seen[q] = hq
                nxt.append(q)
        frontier = nxt
        depth += 1
    return OrbitResult(tuple(sorted(seen)), complete=not pruned)


def orbit_is_finite(datum: RootDatum, lam, budget: int = DEFAULT_TITS_BUDGET) -> bool:
    """Exact finiteness of the full orbit of a Tits-cone point.

    The orbit is finite iff every affine or indefinite component pairs
    trivially with lam, so that only finite-type components move it.
    """
    if not in_y_plus(datum, lam, budget):  # raises TitsConeUndecided past the budget
        raise OutsideTitsCone(lam)
    return suborbit_is_finite(datum, range(datum.n), lam)


# --- parabolic subgroups and the non-sphericity witness ---

def parabolic_is_finite(datum: RootDatum, j: tuple[int, ...]) -> bool:
    """Whether the standard parabolic W_J is a finite group."""
    report = classify_gcm(datum.gcm.submatrix(tuple(sorted(j))))
    return all(c.kind == FINITE for c in report.components)


def suborbit_is_finite(datum: RootDatum, j: tuple[int, ...], v) -> bool:
    """Exact finiteness of W_J . v for a standard parabolic W_J.

    Finite iff every non-finite component of the sub-matrix on J pairs
    trivially with v; non-finite components act on any point they see
    with infinite orbit (translations in the affine case, unbounded
    hyperbolic drift in the indefinite one).
    """
    j = tuple(sorted(j))
    return all(
        comp.kind == FINITE or all(datum.pairing(j[k], v) == 0 for k in comp.indices)
        for comp in classify_gcm(datum.gcm.submatrix(j)).components
    )


def parabolic_elements(datum: RootDatum, j: tuple[int, ...], cap: int = 100_000) -> list[WeylElement]:
    """All elements of a finite standard parabolic W_J, by closure."""
    gens = sorted(set(j))
    elems = {identity(datum)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for i in gens:
                y = left_mul(i, x)
                if y not in elems:
                    if len(elems) >= cap:
                        raise BudgetExceeded(cap, "parabolic subgroup closure")
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elems, key=lambda w: (w.length, w.word))


def face_point(datum: RootDatum, j_zero, j_pos) -> Point:
    """An integer point u with alpha_i(u) = 0 on J_zero and > 0 on J_pos.

    Solves alpha_i(u) = 0 on J_zero and 1 on J_pos exactly (free
    coordinates zero) and takes the least positive multiple of that
    solution that is integral, so the output is deterministic.
    """
    zero, pos = sorted(j_zero), sorted(j_pos)
    rows = [datum.roots[i] for i in zero + pos]
    u = linalg.solve_exact(rows, [0] * len(zero) + [1] * len(pos))
    if u is None:
        raise AssertionError("face system is always solvable for a free realization")
    return u


def _gcm_graph_path(gcm: GCM, sources, target: int) -> list[int] | None:
    """Shortest path in the nonzero-entry graph from any source to target."""
    from collections import deque

    prev: dict[int, int | None] = {}
    dq = deque()
    for s in sorted(sources):
        prev[s] = None
        dq.append(s)
    while dq:
        x = dq.popleft()
        if x == target:
            path = [x]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return list(reversed(path))
        for y in range(gcm.n):
            if y != x and gcm[x, y] != 0 and y not in prev:
                prev[y] = x
                dq.append(y)
    return None


def infinite_orbit_witness(
    datum: RootDatum,
    j_zero,
    j_pos=None,
    u: Point | None = None,
) -> WeylElement:
    """An element w such that W_{J_zero} . (w . u) is infinite.

    The face data is: alpha_i = 0 on J_zero, alpha_i > 0 on J_pos, with u
    an interior point.  Requires the parabolic on J_zero to be infinite
    and J_pos nonempty.  The construction: pick k whose coroot has
    infinite W_{J_zero}-orbit (preferring k in J_pos, which makes the
    connecting path trivial), walk a nonzero-pairing chain along a graph
    path from J_pos to k, and correct by r_k if the image still has
    finite orbit.
    """
    j_zero = tuple(sorted(set(j_zero)))
    if j_pos is None:
        j_pos = tuple(i for i in range(datum.n) if i not in j_zero)
    j_pos = tuple(sorted(set(j_pos)))
    if set(j_zero) & set(j_pos):
        raise ValueError("J_zero and J_pos must be disjoint")
    if parabolic_is_finite(datum, j_zero):
        raise FaceIsSpherical(j_zero)
    if not j_pos:
        raise FaceIsMinimal()
    if len(_graph_components(datum.gcm)) != 1:
        raise ValueError("matrix must be indecomposable; apply per component")
    if u is None:
        u = face_point(datum, j_zero, j_pos)

    k = next(
        (
            i
            for i in list(j_pos) + [i for i in range(datum.n) if i not in j_pos]
            if not suborbit_is_finite(datum, j_zero, datum.coroots[i])
        ),
        None,
    )
    if k is None:
        raise AssertionError("an infinite coroot orbit exists when W_J is infinite")
    path = _gcm_graph_path(datum.gcm, j_pos, k)
    if path is None:
        raise AssertionError("the graph of an indecomposable matrix is connected")

    def stage(x):
        # largest m with alpha_{path[m]}(x) != 0; pairings beyond it vanish
        m = None
        for idx in range(len(path)):
            if datum.pairing(path[idx], x) != 0:
                m = idx
        return m

    x = tuple(u)
    w = identity(datum)
    m = stage(x)
    assert m is not None
    while m < len(path) - 1:
        i = path[m]
        x = reflect(datum, i, x)
        w = left_mul(i, w)
        m = stage(x)
    assert datum.pairing(k, x) != 0
    if suborbit_is_finite(datum, j_zero, x):
        w = left_mul(k, w)
        x = reflect(datum, k, x)
    if suborbit_is_finite(datum, j_zero, x):
        raise AssertionError("one of the two candidates must have infinite orbit")
    return w


# --- JSON ---

def weyl_to_json(w: WeylElement) -> dict:
    return {"word": list(w.word), "matrix": [list(r) for r in w.matrix]}
