"""Generalized Cartan matrices, free realizations and lattice arithmetic.

A root datum here is a matrix `A` together with a concrete integer lattice
`Y` (= Z^rank_y), simple coroots as vectors in Y and simple roots as
integer linear forms on Y, pairing to `A`.  The default realization has
dimension 2n - rank(A): coroots are the first n standard basis vectors,
and the roots are the columns of `A` extended by a primitive basis of
ker(A) so that they become linearly independent.  All arithmetic is exact.

Coordinates on the coroot basis (`q_coords`, behind dominance order and
heights) are an integer solve: each datum stores, once, n independent
rows of its coroot matrix with the integer adjugate and determinant of
that block, so a solve is a few integer multiplies, one divisibility
test per coordinate and a check of every row.

Dominance comparisons (`dominance_coords`, and `height_between` and
`dominance_leq` on top of it) are memoized in one table of at most
`DOMINANCE_MEMO_SIZE` entries keyed on `(datum, lo, hi)`.  Point lengths
are checked before the table is read, so every call with a wrong-length
point raises `PointLengthMismatch` and no refusal is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import linalg
from .errors import (
    AsymmetricZero,
    DependentCoroots,
    DependentRoots,
    DiagonalNotTwo,
    PairingMismatch,
    PointLengthMismatch,
    PositiveOffDiagonal,
    RealizationShape,
    InvalidJSONValue,
    ZeroForm,
    json_ints,
    json_value,
)

Point = tuple[int, ...]

FINITE = "Finite"
AFFINE = "Affine"
INDEFINITE = "Indefinite"
DOMINANCE_MEMO_SIZE = 1 << 14  # (datum, lo, hi) entries of the dominance memo
CLASSIFY_MEMO_SIZE = 1 << 10  # GCM entries of the type memo of `classify_gcm`


@dataclass(frozen=True)
class GCM:
    """A generalized Cartan matrix; construct through :func:`validate_gcm`."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.entries))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def submatrix(self, indices: tuple[int, ...]) -> "GCM":
        if indices == tuple(range(self.n)):
            return self  # immutable; `orbit_is_finite` asks for the whole matrix on every call
        return GCM(tuple(tuple(self.entries[i][j] for j in indices) for i in indices))


def validate_gcm(matrix) -> GCM:
    """Check the three Cartan axioms and wrap the matrix.

    >>> validate_gcm([[2]]).n
    1
    """
    if not isinstance(matrix, (list, tuple)):
        raise InvalidJSONValue(f"a GCM must be a list of rows, got {matrix!r}")
    rows = tuple(json_ints(row, "a GCM entry") for row in matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    for i in range(n):
        if rows[i][i] != 2:
            raise DiagonalNotTwo(i)
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] > 0:
                raise PositiveOffDiagonal(i, j)
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise AsymmetricZero(i, j)
    return GCM(rows)


@dataclass(frozen=True)
class RootDatum:
    """A GCM with a free realization on Y = Z^rank_y.

    `coroots[i]` is a vector in Y, `roots[i]` an integer linear form on Y
    (stored by its coordinates on the dual basis), and
    roots[j] . coroots[i] == gcm[i][j].

    `_solver` holds what `q_coords` needs: the indices of n independent
    rows of the coroot matrix C (rank_y x n, columns the coroots), read as
    the pivot columns of `linalg.bareiss` on the coroots; the integer
    adjugate and determinant of that n x n block; and C itself.
    """

    gcm: GCM
    rank_y: int
    coroots: tuple[Point, ...]
    roots: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash((self.gcm, self.rank_y, self.coroots, self.roots))
        )
        n = len(self.coroots)
        _, rows, _, _ = linalg.bareiss(self.coroots)
        if len(rows) < n:
            raise DependentCoroots()
        cmat = tuple(
            tuple(self.coroots[i][r] for i in range(n)) for r in range(self.rank_y)
        )
        det, adj = linalg.det_adjugate([cmat[r] for r in rows])
        object.__setattr__(self, "_solver", (tuple(rows), adj, det, cmat))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return self.gcm.n

    def pairing(self, i: int, v) -> int:
        """alpha_i(v) for v in Y."""
        return linalg.dot(self.roots[i], v)

    def zero(self) -> Point:
        return (0,) * self.rank_y


def build_realization(gcm: GCM, custom: tuple[int, tuple, tuple] | None = None) -> RootDatum:
    """Construct a root datum for `gcm`.

    Without `custom`, builds the 2n - rank(A) dimensional realization:
    coroots are standard basis vectors, roots are the columns of A
    followed by extra coordinates given by a primitive integer basis of
    ker(A) (so each affine component sees one extra direction and every
    root stays a primitive-friendly integer form).  With
    ``custom = (rank_y, coroots, roots)`` the given data is validated.
    """
    n = gcm.n
    if custom is not None:
        rank_y, coroots, roots = custom
        # exact types: JSON 1.9, true and "1" are no integer coordinates
        if type(rank_y) is not int or not all(
            isinstance(vecs, (list, tuple))
            and all(isinstance(v, (list, tuple)) and all(type(x) is int for x in v) for v in vecs)
            for vecs in (coroots, roots)
        ):
            raise RealizationShape(
                "rank_y must be an integer, coroots and roots lists of integer vectors"
            )
        coroots, roots = (tuple(map(tuple, vecs)) for vecs in (coroots, roots))
        for name, vecs in (("coroots", coroots), ("roots", roots)):
            if len(vecs) != n:
                raise RealizationShape(f"{len(vecs)} {name} given for a rank-{n} matrix")
            if any(len(v) != rank_y for v in vecs):
                raise RealizationShape(f"{name} must have rank_y = {rank_y} coordinates")
        if linalg.rank(list(roots)) < n:
            raise DependentRoots()
        datum = RootDatum(gcm, rank_y, coroots, roots)  # raises DependentCoroots
        for i in range(n):
            for j in range(n):
                if linalg.dot(roots[j], coroots[i]) != gcm[i, j]:
                    raise PairingMismatch(i, j)
        return datum

    kernel = linalg.kernel_basis_int(gcm.entries)
    extra = len(kernel)
    rank_y = n + extra
    coroots = tuple(
        tuple(1 if k == i else 0 for k in range(rank_y)) for i in range(n)
    )
    roots = tuple(
        tuple(gcm[i, j] for i in range(n)) + tuple(kernel[m][j] for m in range(extra))
        for j in range(n)
    )
    return RootDatum(gcm, rank_y, coroots, roots)


def q_coords(datum: RootDatum, v) -> Point | None:
    """Coordinates of `v` on the coroot basis, if `v` lies in the integer span.

    Solves the stored independent block, x = adj . v[rows] / det, and
    accepts x only if it is integral and reproduces every coordinate of v.
    """
    v = tuple(v)
    if len(v) != datum.rank_y:
        raise PointLengthMismatch(v, datum.rank_y)
    rows, adj, det, cmat = datum._solver
    sub = [v[r] for r in rows]
    coords = []
    for arow in adj:
        q, rem = divmod(linalg.dot(arow, sub), det)
        if rem:
            return None
        coords.append(q)
    coords = tuple(coords)
    if linalg.mat_vec(cmat, coords) != v:
        return None
    return coords


def dominance_leq(datum: RootDatum, x, y) -> bool:
    """x <= y in dominance order: y - x is a nonnegative integer coroot sum."""
    return height_between(datum, x, y) is not None


def dominance_coords(datum: RootDatum, lo, hi) -> Point | None:
    """Coroot coordinates of hi - lo when lo <= hi in dominance order, else None."""
    for p in (lo, hi):  # checked on every call, so a refusal is never memoized
        if len(p) != datum.rank_y:
            raise PointLengthMismatch(p, datum.rank_y)
    return _dominance_coords(datum, tuple(lo), tuple(hi))


def height_between(datum: RootDatum, lo, hi) -> int | None:
    """Height of hi - lo when lo <= hi in dominance order, else None."""
    q = dominance_coords(datum, lo, hi)
    return None if q is None else sum(q)


@lru_cache(maxsize=DOMINANCE_MEMO_SIZE)
def _dominance_coords(datum: RootDatum, lo: Point, hi: Point) -> Point | None:
    q = q_coords(datum, linalg.vec_sub(hi, lo))
    if q is None or not all(c >= 0 for c in q):
        return None
    return q


@dataclass(frozen=True)
class Component:
    indices: tuple[int, ...]
    kind: str
    # primitive positive right-kernel vector of the component's sub-GCM,
    # indexed by `indices`; None unless kind == Affine.  Its root combination
    # is the invariant linear form delta, its transpose analogue below spans
    # the component's inessential directions inside the coroot span.
    delta_coeffs: tuple[int, ...] | None
    coroot_kernel: tuple[int, ...] | None


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[Component, ...]

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(c.kind for c in self.components)


def _graph_components(gcm: GCM) -> list[tuple[int, ...]]:
    n = gcm.n
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        stack, block = [start], set()
        while stack:
            i = stack.pop()
            if i in block:
                continue
            block.add(i)
            for j in range(n):
                if j != i and gcm[i, j] != 0 and j not in block:
                    stack.append(j)
        seen |= block
        comps.append(tuple(sorted(block)))
    return comps


def classify_components(datum: RootDatum) -> ComponentReport:
    """Partition I into connected blocks and decide the type trichotomy."""
    return classify_gcm(datum.gcm)


@lru_cache(maxsize=CLASSIFY_MEMO_SIZE)
def classify_gcm(gcm: GCM) -> ComponentReport:
    """The blocks of a GCM and their types.

    Each block is an indecomposable GCM A, a matrix with nonpositive
    off-diagonal entries.  It is Finite iff some u > 0 has A u > 0, which
    for such a matrix holds iff every leading principal minor is positive
    (Fiedler and Ptak, Czech. Math. J. 12 (1962); cf. Kac, Infinite
    dimensional Lie algebras, Prop. 4.7).  Otherwise it is Affine iff
    ker A is spanned by one strictly positive vector (Kac, Thm. 4.3), and
    Indefinite if not.  The block's transpose has the same type, so an
    affine block's left kernel is spanned by one positive vector too.
    """
    comps = []
    for indices in _graph_components(gcm):
        sub = gcm.submatrix(indices).entries
        kind, delta, cokernel = INDEFINITE, None, None
        if linalg.leading_minors_positive(sub):
            kind = FINITE
        else:
            # primitive vectors start positive, so a one-signed one is positive
            ker = linalg.kernel_basis_int(sub)
            if len(ker) == 1 and all(c > 0 for c in ker[0]):
                kind, delta = AFFINE, ker[0]
                cokernel = linalg.kernel_basis_int(tuple(zip(*sub)))[0]
        comps.append(Component(indices, kind, delta, cokernel))
    return ComponentReport(tuple(comps))


def affine_delta(datum: RootDatum, comp: Component) -> Point:
    """The invariant linear form of an affine component, as a form on Y."""
    assert comp.kind == AFFINE
    form = [0] * datum.rank_y
    for c, i in zip(comp.delta_coeffs, comp.indices):
        for k in range(datum.rank_y):
            form[k] += c * datum.roots[i][k]
    return tuple(form)


def central_coroot(datum: RootDatum, comp: Component) -> Point:
    """The coroot-span generator of an affine component's inessential part."""
    assert comp.kind == AFFINE
    v = datum.zero()
    for c, i in zip(comp.coroot_kernel, comp.indices):
        v = linalg.vec_add(v, linalg.vec_scale(c, datum.coroots[i]))
    return v


def alpha_image_index(datum: RootDatum, i: int) -> int:
    """The positive generator g of alpha_i(Y) = g Z."""
    g = 0
    for x in datum.roots[i]:
        g = gcd(g, abs(x))
    if g == 0:
        raise ZeroForm(i)
    return g


# --- JSON round trip ---

def datum_to_json(datum: RootDatum) -> dict:
    return {
        "gcm": [list(row) for row in datum.gcm.entries],
        "rank_y": datum.rank_y,
        "coroots": [list(v) for v in datum.coroots],
        "roots": [list(v) for v in datum.roots],
    }


def datum_from_json(data: dict) -> RootDatum:
    data = json_value(data, dict, "a root datum")
    gcm = validate_gcm(data["gcm"])
    if ("coroots" in data) != ("roots" in data):
        raise ValueError("custom realizations need both coroots and roots")
    if "coroots" in data:
        rank_y = data.get("rank_y")
        if rank_y is None:
            try:
                rank_y = len(data["coroots"][0])
            except (IndexError, TypeError):
                rank_y = 0  # build_realization rejects the shape
        return build_realization(gcm, (rank_y, data["coroots"], data["roots"]))
    return build_realization(gcm)

