"""Exact Laurent polynomials in the Hecke parameter classes.

The 2n symbols sigma_i, sigma_i' collapse into classes: sigma_i ~ sigma_i'
when alpha_i takes all integer values on Y, and all four symbols of i and j
merge when a_ij = a_ji = -1 (the generators are then conjugate).  One
canonical variable survives per class, and every variable is invertible.

This module owns the one stored form of a polynomial: a `{packed
exponents: int}` map with no zero entries, where `pack` writes an exponent
vector as one integer in balanced base 2^24 digits, so multiplying
monomials is integer addition.  `LaurentPoly` is a view over one such
map, and the Bernstein-Lusztig product runs on the maps themselves,
through `mul` and the multiply-accumulate loops of `hecke_bl`.  `pack`
refuses an entry outside the digit range.  With `half=SUM_HALF` it
refuses one outside half of it, and so does `require_summable` for a
vector already packed; the sum of two such vectors cannot carry, and the
product kernel holds the points it adds to that bound.  Products add
packed exponents unchecked, so the products (`LaurentPoly` `*`, and
through it `**`, here; `mult_bl` and `BLElement.scale` in `hecke_bl`)
first refuse, through `require_factors`, a factor with an exponent
outside -FACTOR_HALF .. FACTOR_HALF - 1 (2^21).
The kernel adds two such exponents to memo exponents bounded by word
lengths, which stay below `weyl.ID_CAP` (2^20), so no sum reaches 2^23.
Stored maps are never mutated; only a map its creator has just built is
accumulated into.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CoordinateOutOfRange, ExponentLengthMismatch, OddExponent, ZeroSpecialization
from .errors import json_ints, json_value
from .root_system import RootDatum, alpha_image_index

Exponents = tuple[int, ...]
Packed = dict[int, int]

_BITS = 24
_BASE = 1 << _BITS
_HALF = _BASE >> 1
SUM_HALF = _HALF >> 1  # entries of vectors that are added to one another in packed form
FACTOR_HALF = SUM_HALF >> 1  # exponents of the factors of a coefficient product
PARAM_RING_MEMO_SIZE = 1 << 7  # root-datum entries of the `param_ring_for` memo
MASKS_MEMO_SIZE = 1 << 6  # (length, half) entries of the `_masks` memo


def pack(e, half: int = _HALF) -> int:
    """An integer vector as one integer, coordinate k in digit k; refuses a
    coordinate outside -half .. half - 1.  The default is the digit range,
    beyond which a coordinate would carry into the next."""
    r = 0
    for x in reversed(e):
        if not -half <= x < half:
            raise CoordinateOutOfRange(f"entry {x} of {tuple(e)} is outside {-half}..{half - 1}")
        r = r * _BASE + x
    return r


@lru_cache(maxsize=MASKS_MEMO_SIZE)
def _masks(n: int, half: int) -> tuple[int, int, int]:
    """(offset, mask, want) testing packed n-vectors against -half .. half - 1.

    With offset added, entry e becomes the unsigned digit e + _HALF.  For
    half = 2^k <= SUM_HALF, e lies in -half .. half - 1 exactly when the
    digit's bits 23 .. k read 01..1 or 10..0: bits 23 and 22 differ and
    bits 22 .. k agree.  u ^ (u >> 1) sets bit j where bits j and j + 1
    of u differ, so one mask over all n digits tests every entry.
    """
    ones = (_BASE**n - 1) // (_BASE - 1)  # the digit 1 in each of n places
    return _HALF * ones, (2 * SUM_HALF - half) * ones, SUM_HALF * ones


def require_summable(r: int, n: int):
    """Refuse the packed n-vector r unless every entry lies in -SUM_HALF .. SUM_HALF - 1."""
    offset, mask, want = _masks(n, SUM_HALF)
    u = r + offset
    if (u ^ (u >> 1)) & mask != want:
        pack(unpack(r, n), SUM_HALF)  # raises, naming the entry


def require_factors(maps, n: int):
    """Refuse unless every exponent of the packed maps lies in -FACTOR_HALF .. FACTOR_HALF - 1."""
    offset, mask, want = _masks(n, FACTOR_HALF)
    for p in maps:
        for e in p:
            u = e + offset
            if (u ^ (u >> 1)) & mask != want:
                pack(unpack(e, n), FACTOR_HALF)  # raises, naming the entry


def unpack(r: int, n: int) -> tuple[int, ...]:
    """The n-vector `pack` encoded as r."""
    out = []
    for _ in range(n):
        d = ((r + _HALF) % _BASE) - _HALF
        out.append(d)
        r = (r - d) // _BASE
    return tuple(out)


def mul(p: Packed, q: Packed) -> Packed:
    """The product p * q of zero-free maps, as a new zero-free map."""
    out: Packed = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c} if 0 in out.values() else out


def add(p: Packed, q: Packed) -> Packed:
    """The sum p + q as a new zero-free map."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


class LaurentPoly:
    """Sparse Laurent polynomial over Z, stored as one packed map; never mutated.

    `coeffs` decodes it to a fresh `{exponent tuple: int}` map on every read.
    """

    __slots__ = ("nvars", "packed")

    def __init__(self, nvars: int, coeffs: dict[Exponents, int] | None = None):
        packed = {}
        for e, c in (coeffs or {}).items():
            if len(e) != nvars:
                raise ExponentLengthMismatch(
                    f"exponents {tuple(e)} have {len(e)} entries, the ring has {nvars} classes"
                )
            if c != 0:
                packed[pack(e)] = c
        self.nvars, self.packed = nvars, packed

    # --- constructors ---

    @classmethod
    def from_packed(cls, nvars: int, packed: Packed) -> "LaurentPoly":
        """Wrap a zero-free packed map that no one mutates afterwards."""
        poly = cls.__new__(cls)
        poly.nvars, poly.packed = nvars, packed
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: int(c)})

    @classmethod
    def variable(cls, nvars: int, k: int, power: int = 1) -> "LaurentPoly":
        exps = tuple(power if j == k else 0 for j in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, exps: Exponents, c: int = 1) -> "LaurentPoly":
        return cls(len(exps), {tuple(exps): int(c)})

    # --- structure ---

    @property
    def coeffs(self) -> dict[Exponents, int]:
        n = self.nvars
        return {unpack(e, n): c for e, c in self.packed.items()}

    def is_zero(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        return self.packed == {0: 1}

    def is_monomial(self) -> bool:
        return len(self.packed) == 1

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.packed.items())))

    def __bool__(self):
        return bool(self.packed)

    # --- arithmetic ---

    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("mixing polynomials over different parameter rings")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return LaurentPoly.from_packed(self.nvars, add(self.packed, other.packed))

    def __neg__(self) -> "LaurentPoly":
        return self * -1

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            terms = self.packed.items() if other else ()
            return LaurentPoly.from_packed(self.nvars, {e: c * other for e, c in terms})
        self._check(other)
        require_factors((self.packed, other.packed), self.nvars)
        return LaurentPoly.from_packed(self.nvars, mul(self.packed, other.packed))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if not self.is_monomial():
                raise ValueError("only monomials are invertible")
            (e, c), = self.packed.items()
            if c not in (1, -1):
                raise ValueError("only unit-coefficient monomials are invertible")
            return LaurentPoly.from_packed(self.nvars, {-e: c}) ** (-k)
        out = LaurentPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly | None":
        """Exact quotient self / other, or None when not divisible.

        Laurent exponents are first shifted to ordinary ones; division then
        runs by leading-term elimination in the order of the packed keys
        (lexicographic from the last variable), which terminates because
        exponents are bounded below by zero.  An exact quotient is unique,
        so the order chosen does not change the answer.  Like `*`, it refuses
        an exponent of either operand outside -FACTOR_HALF .. FACTOR_HALF - 1,
        so every quotient exponent fits its packed digit.
        """
        self._check(other)
        require_factors((self.packed, other.packed), self.nvars)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.nvars)
        n = self.nvars
        f_exps, g_exps = self.coeffs, other.coeffs
        shift_f = pack([min(e[k] for e in f_exps) for k in range(n)])
        shift_g = pack([min(e[k] for e in g_exps) for k in range(n)])
        f = {e - shift_f: c for e, c in self.packed.items()}
        g = {e - shift_g: c for e, c in other.packed.items()}
        lt_g = max(g)
        cg = g[lt_g]
        quotient: Packed = {}
        while f:
            lt_f = max(f)
            diff = lt_f - lt_g
            if min(unpack(diff, n)) < 0:
                return None
            c, rem = divmod(f[lt_f], cg)
            if rem != 0:
                return None
            quotient[diff + shift_f - shift_g] = c
            for e, ce in g.items():
                key = diff + e
                val = f.get(key, 0) - c * ce
                if val:
                    f[key] = val
                else:
                    f.pop(key, None)
        return LaurentPoly.from_packed(n, quotient)

    # --- evaluation ---

    def eval_sq(self, values) -> int | Fraction:
        """Specialize every squared variable to an integer (q-style values).

        `values[k]` is the value given to the square of variable k, so all
        exponents must be even; negative exponents produce exact fractions.
        """
        values = [int(v) for v in values]
        if len(values) != self.nvars:
            raise ValueError("one value per parameter class required")
        if any(v == 0 for v in values):
            raise ZeroSpecialization()
        total = Fraction(0)
        for e, c in self.coeffs.items():
            if any(x % 2 for x in e):
                raise OddExponent()
            term = Fraction(c)
            for x, v in zip(e, values):
                term *= Fraction(v) ** (x // 2)
            total += term
        return int(total) if total.denominator == 1 else total

    # --- rendering / serialization ---

    def render(self, names) -> str:
        if not self.packed:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            factors = [
                (names[k] if x == 1 else f"{names[k]}^{x}")
                for k, x in enumerate(e)
                if x != 0
            ]
            mono = "·".join(factors)
            if not mono:
                parts.append((c, str(abs(c))))
            elif abs(c) == 1:
                parts.append((c, mono))
            else:
                parts.append((c, f"{abs(c)}·{mono}"))
        out = ""
        for c, text in parts:
            if not out:
                out = ("-" if c < 0 else "") + text
            else:
                out += (" - " if c < 0 else " + ") + text
        return out

    def __repr__(self):
        return f"LaurentPoly({self.render([f's{k + 1}' for k in range(self.nvars)])})"

    def to_json(self):
        return [[list(e), c] for e, c in sorted(self.coeffs.items())]

    @classmethod
    def from_json(cls, nvars: int, data) -> "LaurentPoly":
        """Read [[exponents, coefficient], ...]; repeated exponents add up."""
        coeffs: dict[Exponents, int] = {}
        for term in json_value(data, list, "a polynomial"):
            e, c = json_value(term, list, "a polynomial term")
            e = json_ints(e, "an exponent")
            coeffs[e] = coeffs.get(e, 0) + json_value(c, int, "a coefficient")
        return cls(nvars, coeffs)


@dataclass(frozen=True)
class ParamClasses:
    """The partition of {sigma_i, sigma_i'} into identified classes.

    Symbol (i, primed) is stored at slot 2*i + primed; `class_of[slot]`
    is the class index, classes ordered by their smallest slot.
    """

    n: int
    class_of: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.n, self.class_of)))
        object.__setattr__(self, "_nclasses", max(self.class_of) + 1)
        # the kernel's letter constants, shared and never mutated
        object.__setattr__(self, "_one", {0: 1})
        smi = [{_BASE**k: 1, -(_BASE**k): -1} for k in range(self._nclasses)]
        object.__setattr__(self, "_smi", tuple(smi[k] for k in self.class_of))

    def __hash__(self):
        return self._hash

    @property
    def nclasses(self) -> int:
        return self._nclasses

    @property
    def one_packed(self) -> Packed:
        """The packed map of 1, shared: never mutate it."""
        return self._one

    def smi_packed(self, i: int, primed: bool = False) -> Packed:
        """The packed map of sigma_i - sigma_i^{-1} (of sigma_i' when primed), shared."""
        return self._smi[2 * i + (1 if primed else 0)]

    def class_index(self, i: int, primed: bool = False) -> int:
        return self.class_of[2 * i + (1 if primed else 0)]

    def classes(self) -> list[list[tuple[int, bool]]]:
        out: list[list[tuple[int, bool]]] = [[] for _ in range(self.nclasses)]
        for slot, cls in enumerate(self.class_of):
            out[cls].append((slot // 2, bool(slot % 2)))
        return out

    def names(self) -> tuple[str, ...]:
        if self.nclasses == 1:
            return ("σ",)
        out = []
        for c in self.classes():
            i, primed = min(c, key=lambda t: 2 * t[0] + (1 if t[1] else 0))
            out.append(f"σ{i + 1}" + ("'" if primed else ""))
        return tuple(out)

    # --- polynomial factories ---

    def zero(self) -> LaurentPoly:
        return LaurentPoly.zero(self.nclasses)

    def one(self) -> LaurentPoly:
        return LaurentPoly.const(self.nclasses, 1)

    def const(self, c: int) -> LaurentPoly:
        return LaurentPoly.const(self.nclasses, c)

    def sigma(self, i: int, primed: bool = False, power: int = 1) -> LaurentPoly:
        return LaurentPoly.variable(self.nclasses, self.class_index(i, primed), power)

    def sigma_minus_inverse(self, i: int, primed: bool = False) -> LaurentPoly:
        return LaurentPoly.from_packed(self.nclasses, self.smi_packed(i, primed))

    def same_class(self, i: int) -> bool:
        return self.class_index(i, False) == self.class_index(i, True)

    def word_monomial(self, word, power: int = 1) -> LaurentPoly:
        """Product of the unprimed class variables along a word, to `power`."""
        exps = [0] * self.nclasses
        for i in word:
            exps[self.class_index(i, False)] += power
        return LaurentPoly.monomial(tuple(exps))


def build_param_ring(datum: RootDatum) -> ParamClasses:
    """Compute the finest symbol partition closed under both identification rules."""
    n = datum.n
    parent = list(range(2 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for i in range(n):
        if alpha_image_index(datum, i) == 1:
            union(2 * i, 2 * i + 1)
    a = datum.gcm.entries
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] == -1 and a[j][i] == -1:
                union(2 * i, 2 * j)
                union(2 * i, 2 * i + 1)
                union(2 * j, 2 * j + 1)

    roots_sorted = sorted({find(x) for x in range(2 * n)})
    index = {r: k for k, r in enumerate(roots_sorted)}
    return ParamClasses(n, tuple(index[find(x)] for x in range(2 * n)))


@lru_cache(maxsize=PARAM_RING_MEMO_SIZE)
def param_ring_for(datum: RootDatum) -> ParamClasses:
    return build_param_ring(datum)
