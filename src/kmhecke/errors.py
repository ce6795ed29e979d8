"""Exception hierarchy for the whole package, and the checks of JSON values.

Domain failures (bad input, undefined operation) are distinct from budget
exhaustion (an enumeration hit a caller-supplied cap before closing); the
CLI maps the two groups to different exit codes.
"""


class KacMoodyError(Exception):
    """Base class for all domain errors raised by this package."""


class BudgetError(KacMoodyError):
    """Base class for cap/budget exhaustion; semi-decisions, not failures."""


# --- generalized Cartan matrix validation ---

class GCMError(KacMoodyError):
    pass


class DiagonalNotTwo(GCMError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"diagonal entry at index {i} is not 2")


class PositiveOffDiagonal(GCMError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"off-diagonal entry ({i},{j}) is positive")


class AsymmetricZero(GCMError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"entry ({i},{j}) is zero but ({j},{i}) is not")


class SimpleIndexOutOfRange(KacMoodyError):
    def __init__(self, i, n: int):
        self.i = i
        super().__init__(f"simple index {i} is out of range 0..{n - 1}")


class PointLengthMismatch(KacMoodyError):
    def __init__(self, point, rank_y: int):
        self.point = tuple(point)
        super().__init__(
            f"point {self.point} has {len(self.point)} coordinates, the lattice has rank {rank_y}"
        )


class OutsideTitsCone(KacMoodyError):
    """A point where Y+ is required, decided to lie outside the Tits cone."""

    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"point {self.point} lies outside the Tits cone Y+")


# --- JSON input ---

class InvalidJSONValue(KacMoodyError):
    """A JSON value that is not the integer or boolean the format requires."""


def json_value(value, kind: type, what: str):
    """`value` if its type is exactly `kind`: JSON 1.5 and true are no int, "false" no bool."""
    if type(value) is not kind:
        raise InvalidJSONValue(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def json_ints(values, what: str) -> tuple[int, ...]:
    """A JSON list of integers (a point, a word or an exponent vector) as a tuple."""
    if not isinstance(values, (list, tuple)):
        raise InvalidJSONValue(f"{what} must be a list of int, got {values!r}")
    return tuple(json_value(v, int, what) for v in values)


# --- realizations ---

class RealizationError(KacMoodyError):
    pass


class DependentRoots(RealizationError):
    def __init__(self):
        super().__init__("simple roots are linearly dependent")


class DependentCoroots(RealizationError):
    def __init__(self):
        super().__init__("simple coroots are linearly dependent")


class RealizationShape(RealizationError):
    """Coroot or root vectors of the wrong number or length."""


class PairingMismatch(RealizationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"alpha_{j}(alpha_{i}^v) does not match the Cartan entry ({i},{j})")


class ZeroForm(KacMoodyError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"simple root {i} vanishes on the whole lattice")


# --- enumeration budgets ---

class BudgetExceeded(BudgetError):
    def __init__(self, limit: int, what: str = "enumeration"):
        self.limit = limit
        super().__init__(f"{what} exceeded the cap of {limit}")


class TitsConeUndecided(BudgetError):
    def __init__(self, point, budget: int):
        self.point = point
        self.budget = budget
        super().__init__(
            f"Tits-cone membership of {point} undecided within {budget} steps "
            "(indefinite component)"
        )


class CapExceeded(BudgetError):
    def __init__(self, what: str):
        super().__init__(what)


# --- coefficient ring ---

class ZeroSpecialization(KacMoodyError):
    def __init__(self):
        super().__init__("specialization value for a parameter class must be nonzero")


class ExponentLengthMismatch(KacMoodyError):
    """An exponent vector whose length is not the number of parameter classes."""


class CoordinateOutOfRange(KacMoodyError):
    """A point coordinate or exponent outside the range the packed form encodes."""


class OddExponent(KacMoodyError):
    def __init__(self):
        super().__init__("eval_sq requires all exponents even (values are given to squares)")


# --- completed algebra ---

class InsufficientSource(KacMoodyError):
    def __init__(self, message: str, needed=None):
        self.needed = needed
        super().__init__(message)


class NotDominant(KacMoodyError):
    def __init__(self, lam):
        self.lam = tuple(lam)
        super().__init__(f"{self.lam} is not dominant")


# --- parahoric ---

class NonSpherical(KacMoodyError):
    def __init__(self, j_zero):
        self.j_zero = tuple(j_zero)
        super().__init__(f"face with J_zero={self.j_zero} is not spherical")


class FaceIsSpherical(KacMoodyError):
    def __init__(self, j_zero):
        self.j_zero = tuple(j_zero)
        super().__init__(f"face with J_zero={self.j_zero} is spherical; no obstruction exists")


class FaceIsMinimal(KacMoodyError):
    def __init__(self):
        super().__init__("J_pos is empty: the face is the minimal one, excluded by hypothesis")


class NotDivisible(KacMoodyError):
    def __init__(self, message: str):
        super().__init__(message)
