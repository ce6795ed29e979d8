import random

import pytest

from kmhecke.coeff_ring import param_ring_for
from kmhecke.hecke_bl import BLElement
from kmhecke.root_system import build_realization, validate_gcm
from kmhecke.weyl import element_from_word


@pytest.fixture(scope="session")
def a1():
    """Finite A1, default (essential) realization: sigma and sigma' differ."""
    return build_realization(validate_gcm([[2]]))


@pytest.fixture(scope="session")
def a2():
    """Finite A2 with Y = coroot lattice; one parameter class."""
    return build_realization(
        validate_gcm([[2, -1], [-1, 2]]), (2, [(1, 0), (0, 1)], [(2, -1), (-1, 2)])
    )


@pytest.fixture(scope="session")
def aff():
    """Affine A1, default realization of dimension 3 (basis e0, e1, d)."""
    return build_realization(validate_gcm([[2, -2], [-2, 2]]))


@pytest.fixture(scope="session")
def mixed3():
    """The 3x3 matrix with an indefinite and a finite component (essential)."""
    gcm = validate_gcm([[2, 0, -2], [0, 2, 0], [-5, 0, 2]])
    return build_realization(
        gcm, (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(2, 0, -5), (0, 2, 0), (-2, 0, 2)])
    )


@pytest.fixture(scope="session")
def chain3():
    """Indecomposable 3x3 with an affine sub-face on {0,1}; essential realization."""
    gcm = validate_gcm([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
    return build_realization(
        gcm, (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(2, -2, 0), (-2, 2, -1), (0, -1, 2)])
    )


@pytest.fixture(scope="session")
def det4():
    """A1 x A1 whose coroots span an index-4 sublattice of their rational span."""
    return build_realization(
        validate_gcm([[2, 0], [0, 2]]), (3, [(2, 0, 0), (2, 2, 0)], [(1, -1, 0), (0, 1, 0)])
    )


def random_bl_element(datum, rng: random.Random, nterms=3, lam_bound=3, word_len=3):
    """A small random element: coefficients in Z, bounded support."""
    classes = param_ring_for(datum)
    out = BLElement.zero(datum, classes)
    for _ in range(rng.randint(1, nterms)):
        lam = tuple(rng.randint(-lam_bound, lam_bound) for _ in range(datum.rank_y))
        word = tuple(rng.randrange(datum.n) for _ in range(rng.randint(0, word_len)))
        w = element_from_word(datum, word)
        coeff = classes.const(rng.choice([-2, -1, 1, 2, 3]))
        out = out + BLElement.basis(datum, classes, lam, w, coeff)
    return out
