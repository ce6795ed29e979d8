"""Exact symbolic computation for Kac-Moody root data and their Hecke algebras.

Modules
-------
root_system   generalized Cartan matrices, realizations, dominance order
weyl          Weyl elements, Bruhat order, orbits, Tits-cone projections
coeff_ring    Laurent polynomials in the identified Hecke parameters
hecke_bl      the Bernstein-Lusztig presentation and its product
completed     truncations of the completed algebra, orbit sums, the center
parahoric     spherical-face double-coset algebras and the obstruction
cli           batch command-line interface (`kmhecke ...`)
"""

from .coeff_ring import LaurentPoly, ParamClasses, build_param_ring, param_ring_for
from .completed import (
    AFCertificate,
    EFunction,
    Region,
    TruncatedElement,
    bimodule_act,
    center_test,
    compute_source_region,
    e_function_expand,
    mult_truncated,
)
from .hecke_bl import BLElement, commute_Hi_past_Z, is_in_H, mult_bl, r_window
from .parahoric import (
    CosetLabel,
    FaceType,
    double_coset,
    face_type,
    nonspherical_failure_stream,
    parahoric_product,
    poincare_polynomial,
    tree_orbit_size,
)
from .root_system import (
    GCM,
    ComponentReport,
    RootDatum,
    alpha_image_index,
    build_realization,
    classify_components,
    dominance_leq,
    q_coords,
    validate_gcm,
)
from .weyl import (
    DominantReport,
    WeylElement,
    all_reduced_words,
    bruhat_leq,
    dominant_representative,
    element_from_word,
    infinite_orbit_witness,
    multiply,
    orbit_enumerate,
    orbit_is_finite,
    simple_reflection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
