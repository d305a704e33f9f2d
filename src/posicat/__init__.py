"""Exact combinatorics of positroid Catalan numbers.

Core objects: bounded affine permutations (affine), integer polynomials
(polynomial), rational paths (paths), inversion multisets (invsets), the
memoized recurrence engine (engine), Dyck counting and profile synthesis
(dyck), and exhaustive verification suites (harness).
"""

from .affine import (
    BoundedAffinePerm,
    min_length_witness,
    parse_perm,
)
from .dyck import (
    ConcaveProfile,
    count_avoiding_paths,
    enumerate_avoiding_paths,
    profile_forbidden_set,
    profile_to_perm,
    synthesize_perm,
    synthesize_profile,
    validate_profile,
)
from .engine import (
    Engine,
    compute_C,
    compute_C_decoupled,
    compute_R,
    compute_Rtilde,
    double_crossing_recurrence_check,
)
from .errors import PosicatError
from .harness import (
    VerificationReport,
    census_report,
    classes_census,
    cs_convex_subsets,
    enumerate_bounded,
    enumerate_theta,
    verify_engine,
    verify_main_theorem,
    verify_structure,
    verify_synthesis,
)
from .invsets import (
    LatticeMultiset,
    a_sequence,
    f_max,
    f_min,
    inversion_multiset,
    is_centrally_symmetric,
    is_convex,
    is_repetition_free,
    lambda_partition,
    parse_forbidden,
    split_identity_check,
)
from .paths import (
    RatPath,
    fset_from_paths,
    intersection_count,
    multiplicity_from_paths,
    nu,
    nu_bar,
    small_path,
)
from .polynomial import IntPoly

__version__ = "0.1.0"

__all__ = [
    "BoundedAffinePerm",
    "ConcaveProfile",
    "Engine",
    "IntPoly",
    "LatticeMultiset",
    "PosicatError",
    "RatPath",
    "VerificationReport",
    "a_sequence",
    "census_report",
    "classes_census",
    "compute_C",
    "compute_C_decoupled",
    "compute_R",
    "compute_Rtilde",
    "count_avoiding_paths",
    "cs_convex_subsets",
    "double_crossing_recurrence_check",
    "enumerate_avoiding_paths",
    "enumerate_bounded",
    "enumerate_theta",
    "f_max",
    "f_min",
    "fset_from_paths",
    "intersection_count",
    "inversion_multiset",
    "is_centrally_symmetric",
    "is_convex",
    "is_repetition_free",
    "lambda_partition",
    "min_length_witness",
    "multiplicity_from_paths",
    "nu",
    "nu_bar",
    "parse_forbidden",
    "parse_perm",
    "profile_forbidden_set",
    "profile_to_perm",
    "small_path",
    "split_identity_check",
    "synthesize_perm",
    "synthesize_profile",
    "validate_profile",
    "verify_engine",
    "verify_main_theorem",
    "verify_structure",
    "verify_synthesis",
]
