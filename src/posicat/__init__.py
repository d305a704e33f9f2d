"""Exact combinatorics of positroid Catalan numbers.

Core objects: bounded affine permutations (affine), integer polynomials
(polynomial), the path oracle for inversion multisets and the rotation
statistic (paths), inversion multisets (invsets), the memoized recurrence
engine (engine), Dyck counting and profile synthesis (dyck), and exhaustive
verification suites (harness).
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
from .engine import Engine
from .errors import PosicatError
from .harness import (
    VerificationReport,
    census_report,
    cs_convex_subsets,
    enumerate_theta,
    verify_engine,
    verify_main_theorem,
    verify_structure,
    verify_synthesis,
)
from .invsets import (
    LatticeMultiset,
    a_sequence,
    f_min,
    inversion_multiset,
    is_centrally_symmetric,
    is_convex,
    lambda_partition,
    parse_forbidden,
)
from .paths import (
    fset_from_paths,
    nu,
    nu_bar,
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
    "VerificationReport",
    "a_sequence",
    "census_report",
    "count_avoiding_paths",
    "cs_convex_subsets",
    "enumerate_avoiding_paths",
    "enumerate_theta",
    "f_min",
    "fset_from_paths",
    "inversion_multiset",
    "is_centrally_symmetric",
    "is_convex",
    "lambda_partition",
    "min_length_witness",
    "nu",
    "nu_bar",
    "parse_forbidden",
    "parse_perm",
    "profile_forbidden_set",
    "profile_to_perm",
    "synthesize_perm",
    "synthesize_profile",
    "validate_profile",
    "verify_engine",
    "verify_main_theorem",
    "verify_structure",
    "verify_synthesis",
]
