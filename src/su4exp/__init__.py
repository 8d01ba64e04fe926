"""Closed-form exponentials of structured 4x4 anti-Hermitian matrices.

The library decomposes u(4) generators through the quaternion-tensor
representation of real 4x4 matrices, classifies them by structure and
minimal-polynomial type, and exponentiates every structured family in closed
form, validated against an independent series-based reference exponential.
"""

from .classify import (
    CharPolyCoeffs,
    MinPolyClass,
    charpoly,
    check_quadratic_II_conditions,
    classify,
    construct_quadratic_II_example,
    is_normal_type,
    local_vs_interaction_commute,
)
from .errors import InputError, StructureError, Su4Error
from .expm import (
    ExpResult,
    SymTriDiag,
    exp_auto,
    exp_bisymmetric_fast,
    exp_cubic_I,
    exp_imaginary_symmetric,
    exp_normal_split,
    exp_perskew,
    exp_quadratic_I,
    exp_quadratic_II,
    exp_skewham,
    exp_tridiag,
)
from .model import (
    CanonicalForm,
    PauliCoeffs,
    QuintupleDecomp,
    Su4Element,
    canonicalize,
    magic_conjugate,
)
from .oracle import expm_reference
from .quaternion import PureQuaternion, Quaternion

__all__ = [
    "CanonicalForm", "CharPolyCoeffs", "ExpResult", "InputError", "MinPolyClass",
    "PauliCoeffs", "PureQuaternion", "Quaternion", "QuintupleDecomp", "StructureError",
    "Su4Element", "Su4Error", "SymTriDiag", "canonicalize", "charpoly",
    "check_quadratic_II_conditions", "classify", "construct_quadratic_II_example",
    "exp_auto", "exp_bisymmetric_fast", "exp_cubic_I", "exp_imaginary_symmetric",
    "exp_normal_split", "exp_perskew", "exp_quadratic_I", "exp_quadratic_II",
    "exp_skewham", "exp_tridiag", "expm_reference", "is_normal_type",
    "local_vs_interaction_commute", "magic_conjugate",
]

__version__ = "0.1.0"
