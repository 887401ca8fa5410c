"""Permutation polynomials x(x^s - a)^t over finite fields and their inverses."""

from .family import (
    ClosedInverse,
    NotPermutationError,
    PPParams,
    gcd_halfpower,
    linearized_inverse,
    linearized_is_permutation,
    linearized_poly,
)
from .gf import Field, FieldElement
from .oracle import (
    CapExceededError,
    PermTable,
    inverse_poly_by_interpolation,
    oracle_cap,
    tabulate,
)
from .poly import Poly

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ClosedInverse",
    "Field",
    "FieldElement",
    "NotPermutationError",
    "PPParams",
    "PermTable",
    "Poly",
    "gcd_halfpower",
    "inverse_poly_by_interpolation",
    "linearized_inverse",
    "linearized_is_permutation",
    "linearized_poly",
    "oracle_cap",
    "tabulate",
]
