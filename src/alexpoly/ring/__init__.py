"""Exact Laurent polynomial ring: arithmetic, normal form, gcd, cyclotomics."""

from .poly import (
    LaurentPoly,
    equal_up_to_units,
    exact_divide,
    normalize,
)
from .gcd import gcd, gcd_many
from .cyclotomic import (
    MAX_DEGREE,
    check_degree,
    cyclotomic_factorization,
    cyclotomic_polynomial,
)
from .textfmt import MAX_VARIABLES, parse_poly, poly_to_str

__all__ = [
    "LaurentPoly",
    "MAX_DEGREE",
    "MAX_VARIABLES",
    "check_degree",
    "cyclotomic_factorization",
    "cyclotomic_polynomial",
    "equal_up_to_units",
    "exact_divide",
    "gcd",
    "gcd_many",
    "normalize",
    "parse_poly",
    "poly_to_str",
]
