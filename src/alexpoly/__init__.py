"""alexpoly: exact Alexander polynomial computations.

Computes Alexander polynomials of groups given by finite presentations
(via Fox calculus), of braid closures (one-variable, multivariable and
degree-marked variants), and of plane curve complements presented by
braid monodromy factorizations, together with divisibility checks
relating a curve's polynomial to the polynomials of its singularity
links and its link at infinity.
"""

from .braid import (BraidWord, Factorization, braid_equal,
                    factorization_from_json, factorization_to_json,
                    factor_orbits, full_twist, validate_factorization,
                    zvk_presentation)
from .curve import (CurveData, boundary_delta, boundary_factors,
                    curve_from_json, euler_characteristic, first_betti,
                    local_deltas)
from .errors import ComputationError, InputError
from .fox import alexander_one_variable, alexander_polynomial
from .group import (AbelMap, Presentation, Word, load_json_file,
                    parse_word, presentation_from_json)
from .linkpoly import (MarkedLink, hat_delta, link_from_json,
                       marked_torus_link, multivariable_delta,
                       one_variable_delta, torus_link)
from .ring import (LaurentPoly, cyclotomic_factorization, equal_up_to_units,
                   exact_divide, gcd, normalize, parse_poly, poly_to_str)
from .verify import (VerificationReport, generic_infinity_factors,
                     run_verification)

__version__ = "0.1.0"

__all__ = [
    "AbelMap",
    "BraidWord",
    "ComputationError",
    "CurveData",
    "Factorization",
    "InputError",
    "LaurentPoly",
    "MarkedLink",
    "Presentation",
    "VerificationReport",
    "Word",
    "alexander_one_variable",
    "alexander_polynomial",
    "boundary_delta",
    "boundary_factors",
    "braid_equal",
    "curve_from_json",
    "cyclotomic_factorization",
    "equal_up_to_units",
    "euler_characteristic",
    "exact_divide",
    "factor_orbits",
    "factorization_from_json",
    "factorization_to_json",
    "first_betti",
    "full_twist",
    "gcd",
    "generic_infinity_factors",
    "hat_delta",
    "link_from_json",
    "load_json_file",
    "local_deltas",
    "marked_torus_link",
    "multivariable_delta",
    "normalize",
    "one_variable_delta",
    "parse_poly",
    "parse_word",
    "poly_to_str",
    "presentation_from_json",
    "run_verification",
    "torus_link",
    "validate_factorization",
    "zvk_presentation",
]
