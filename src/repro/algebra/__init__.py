"""Symbolic linear-algebra expression language.

This package is the expression substrate of the reproduction: matrices and
vectors annotated with structural properties, the operators of the Linnea
grammar (product, sum, transpose, inverse, inverse-transpose), symbolic
property inference, normalization to canonical chain form and a small
textual DSL front-end.
"""

from .expression import (
    Expression,
    IdentityMatrix,
    Matrix,
    Reference,
    ShapeError,
    Temporary,
    Vector,
    ZeroMatrix,
    signature_digest,
    signature_repr,
)
from .inference import (
    PropertyInference,
    clear_inference_cache,
    has_property,
    has_property_legacy,
    infer_properties,
    infer_properties_legacy,
    inference_engine,
    is_diagonal,
    is_lower_triangular,
    is_spd,
    is_symmetric,
    is_upper_triangular,
    legacy_inference,
    properties_after_inverse,
    properties_after_transpose,
)
from .operators import Inverse, InverseTranspose, Plus, Times, Transpose
from .properties import Property, PropertyError, closure, implies, parse_property
from .simplify import (
    NormalizationError,
    as_chain,
    is_chain_factor,
    normalize,
    unary_decomposition,
    wrap_leaf,
)
from .dsl import ParseError, Program, parse_expression, parse_program

__all__ = [
    "Expression",
    "Matrix",
    "Vector",
    "IdentityMatrix",
    "ZeroMatrix",
    "Temporary",
    "Reference",
    "ShapeError",
    "signature_digest",
    "signature_repr",
    "Times",
    "Plus",
    "Transpose",
    "Inverse",
    "InverseTranspose",
    "Property",
    "PropertyError",
    "closure",
    "implies",
    "parse_property",
    "infer_properties",
    "infer_properties_legacy",
    "has_property",
    "has_property_legacy",
    "PropertyInference",
    "inference_engine",
    "legacy_inference",
    "clear_inference_cache",
    "is_lower_triangular",
    "is_upper_triangular",
    "is_diagonal",
    "is_symmetric",
    "is_spd",
    "properties_after_transpose",
    "properties_after_inverse",
    "normalize",
    "as_chain",
    "is_chain_factor",
    "unary_decomposition",
    "wrap_leaf",
    "NormalizationError",
    "ParseError",
    "Program",
    "parse_program",
    "parse_expression",
]
