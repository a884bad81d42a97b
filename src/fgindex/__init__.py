"""Index computation for positive primitive free-group automorphisms.

Records are named tuples or plain classes: start-up is most of a small run,
and a generated record class compiles its methods again on every import.
"""

from .automorphism import load_automorphism, parse_automorphism, validate
from .config import RunConfig
from .errors import (
    BudgetExceeded,
    CapExceeded,
    EmptyInput,
    FgIndexError,
    FormulaMismatch,
    InvariantViolation,
    NotInverse,
    NotPositive,
    NotPrimitive,
    ParseError,
    UndefinedShift,
    VerificationFailed,
)
from .families import cyclic_family
from .singularities import find_all

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CapExceeded",
    "EmptyInput",
    "FgIndexError",
    "FormulaMismatch",
    "InvariantViolation",
    "NotInverse",
    "NotPositive",
    "NotPrimitive",
    "ParseError",
    "RunConfig",
    "UndefinedShift",
    "VerificationFailed",
    "cyclic_family",
    "find_all",
    "load_automorphism",
    "parse_automorphism",
    "validate",
    "__version__",
]
