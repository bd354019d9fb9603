"""Digit strings inside prime numbers: exact avoidance counting, explicit
least-prime bounds, coverage experiments, and prime arithmetic progressions.

The sieve-backed names (the `experiments` and `primes` submodules) are
loaded on first use, so importing the package does not import numpy.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    asymptotic_prediction,
    bound_report,
    coupon_prediction,
    solve_log_n,
    theorem_bound_exact,
    theorem_bound_simple,
)
from .counting import (
    BaseRContext,
    PatternAutomaton,
    avoider_density_bound,
    base_r_digit_avoiders,
    build_automaton,
    count_avoiders,
    hw_upper_bound,
)
from .digits import DigitString, contains, decimal_digits, parse_digit_string, windows
from .errors import (
    CountOverflowError,
    DomainError,
    InvalidInputError,
    ResourceLimitError,
    StringPrimeError,
)

# Sieve-backed name -> the submodule that defines it (PEP 562).
_LAZY = {
    **dict.fromkeys(
        ("APResult", "CoverageResult", "DensityReport", "coverage_threshold", "density_table",
         "find_prime_ap", "least_prime_containing", "relative_density", "verify_ap"),
        "experiments",
    ),
    **dict.fromkeys(
        ("PrimeStream", "SieveSegment", "is_prime", "prime_count", "prime_mask", "primes_up_to",
         "rosser_lower"),
        "primes",
    ),
}

__all__ = sorted([
    "BoundReport", "asymptotic_prediction", "bound_report", "coupon_prediction", "solve_log_n",
    "theorem_bound_exact", "theorem_bound_simple",
    "BaseRContext", "PatternAutomaton", "avoider_density_bound", "base_r_digit_avoiders",
    "build_automaton", "count_avoiders", "hw_upper_bound",
    "DigitString", "contains", "decimal_digits", "parse_digit_string", "windows",
    "CountOverflowError", "DomainError", "InvalidInputError", "ResourceLimitError", "StringPrimeError",
    *_LAZY,
])


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
