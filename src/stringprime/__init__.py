"""Digit strings inside prime numbers: exact avoidance counting, explicit
least-prime bounds, coverage experiments, and prime arithmetic progressions.

Every exported name, and each submodule that defines one, is loaded on
first use, so importing the package imports no submodule and no numpy.
"""

__version__ = "0.1.0"

# Exported name -> the submodule that defines it (PEP 562).
_EXPORTS = {
    **dict.fromkeys(
        ("BoundReport", "asymptotic_prediction", "bound_report", "coupon_prediction", "solve_log_n",
         "theorem_bound_exact", "theorem_bound_simple"),
        "bounds",
    ),
    **dict.fromkeys(
        ("BaseRContext", "PatternAutomaton", "avoider_density_bound", "base_r_digit_avoiders",
         "count_avoiders", "hw_upper_bound"),
        "counting",
    ),
    **dict.fromkeys(("DigitString", "contains", "decimal_digits", "parse_digit_string", "windows"), "digits"),
    **dict.fromkeys(
        ("CountOverflowError", "DomainError", "InvalidInputError", "ResourceLimitError", "StringPrimeError"),
        "errors",
    ),
    **dict.fromkeys(
        ("APResult", "CoverageResult", "DensityReport", "coverage_threshold", "density_table",
         "find_prime_ap", "least_prime_containing", "relative_density", "verify_ap"),
        "experiments",
    ),
    **dict.fromkeys(
        ("PrimeStream", "SieveSegment", "is_prime", "prime_count", "prime_mask", "rosser_lower"),
        "primes",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)  # a defining submodule stands for itself
    if module not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f".{module}", __name__)
    if name in _EXPORTS:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
