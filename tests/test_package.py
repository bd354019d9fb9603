"""The package namespace: the exported names, where each comes from, and
the loading of the sieve-backed names on first use."""

from __future__ import annotations

import importlib
import pathlib
import runpy
import subprocess
import sys

import pytest

import stringprime

EXPORTS = {
    "bounds": ["BoundReport", "asymptotic_prediction", "bound_report", "coupon_prediction", "solve_log_n",
               "theorem_bound_exact", "theorem_bound_simple"],
    "counting": ["BaseRContext", "PatternAutomaton", "avoider_density_bound", "base_r_digit_avoiders",
                 "count_avoiders", "hw_upper_bound"],
    "digits": ["DigitString", "contains", "decimal_digits", "parse_digit_string", "windows"],
    "errors": ["CountOverflowError", "DomainError", "InvalidInputError", "ResourceLimitError",
               "StringPrimeError"],
    "experiments": ["APResult", "CoverageResult", "DensityReport", "coverage_threshold", "density_table",
                    "find_prime_ap", "least_prime_containing", "relative_density", "verify_ap"],
    "primes": ["PrimeStream", "SieveSegment", "is_prime", "prime_count", "prime_mask", "rosser_lower"],
}
ORIGIN = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_is_pinned():
    assert len(ORIGIN) == 38
    assert stringprime.__all__ == sorted(name for _, name in ORIGIN)


@pytest.mark.parametrize("module, name", ORIGIN)
def test_export_is_the_defining_object(module, name):
    defining = importlib.import_module(f"stringprime.{module}")
    assert getattr(stringprime, name) is getattr(defining, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from stringprime import *", namespace)
    for module, name in ORIGIN:
        assert namespace[name] is getattr(importlib.import_module(f"stringprime.{module}"), name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'stringprime'.*'no_such_name'"):
        stringprime.no_such_name
    assert not hasattr(stringprime, "no_such_name")


def test_bare_import_loads_no_submodule():
    # the defining submodules still resolve as attributes, on first use
    probe = ("import sys, stringprime; "
             "print(sorted(m for m in sys.modules if m.startswith('stringprime.'))); "
             "print([getattr(stringprime, m).__name__ for m in ('bounds', 'counting', 'digits', 'errors')]); "
             "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "['stringprime.bounds', 'stringprime.counting', 'stringprime.digits', 'stringprime.errors']",
        "False",
    ]


def test_fresh_package_lists_every_export_and_imports_submodules():
    # A fresh process: in this one, earlier tests have already loaded and
    # bound the sieve-backed names.
    probe = ("import sys, stringprime; assert 'stringprime.experiments' not in sys.modules; "
             "assert set(stringprime.__all__) <= set(dir(stringprime)); "
             "import stringprime.experiments; "
             "assert stringprime.experiments.coverage_threshold is stringprime.coverage_threshold; "
             "print(stringprime.experiments.coverage_threshold(1, 1000).m)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "83"


def test_benchmark_entry_points_exist():
    # The benchmark's tracer wraps these by name (a method where its class
    # defines it), so a rename here would break a traced run; run_path
    # compiles the file without writing bytecode beside it.
    tracer = runpy.run_path(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))
    for module, attr, _, _ in tracer["ENTRY_POINTS"]:
        owner = importlib.import_module(f"stringprime.{module}")
        cls, _, method = attr.rpartition(".")
        if cls:
            assert method in vars(getattr(owner, cls)), f"{module}.{attr}"
        else:
            assert hasattr(owner, attr), f"{module}.{attr}"
