"""Shared test settings: Hypothesis runs a fixed, seed-free set of examples
so every run of the suite checks the same cases in a bounded time."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("stringprime", derandomize=True, max_examples=100, deadline=None, database=None)
    settings.load_profile("stringprime")
