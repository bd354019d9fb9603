"""Seeded inputs for the four workloads.

Everything here is plain Python and imports nothing from stringprime, so the
same seed gives the same inputs whatever the program under test does.  Each
workload's round is built once per run and repeated until the run's time is
up; costs are kept nearly independent of the seed (fixed Table 1 rows, a
log-spaced ladder for pi(x), many small queries) so that runs on different
seeds measure the same amount of work.
"""

from __future__ import annotations

import random

WORKLOADS = ("scan", "pi", "queries", "cli")

# --- scan ---------------------------------------------------------------------
# Table 1's M column: coverage_threshold(l, 10**(l+2)) for l = 1..5.
SCAN_COVERAGE = tuple((l, 10 ** (l + 2)) for l in range(1, 6))
SCAN_DENSITY_EXPONENTS = (2, 3, 4, 5, 6, 7)
SCAN_AP_K = 4
SCAN_LIMIT = 10**7
SCAN_LEAST_PRIME_PATTERNS = 6

# --- pi -----------------------------------------------------------------------
# Half-decade ladder 10^5 .. 10^9 (the sieve ceiling); each x is drawn
# log-uniformly from a 1% band just below its ladder point, so no x exceeds
# the ceiling and the work per round barely depends on the seed.
PI_LADDER = tuple(5 + i / 2 for i in range(9))
PI_BAND_DECADES = 0.004

# --- queries ------------------------------------------------------------------
QUERIES_PER_ROUND = 1000
QUERY_POOL_SIZE = 8
MAX_PATTERN_DIGITS = 8
MAX_X_DIGITS = 38

# --- cli ----------------------------------------------------------------------
CLI_FORMATS = ("human", "csv", "markdown")
CLI_SMALL_LIMIT = 10**6
# Exits 1 with a traceback at this revision: cli._cell calls str() on
# 10**5000, past Python's 4300-digit conversion limit.  Kept as one failed
# operation per round, independent of the seed.
CLI_FAILING = ("bound", "--l", "5000")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}-{seed}")


def random_pattern(rng: random.Random, max_len: int = MAX_PATTERN_DIGITS) -> str:
    """1..max_len digits: plain, zero-led, or self-overlapping (periodic)."""
    length = rng.randint(1, max_len)
    kind = rng.randrange(3)
    if kind == 1:
        return "0" + "".join(rng.choice("0123456789") for _ in range(length - 1))
    if kind == 2 and length > 1:
        period = rng.randint(1, length - 1)
        unit = "".join(rng.choice("0123456789") for _ in range(period))
        return (unit * length)[:length]
    return "".join(rng.choice("0123456789") for _ in range(length))


def random_x(rng: random.Random, max_digits: int = MAX_X_DIGITS) -> int:
    """Digit count uniform in 1..max_digits, then uniform within it."""
    digits = rng.randint(1, max_digits)
    return rng.randrange(10 ** (digits - 1) if digits > 1 else 1, 10**digits)


def scan_inputs(seed: int) -> dict:
    rng = _rng("scan", seed)
    return {
        "coverage": [list(c) for c in SCAN_COVERAGE],
        "density_pattern": str(rng.randrange(10)),
        "density_exponents": list(SCAN_DENSITY_EXPONENTS),
        "ap_pattern": f"{rng.randrange(100):02d}",
        "ap_k": SCAN_AP_K,
        "limit": SCAN_LIMIT,
        "least_prime_patterns": [f"{rng.randrange(10**4):04d}" for _ in range(SCAN_LEAST_PRIME_PATTERNS)],
    }


def pi_inputs(seed: int) -> dict:
    """One round: uncached and cached prime_count calls, interleaved.

    Uncached calls visit the ladder in seeded order.  Cached calls climb it
    in pairs (grow on x[2j+1], then hit on x[2j]) so every round has the
    same number of grows and hits; the cache directory is emptied before
    each round.
    """
    rng = _rng("pi", seed)
    xs = [int(10 ** (e - rng.uniform(0, PI_BAND_DECADES))) for e in PI_LADDER]
    uncached = rng.sample(range(len(xs)), len(xs))
    cached = []
    for j in range(0, len(xs) - 1, 2):
        cached += [j + 1, j]
    if len(xs) % 2:
        cached.append(len(xs) - 1)
    ops = []
    top = 0
    for u, c in zip(uncached, cached):
        ops.append(["uncached", xs[u]])
        kind = "grow" if xs[c] > top else "hit"
        top = max(top, xs[c])
        ops.append([kind, xs[c]])
    return {"ops": ops}


def queries_inputs(seed: int) -> dict:
    """Half the queries name an automaton of a small pool, half pass a fresh
    pattern string; each query also asks bound_report(len(S)) and is_prime
    of a 64-bit odd n."""
    rng = _rng("queries", seed)
    pool = [random_pattern(rng) for _ in range(QUERY_POOL_SIZE)]
    reuse = [True] * (QUERIES_PER_ROUND // 2) + [False] * (QUERIES_PER_ROUND - QUERIES_PER_ROUND // 2)
    rng.shuffle(reuse)
    queries = []
    for pooled in reuse:
        index = rng.randrange(QUERY_POOL_SIZE) if pooled else None
        pattern = pool[index] if pooled else random_pattern(rng)
        n = rng.getrandbits(64) | (1 << 63) | 1
        queries.append({"pool": index, "pattern": pattern, "x": random_x(rng), "n": n})
    return {"pool": pool, "queries": queries}


def cli_inputs(seed: int) -> dict:
    """Every README subcommand once per output format, with small limits,
    plus the failing `bound --l 5000`, in seeded order."""
    rng = _rng("cli", seed)
    commands = []
    for fmt in CLI_FORMATS:
        cov_l = rng.randint(1, 3)
        per_format = [
            ["table1", "--max-l", str(rng.randint(1, 3))],
            ["coverage", "--l", str(cov_l), "--limit", str(10 ** (cov_l + 2))],
            ["count-avoiders", "--pattern", random_pattern(rng), "--x", str(random_x(rng))],
            ["least-prime", "--pattern", random_pattern(rng, 3), "--limit", str(CLI_SMALL_LIMIT)],
            ["ap", "--pattern", str(rng.randrange(10)), "--k", str(rng.randint(3, 4)),
             "--limit", str(CLI_SMALL_LIMIT)],
            ["density", "--pattern", str(rng.randrange(10)), "--exponents",
             ",".join(str(e) for e in range(2, rng.randint(3, 6) + 1))],
            ["bound", "--l", str(rng.randint(1, 30))],
            ["coupon", "--l", str(rng.randint(2, 12))],
            ["solve-logn", "--b", f"{rng.uniform(3.0, 1e6):.6g}"],
        ]
        commands += [cmd + ["--format", fmt] for cmd in per_format]
    commands.append(list(CLI_FAILING))
    rng.shuffle(commands)
    return {"commands": commands}


def make_inputs(workload: str, seed: int) -> dict:
    return {
        "scan": scan_inputs,
        "pi": pi_inputs,
        "queries": queries_inputs,
        "cli": cli_inputs,
    }[workload](seed)
