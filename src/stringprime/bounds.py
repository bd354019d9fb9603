"""Explicit bounds on the least prime containing a digit string.

Evaluates the simplified 5.7 l^2 10^l bound, the exact base-r inequality it
simplifies, the inversion of y/log y = B that turns a bound into a log N
value, and the coupon-collector prediction.  Natural logarithms everywhere;
base 10 would not reproduce the l = 1 reference value 330.7.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError

_LN10 = math.log(10.0)
# Past this length 10^l arithmetic leaves comfortable double range; reports
# switch to natural-log scale.
PLAIN_SCALE_MAX_L = 18
# Every report builds r = 10^l exactly; past this length that alone takes
# seconds to minutes.
REPORT_MAX_L = 10**6
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class BoundReport:
    """One row of bound evaluations for a string length l.

    With log_scale set, every real field holds the natural log of the
    quantity instead of the quantity itself (r stays exact).
    """

    l: int
    r: int
    bound_simple: float
    bound_exact: float
    log_n: float
    coupon_pi: float | None = None
    coupon_n: float | None = None
    log_scale: bool = False


def theorem_bound_simple(l: int) -> float:
    """5.7 l^2 10^l for 1 <= l <= 18; longer strings use the log form."""
    if not 1 <= l <= PLAIN_SCALE_MAX_L:
        raise DomainError(f"l must be in 1..{PLAIN_SCALE_MAX_L}; use theorem_bound_simple_log beyond")
    return 5.7 * l * l * 10.0**l


def theorem_bound_simple_log(l: int) -> float:
    """log(5.7 l^2 10^l), defined for every l >= 1."""
    if l < 1:
        raise DomainError("l must be >= 1")
    return math.log(5.7) + 2.0 * math.log(l) + l * _LN10


def theorem_bound_exact(r: int) -> float:
    """r log^2 r (1 + (1 + log((r-1)/(r-2))) / log r) for integer r >= 3."""
    if r < 3:
        raise DomainError("base r must be >= 3")
    log_r = math.log(r)
    return r * log_r * log_r * (1.0 + (1.0 + math.log1p(1.0 / (r - 2))) / log_r)


def theorem_bound_exact_log(r: int) -> float:
    """log of theorem_bound_exact(r); usable when r itself overflows doubles."""
    if r < 3:
        raise DomainError("base r must be >= 3")
    log_r = math.log(r)
    # log((r-1)/(r-2)) ~ 1/r falls below double precision long before r - 2
    # stops converting to float
    ratio_gap = math.log1p(1.0 / (r - 2)) if r.bit_length() < 1000 else 0.0
    return log_r + 2.0 * math.log(log_r) + math.log1p((1.0 + ratio_gap) / log_r)


_SOLVE_RELATIVE_TOL = 1e-9
_SOLVE_MAX_ITERATIONS = 200


def solve_log_n(bound: float) -> float:
    """The unique y > e with y / log y = bound.

    Fixed point y <- bound * log y seeded at bound * log(bound): y/log y is
    increasing above e, and the seed sits below the root, so the iteration
    climbs monotonically.  Converges in well under the iteration cap except
    when bound hugs e, where the contraction rate degenerates; that corner
    falls back to bisection.
    """
    if not math.isfinite(bound) or bound <= math.e:
        raise DomainError("y / log y = B has no solution y > e unless B > e")
    y = bound * math.log(bound)
    for _ in range(_SOLVE_MAX_ITERATIONS):
        if abs(y / math.log(y) - bound) <= _SOLVE_RELATIVE_TOL * bound:
            break
        y = bound * math.log(y)
    else:
        y = _solve_by_bisection(bound)
    if not math.isfinite(y):
        raise DomainError(f"y / log y = {bound:g} has no root in double range; `bound --l L` reports on a log scale")
    return y


def _solve_by_bisection(bound: float) -> float:
    lo = math.e
    hi = max(10.0, 2.0 * bound * math.log(bound))
    while hi / math.log(hi) < bound:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid / math.log(mid) < bound:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(hi):
            break
    return hi


def solve_log_n_log(log_bound: float) -> float:
    """log of solve_log_n(B) given log B; for bounds beyond double range.

    Solves t - log t = log B by the fixed point t <- log B + log t.
    """
    if not math.isfinite(log_bound) or log_bound <= 1.0:
        raise DomainError("log B must exceed 1 (B > e)")
    t = log_bound + math.log(log_bound)
    for _ in range(_SOLVE_MAX_ITERATIONS):
        if abs(t - math.log(t) - log_bound) <= _SOLVE_RELATIVE_TOL * log_bound:
            return t
        t = log_bound + math.log(t)
    raise ArithmeticError(f"fixed point did not converge for log B = {log_bound!r}")


def coupon_prediction(l: int) -> tuple[float, float]:
    """Coupon-collector estimate for string length l >= 2.

    Expected prime count pi(N): primes below 10^(l-1) (prime number theorem)
    plus one draw per length-l string, 9*10^(l-1) strings needing about
    n log n draws in total.  predicted N then solves N / log N = pi(N).
    The l = 1 case divides by zero and is rejected, not patched, and so
    are lengths whose predicted N passes double range.
    """
    if l < 2:
        raise DomainError("coupon prediction needs l >= 2")
    if l > PLAIN_SCALE_MAX_L and _coupon_prediction_log(l)[1] >= _LOG_DOUBLE_MAX:
        raise DomainError(f"coupon prediction for l = {l} passes double range; `bound --l {l}` gives its natural log")
    universe = 9 * 10 ** (l - 1)
    expected_pi = 10 ** (l - 1) / ((l - 1) * _LN10) + universe * math.log(universe)
    return expected_pi, solve_log_n(expected_pi)


def asymptotic_prediction(l: int) -> tuple[float, float]:
    """Predicted N alongside the constant it implies against l^2 10^l."""
    _, predicted_n = coupon_prediction(l)
    return predicted_n, predicted_n / (l * l * 10.0**l)


def _coupon_prediction_log(l: int) -> tuple[float, float]:
    """(log expected_pi, log predicted_n) for lengths beyond double range."""
    log_universe = math.log(9.0) + (l - 1) * _LN10
    # log-sum-exp of the two pi(N) terms
    a = (l - 1) * _LN10 - math.log((l - 1) * _LN10)
    b = log_universe + math.log(log_universe)
    hi, lo = (a, b) if a > b else (b, a)
    log_pi = hi + math.log1p(math.exp(lo - hi))
    return log_pi, solve_log_n_log(log_pi)


def bound_report(l: int) -> BoundReport:
    """All bound evaluations for one string length.

    Lengths above 18 report every real field as a natural log (log_scale
    set); the coupon fields are absent at l = 1 where the heuristic is
    undefined.  Lengths above REPORT_MAX_L raise ResourceLimitError.
    """
    if l < 1:
        raise DomainError("l must be >= 1")
    if l > REPORT_MAX_L:
        raise ResourceLimitError(f"bound reports need l <= {REPORT_MAX_L}; r = 10^{l} is too large to build")
    r = 10**l
    if l <= PLAIN_SCALE_MAX_L:
        simple = theorem_bound_simple(l)
        coupon_pi = coupon_n = None
        if l >= 2:
            coupon_pi, coupon_n = coupon_prediction(l)
        return BoundReport(
            l=l,
            r=r,
            bound_simple=simple,
            bound_exact=theorem_bound_exact(r),
            log_n=solve_log_n(simple),
            coupon_pi=coupon_pi,
            coupon_n=coupon_n,
        )
    log_simple = theorem_bound_simple_log(l)
    coupon_pi, coupon_n = _coupon_prediction_log(l)
    return BoundReport(
        l=l,
        r=r,
        bound_simple=log_simple,
        bound_exact=theorem_bound_exact_log(r),
        log_n=solve_log_n_log(log_simple),
        coupon_pi=coupon_pi,
        coupon_n=coupon_n,
        log_scale=True,
    )
