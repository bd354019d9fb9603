"""Explicit bounds on the least prime containing a digit string.

Evaluates the simplified 5.7 l^2 10^l bound, the exact base-r inequality it
simplifies, the inversion of y/log y = B that turns a bound into a log N
value, and the coupon-collector prediction.  Natural logarithms everywhere;
base 10 would not reproduce the l = 1 reference value 330.7.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError

_LN10 = math.log(10.0)
# Past this length 10^l arithmetic leaves comfortable double range; reports
# switch to natural-log scale.
PLAIN_SCALE_MAX_L = 18
# Every report builds r = 10^l exactly; past this length that alone takes
# seconds to minutes.
REPORT_MAX_L = 10**6
# The last length whose coupon-predicted N is a finite double.
_COUPON_MAX_L = 302


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
    l = operator.index(l)  # a numpy l would make the bound a numpy float
    if not 1 <= l <= PLAIN_SCALE_MAX_L:
        raise DomainError(f"l must be in 1..{PLAIN_SCALE_MAX_L}; use theorem_bound_simple_log beyond")
    return 5.7 * l * l * 10.0**l


def theorem_bound_simple_log(l: int) -> float:
    """log(5.7 l^2 10^l) for l >= 1: inf past l ~ 7.8e307, where l log 10
    overflows, and OverflowError past l ~ 1.8e308, which no double holds."""
    l = operator.index(l)
    if l < 1:
        raise DomainError("l must be >= 1")
    return math.log(5.7) + 2.0 * math.log(l) + l * _LN10


def theorem_bound_exact(r: int) -> float:
    """r log^2 r (1 + (1 + log((r-1)/(r-2))) / log r) for integer r >= 3."""
    r = operator.index(r)
    if r < 3:
        raise DomainError("base r must be >= 3")
    log_r = math.log(r)
    return r * log_r * log_r * (1.0 + (1.0 + math.log1p(1.0 / (r - 2))) / log_r)


def theorem_bound_exact_log(r: int) -> float:
    """log of theorem_bound_exact(r); usable when r itself overflows doubles."""
    r = operator.index(r)
    if r < 3:
        raise DomainError("base r must be >= 3")
    log_r = math.log(r)
    ratio_gap = math.log1p(1 / (r - 2))
    return log_r + 2.0 * math.log(log_r) + math.log1p((1.0 + ratio_gap) / log_r)


# e - math.e: the part of e that the double math.e drops
_E_TAIL = 1.4456468917292502e-16


def _root_excess(excess: float) -> float:
    """The root u >= 0 of u - log1p(u) = excess >= 0, so that t = 1 + u
    solves t - log t = 1 + excess; u keeps the digits of a t near 1.  Newton
    from u = 1 + excess + log1p(excess), right of the root, where the
    function is convex and increasing, falls monotonically; it stops once the
    residual is <= 0 or stops falling."""
    u = 1.0 + excess + math.log1p(excess)
    previous = math.inf
    while 0.0 < (residual := u - math.log1p(u) - excess) < previous:
        u -= residual * (1.0 + u) / u
        previous = residual
    return u


def solve_log_n(bound: float) -> float:
    """The unique y > e with y / log y = bound: y = bound * t, where t > 1
    solves t - log t = log bound.  log bound - 1 is taken as
    log1p((bound - e) / e), which keeps its digits however close bound is
    to e."""
    if not math.isfinite(bound) or bound <= math.e:
        raise DomainError("y / log y = B has a solution y > e only for B finite and > e")
    bound = float(bound)  # a numpy bound would make y a numpy float
    y = bound * (1.0 + _root_excess(math.log1p((bound - math.e - _E_TAIL) / math.e)))
    if not math.isfinite(y):
        raise DomainError(f"y / log y = {bound:g} has no root in double range; `bound --l L` reports on a log scale")
    return y


def solve_log_n_log(log_bound: float) -> float:
    """log of solve_log_n(B) given log B, for bounds beyond double range: the
    root t > 1 of t - log t = log B."""
    if not math.isfinite(log_bound) or log_bound <= 1.0:
        raise DomainError("log B must be finite and > 1 (B > e)")
    return 1.0 + _root_excess(float(log_bound) - 1.0)


def coupon_prediction(l: int) -> tuple[float, float]:
    """Coupon-collector estimate for string length l >= 2.

    Expected prime count pi(N): primes below 10^(l-1) (prime number theorem)
    plus one draw per length-l string, 9*10^(l-1) strings needing about
    n log n draws in total.  predicted N then solves N / log N = pi(N).
    The l = 1 case divides by zero and is rejected, not patched, and so
    are lengths whose predicted N passes double range.
    """
    l = operator.index(l)
    if l < 2:
        raise DomainError("coupon prediction needs l >= 2")
    if l > REPORT_MAX_L:  # no bound report either, and str(l) may pass Python's digit limit
        raise DomainError(f"coupon prediction passes double range for every l > {_COUPON_MAX_L}")
    if l > _COUPON_MAX_L:
        raise DomainError(f"coupon prediction for l = {l} passes double range; `bound --l {l}` gives its natural log")
    universe = 9 * 10 ** (l - 1)
    expected_pi = 10 ** (l - 1) / ((l - 1) * _LN10) + universe * math.log(universe)
    return expected_pi, solve_log_n(expected_pi)


def asymptotic_prediction(l: int) -> tuple[float, float]:
    """Predicted N alongside the constant it implies against l^2 10^l."""
    l = operator.index(l)
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
    l = operator.index(l)
    if l < 1:
        raise DomainError("l must be >= 1")
    if l > REPORT_MAX_L:
        raise ResourceLimitError(f"bound reports need l <= {REPORT_MAX_L}; r = 10^l is too large to build")
    r = 10**l
    log_scale = l > PLAIN_SCALE_MAX_L
    if log_scale:
        simple = theorem_bound_simple_log(l)
        exact = theorem_bound_exact_log(r)
        log_n = solve_log_n_log(simple)
        coupon = _coupon_prediction_log(l)
    else:
        simple = theorem_bound_simple(l)
        exact = theorem_bound_exact(r)
        log_n = solve_log_n(simple)
        coupon = coupon_prediction(l) if l >= 2 else (None, None)
    return BoundReport(l, r, simple, exact, log_n, *coupon, log_scale=log_scale)
