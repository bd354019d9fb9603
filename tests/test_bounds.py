from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from stringprime.bounds import (
    PLAIN_SCALE_MAX_L,
    REPORT_MAX_L,
    BoundReport,
    _coupon_prediction_log,
    asymptotic_prediction,
    bound_report,
    coupon_prediction,
    solve_log_n,
    solve_log_n_log,
    theorem_bound_exact,
    theorem_bound_exact_log,
    theorem_bound_simple,
    theorem_bound_simple_log,
)
from stringprime.errors import DomainError, ResourceLimitError

LN10 = math.log(10.0)


def test_simple_bound_values():
    assert theorem_bound_simple(1) == pytest.approx(57.0, rel=1e-15)
    assert theorem_bound_simple(2) == pytest.approx(2280.0, rel=1e-15)
    assert theorem_bound_simple(5) == pytest.approx(1.425e7, rel=1e-15)


def test_simple_bound_domain():
    for bad in (0, -1, PLAIN_SCALE_MAX_L + 1):
        with pytest.raises(DomainError):
            theorem_bound_simple(bad)
    for call in (theorem_bound_simple_log, bound_report):
        with pytest.raises(DomainError):
            call(0)


def test_simple_bound_log_form():
    for l in (1, 5, 18):
        assert theorem_bound_simple_log(l) == pytest.approx(math.log(theorem_bound_simple(l)), rel=1e-14)
    # beyond the plain range the log form keeps going
    assert theorem_bound_simple_log(100) == pytest.approx(math.log(5.7) + 2 * math.log(100) + 100 * LN10, rel=1e-14)


def test_exact_bound_small_base():
    r = 3
    expected = r * math.log(r) ** 2 * (1 + (1 + math.log(2.0)) / math.log(r))
    assert theorem_bound_exact(3) == pytest.approx(expected, rel=1e-14)
    assert theorem_bound_exact(3) == pytest.approx(9.201184, abs=1e-6)


def test_exact_bound_at_crossover():
    # the simplification is valid from l = 6 up, and fails at l = 5
    assert theorem_bound_exact(10**6) == pytest.approx(2.0468e8, rel=1e-4)
    assert theorem_bound_exact(10**6) <= theorem_bound_simple(6)
    assert theorem_bound_exact(10**5) > theorem_bound_simple(5)
    for l in range(6, 16):
        assert theorem_bound_exact(10**l) <= theorem_bound_simple(l)


def test_exact_bound_domain_and_log_form():
    for call in (theorem_bound_exact, theorem_bound_exact_log):
        with pytest.raises(DomainError):
            call(2)
    for r in (3, 10**4, 10**10):
        assert theorem_bound_exact_log(r) == pytest.approx(math.log(theorem_bound_exact(r)), rel=1e-12)
    # beyond double range for r itself
    assert math.isfinite(theorem_bound_exact_log(10**400))


def test_monotone_in_arguments():
    simples = [theorem_bound_simple(l) for l in range(1, 19)]
    assert all(a < b for a, b in zip(simples, simples[1:]))
    ys = [solve_log_n(b) for b in np.logspace(1, 12, 60)]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_solve_log_n_round_trip_grid():
    for b in np.logspace(1, 12, 120):
        y = solve_log_n(float(b))
        assert abs(y / math.log(y) - b) <= 1e-9 * b


def test_solve_log_n_near_e():
    for b in (2.72, 2.8, 3.0, math.e + 1e-9):
        y = solve_log_n(b)
        assert y > math.e
        assert abs(y / math.log(y) - b) <= 1e-9 * b


def test_solve_log_n_domain():
    with pytest.raises(DomainError):
        solve_log_n(math.e)
    with pytest.raises(DomainError):
        solve_log_n(1.0)
    with pytest.raises(DomainError):
        solve_log_n_log(1.0)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=r"only for B finite and > e"):
            solve_log_n(value)
        with pytest.raises(DomainError, match=r"log B must be finite and > 1 \(B > e\)"):
            solve_log_n_log(value)


def test_solve_log_n_reference_values():
    assert solve_log_n(57) == pytest.approx(330.7, abs=0.05)
    assert solve_log_n(2280) == pytest.approx(22887.4, abs=1.0)
    assert solve_log_n(51300) == pytest.approx(689676, abs=50)


def test_solve_log_n_log_consistency():
    for b in (1e3, 1e9, 1e15):
        t = solve_log_n_log(math.log(b))
        assert t == pytest.approx(math.log(solve_log_n(b)), rel=1e-7)
    # works where B overflows doubles: log B = 1000
    t = solve_log_n_log(1000.0)
    assert t - math.log(t) == pytest.approx(1000.0, rel=1e-9)


def _decimal_t(log_b: Decimal) -> Decimal:
    """The root t > 1 of t - ln t = log_b, by 50-digit bisection."""
    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = Decimal(1), log_b + log_b.ln() + 1
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid - mid.ln() < log_b else (lo, mid)
        return hi


def _decimal_root(b: float) -> Decimal:
    """y > e with y / ln y = b: y = b t where t - ln t = ln b."""
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal(b) * _decimal_t(Decimal(b).ln())


@pytest.mark.parametrize("b", [math.e + 1e-12, math.e + 1e-9, 2.8, 57.0, 319389.0, 1e12, 1e300])
def test_solve_log_n_matches_a_50_digit_root(b):
    # near e the curve is flat, so a 1e-9 residual test would pass values
    # far from the root
    assert solve_log_n(b) == pytest.approx(float(_decimal_root(b)), rel=1e-12)


@pytest.mark.parametrize("log_b", [1 + 1e-12, 1 + 1e-6, 1.003])
def test_solve_log_n_log_near_one(log_b):
    assert solve_log_n_log(log_b) == pytest.approx(float(_decimal_t(Decimal(log_b))), rel=1e-12)


def test_coupon_prediction_l2():
    expected_pi, predicted_n = coupon_prediction(2)
    oracle = 10 / LN10 + 90 * math.log(90)
    assert expected_pi == pytest.approx(oracle, rel=1e-12)
    assert expected_pi == pytest.approx(409.33, abs=0.01)
    assert predicted_n == pytest.approx(3.32e3, rel=1e-2)
    assert predicted_n / math.log(predicted_n) == pytest.approx(expected_pi, rel=1e-9)


def test_coupon_prediction_follows_formula():
    for l in range(2, 12):
        expected_pi, predicted_n = coupon_prediction(l)
        universe = 9 * 10 ** (l - 1)
        oracle = 10 ** (l - 1) / ((l - 1) * LN10) + universe * math.log(universe)
        assert expected_pi == pytest.approx(oracle, rel=1e-12)
        assert predicted_n / math.log(predicted_n) == pytest.approx(expected_pi, rel=1e-9)


def test_coupon_rejects_l1():
    with pytest.raises(DomainError):
        coupon_prediction(1)
    with pytest.raises(DomainError):
        asymptotic_prediction(1)


@pytest.mark.parametrize("l", [303, 10**308, 10**400, 10**5000], ids=["303", "10^308", "10^400", "10^5000"])
def test_coupon_past_double_range_raises(l):
    # 10**308 still converts to a double, 10**400 does not; str(10**5000)
    # passes Python's int-to-str digit limit
    for predict in (coupon_prediction, asymptotic_prediction):
        with pytest.raises(DomainError, match="passes double range"):
            predict(l)


def test_asymptotic_prediction():
    for l in (2, 5, 10):
        predicted_n, implied = asymptotic_prediction(l)
        assert implied == pytest.approx(predicted_n / (l * l * 10.0**l), rel=1e-12)
    n10, c10 = asymptotic_prediction(10)
    n12, c12 = asymptotic_prediction(12)
    assert abs(c10 / c12 - 1) < 0.25  # stabilization


def test_derivation_inequality_sandwich():
    # the true two-sided version: 1/r < log r - log(r-1) < 1/(r-1);
    # evaluated via log1p so the gap stays well above float noise
    r = np.arange(3, 10**6 + 1, dtype=np.float64)
    diff = np.log1p(1.0 / (r - 1.0))
    assert np.all(diff > 1.0 / r)
    assert np.all(diff < 1.0 / (r - 1.0))


def test_log_log_exceeds_one_past_e_to_e():
    for x in (15.16, 16.0, 100.0, 1e6):
        assert math.log(math.log(x)) > 1.0 or x < math.exp(math.e)
    assert math.log(math.log(16.0)) > 1.0


def test_bound_report_plain_scale():
    rep = bound_report(4)
    assert rep == BoundReport(
        l=4,
        r=10**4,
        bound_simple=theorem_bound_simple(4),
        bound_exact=theorem_bound_exact(10**4),
        log_n=solve_log_n(theorem_bound_simple(4)),
        coupon_pi=coupon_prediction(4)[0],
        coupon_n=coupon_prediction(4)[1],
        log_scale=False,
    )
    # report invariant: log_n / log(log_n) recovers the simple bound
    assert rep.log_n / math.log(rep.log_n) == pytest.approx(rep.bound_simple, rel=1e-9)
    for l in (2, PLAIN_SCALE_MAX_L):
        simple = theorem_bound_simple(l)
        expected_pi, predicted_n = coupon_prediction(l)
        assert bound_report(l) == BoundReport(
            l=l,
            r=10**l,
            bound_simple=simple,
            bound_exact=theorem_bound_exact(10**l),
            log_n=solve_log_n(simple),
            coupon_pi=expected_pi,
            coupon_n=predicted_n,
        )


def test_bound_report_l1_has_no_coupon():
    rep = bound_report(1)
    assert rep.coupon_pi is None and rep.coupon_n is None


def test_bound_report_log_scale():
    rep = bound_report(25)
    assert rep.log_scale
    assert rep.r == 10**25
    assert rep.bound_simple == pytest.approx(math.log(5.7) + 2 * math.log(25) + 25 * LN10, rel=1e-12)
    # log_n field solves t - log t = log B
    assert rep.log_n - math.log(rep.log_n) == pytest.approx(rep.bound_simple, rel=1e-9)
    # continuity with the plain scale at l = 18
    plain = bound_report(18)
    assert not plain.log_scale
    assert bound_report(19).bound_simple > math.log(plain.bound_simple)
    for l in (PLAIN_SCALE_MAX_L + 1, 25, REPORT_MAX_L):
        log_simple = theorem_bound_simple_log(l)
        log_pi, log_n = _coupon_prediction_log(l)
        assert bound_report(l) == BoundReport(
            l=l,
            r=10**l,
            bound_simple=log_simple,
            bound_exact=theorem_bound_exact_log(10**l),
            log_n=solve_log_n_log(log_simple),
            coupon_pi=log_pi,
            coupon_n=log_n,
            log_scale=True,
        )


@pytest.mark.parametrize("l", [REPORT_MAX_L + 1, 10**5000], ids=["REPORT_MAX_L+1", "10^5000"])
def test_bound_report_past_the_length_ceiling_is_a_resource_limit(l):
    with pytest.raises(ResourceLimitError, match="bound reports need l <= "):
        bound_report(l)


@pytest.mark.parametrize("l", [19, 20, 25, 302])
def test_numpy_lengths_match_python_ints(l):
    # 10**l in int64 overflows from l = 19, in int32 from l = 10
    for n in (np.int64(l), np.int32(l)):
        assert bound_report(n) == bound_report(l)
        assert coupon_prediction(n) == coupon_prediction(l)


def test_bound_report_exact_le_simple_from_6():
    for l in (6, 9, 15, 18):
        rep = bound_report(l)
        assert rep.bound_exact <= rep.bound_simple
