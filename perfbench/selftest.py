"""Tests of the benchmark's own checks: each accepts a right answer and
rejects a deliberately wrong one.  Imports nothing from stringprime.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from inputs import cli_inputs, pi_inputs, queries_inputs, scan_inputs  # noqa: E402


def _solve(b: float) -> float:
    """y > e with y / ln y = b, by bisection (for building right answers)."""
    lo, hi = math.e, max(10.0, 4 * b * math.log(b))
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid / math.log(mid) < b else (lo, mid)
    return hi


def test_oracle_values():
    assert oracles.count_avoiders("9", 99) == 80
    for pattern in ("1", "0", "12", "11", "121", "00", "05"):
        brute = 0
        for x in range(1, 3000):
            brute += pattern not in str(x)
            assert oracles.count_avoiders(pattern, x) == brute, (pattern, x)
    assert oracles.coverage(2, 10**4)["m"] == 1847
    assert oracles.coverage(3, 10**5)["m"] == 50411
    assert oracles.prime_count(10**6) == 78498
    assert oracles.least_prime("05", 10**4) == 1051
    assert oracles.prime_ap("9", 4, 10**6) == (19, 60)


# --- scan -----------------------------------------------------------------------


def _scan_case():
    inp = scan_inputs(3)
    inp["coverage"] = [[1, 10**3], [2, 10**4], [3, 10**5]]  # keep the test quick
    inp["density_exponents"] = [2, 3, 4, 5]
    inp["limit"] = 10**6
    coverage = [dict(oracles.coverage(l, lim), l=l) for l, lim in inp["coverage"]]
    rows = oracles.density_rows(inp["density_pattern"], inp["density_exponents"])
    a, d = oracles.prime_ap(inp["ap_pattern"], inp["ap_k"], inp["limit"])
    out = {
        "coverage": coverage,
        "density": [[inp["density_pattern"], *row, row[2] / row[1]] for row in rows],
        "ap": [a, d, inp["ap_k"], [a + j * d for j in range(inp["ap_k"])]],
        "least_prime": [oracles.least_prime(s, inp["limit"]) for s in inp["least_prime_patterns"]],
    }
    return inp, out


def test_scan_accepts_right_and_rejects_wrong():
    inp, out = _scan_case()
    assert oracles.check_scan(inp, out) == []
    mutations = [
        lambda o: o["coverage"][1].update(m=1849),
        lambda o: o["coverage"][2].update(last="123"),
        lambda o: o["coverage"][2].update(digest="0" * 64),
        lambda o: o["density"][2].__setitem__(3, o["density"][2][3] + 1),
        lambda o: o["density"][1].__setitem__(2, o["density"][1][2] - 1),
        lambda o: o["ap"][3].__setitem__(3, o["ap"][3][3] + 2),
        lambda o: o["ap"].__setitem__(1, o["ap"][1] * 2),
        lambda o: o["least_prime"].__setitem__(0, o["least_prime"][0] + 2),
        lambda o: o.__setitem__("ap", None),
    ]
    for mutate in mutations:
        wrong = copy.deepcopy(out)
        mutate(wrong)
        assert oracles.check_scan(inp, wrong), mutate


# --- pi -------------------------------------------------------------------------


def test_pi_rejects_wrong_count():
    inp = pi_inputs(5)
    inp["ops"] = [op for op in inp["ops"] if op[1] < 10**8]
    out = [oracles.prime_count(x) for _, x in inp["ops"]]
    assert oracles.check_pi(inp, out) == []
    out[3] += 4  # what a flipped cache byte did to pi(10^6)
    assert oracles.check_pi(inp, out)
    # a raised prime_count fails the round: every x on the ladder has an answer
    assert oracles.check_pi(inp, "ValueError('x too large')")


# --- queries --------------------------------------------------------------------


def _bound_row(l):
    simple = 5.7 * l * l * 10.0**l
    r = 10**l
    exact = r * math.log(r) ** 2 * (1 + (1 + math.log1p(1 / (r - 2))) / math.log(r))
    coupon_pi = coupon_n = None
    if l >= 2:
        u = 9 * 10 ** (l - 1)
        coupon_pi = 10 ** (l - 1) / ((l - 1) * math.log(10)) + u * math.log(u)
        coupon_n = _solve(coupon_pi)
    return [l, str(r), simple, exact, _solve(simple), coupon_pi, coupon_n, False]


def test_queries_accepts_right_and_rejects_wrong():
    inp = queries_inputs(7)
    inp["queries"] = inp["queries"][:40]
    out, prev = [], []
    for q in inp["queries"]:
        out.append([oracles.count_avoiders(q["pattern"], q["x"]), _bound_row(len(q["pattern"])),
                    oracles.is_prime(q["n"])])
        prev.append(oracles.count_avoiders(q["pattern"], q["x"] - 1))
    assert oracles.check_queries(inp, out, prev) == []

    def wrong(i, j, value):
        bad = copy.deepcopy(out)
        if j is None:
            bad[i][0] = value
        else:
            bad[i][1][j] = value
        return bad

    assert oracles.check_queries(inp, wrong(0, None, out[0][0] + 1), prev)  # count off by one
    bad_prev = list(prev)
    bad_prev[1] += 1  # breaks count(S, x) - count(S, x-1) only
    assert oracles.check_queries(inp, out, bad_prev)
    assert oracles.check_queries(inp, wrong(2, 2, out[2][1][2] * (1 + 1e-9)), prev)  # bound_simple
    assert oracles.check_queries(inp, wrong(2, 4, out[2][1][4] * 1.001), prev)  # log_n
    assert oracles.check_queries(inp, wrong(2, 3, out[2][1][3] * 1.01), prev)  # bound_exact
    flipped = copy.deepcopy(out)
    flipped[4][2] = not flipped[4][2]
    assert oracles.check_queries(inp, flipped, prev)
    raised = copy.deepcopy(out)
    raised[5] = "OverflowError('count too large')"
    assert oracles.check_queries(inp, raised, prev)


def test_bound_row_log_scale_and_fixed_r():
    l = 30
    log_simple = math.log(5.7) + 2 * math.log(l) + l * math.log(10)
    t = log_simple + math.log(log_simple)
    for _ in range(200):
        t = log_simple + math.log(t)
    log_r = l * math.log(10)
    exact = log_r + 2 * math.log(log_r) + math.log1p(1 / log_r)
    log_u = math.log(9) + (l - 1) * math.log(10)
    a, b = (l - 1) * math.log(10) - math.log((l - 1) * math.log(10)), log_u + math.log(log_u)
    cpi = max(a, b) + math.log1p(math.exp(min(a, b) - max(a, b)))
    cn = cpi + math.log(cpi)
    for _ in range(200):
        cn = cpi + math.log(cn)
    row = (l, "1" + "0" * l, log_simple, exact, t, cpi, cn, True)
    assert oracles.check_bound_row(*row) == []
    assert oracles.check_bound_row(l, f"10^{l}", *row[2:]) == []
    assert oracles.check_bound_row(l, "1" + "0" * (l - 1), *row[2:])
    assert oracles.check_bound_row(l, row[1], log_simple + 1e-6, *row[3:])


# --- cli ------------------------------------------------------------------------


def _render(headers, rows, fmt):
    cells = [[("" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))) for v in r] for r in rows]
    if fmt == "csv":
        return "\n".join([",".join(headers)] + [",".join(r) for r in cells]) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |", "|" + "|".join(" --- " for _ in headers) + "|"]
        return "\n".join(lines + ["| " + " | ".join(r) + " |" for r in cells]) + "\n"
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    return "\n".join(lines) + "\n"


def test_cli_tables_accept_right_and_reject_wrong():
    for fmt in ("human", "csv", "markdown"):
        logn = [_solve(5.7 * l * l * 10.0**l) for l in (1, 2)]
        right = _render(["l", "M", "logN"], [[1, 83, logn[0]], [2, 1847, logn[1]]], fmt)
        argv = ["table1", "--max-l", "2", "--format", fmt]
        assert oracles.check_cli(argv, 0, right) == []
        assert oracles.check_cli(argv, 0, right.replace("1847", "1848"))
        assert oracles.check_cli(argv, 0, _render(["l", "M", "logN"], [[1, 83, logn[0] * 1.001], [2, 1847, logn[1]]], fmt))

        argv = ["count-avoiders", "--pattern", "121", "--x", "123456789", "--format", fmt]
        want = oracles.count_avoiders("121", 123456789)
        assert oracles.check_cli(argv, 0, _render(["pattern", "x", "avoiders"], [["121", 123456789, want]], fmt)) == []
        assert oracles.check_cli(argv, 0, _render(["pattern", "x", "avoiders"], [["121", 123456789, want - 1]], fmt))

        argv = ["ap", "--pattern", "9", "--k", "4", "--limit", "1000000", "--format", fmt]
        headers = ["pattern", "k", "first_term", "difference", "terms"]
        assert oracles.check_cli(argv, 0, _render(headers, [["9", 4, 19, 60, "19 79 139 199"]], fmt)) == []
        assert oracles.check_cli(argv, 0, _render(headers, [["9", 4, 19, 60, "19 79 139 201"]], fmt))

        argv = ["bound", "--l", "1", "--format", fmt]
        headers = ["l", "r", "scale", "bound_simple", "bound_exact", "log_n", "coupon_pi", "coupon_n"]
        row = _bound_row(1)
        good = [1, "10", "linear", row[2], row[3], row[4], None, None]
        assert oracles.check_cli(argv, 0, _render(headers, [good], fmt)) == []
        assert oracles.check_cli(argv, 0, _render(headers, [good[:5] + [row[4] * 1.01, None, None]], fmt))

    checks = [
        (["coverage", "--l", "2", "--limit", "10000"], ["l", "universe", "m", "last_string"], [2, 90, 1847, "18"], 2, 1848),
        (["least-prime", "--pattern", "05", "--limit", "1000000"], ["pattern", "limit", "prime"], ["05", 1000000, 1051], 2, 1061),
        (["solve-logn", "--b", "57"], ["b", "log_n"], [57.0, _solve(57.0)], 1, _solve(58.0)),
    ]
    for argv, headers, row, col, wrong in checks:
        argv = argv + ["--format", "csv"]
        cov = oracles.coverage(2, 10**4)
        if argv[0] == "coverage":
            row[3] = cov["last"]
        assert oracles.check_cli(argv, 0, _render(headers, [row], "csv")) == [], argv
        bad = list(row)
        bad[col] = wrong
        assert oracles.check_cli(argv, 0, _render(headers, [bad], "csv")), argv

    argv = ["density", "--pattern", "7", "--exponents", "2,3"]
    rows = [["7", e, *w[:4], w[2] / w[1]] for e, w in zip((2, 3), oracles.density_rows("7", [2, 3]))]
    headers = ["pattern", "e", "n", "pi", "containing", "avoiding", "density"]
    assert oracles.check_cli(argv, 0, _render(headers, [r[:1] + r[1:2] + r[2:] for r in rows], "human")) == []
    rows[1][4] += 1
    assert oracles.check_cli(argv, 0, _render(headers, rows, "human"))

    argv = ["coupon", "--l", "3", "--format", "csv"]
    u = 900
    cpi = 100 / (2 * math.log(10)) + u * math.log(u)
    cn = _solve(cpi)
    headers = ["l", "expected_pi", "predicted_n", "implied_constant"]
    assert oracles.check_cli(argv, 0, _render(headers, [[3, cpi, cn, cn / 9000]], "csv")) == []
    assert oracles.check_cli(argv, 0, _render(headers, [[3, cpi, cn * 1.01, cn * 1.01 / 9000]], "csv"))

    # only the known-failing `bound --l 5000` may exit 1 without an oracle's
    # say-so; "not found" is right only where the oracle finds nothing
    assert oracles.check_cli(["bound", "--l", "5000"], 1, "") == []
    assert oracles.check_cli(["bound", "--l", "5000"], 2, "")
    assert oracles.check_cli(["bound", "--l", "3", "--format", "csv"], 0, "")
    assert oracles.check_cli(["bound", "--l", "3", "--format", "csv"], 1, "")
    assert oracles.check_cli(["least-prime", "--pattern", "05", "--limit", "1000000"], 1, "")
    assert oracles.check_cli(["least-prime", "--pattern", "05", "--limit", "1000"], 1, "") == []
    assert oracles.check_cli(["ap", "--pattern", "9", "--k", "4", "--limit", "1000000"], 1, "")
    assert oracles.check_cli(["ap", "--pattern", "9", "--k", "4", "--limit", "150"], 1, "") == []
    assert oracles.check_cli(["coverage", "--l", "2", "--limit", "10000"], 1, "")
    assert oracles.check_cli(["coverage", "--l", "2", "--limit", "1000"], 1, "") == []
    assert oracles.check_cli(["solve-logn", "--b", "57"], 1, "")


def test_inputs_are_seeded():
    for make in (scan_inputs, pi_inputs, queries_inputs, cli_inputs):
        assert make(11) == make(11)
        assert make(11) != make(12)
    for seed in range(50):
        commands = cli_inputs(seed)["commands"]
        assert len(commands) == 28 and commands.count(["bound", "--l", "5000"]) == 1
        assert all(x <= 10**9 for _, x in pi_inputs(seed)["ops"])


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
