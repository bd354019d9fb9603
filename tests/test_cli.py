from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest

import stringprime
from stringprime import bound_report, cli, count_avoiders, relative_density, solve_log_n
from stringprime.bounds import REPORT_MAX_L
from stringprime.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out: str) -> tuple[list[str], list[list[str]]]:
    lines = out.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_table1_csv_values(capsys):
    code, out, _ = run_cli(capsys, "table1", "--max-l", "3", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["l", "M", "logN"]
    assert [int(r[1]) for r in rows] == [83, 1847, 50411]
    reference = [330.7, 22887.4, 689676.0]
    for row, expected in zip(rows, reference):
        assert abs(float(row[2]) - expected) / expected < 0.005


def test_solve_logn(capsys):
    code, out, _ = run_cli(capsys, "solve-logn", "--b", "57")
    assert code == 0
    value = float(out.strip().splitlines()[-1].split()[-1])
    assert abs(value - 330.7) < 0.05


def test_solve_logn_prints_the_correctly_rounded_root(capsys):
    # the root is 4921505.004...; a 1e-9-accurate one can round to 4.9215e+06
    code, out, _ = run_cli(capsys, "solve-logn", "--b", "319389", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "319389,4.92151e+06"


def test_solve_logn_domain_error(capsys):
    code, _, err = run_cli(capsys, "solve-logn", "--b", "2")
    assert code == 2
    assert "error" in err


def test_solve_logn_of_infinity_says_b_must_be_finite(capsys):
    # argparse would read "-inf" or "-1e5" as an option, not as the value of --b
    for b in ("inf", "-inf", "-1e5", "-1E5", "-nan"):
        code, out, err = run_cli(capsys, "solve-logn", "--b", b)
        assert (code, out) == (2, "")
        assert err == "error: y / log y = B has a solution y > e only for B finite and > e\n"


def test_ap_not_found_exit_code(capsys):
    code, out, err = run_cli(capsys, "ap", "--pattern", "123", "--k", "3", "--limit", "100")
    assert code == 1
    assert "not found <= 100" in err
    assert out == ""


def test_ap_found(capsys):
    code, out, _ = run_cli(capsys, "ap", "--pattern", "1", "--k", "3", "--limit", "100", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["pattern", "k", "first_term", "difference", "terms"]
    assert rows[0] == ["1", "3", "11", "30", "11 41 71"]


def test_count_avoiders_csv(capsys):
    code, out, _ = run_cli(capsys, "count-avoiders", "--pattern", "9", "--x", "99", "--format", "csv")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["9", "99", "80"]]


def test_least_prime(capsys):
    code, out, _ = run_cli(capsys, "least-prime", "--pattern", "8", "--limit", "100", "--format", "csv")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["8", "100", "83"]]
    code, _, err = run_cli(capsys, "least-prime", "--pattern", "123", "--limit", "100")
    assert code == 1
    assert "no prime" in err


def test_coverage_and_save_map(capsys, tmp_path):
    path = tmp_path / "cover.csv"
    code, out, err = run_cli(
        capsys, "coverage", "--l", "1", "--limit", "1000", "--format", "csv", "--save-map", str(path)
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["1", "9", "83", "8"]]
    assert path.exists()
    assert "coverage map written" in err


@pytest.mark.parametrize("where", ["missing-dir/cover.csv", "."])
def test_coverage_save_map_unwritable(capsys, tmp_path, where):
    # a missing parent directory, and a path that is a directory
    path = tmp_path / where
    code, out, err = run_cli(capsys, "coverage", "--l", "2", "--limit", "10000", "--save-map", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write coverage map {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_coverage_not_found(capsys):
    code, _, err = run_cli(capsys, "coverage", "--l", "3", "--limit", "1000")
    assert code == 1
    assert "incomplete" in err


def test_coverage_resource_limit(capsys):
    code, _, err = run_cli(capsys, "coverage", "--l", "2", "--limit", str(2 * 10**9))
    assert code == 3
    assert "resource limit" in err


def test_bound_row_matches_report(capsys):
    code, out, _ = run_cli(capsys, "bound", "--l", "2", "--format", "csv", "--precision", "12")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["l", "r", "scale", "bound_simple", "bound_exact", "log_n", "coupon_pi", "coupon_n"]
    rep = bound_report(2)
    row = rows[0]
    assert row[:3] == ["2", "100", "linear"]
    assert float(row[3]) == pytest.approx(rep.bound_simple, rel=1e-11)
    assert float(row[4]) == pytest.approx(rep.bound_exact, rel=1e-11)
    assert float(row[5]) == pytest.approx(rep.log_n, rel=1e-11)


def test_bound_l1_empty_coupon_fields(capsys):
    code, out, _ = run_cli(capsys, "bound", "--l", "1", "--format", "csv")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][-2:] == ["", ""]


def test_bound_log_scale_note(capsys):
    code, out, err = run_cli(capsys, "bound", "--l", "30", "--format", "csv")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][2] == "log"
    assert "natural logarithms" in err


@pytest.mark.parametrize("fmt", ["human", "markdown", "csv"])
def test_bound_log_scale_renders_r_as_power(capsys, fmt):
    # str(10**5000) exceeds Python's int-to-str digit limit
    code, out, _ = run_cli(capsys, "bound", "--l", "5000", "--format", fmt)
    assert code == 0
    assert "10^5000" in out.replace(",", " ").replace("|", " ").split()


def test_bound_above_the_length_ceiling_is_a_resource_limit(capsys):
    code, out, err = run_cli(capsys, "bound", "--l", str(REPORT_MAX_L + 1))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("resource limit:")
    # the ceiling itself still reports
    assert bound_report(REPORT_MAX_L).log_scale


def test_coupon_row(capsys):
    code, out, _ = run_cli(capsys, "coupon", "--l", "2", "--format", "csv", "--precision", "10")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(409.3257, abs=1e-3)
    assert float(rows[0][2]) == pytest.approx(3318.5, abs=0.1)


def test_coupon_l1_domain_error(capsys):
    code, _, err = run_cli(capsys, "coupon", "--l", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "l",
    ["302", "303", "306", "309", "5000",
     pytest.param("1" + "0" * 308, id="10^308"), pytest.param("1" + "0" * 400, id="10^400")],
)
def test_coupon_past_double_range_is_a_domain_error(capsys, l):
    code, out, err = run_cli(capsys, "coupon", "--l", l, "--format", "csv")
    if l == "302":  # the last length whose predicted N is a finite double
        assert code == 0
        assert all(math.isfinite(float(v)) for v in parse_csv(out)[1][0][1:])
        return
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    if int(l) <= REPORT_MAX_L:
        assert f"bound --l {l}" in err
    else:  # `bound --l` exits 3 past the report ceiling, so no hint names it
        assert "bound --l" not in err


def test_solve_logn_past_double_range_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "solve-logn", "--b", "1e308")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "bound --l" in err


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_coupon", broken)
    code, out, err = run_cli(capsys, "coupon", "--l", "2")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err.startswith("internal error: ") and "boom" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_coupon", interrupted)
    assert run_cli(capsys, "coupon", "--l", "2") == (cli.EXIT_INTERRUPTED, "", "interrupted\n")


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_sigint_during_an_in_process_scan_is_clean():
    # a 10^9 density scan is still sieving and scanning when the signal
    # comes; the child leads a new process group, so any process it started
    # would still be found there.  A background job of a non-interactive
    # shell inherits SIGINT ignored, so the child restores the default
    # before it starts.
    proc = subprocess.Popen(
        [sys.executable, "-m", "stringprime", "density", "--pattern", "7", "--exponents", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    time.sleep(0.5)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_INTERRUPTED == 130
    assert out == "" and err == "interrupted\n"
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # nothing it started outlived it


@pytest.mark.parametrize("exponents", ["10", "5000", "2,10000000"])
def test_density_past_the_sieve_ceiling_is_a_resource_limit(capsys, exponents):
    # 10**5000 has more digits than str() renders; 10**10000000 takes seconds
    # to build
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "density", "--pattern", "1", "--exponents", exponents)
    assert time.perf_counter() - start < 0.5
    assert code == cli.EXIT_RESOURCE and out == ""
    assert err.count("\n") == 1 and err.startswith("resource limit:")


def test_sieving_command_calls_the_experiments_attribute(capsys, monkeypatch):
    from stringprime import experiments

    monkeypatch.setattr(experiments, "least_prime_containing", lambda pattern, limit, cache_dir=None: 1)
    code, out, _ = run_cli(capsys, "least-prime", "--pattern", "7", "--limit", "100", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "7,100,1"


def test_density_rows(capsys):
    code, out, _ = run_cli(capsys, "density", "--pattern", "9", "--exponents", "2,3", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["pattern", "e", "n", "pi", "containing", "avoiding", "density"]
    rep = relative_density("9", 100)
    assert rows[0][:6] == ["9", "2", "100", str(rep.pi_n), str(rep.containing), str(rep.avoiding)]


def test_density_bad_exponents(capsys):
    code, _, err = run_cli(capsys, "density", "--pattern", "9", "--exponents", "2,x")
    assert code == 2


@pytest.mark.parametrize("exponents", ["", ",,"])
def test_density_empty_exponents(capsys, exponents):
    code, out, err = run_cli(capsys, "density", "--pattern", "9", "--exponents", exponents)
    assert code == 2
    assert out == ""
    assert err == f"error: empty exponent list {exponents!r}\n"


def test_bad_pattern_exit_code(capsys):
    code, _, err = run_cli(capsys, "count-avoiders", "--pattern", "9a", "--x", "10")
    assert code == 2
    assert "error" in err


def test_table1_bad_max_l(capsys):
    code, _, _ = run_cli(capsys, "table1", "--max-l", "6")
    assert code == 2


def test_markdown_format(capsys):
    code, out, _ = run_cli(capsys, "table1", "--max-l", "1", "--format", "markdown")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| l | M | logN |")
    assert lines[1].startswith("|")
    assert "| 83 |" in lines[2]


def test_human_format_aligns(capsys):
    code, out, _ = run_cli(capsys, "table1", "--max-l", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["l", "M", "logN"]
    assert lines[1].split()[:2] == ["1", "83"]


def test_precision_flag(capsys):
    _, out6, _ = run_cli(capsys, "solve-logn", "--b", "57", "--format", "csv")
    _, out12, _ = run_cli(capsys, "solve-logn", "--b", "57", "--format", "csv", "--precision", "12")
    v6 = out6.strip().splitlines()[1].split(",")[1]
    v12 = out12.strip().splitlines()[1].split(",")[1]
    assert len(v12) > len(v6)
    assert float(v12) == pytest.approx(solve_log_n(57), rel=1e-11)


@pytest.mark.parametrize("precision", ["0", "-1"])
def test_precision_below_one_is_invalid(capsys, precision):
    code, out, err = run_cli(capsys, "bound", "--l", "6", "--precision", precision)
    assert (code, out, err) == (2, "", "error: precision must be >= 1\n")


@pytest.mark.parametrize("precision", ["2147483648", "99999999999999999999"])
def test_precision_past_the_formatter_limit_is_invalid(capsys, precision):
    code, out, err = run_cli(capsys, "bound", "--l", "6", "--precision", precision)
    assert (code, out, err) == (2, "", "error: precision must be <= 2147483647\n")


def test_largest_precision_still_renders(capsys):
    code, out, _ = run_cli(capsys, "solve-logn", "--b", "57", "--format", "csv", "--precision", "2147483647")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == solve_log_n(57)


def test_global_flags_before_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "table1", "--max-l", "1")
    assert code == 0
    assert out.splitlines()[0] == "l,M,logN"


def test_threads_flag_does_not_change_output(capsys):
    _, out1, _ = run_cli(capsys, "table1", "--max-l", "2", "--format", "csv", "--threads", "1")
    _, out8, _ = run_cli(capsys, "table1", "--max-l", "2", "--format", "csv", "--threads", "8")
    assert out1 == out8


def test_threads_must_be_positive(capsys):
    code, _, _ = run_cli(capsys, "table1", "--max-l", "1", "--threads", "0")
    assert code == 2


def test_seed_check_runs(capsys):
    code, out, _ = run_cli(capsys, "--seed-check")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("seed-check")]
    assert len(lines) >= 6
    assert all("PASS" in l for l in lines)


def test_seed_check_then_subcommand(capsys):
    code, out, _ = run_cli(capsys, "solve-logn", "--b", "57", "--seed-check", "--format", "csv")
    assert code == 0
    assert "seed-check PASS" in out
    assert out.strip().endswith(tuple("0123456789"))


class _OneWrongTransition(stringprime.PatternAutomaton):
    """An automaton whose move on digit 0 from state 0 goes one state too far."""

    def __init__(self, pattern):
        super().__init__(pattern)
        first, *rest = self.transition
        self.transition = ((first[0] + 1, *first[1:]), *rest)


# (name in stringprime.selfcheck, its faulty stand-in given the real one, the check that must fail)
_SEED_CHECK_FAULTS = [
    ("PrimeStream", lambda real: lambda limit: list(real(limit))[1:], "sieve matches trial division to 10^4"),
    ("prime_count", lambda real: lambda x: real(x) + 1, "pi(10^4) exact"),
    ("is_prime", lambda real: lambda n: real(n) or n == 9, "is_prime matches trial division to 10^4"),
    ("rosser_lower", lambda real: float, "pi(x) > x/log x on [17, 10^4]"),
    ("PatternAutomaton", lambda real: _OneWrongTransition, "automaton transitions match longest suffix-prefix"),
    ("count_avoiders", lambda real: lambda auto, x: real(auto, x) + 1, "exact avoider count matches brute force to 2000"),
    ("solve_log_n", lambda real: lambda b: real(b) * (1 + 1e-6), "y/log y inversion round trip"),
]


@pytest.mark.parametrize("name,fault,check", _SEED_CHECK_FAULTS, ids=[case[0] for case in _SEED_CHECK_FAULTS])
def test_seed_check_reports_a_failing_check(capsys, monkeypatch, name, fault, check):
    from stringprime import selfcheck

    monkeypatch.setattr(selfcheck, name, fault(getattr(selfcheck, name)))
    assert selfcheck.run() >= 1
    assert f"seed-check FAIL: {check}\n" in capsys.readouterr().out


def test_seed_check_counts_a_pattern_string_too(capsys, monkeypatch):
    # the check counts the pattern string as well as its automaton
    from stringprime import selfcheck

    real = selfcheck.count_avoiders
    monkeypatch.setattr(selfcheck, "count_avoiders", lambda pattern, x: real(pattern, x) + isinstance(pattern, str))
    assert selfcheck.run() == 1
    assert "seed-check FAIL: exact avoider count matches brute force to 2000\n" in capsys.readouterr().out


def test_failing_seed_check_prints_no_table(capsys, monkeypatch):
    import stringprime.selfcheck

    monkeypatch.setattr(stringprime.selfcheck, "run", lambda: 1)
    code, out, _ = run_cli(capsys, "solve-logn", "--b", "57", "--seed-check", "--format", "csv")
    assert (code, out) == (2, "")


def test_no_subcommand_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


# a stream reads the cache only from 2^24 on, and ap reads its whole stream
# when no progression starts at the least containing prime: for "21" and
# k = 6, none from 211 ends below 10^8
_PAST_THE_KEPT_BLOCK = ("ap", "--pattern", "21", "--k", "6", "--limit", "16777217")


def test_cache_dir_flag(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, *_PAST_THE_KEPT_BLOCK, "--format", "csv", "--cache-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "sieve.spsv").exists()
    code, out2, _ = run_cli(capsys, *_PAST_THE_KEPT_BLOCK, "--format", "csv", "--cache-dir", str(tmp_path))
    assert out1 == out2


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STRINGPRIME_CACHE", str(tmp_path))
    code, _, _ = run_cli(capsys, *_PAST_THE_KEPT_BLOCK)
    assert code == 0
    assert (tmp_path / "sieve.spsv").exists()


@pytest.mark.parametrize("how", ["flag", "env"])
def test_empty_cache_dir_means_in_memory(tmp_path, how):
    src = os.path.dirname(os.path.dirname(stringprime.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "stringprime", "least-prime", "--pattern", "9", "--limit", "5000"]
    if how == "flag":
        argv += ["--cache-dir", ""]
    else:
        env["STRINGPRIME_CACHE"] = ""
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_stdout_closed_by_its_reader_exits_141(unbuffered):
    # the read end is closed before the child starts, so its first write to
    # stdout (at the flush, or at the print when unbuffered) fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stringprime", "bound", "--l", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 128 + signal.SIGPIPE


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stringprime", "solve-logn", "--b", "57", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "b,log_n"


def test_csv_repeatable_bytes():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "stringprime", "table1", "--max-l", "2", "--format", "csv"],
            capture_output=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


_NUMPY_PROBE = """
import contextlib, io, json, sys
import stringprime
from stringprime import cli
loaded = {"import": "numpy" in sys.modules}
for argv in (["bound", "--l", "6"], ["coupon", "--l", "5"], ["solve-logn", "--b", "57"],
             ["count-avoiders", "--pattern", "12", "--x", "1000"],
             ["least-prime", "--pattern", "7", "--limit", "100"],
             ["density", "--pattern", "7", "--exponents", "8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[argv[0]] = [code, "numpy" in sys.modules]
loaded["prime_count"] = stringprime.prime_count(10**8, cache_dir=sys.argv[1])
loaded["one_process"] = sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules)
print(json.dumps(loaded))
"""


def test_only_sieving_commands_import_numpy(tmp_path):
    # density and the cached count each sieve 96 segments of 2^20 integers,
    # the scan in memory and the count into a cache; both stay in one process
    env = {k: v for k, v in os.environ.items() if k != "STRINGPRIME_CACHE"}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": False,
        "bound": [0, False],
        "coupon": [0, False],
        "solve-logn": [0, False],
        "count-avoiders": [0, False],
        "least-prime": [0, True],
        "density": [0, True],
        "prime_count": 5_761_455,
        "one_process": [],
    }
