from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

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


def test_solve_logn_domain_error(capsys):
    code, _, err = run_cli(capsys, "solve-logn", "--b", "2")
    assert code == 2
    assert "error" in err


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


@pytest.mark.parametrize("l", ["302", "303", "306", "309", "5000"])
def test_coupon_past_double_range_is_a_domain_error(capsys, l):
    code, out, err = run_cli(capsys, "coupon", "--l", l, "--format", "csv")
    if l == "302":  # the last length whose predicted N is a finite double
        assert code == 0
        assert all(math.isfinite(float(v)) for v in parse_csv(out)[1][0][1:])
        return
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and f"bound --l {l}" in err


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


def test_no_subcommand_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


def test_cache_dir_flag(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "least-prime", "--pattern", "9", "--limit", "5000",
                            "--format", "csv", "--cache-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "sieve.spsv").exists()
    code, out2, _ = run_cli(capsys, "least-prime", "--pattern", "9", "--limit", "5000",
                            "--format", "csv", "--cache-dir", str(tmp_path))
    assert out1 == out2


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STRINGPRIME_CACHE", str(tmp_path))
    code, _, _ = run_cli(capsys, "least-prime", "--pattern", "9", "--limit", "5000")
    assert code == 0
    assert (tmp_path / "sieve.spsv").exists()


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
             ["least-prime", "--pattern", "7", "--limit", "100"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[argv[0]] = [code, "numpy" in sys.modules]
print(json.dumps(loaded))
"""


def test_only_sieving_commands_import_numpy():
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": False,
        "bound": [0, False],
        "coupon": [0, False],
        "solve-logn": [0, False],
        "count-avoiders": [0, False],
        "least-prime": [0, True],
    }
