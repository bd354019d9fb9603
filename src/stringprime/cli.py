"""Command-line front end.

Every operation is reachable as a subcommand; tables render as human,
csv, or markdown text with deterministic formatting ('.' decimal point,
no locale).  Exit codes: 0 success, 1 not found within the limit,
2 invalid arguments or domain errors, 3 resource limits, 4 internal errors,
130 interrupted (Ctrl-C), 141 stdout closed by its reader (a broken pipe).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import __version__
from .bounds import PLAIN_SCALE_MAX_L, bound_report, coupon_prediction, asymptotic_prediction, solve_log_n, theorem_bound_simple
from .counting import count_avoiders
from .digits import parse_digit_string
from .errors import DomainError, InvalidInputError, ResourceLimitError

# The sieving commands import `.experiments` (and with it numpy) when they
# run, so the other commands start without numpy.  The import reads the
# module attribute at each call, so a function replaced on the module (by a
# test or perfbench's tracer) is the one the command calls.

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # the shell's code for a SIGINT
EXIT_BROKEN_PIPE = 141  # the shell's code for a SIGPIPE

# The largest precision float formatting accepts (a C int).
_MAX_PRECISION = 2**31 - 1


def _cell(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def render_table(headers: list[str], rows: list[list], fmt: str, precision: int) -> str:
    """Render one table; csv output is byte-stable for identical inputs."""
    cells = [[_cell(v, precision) for v in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(headers)] + [",".join(row) for row in cells]
        return "\n".join(lines)
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |"]
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        lines += ["| " + " | ".join(row) + " |" for row in cells]
        return "\n".join(lines)
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines)


def _emit(args, headers: list[str], rows: list[list]) -> None:
    print(render_table(headers, rows, args.format, args.precision))


_BOUND_HEADERS = ["l", "r", "scale", "bound_simple", "bound_exact", "log_n", "coupon_pi", "coupon_n"]


def _cmd_bound(args) -> int:
    rep = bound_report(args.l)
    row = [
        rep.l,
        f"10^{rep.l}" if rep.log_scale else rep.r,  # str(r) may pass Python's digit limit
        "log" if rep.log_scale else "linear",
        rep.bound_simple,
        rep.bound_exact,
        rep.log_n,
        rep.coupon_pi,
        rep.coupon_n,
    ]
    _emit(args, _BOUND_HEADERS, [row])
    if rep.log_scale:
        print(f"note: values above l = {PLAIN_SCALE_MAX_L} are natural logarithms", file=sys.stderr)
    return EXIT_OK


def _cmd_solve_logn(args) -> int:
    _emit(args, ["b", "log_n"], [[args.b, solve_log_n(args.b)]])
    return EXIT_OK


def _cmd_coupon(args) -> int:
    expected_pi, predicted_n = coupon_prediction(args.l)
    _, implied = asymptotic_prediction(args.l)
    _emit(
        args,
        ["l", "expected_pi", "predicted_n", "implied_constant"],
        [[args.l, expected_pi, predicted_n, implied]],
    )
    return EXIT_OK


def _cmd_count_avoiders(args) -> int:
    pattern = parse_digit_string(args.pattern)
    _emit(args, ["pattern", "x", "avoiders"], [[pattern.text, args.x, count_avoiders(pattern, args.x)]])
    return EXIT_OK


def _cmd_least_prime(args) -> int:
    from .experiments import least_prime_containing

    pattern = parse_digit_string(args.pattern)
    p = least_prime_containing(pattern, args.limit, cache_dir=args.cache_dir)
    if p is None:
        print(f"no prime <= {args.limit} contains {pattern.text}", file=sys.stderr)
        return EXIT_NOT_FOUND
    _emit(args, ["pattern", "limit", "prime"], [[pattern.text, args.limit, p]])
    return EXIT_OK


def _cmd_coverage(args) -> int:
    from .experiments import coverage_threshold

    result = coverage_threshold(args.l, args.limit, cache_dir=args.cache_dir)
    if result is None:
        print(f"coverage incomplete for l = {args.l} within limit {args.limit}", file=sys.stderr)
        return EXIT_NOT_FOUND
    if args.save_map:
        try:
            result.write_csv(args.save_map)
        except OSError as exc:
            raise InvalidInputError(f"cannot write coverage map {args.save_map}: {exc.strerror or exc}") from exc
        print(f"coverage map written to {args.save_map}", file=sys.stderr)
    _emit(
        args,
        ["l", "universe", "m", "last_string"],
        [[result.length, result.universe_size, result.m, result.last_string.text]],
    )
    return EXIT_OK


def _cmd_ap(args) -> int:
    from .experiments import find_prime_ap

    pattern = parse_digit_string(args.pattern)
    result = find_prime_ap(pattern, args.k, args.limit, cache_dir=args.cache_dir)
    if result is None:
        print(f"not found <= {args.limit}", file=sys.stderr)
        return EXIT_NOT_FOUND
    _emit(
        args,
        ["pattern", "k", "first_term", "difference", "terms"],
        [[pattern.text, result.length, result.first_term, result.difference, " ".join(map(str, result.terms))]],
    )
    return EXIT_OK


def _cmd_density(args) -> int:
    from .experiments import density_table

    pattern = parse_digit_string(args.pattern)
    exponents = _parse_exponents(args.exponents)
    reports = density_table(pattern, exponents, cache_dir=args.cache_dir)
    rows = [
        [pattern.text, len(str(rep.n)) - 1, rep.n, rep.pi_n, rep.containing, rep.avoiding, rep.density]
        for rep in reports
    ]
    _emit(args, ["pattern", "e", "n", "pi", "containing", "avoiding", "density"], rows)
    return EXIT_OK


def _cmd_table1(args) -> int:
    from .experiments import coverage_threshold

    if not 1 <= args.max_l <= 5:
        raise DomainError("table1 covers lengths 1..5")
    rows = []
    for l in range(1, args.max_l + 1):
        m = coverage_threshold(l, 10 ** (l + 2), cache_dir=args.cache_dir).m  # 10^(l + 2) > M(l)
        rows.append([l, m, solve_log_n(theorem_bound_simple(l))])
    _emit(args, ["l", "M", "logN"], rows)
    return EXIT_OK


def _parse_exponents(text: str) -> list[int]:
    try:
        exponents = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad exponent list {text!r}") from exc
    if not exponents:
        raise InvalidInputError(f"empty exponent list {text!r}")
    return exponents


def _common_flags(defaults: bool) -> argparse.ArgumentParser:
    """Shared flags, usable before or after the subcommand.

    Subparsers copy their whole namespace over the top-level one, so the
    copies attached to subcommands suppress defaults; only explicitly given
    values propagate.
    """
    d = (lambda v: v) if defaults else (lambda v: argparse.SUPPRESS)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["human", "csv", "markdown"], default=d("human"),
                        help="output table format")
    common.add_argument("--precision", type=int, default=d(6), metavar="P",
                        help="significant digits for reals (default 6)")
    common.add_argument("--threads", type=int, default=d(1), metavar="N",
                        help="must be >= 1; never changes output")
    common.add_argument("--cache-dir", default=d(os.environ.get("STRINGPRIME_CACHE")), metavar="PATH",
                        help="directory for the sieve segment cache of the segments from 2^24 on "
                             "(default $STRINGPRIME_CACHE; unset = in-memory, sieved per request); "
                             "the primes below 2^24 are always sieved once per process and kept")
    common.add_argument("--seed-check", action="store_true", default=d(False),
                        help="run the invariant self-test battery first")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringprime",
        parents=[_common_flags(defaults=True)],
        description="Digit strings in primes: exact counts, bounds, and experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = _common_flags(defaults=False)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("bound", parents=[common], help="evaluate all bounds for a string length")
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("solve-logn", parents=[common], help="solve y / log y = B")
    p.add_argument("--b", type=float, required=True)
    # argparse reads an argument that starts with "-" as an option unless it
    # is a plain negative decimal; every float() spelling of a negative B
    # (-1e5, -inf, -nan) is a value here, so solve_log_n names its domain
    p._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
    p.set_defaults(func=_cmd_solve_logn)

    p = sub.add_parser("coupon", parents=[common], help="coupon-collector prediction")
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_coupon)

    p = sub.add_parser("count-avoiders", parents=[common], help="exact count of pattern avoiders in [1, x]")
    p.add_argument("--pattern", required=True)
    p.add_argument("--x", type=int, required=True)
    p.set_defaults(func=_cmd_count_avoiders)

    p = sub.add_parser("least-prime", parents=[common], help="least prime containing the pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_least_prime)

    p = sub.add_parser("coverage", parents=[common], help="least prime bound covering all length-l strings")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--save-map", metavar="PATH", help="also write the coverage map CSV here")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("ap", parents=[common], help="arithmetic progression of containing primes")
    p.add_argument("--pattern", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_ap)

    p = sub.add_parser("density", parents=[common], help="relative density of containing primes at 10^e")
    p.add_argument("--pattern", required=True)
    p.add_argument("--exponents", required=True, metavar="E1,E2,...")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("table1", parents=[common], help="coverage thresholds and log N for l = 1..max-l")
    p.add_argument("--max-l", type=int, required=True, dest="max_l")
    p.set_defaults(func=_cmd_table1)

    return parser


def _run(parser: argparse.ArgumentParser, args) -> int:
    if args.precision < 1:
        raise InvalidInputError("precision must be >= 1")
    if args.precision > _MAX_PRECISION:
        raise InvalidInputError(f"precision must be <= {_MAX_PRECISION}")
    if args.threads < 1:
        raise InvalidInputError("threads must be >= 1")
    if args.seed_check:
        from . import selfcheck

        if selfcheck.run():
            return EXIT_INVALID
        if not getattr(args, "func", None):
            return EXIT_OK
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_INVALID
    return args.func(args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(parser, args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # what stdout still buffers goes nowhere, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InvalidInputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # a defect, not a user error: one line, no traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
