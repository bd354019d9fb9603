"""One workload run in its own process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE
    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --workload W --seed N --setup-reference

Imports stringprime from the checkout's `src`, builds the seeded inputs,
then repeats whole rounds of the workload's operations, one at a time, each
timed from outside through the public functions.  A round is started only
while the elapsed time plus one more round's mean fits in --seconds (at
least one round always runs).  The first round's outputs are summarised for
the oracle checks in run.py; every later round must reproduce them.

On `scan` and `queries`, whose time is interpreter work, times are
calibrated against the machine's speed: a fixed pure-Python loop
(`calibrate`, no stringprime code) is timed before and after every round and
every quarter second or so between calls, and each round's times are scaled
by CAL_REF_S over the mean of those samples.  The values are seconds on a
machine where the loop takes CAL_REF_S; raw times are kept beside them.
`pi` (numpy sieving, cache I/O) and `cli` (child start-up) report raw
times, which the loop does not follow.

--setup-only times the set-up alone (import, inputs, workload objects);
--setup-reference times the import of REFERENCE_IMPORTS alone, the yardstick
run.py scales set-up times by.

With --trace 1 the first half of the time runs untraced and the second half
traced, so the overhead of tracing is measured within one process.  The
result is one JSON object written to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, make_inputs  # noqa: E402

clock = time.perf_counter

# The calibration loop's time at the reference speed; fixed, so calibrated
# figures compare across runs and commits.
CAL_REF_S = 0.010
CAL_EVERY_S = 0.25
# Interpreter work, which the loop follows.  pi (numpy sieving, cache I/O)
# and cli (child start-up) were no steadier calibrated than raw.
CALIBRATED = ("scan", "queries")

# The third-party and standard modules the package imported when the
# benchmark was written.  Fixed, so the reference import does the same work
# at every commit; it follows file reads, unmarshalling and shared-library
# loading, which the interpreter loop does not.
REFERENCE_IMPORTS = ("numpy", "argparse", "csv", "dataclasses", "tempfile", "struct", "typing")


def reference_import() -> float:
    """Seconds to import REFERENCE_IMPORTS (run in a fresh process)."""
    t0 = clock()
    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
    return clock() - t0


def calibrate() -> float:
    """Seconds for a fixed loop of interpreter work (integer arithmetic,
    dict stores, a sort) that shares no code with the program."""
    t0 = clock()
    table = {}
    acc = 0
    for i in range(40_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 4095] = acc
    sorted(table.values())
    return clock() - t0


class Speed:
    """Calibration samples around and between the operations of a round."""

    def __init__(self) -> None:
        self.samples = [calibrate()]
        self.last = clock()

    def between_ops(self) -> None:
        if clock() - self.last >= CAL_EVERY_S:
            self.samples.append(calibrate())
            self.last = clock()

    def end_round(self) -> float:
        """Scale factor for the round just ended; starts the next round's
        samples with this closing one."""
        self.samples.append(calibrate())
        self.last = clock()
        factor = CAL_REF_S / statistics.fmean(self.samples)
        self.samples = self.samples[-1:]
        return factor


class RawSpeed:
    """No calibration: every factor is 1."""

    def between_ops(self) -> None:
        pass

    def end_round(self) -> float:
        return 1.0


def load_program():
    """Import the package under test from the checkout; returns its modules."""
    sys.path.insert(0, str(SRC))
    from stringprime import bounds, cli, counting, digits, experiments, primes

    return {"bounds": bounds, "cli": cli, "counting": counting, "digits": digits,
            "experiments": experiments, "primes": primes}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("STRINGPRIME_CACHE", None)
    return env


# --- workloads -----------------------------------------------------------------
# round(between_ops) performs one round, calling between_ops() between
# operations that take long enough for the machine's speed to drift, and
# returns (op_seconds, op_failed, outputs); summarise(outputs) turns the
# outputs into JSON for the checks.


class Scan:
    def __init__(self, mods, inp):
        self.ex = mods["experiments"]
        self.inp = inp

    def round(self, between_ops):
        """One operation: the whole experiment round.  Its latency is the sum
        of its calls' times, so calibration samples can fall between calls."""
        ex, inp = self.ex, self.inp
        elapsed = 0.0

        def timed(fn, *args):
            nonlocal elapsed
            between_ops()
            t0 = clock()
            try:
                return fn(*args)
            finally:
                elapsed += clock() - t0

        try:
            out = {
                "coverage": [timed(ex.coverage_threshold, l, limit) for l, limit in inp["coverage"]],
                "density": timed(ex.density_table, inp["density_pattern"], inp["density_exponents"]),
                "ap": timed(ex.find_prime_ap, inp["ap_pattern"], inp["ap_k"], inp["limit"]),
                "least_prime": [timed(ex.least_prime_containing, s, inp["limit"])
                                for s in inp["least_prime_patterns"]],
            }
            failed = False
        except Exception as exc:  # an operation that raises is counted as failed
            out, failed = {"error": repr(exc)}, True
        return [elapsed], [failed], out

    @staticmethod
    def summarise(out):
        if "error" in out:
            return out
        coverage = []
        for res in out["coverage"]:
            if res is None:
                coverage.append(None)
                continue
            pairs = sorted((k.text, v) for k, v in res.covered_at.items())
            digest = hashlib.sha256(",".join(f"{k}:{v}" for k, v in pairs).encode()).hexdigest()
            coverage.append({"l": res.length, "universe": res.universe_size, "m": res.m,
                             "last": res.last_string.text, "strings": len(pairs), "digest": digest})
        ap = out["ap"]
        return {
            "coverage": coverage,
            "density": [[r.pattern.text, r.n, r.pi_n, r.containing, r.avoiding, r.density] for r in out["density"]],
            "ap": None if ap is None else [ap.first_term, ap.difference, ap.length, list(ap.terms)],
            "least_prime": out["least_prime"],
        }


class Pi:
    def __init__(self, mods, inp, cache_dir):
        self.pr = mods["primes"]
        self.ops = inp["ops"]
        self.cache_dir = cache_dir
        self.cache_bytes = 0

    def round(self, between_ops):
        """One operation: the whole ladder.  Per-call times (uncached, grow,
        hit) come from the traced run; a median over calls would sit among
        calls of several classes and sizes."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        pr, out = self.pr, []
        elapsed = 0.0
        try:
            for kind, x in self.ops:
                between_ops()
                t0 = clock()
                try:
                    out.append(pr.prime_count(x, cache_dir=None if kind == "uncached" else self.cache_dir))
                finally:
                    elapsed += clock() - t0
            failed = False
        except Exception as exc:
            out, failed = repr(exc), True
        for entry in os.scandir(self.cache_dir):
            self.cache_bytes = max(self.cache_bytes, entry.stat().st_size)
        return [elapsed], [failed], out

    @staticmethod
    def summarise(out):
        return out


class Queries:
    def __init__(self, mods, inp):
        self.counting, self.bounds, self.primes = mods["counting"], mods["bounds"], mods["primes"]
        self.pool = [self.counting.PatternAutomaton(p) for p in inp["pool"]]
        self.queries = [(self.pool[q["pool"]] if q["pool"] is not None else q["pattern"],
                         q["x"], len(q["pattern"]), q["n"]) for q in inp["queries"]]

    def round(self, between_ops):
        counting, bounds, primes = self.counting, self.bounds, self.primes
        times, failed, out = [], [], []
        for pattern, x, length, n in self.queries:
            t0 = clock()
            try:
                value = (counting.count_avoiders(pattern, x), bounds.bound_report(length), primes.is_prime(n))
                ok = True
            except Exception as exc:
                value, ok = repr(exc), False
            times.append(clock() - t0)
            failed.append(not ok)
            out.append(value)
        return times, failed, out

    @staticmethod
    def summarise(out):
        rows = []
        for value in out:
            if isinstance(value, str):
                rows.append(value)
                continue
            count, rep, prime = value
            rows.append([count, [rep.l, str(rep.r), rep.bound_simple, rep.bound_exact, rep.log_n,
                                 rep.coupon_pi, rep.coupon_n, rep.log_scale], prime])
        return rows

    def previous_counts(self, inp):
        """count_avoiders(S, x - 1) for each query (x - 1 = 0 counts 0), for
        the difference property; computed after the timed phase."""
        return [self.counting.count_avoiders(q["pattern"], q["x"] - 1) if q["x"] > 1 else 0
                for q in inp["queries"]]


class Cli:
    """Untraced: one `python -m stringprime` child per command.  Traced:
    cli.main in this process with stdout and stderr captured."""

    def __init__(self, mods, inp, in_process):
        self.cli = mods["cli"]
        self.commands = inp["commands"]
        self.in_process = in_process
        self.env = child_env()

    def _child(self, argv):
        proc = subprocess.run([sys.executable, "-m", "stringprime", *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def _in_process(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the CLI's own uncaught error: a child would exit 1
                print(repr(exc), file=sys.stderr)
                code = 1
        return code, stdout.getvalue(), stderr.getvalue()

    def round(self, between_ops):
        run = self._in_process if self.in_process else self._child
        times, failed, out = [], [], []
        for argv in self.commands:
            between_ops()
            t0 = clock()
            code, stdout, stderr = run(argv)
            times.append(clock() - t0)
            failed.append(code != 0)
            out.append([argv, code, stdout, stderr if code != 0 else ""])
        return times, failed, out

    @staticmethod
    def summarise(out):
        # Tracebacks differ between a child and cli.main in process; the
        # exit code and standard output are what the checks compare.
        return [[argv, code, stdout] for argv, code, stdout, _ in out]


def run_phase(work, seconds, reference, workload):
    """Whole rounds until the next would overrun `seconds`.  Returns a dict
    of round walls (the sum of the round's operation times) and operation
    latencies, both calibrated on the CALIBRATED workloads, their raw
    counterparts, attempted and failed counts, and the number of rounds whose
    outputs differ from `reference` (the first round's summary when None),
    plus the reference."""
    # latencies in flat arrays: their growth with run length stays far below
    # the program's own memory in peak_rss_mb
    ph = {"walls": [], "ops": array("d"), "raw_walls": [], "raw_ops": array("d"),
          "attempted": 0, "failed": 0, "mismatched": 0}
    speed = Speed() if workload in CALIBRATED else RawSpeed()
    start = clock()
    while True:
        times, fails, out = work.round(speed.between_ops)
        factor = speed.end_round()
        ph["raw_walls"].append(sum(times))
        ph["raw_ops"].extend(times)
        ph["walls"].append(sum(times) * factor)
        ph["ops"].extend(t * factor for t in times)
        ph["attempted"] += len(times)
        ph["failed"] += sum(fails)
        summary = work.summarise(out)
        if reference is None:
            reference = summary
        elif summary != reference:
            ph["mismatched"] += 1
        elapsed = clock() - start
        if elapsed + elapsed / len(ph["walls"]) > seconds:
            return ph, reference


def build(workload, mods, inp, cache_dir, traced):
    if workload == "scan":
        return Scan(mods, inp)
    if workload == "pi":
        return Pi(mods, inp, cache_dir)
    if workload == "queries":
        return Queries(mods, inp)
    return Cli(mods, inp, in_process=traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--setup-reference", action="store_true")
    args = ap.parse_args(argv)

    if args.setup_reference:
        print(json.dumps({"reference_s": reference_import()}))
        return 0
    t0 = clock()
    mods = load_program()
    inp = make_inputs(args.workload, args.seed)
    cache_dir = str(OUT / f"cache-{os.getpid()}")
    work = build(args.workload, mods, inp, cache_dir, traced=bool(args.trace))
    raw_setup_s = clock() - t0
    if args.setup_only:
        print(json.dumps({"raw_setup_s": raw_setup_s}))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "calibrated": args.workload in CALIBRATED,
              "inputs": inp}
    try:
        if args.workload == "queries":
            # Lets the pooled automata finish their lazy survivor tables;
            # the warm-up round also fixes the reference outputs.
            _, _, out = work.round(lambda: None)
            reference = work.summarise(out)
        else:
            reference = None
        if args.trace:
            from tracer import Tracer, layer_metrics

            untraced, reference = run_phase(work, args.seconds / 2, reference, args.workload)
            tracer = Tracer()
            tracer.install()
            try:
                traced, reference = run_phase(work, args.seconds / 2, reference, args.workload)
            finally:
                tracer.uninstall()
            rounds = len(traced["walls"])
            pi_kinds = [kind for kind, _ in inp["ops"]] * rounds if args.workload == "pi" else None
            layers = layer_metrics(tracer, rounds, pi_kinds)
            before, after = statistics.fmean(untraced["walls"]), statistics.fmean(traced["walls"])
            layers["primes.cache_bytes"] = (float(getattr(work, "cache_bytes", 0)), "bytes")
            layers["trace.overhead_s"] = (after - before, "s")
            layers["trace.overhead_pct"] = (100.0 * (after - before) / before, "%")
            OUT.mkdir(exist_ok=True)
            tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.npz"))
            result.update(layers={k: list(v) for k, v in layers.items()},
                          rounds=rounds, untraced_rounds=len(untraced["walls"]),
                          attempted=untraced["attempted"] + traced["attempted"],
                          failed=untraced["failed"] + traced["failed"],
                          mismatched_rounds=untraced["mismatched"] + traced["mismatched"])
        else:
            ph, reference = run_phase(work, args.seconds, reference, args.workload)
            if args.workload == "cli":
                peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result.update(walls=ph["walls"], op_seconds=ph["ops"].tolist(), raw_wall_s=statistics.fmean(ph["raw_walls"]),
                          raw_op_p50_s=statistics.median(ph["raw_ops"]), attempted=ph["attempted"],
                          failed=ph["failed"], mismatched_rounds=ph["mismatched"], peak_rss_mb=peak_kb / 1024)
        result["outputs"] = reference
        if args.workload == "queries":
            result["previous_counts"] = work.previous_counts(inp)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
