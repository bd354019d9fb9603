"""stringprime benchmark: one run of one workload.

    python3 perfbench/run.py --workload {scan,pi,queries,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in its own process
(worker.py) against the checkout's `src/stringprime`; this process then
checks every output against oracles that share no code with the program
(oracles.py) and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  A
readable summary goes to standard error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS
from worker import child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# setup_s comes from (reference import, set-up) pairs, each in fresh
# processes; some are taken before the timed run and some after, so that one
# slow stretch of the machine does not set them all.
SETUP_PAIRS_BEFORE = 6
SETUP_PAIRS_AFTER = 5
# setup_s is in seconds on a machine where the reference import
# (worker.REFERENCE_IMPORTS in a fresh process) takes IMPORT_REF_S; fixed,
# so figures compare across runs and commits.
IMPORT_REF_S = 0.15
STARTUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def run_child(cmd: list[str], timeout: float = CHILD_TIMEOUT_S, **kw) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout, **kw)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: {' '.join(cmd[1:3])} exited {proc.returncode}")
    return proc


def setup_pairs(args, n: int) -> list[tuple[float, float]]:
    """n pairs of (reference import s, set-up s), each timed in its own
    fresh process, the reference just before its set-up."""
    pairs = []
    for _ in range(n):
        ref = json.loads(run_child(worker_cmd(args, "--setup-reference")).stdout)["reference_s"]
        setup = json.loads(run_child(worker_cmd(args, "--setup-only")).stdout)["raw_setup_s"]
        pairs.append((ref, setup))
    return pairs


def startup_ms() -> float:
    """Median wall time of a child that only imports stringprime.cli."""
    env = child_env()
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "import stringprime.cli"], env=env)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stringprime" / "__init__.py").is_file():
        print(f"benchmark: no stringprime package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_file = OUT / f"worker-{tag}-{os.getpid()}.json"
    pairs = [] if args.trace else setup_pairs(args, SETUP_PAIRS_BEFORE)
    try:
        run_child(worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--out", str(result_file)))
        result = json.loads(result_file.read_text())
    finally:
        result_file.unlink(missing_ok=True)
    if not args.trace:
        pairs += setup_pairs(args, SETUP_PAIRS_AFTER)

    import oracles

    problems = oracles.check(args.workload, result)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if args.trace:
        layers = {k: tuple(v) for k, v in result["layers"].items()}
        layers["cli.startup_ms"] = (startup_ms(), "ms")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        info = [f"traced rounds {result['rounds']}, untraced rounds {result['untraced_rounds']}"]
    else:
        ops = result["op_seconds"]
        walls = result["walls"]
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(ops) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": IMPORT_REF_S * statistics.median(s / r for r, s in pairs), "unit": "s"},
        }
        info = [f"rounds {len(walls)}, operations timed {len(ops)}"]
        if result["calibrated"]:
            info.append(f"uncalibrated wall_s {result['raw_wall_s']:.6g} s, "
                        f"op_p50_ms {result['raw_op_p50_s'] * 1e3:.6g} ms")
        info.append(f"raw set-up {statistics.median(s for _, s in pairs):.6g} s, "
                    f"reference import {statistics.median(r for r, _ in pairs):.6g} s")
        if len(ops) >= 100:  # ten or more samples beyond the 90th percentile
            p90 = statistics.quantiles(ops, n=10)[-1]
            info.append(f"op_p90_ms {p90 * 1e3:.4f} ms ({sum(t > p90 for t in ops)} samples beyond)")

    summary = {"correct": not problems, "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: " + "; ".join(info), file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {not problems}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
