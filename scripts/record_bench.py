"""Record the benchmark's end-to-end metrics in BENCH_<n>.json.

    python3 scripts/record_bench.py N

Run from the root of a clean checkout.  For every workload in BENCHMARK.json
and each of the seeds 1, 2 and 3, one run after another, it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the run length BENCHMARK.json gives, so that every BENCH file follows
one protocol and can be compared with the one before it.  It writes
BENCH_<N>.json at the repository root, and refuses to start if that file
already exists: a recorded BENCH file is never replaced.  A run that exits
non-zero, or whose last stdout line is not its JSON summary, ends the
recording with one line naming the workload and seed.  Each workload gets the
median, minimum and maximum of each end-to-end metric over its runs, every
run's metrics with the summary line the run printed to stderr, verbatim,
and whether every run was correct.  That line holds the uncalibrated times
and the reference-import time, so a reader can see the box's speed beside
each metric when comparing files recorded hours apart.  Per-layer metrics are
null: the traced run wraps public functions from outside the program, so a
layer it does not reach reads 0, which would say "free", not "not measured".
The file also records the commit, the seeds, the run length, the Python and
numpy versions, the CPU count and whether `__pycache__` was present under
src/ and perfbench/.  Bytecode writing is off in the runs, so that state is
the same for all of them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def summary_of(proc: subprocess.CompletedProcess, workload: str, seed: int) -> dict:
    """The JSON summary a run prints as its last stdout line."""
    fault = f"exited {proc.returncode}" if proc.returncode else None
    if fault is None:
        try:
            return json.loads(proc.stdout.splitlines()[-1])
        except IndexError:
            fault = "printed nothing on stdout"
        except json.JSONDecodeError:
            fault = "printed no JSON summary as its last stdout line"
    sys.stderr.write(proc.stderr)
    raise SystemExit(f"record_bench: {workload} seed {seed} {fault}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("n", type=int, help="number of the BENCH file to write")
    args = ap.parse_args(argv)
    out = ROOT / f"BENCH_{args.n}.json"
    if out.exists():
        raise SystemExit(f"record_bench: {out.name} exists; a recorded BENCH file is never replaced")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("STRINGPRIME_CACHE", None)
    bench = {
        "commit": git("rev-parse", "HEAD"),
        "tree_clean": git("status", "--porcelain", "--untracked-files=no") == "",
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpus": os.cpu_count(),
        "pycache_present": any(any(ROOT.joinpath(d).rglob("__pycache__")) for d in ("src", "perfbench")),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            summary = summary_of(proc, workload, seed)
            line = next((ln for ln in proc.stderr.splitlines() if ln.startswith(f"{workload} seed {seed}: ")), None)
            runs.append({"seed": seed, "correct": summary["correct"], "attempted": summary["attempted"],
                         "failed": summary["failed"],
                         "metrics": {k: m["value"] for k, m in summary["metrics"].items()},
                         "stderr_summary": line})
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]] for run in runs]
            end_to_end[metric["name"]] = {"unit": metric["unit"], "median": statistics.median(values),
                                          "min": min(values), "max": max(values)}
        bench["workloads"][workload] = {
            "correct": all(run["correct"] for run in runs),
            "end_to_end": end_to_end,
            "per_layer": {metric["name"]: None for metric in spec["per_layer"]},
            "runs": runs,
        }
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
