"""Span capture around stringprime's public entry points.

The tracer wraps each entry point where its callers look it up (module
attributes in every loaded stringprime module, methods on their class), so
the program itself is unchanged.  A span holds a name, start, end, the span
that was open when it began (its parent), its busy time and a call count.
Generators get one of two treatments:

* `each`: one span per resumption (PrimeStream.segments: one span per
  segment);
* `total`: one span per generator whose busy time sums its resumptions
  (PrimeStream.__iter__, resumed once per prime; a span per prime would
  cost more memory than the scan itself).

Spans live in flat arrays and are written once, when the run ends.  A
span's self time is its busy time minus the busy time of its children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

CALL, EACH, TOTAL = "call", "each", "total"

# (module, attribute or Class.method, span name, kind)
ENTRY_POINTS = (
    ("experiments", "coverage_threshold", "experiments.coverage", CALL),
    ("experiments", "density_table", "experiments.density", CALL),
    ("experiments", "find_prime_ap", "experiments.ap", CALL),
    ("experiments", "least_prime_containing", "experiments.least_prime", CALL),
    ("digits", "parse_digit_string", "digits.parse", CALL),
    ("primes", "PrimeStream.segments", "primes.segment", EACH),
    ("primes", "PrimeStream.__iter__", "primes.iter", TOTAL),
    ("primes", "prime_count", "primes.count", CALL),
    ("primes", "is_prime", "primes.is_prime", CALL),
    ("counting", "count_avoiders", "counting.count", CALL),
    ("counting", "PatternAutomaton.__init__", "counting.build", CALL),
    ("counting", "PatternAutomaton.survivor_counts", "counting.survivors", CALL),
    ("bounds", "bound_report", "bounds.report", CALL),
    ("cli", "main", "cli.main", CALL),
    ("cli", "render_table", "cli.render", CALL),
)

EXPERIMENT_SPANS = {
    "experiments.coverage": "experiments.coverage_self_s",
    "experiments.density": "experiments.density_self_s",
    "experiments.ap": "experiments.ap_self_s",
    "experiments.least_prime": "experiments.least_prime_self_s",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.busy = array("q")
        self.calls = array("q")
        self.stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0)
        self.end.append(0)
        self.busy.append(0)
        self.calls.append(0)
        return index

    def close(self, index: int, start: int, end: int, busy: int, calls: int) -> None:
        self.start[index] = start
        self.end[index] = end
        self.busy[index] = busy
        self.calls[index] = calls

    # --- wrappers ------------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        tracer, stack, clock = self, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.close(index, t0, t1, t1 - t0, 1)

        return traced

    def _wrap_each(self, name: str, fn):
        tracer, stack, clock = self, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                stack.append(index)
                yielded = 0
                t0 = clock()
                try:
                    value = next(it)
                    yielded = 1
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    tracer.close(index, t0, t1, t1 - t0, yielded)
                yield value

        return traced

    def _wrap_total(self, name: str, fn):
        tracer, stack, clock = self, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            index = tracer.open(name)
            first = last = clock()
            busy = calls = 0
            try:
                while True:
                    stack.append(index)
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        last = clock()
                        busy += last - t0
                        stack.pop()
                    calls += 1
                    yield value
            finally:
                tracer.close(index, first, last, busy, calls)

        return traced

    def install(self, package: str = "stringprime") -> None:
        """Wrap every entry point; `uninstall` puts the originals back."""
        wrap = {CALL: self._wrap_call, EACH: self._wrap_each, TOTAL: self._wrap_total}
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for module_name, attr, name, kind in ENTRY_POINTS:
            owner = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, wrap[kind](name, original))
                continue
            original = getattr(owner, attr)
            traced = wrap[kind](name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- analysis ------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: spans, calls, busy and self seconds, and the busy
        and self time of every span in order (seconds)."""
        n = len(self.name)
        child_busy = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_busy[p] += self.busy[i]
        out: dict[str, dict] = {}
        for name in self.names:
            out[name] = {"spans": 0, "calls": 0, "busy": [], "self": []}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["spans"] += 1
            entry["calls"] += self.calls[i]
            entry["busy"].append(self.busy[i] / 1e9)
            entry["self"].append((self.busy[i] - child_busy[i]) / 1e9)
        return out

    def top_level_busy(self, name: str) -> list[float]:
        """Busy seconds of the spans called `name` that have no parent span,
        in order."""
        names = self.names
        return [self.busy[i] / 1e9 for i in range(len(self.name))
                if self.parent[i] < 0 and names[self.name[i]] == name]

    def experiment_yields(self) -> int:
        """Primes yielded by PrimeStream.__iter__ inside an experiments span."""
        names = self.names
        total = 0
        for i in range(len(self.name)):
            if names[self.name[i]] != "primes.iter":
                continue
            p = self.parent[i]
            while p >= 0 and not names[self.name[p]].startswith("experiments."):
                p = self.parent[p]
            if p >= 0:
                total += self.calls[i]
        return total

    def write(self, path: str) -> None:
        """Spans as one compressed .npz: names plus one array per field."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            busy_ns=np.frombuffer(self.busy, dtype=np.int64),
            calls=np.frombuffer(self.calls, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, rounds: int, pi_kinds: list[str] | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase.  Totals are per round; `_us`,
    `_ms` figures are means per call (cli.main_ms: median per command).  A
    layer the workload never enters reads 0; the prime_count classes are
    those of the pi workload and read 0 elsewhere."""
    spans = tracer.summary()
    empty = {"spans": 0, "calls": 0, "busy": [], "self": []}

    def get(name):
        return spans.get(name, empty)

    def per_round(value):
        return value / rounds

    def mean(values, scale):
        return statistics.fmean(values) * scale if values else 0.0

    m: dict[str, tuple[float, str]] = {}
    experiments_self = 0.0
    for span, metric in EXPERIMENT_SPANS.items():
        self_s = sum(get(span)["self"])
        experiments_self += self_s
        m[metric] = (per_round(self_s), "s")
    scanned = tracer.experiment_yields()
    m["experiments.primes_scanned"] = (per_round(scanned), "count")
    m["experiments.scan_ns_per_prime"] = (experiments_self * 1e9 / scanned if scanned else 0.0, "ns")
    m["digits.parse_calls"] = (per_round(get("digits.parse")["spans"]), "count")
    m["digits.parse_s"] = (per_round(sum(get("digits.parse")["busy"])), "s")
    m["primes.segments"] = (per_round(get("primes.segment")["calls"]), "count")
    m["primes.segment_s"] = (per_round(sum(get("primes.segment")["busy"])), "s")
    m["primes.extract_s"] = (per_round(sum(get("primes.iter")["self"])), "s")
    m["primes.primes_yielded"] = (per_round(get("primes.iter")["calls"]), "count")
    # The call classes are those of the pi workload's inputs, matched in
    # order to the prime_count calls made from outside any traced span.
    counts = tracer.top_level_busy("primes.count") if pi_kinds is not None else []
    if pi_kinds is not None and len(counts) != len(pi_kinds):
        raise ValueError(f"{len(counts)} top-level prime_count spans for {len(pi_kinds)} pi operations")
    for kind in ("uncached", "grow", "hit"):
        metric = "primes.count_uncached_ms" if kind == "uncached" else f"primes.count_cached_{kind}_ms"
        m[metric] = (mean([t for t, k in zip(counts, pi_kinds or ()) if k == kind], 1e3), "ms")
    m["primes.is_prime_us"] = (mean(get("primes.is_prime")["busy"], 1e6), "us")
    m["counting.automaton_builds"] = (per_round(get("counting.build")["spans"]), "count")
    m["counting.automaton_build_us"] = (mean(get("counting.build")["busy"], 1e6), "us")
    m["counting.survivor_calls"] = (per_round(get("counting.survivors")["spans"]), "count")
    m["counting.survivor_s"] = (per_round(sum(get("counting.survivors")["busy"])), "s")
    m["counting.count_self_us"] = (mean(get("counting.count")["self"], 1e6), "us")
    m["bounds.report_us"] = (mean(get("bounds.report")["busy"], 1e6), "us")
    mains = get("cli.main")["busy"]
    m["cli.main_ms"] = (statistics.median(mains) * 1e3 if mains else 0.0, "ms")
    m["cli.render_us"] = (mean(get("cli.render")["busy"], 1e6), "us")
    m["trace.spans"] = (per_round(len(tracer.name)), "count")
    return m
