"""tmodext benchmark: four workloads, end-to-end metrics, a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ext-ladder, class-ops, oracle-verify, cli-oneshot (see
perfbench/workloads.json for why each exists and which layers it moves).
The library is imported from ./src; nothing needs installing.

Each run is a closed loop with one client: the next query starts when the
previous one has finished.  A run repeats whole passes over the workload's
fixed query set until --seconds have passed and at least MIN_SAMPLES
queries were timed, so that ten samples lie above the 90th percentile.
Every answer is checked outside the timed span.  Timings are scaled to a
nominal machine speed (see speed.py); the text lines also show the median
latency as measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes
for half of --seconds, then one pass with the tracer installed, and prints
the per-layer metrics with the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`correct` is false when a query fails that is not a listed known failure.
"""

import argparse
import gc
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads
from cli_child import peak_rss_kb
from speed import REFERENCE_S, probe, speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "cli_child.py")
RESULTS = os.path.join(HERE, "results")

SETUP_REPEATS = 9
MIN_SAMPLES = 110
PROBE_EVERY_S = 0.25
CHILD_TIMEOUT_S = 120
WORKLOADS = ("ext-ladder", "class-ops", "oracle-verify", "cli-oneshot")


class Outcome:
    """Per-query wall times, their speed factors, and failures.

    An in-process query's factor comes from the probes taken before and
    after it; probes run between queries (outside the timed spans) at least
    every PROBE_EVERY_S.  A cli child probes itself and reports its own
    factor."""

    def __init__(self):
        self.names = []
        self.samples_ns = []
        self.factors = []
        self.failed = []
        self.passes = 0
        self._probe = probe()
        self._waiting = []      # samples that need the next probe
        self._last_probe = time.perf_counter()

    def add(self, name, elapsed_ns, ok, factor=None):
        self.names.append(name)
        self.samples_ns.append(elapsed_ns)
        self.factors.append(factor)
        if not ok:
            self.failed.append(name)
        if factor is None:
            self._waiting.append(len(self.factors) - 1)
            if time.perf_counter() - self._last_probe >= PROBE_EVERY_S:
                self.finish()

    def finish(self):
        """Probe now and give the waiting samples their factor."""
        if not self._waiting:
            return
        before, self._probe = self._probe, probe()
        for i in self._waiting:
            self.factors[i] = speed_factor(before, self._probe)
        self._waiting.clear()
        self._last_probe = time.perf_counter()

    def scaled(self, values):
        """`values` (one per query) at the nominal machine speed."""
        return [v * f for v, f in zip(values, self.factors)]

    def queries_per_s(self):
        return len(self.samples_ns) / (sum(self.scaled(self.samples_ns))
                                       / 1e9)


def import_fresh():
    """Import tmodext from ./src, re-executing every module of the package."""
    for name in [n for n in sys.modules
                 if n == "tmodext" or n.startswith("tmodext.")]:
        del sys.modules[name]
    return importlib.import_module("tmodext")


def execute_inprocess(query):
    start = time.perf_counter_ns()
    try:
        result = query.run()
    except Exception as exc:  # noqa: BLE001 - a raising query has failed
        return time.perf_counter_ns() - start, None, exc, None
    return time.perf_counter_ns() - start, result, None, None


def execute_cli(query):
    report = query.run()
    return int(report["main_s"] * 1e9), report, None, report["speed_factor"]


def passed(query, result, error):
    if error is not None:
        return False
    try:
        return bool(query.check(result))
    except Exception:  # noqa: BLE001 - a check that cannot run has failed
        return False


def run_pass(queries, execute, outcome, tracer=None):
    for query_id, query in enumerate(queries):
        if tracer is not None:
            tracer.query_id = query_id
        # Each query starts from a collected heap, so the collector's state,
        # and with it the query's time, does not depend on query order.
        gc.collect()
        elapsed, result, error, factor = execute(query)
        if tracer is not None:
            tracer.active = False
        outcome.add(query.name, elapsed, passed(query, result, error), factor)
        if tracer is not None:
            tracer.active = True
    outcome.passes += 1


def measure(queries, execute, seconds, min_samples):
    outcome = Outcome()
    start = time.perf_counter()
    while (outcome.passes == 0 or time.perf_counter() - start < seconds
           or len(outcome.samples_ns) < min_samples):
        run_pass(queries, execute, outcome)
    outcome.finish()
    return outcome


# ---------------------------------------------------------------------------
# Set-up.


def setup_inprocess(workload, seed):
    """Import tmodext afresh, parse, build the seeded inputs and run one
    warm-up query.  Returns (queries, seconds taken, warm-up passed)."""
    start = time.perf_counter()
    tm = import_fresh()
    queries, warmup = workloads.QUERY_SETS[workload](tm, random.Random(seed))
    _, result, error, _ = execute_inprocess(warmup)
    seconds = time.perf_counter() - start
    return queries, seconds, passed(warmup, result, error)


def spawn(argv, trace):
    """Run one command in a fresh interpreter; return the child's report."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", CHILD, "1" if trace else "0",
         json.dumps(argv)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"cli child failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def cli_queries(seed, trace, reports):
    """One query per command; each child's report is kept in `reports`."""

    def make(name, argv, code, golden):
        def run():
            report = spawn(argv, trace)
            reports.append(report)
            return report
        return workloads.Query(
            name, run,
            lambda r: workloads.check_cli(name, code, golden, r))

    queries = [make(*cmd) for cmd in workloads.CLI_COMMANDS]
    random.Random(seed).shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# Metrics.


def latency_metrics(outcome):
    """queries_per_s over all samples; p50 and p90 over the fixed query set,
    each query's latency being the median of its samples in the run.

    Neighbouring queries of the set can take nearly the same time, and
    pooled samples of two such queries interleave differently from run to
    run, so a pooled percentile jumps between them; per-query medians keep
    each query in its place.  Also returns the median latency as measured
    and the number of samples above p90."""
    scaled = outcome.scaled(outcome.samples_ns)
    by_query = {}
    for name, ns in zip(outcome.names, scaled):
        by_query.setdefault(name, []).append(ns / 1e6)
    typical = [statistics.median(ms) for ms in by_query.values()]
    cuts = statistics.quantiles(typical, n=10, method="inclusive")
    raw_p50 = statistics.median(ns / 1e6 for ns in outcome.samples_ns)
    return {
        "queries_per_s": outcome.queries_per_s(),
        "query_p50_ms": cuts[4],
        "query_p90_ms": cuts[8],
    }, raw_p50, sum(1 for ns in scaled if ns / 1e6 > cuts[8])


def run_end_to_end(workload, seed, seconds):
    reports = []
    if workload == "cli-oneshot":
        queries = cli_queries(seed, False, reports)
        outcome = measure(queries, execute_cli, seconds, MIN_SAMPLES)
        setups = outcome.scaled([r["import_s"] for r in reports])
        setup_note = f"median child import of {len(setups)} children"
        peak_kb = max(r["peak_rss_kb"] for r in reports)
        warm_ok = True
    else:
        setups, warm_ok = [], True
        for _ in range(SETUP_REPEATS):
            gc.collect()
            before = probe()
            queries, secs, ok = setup_inprocess(workload, seed)
            setups.append(secs * speed_factor(before, probe()))
            warm_ok = warm_ok and ok
        setup_note = f"median of {SETUP_REPEATS} set-ups"
        gc.collect()
        gc.freeze()
        outcome = measure(queries, execute_inprocess, seconds, MIN_SAMPLES)
        peak_kb = peak_rss_kb()
    latency, raw_p50, above_p90 = latency_metrics(outcome)
    values = {"setup_s": statistics.median(setups), **latency,
              "peak_rss_mb": peak_kb / 1024}
    n = len(outcome.samples_ns)
    notes = {
        "setup_s": setup_note,
        "queries_per_s": f"{n} queries, {outcome.passes} passes of "
                         f"{len(queries)}",
        "query_p50_ms": f"{n} samples, pooled median {raw_p50:.4f} ms "
                        f"as measured",
        "query_p90_ms": f"{n} samples, {above_p90} above",
        "peak_rss_mb": "largest child" if workload == "cli-oneshot"
                       else "this process",
    }
    speed = statistics.median(outcome.factors)
    return values, notes, outcome, warm_ok, speed


def run_traced(workload, seed, seconds):
    reports = []
    if workload == "cli-oneshot":
        untraced = measure(cli_queries(seed, False, reports), execute_cli,
                           seconds / 2, 1)
        reports.clear()
        traced = Outcome()
        run_pass(cli_queries(seed, True, reports), execute_cli, traced)
        raw = {}
        for report in reports:
            tracing.merge_raw(raw, report["raw"])
        metrics = tracing.layer_metrics(
            raw, statistics.median(r["import_s"] for r in reports),
            sum(len(r["stdout"].encode()) + len(r["stderr"].encode())
                for r in reports))
        dump = [r["trace"] for r in reports]
        warm_ok = True
    else:
        queries, _, warm_ok = setup_inprocess(workload, seed)
        gc.collect()
        gc.freeze()
        untraced = measure(queries, execute_inprocess, seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        traced = Outcome()
        try:
            run_pass(queries, execute_inprocess, traced, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.raw)
        dump = tracer.dump()
    traced.finish()
    metrics["trace.queries_per_s"] = traced.queries_per_s()
    metrics["trace.untraced_queries_per_s"] = untraced.queries_per_s()
    metrics["trace.overhead_qps"] = (metrics["trace.queries_per_s"]
                                     - metrics["trace.untraced_queries_per_s"])
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    failed = untraced.failed + traced.failed
    attempted = len(untraced.samples_ns) + len(traced.samples_ns)
    return metrics, attempted, failed, warm_ok, path


# ---------------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        notes = json.load(fh)
    return bench, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tmodext", "__init__.py")):
        print(f"error: no tmodext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    bench, notes = load_spec()
    known = set(notes["workloads"][args.workload]["known_failures"])

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        metrics, attempted, failed, warm_ok, path = run_traced(
            args.workload, args.seed, args.seconds)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name in units:
            print(f"  {name:44s} {metrics[name]:>14.6g} {units[name]}")
        print(f"  spans and hot-call aggregates: "
              f"{os.path.relpath(path, ROOT)}")
    else:
        metrics, notes_by_metric, outcome, warm_ok, speed = run_end_to_end(
            args.workload, args.seed, args.seconds)
        attempted, failed = len(outcome.samples_ns), outcome.failed
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        print(f"  times scaled to nominal speed (reference loop "
              f"{REFERENCE_S * 1e3:g} ms); median scale {speed:.3f}")
        for name in units:
            print(f"  {name:14s} {metrics[name]:>12.4f} {units[name]:6s} "
                  f"({notes_by_metric[name]})")
    print(f"  {'failed_frac':14s} {len(failed) / attempted:>12.4f} "
          f"{'1':6s} ({len(failed)} of {attempted} queries)")
    unexpected = sorted(set(failed) - known)
    for name in sorted(set(failed)):
        label = "known failure" if name in known else "FAILED"
        print(f"  {label}: {name} x{failed.count(name)}")
    correct = warm_ok and not unexpected
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
