"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py

They are outside the library's `testpaths`, so the library's own suite does
not collect them.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# The two deepest ladder rungs take seconds each; the rest show the same
# behaviour.
CHEAP = {
    "ext-ladder": lambda q: q.name not in ("ladder-11", "ladder-12"),
    "class-ops": lambda q: True,
    "oracle-verify": lambda q: True,
}
TIMES = re.compile(r"(_s|\.overhead_qps|queries_per_s)$")


def one_pass(workload, seed, traced):
    """Fresh set-up, then one pass; returns (outcome, results, tracer)."""
    queries, _, warm_ok = run.setup_inprocess(workload, seed)
    assert warm_ok
    queries = [q for q in queries if CHEAP[workload](q)]
    results = []

    def execute(query):
        timed = run.execute_inprocess(query)
        results.append(timed[1])
        return timed

    outcome = run.Outcome()
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        run.run_pass(queries, execute, outcome, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcome, [repr(r) for r in results], tracer


def counts(tracer):
    return {name: value
            for name, value in tracing.layer_metrics(tracer.raw).items()
            if not TIMES.search(name)}


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_traced_counts_repeat_on_one_seed(workload):
    first = counts(one_pass(workload, 7, traced=True)[2])
    second = counts(one_pass(workload, 7, traced=True)[2])
    assert first == second
    assert any(first.values())


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_traced_and_untraced_answers_agree(workload):
    plain, plain_results, _ = one_pass(workload, 3, traced=False)
    traced, traced_results, tracer = one_pass(workload, 3, traced=True)
    assert plain.failed == traced.failed == []
    assert plain_results == traced_results
    assert tracer.spans and tracer.hot


def test_tracer_restores_the_library():
    import tmodext
    import tmodext.coefficients as coefficients
    originals = (tmodext.reduce_canonical, coefficients.FieldElement.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    assert tmodext.reduce_canonical is not originals[0]
    assert sys.modules["tmodext.homological"].reduce_canonical \
        is tmodext.reduce_canonical
    tracer.uninstall()
    assert (tmodext.reduce_canonical,
            coefficients.FieldElement.__mul__) == originals


def inputs(workload, seed):
    queries, _, _ = run.setup_inprocess(workload, seed)
    return [(q.name, q.inputs) for q in queries]


@pytest.mark.parametrize("workload", ["class-ops", "oracle-verify"])
def test_new_seed_changes_inputs(workload):
    one, two = inputs(workload, 1), inputs(workload, 2)
    assert inputs(workload, 1) == one
    assert sorted(i for _, i in one) != sorted(i for _, i in two)


def test_new_seed_only_reorders_the_ladder():
    one, two = inputs("ext-ladder", 1), inputs("ext-ladder", 2)
    assert one != two
    assert sorted(one) == sorted(two)


def test_cli_traced_and_untraced_agree():
    for name, argv, code, golden in workloads.CLI_COMMANDS[:6]:
        plain, traced = run.spawn(argv, False), run.spawn(argv, True)
        assert (plain["code"], plain["stdout"]) == \
            (traced["code"], traced["stdout"])
        assert workloads.check_cli(name, code, golden, plain)
        assert traced["raw"]["cli.main.count"] == 1


def test_spec_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        notes = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(notes["workloads"]) == sorted(run.WORKLOADS)
    names = {c[0] for c in workloads.CLI_COMMANDS}
    for w in run.WORKLOADS:
        assert set(notes["workloads"][w]["known_failures"]) <= names
    produced = set(tracing.layer_metrics({})) | {
        "trace.queries_per_s", "trace.untraced_queries_per_s",
        "trace.overhead_qps"}
    assert {m["name"] for m in bench["per_layer"]} == produced
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "queries_per_s", "query_p50_ms", "query_p90_ms",
        "peak_rss_mb"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "class-ops",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
