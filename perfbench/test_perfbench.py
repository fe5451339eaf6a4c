"""Self-tests of the benchmark (about a minute on two cores).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SEED = 3


def _sweep(workload, trace):
    deadline = run.time.monotonic() + run.RUN_LIMIT_S
    return run.run_sweep(workload, SEED, trace, deadline)


@pytest.fixture(scope="module")
def modular_pair():
    return _sweep("modular", 0), _sweep("modular", 1)


def _digests(sw):
    return {o["id"]: o["digest"] for o in sw["outcomes"]}


def test_traced_and_untraced_outputs_identical(modular_pair):
    plain, traced = modular_pair
    assert _digests(plain) == _digests(traced)
    chars = [_sweep("characters", t) for t in (0, 1)]
    assert _digests(chars[0]) == _digests(chars[1])


def test_smatrix_entries_match_entry_calls(modular_pair):
    trace = modular_pair[1]["trace"]
    entries = trace["metrics"]["smatrix.entries"]
    # n(n+1)/2 per build, from the built label sets, against the
    # smatrix_entry calls counted inside build_smatrix
    assert entries == trace["counters"]["smatrix.entry_calls_in_build"] > 0


def test_weyl_elements_match_weyl_order(modular_pair):
    trace = modular_pair[1]["trace"]
    elements = trace["metrics"]["weyl.elements"]
    assert elements == trace["counters"]["weyl.elements_expected"] > 0


def test_spans_nest_and_self_times_add_up(modular_pair):
    trace = modular_pair[1]["trace"]
    spans = {s["id"]: s for s in trace["spans"]}
    for s in spans.values():
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["job"] == s["job"]
    self_total = sum(v for k, v in trace["metrics"].items() if k.endswith(".self_s"))
    jobs = sum(s["end"] - s["start"] for s in spans.values() if s["name"] == "bench.job")
    assert 0 < self_total <= jobs


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric(trace):
    proc = _run("characters", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    bench = _bench_json()
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    report = "\n".join(lines[:-1])
    for name, unit in run.END_TO_END + run.REPORTED:
        assert any(line.split()[:1] == [name] and f" {unit} " in line
                   for line in lines[:-1]), name
    assert "failed op [known] psi G2 7,3: PolarPointError" in report
    if trace:
        assert "tracing overhead" in report


def test_benchmark_json_lists_the_tracer_metrics():
    bench = _bench_json()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_seeded(workload):
    a, b = workloads.make_jobs(workload, 1), workloads.make_jobs(workload, 2)
    assert a == workloads.make_jobs(workload, 1)
    assert sorted(j["id"] for j in a) == sorted(j["id"] for j in b)
    assert [j["id"] for j in a] != [j["id"] for j in b]
    assert len({j["id"] for j in a}) == len(a) >= 11
    assert set(workloads.KNOWN_FAILURES[workload]) <= {j["id"] for j in a}
    for job in a:
        assert "--threads" not in job.get("argv", [])


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("modular", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
