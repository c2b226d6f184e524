"""Checks of the serve benchmark itself: ``pytest benchmarks/serve``.

Every workload runs for two seconds, untraced and traced, in a fresh
process exactly as ``BENCHMARK.json`` names the command.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = "2"


def _run(directory: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        BENCHMARK["command"] + list(args),
        cwd=directory,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) → (exit status, last stdout line, full report)."""
    out = tmp_path_factory.mktemp("serve_bench")
    results = {}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            report_file = out / f"{name}-{trace}.jsonl"
            done = _run(
                ROOT,
                "--workload", name,
                "--seed", "3",
                "--seconds", SECONDS,
                "--trace", trace,
                "--output", str(report_file),
            )
            last = json.loads(done.stdout.splitlines()[-1])
            report = json.loads(report_file.read_text(encoding="utf-8"))
            results[name, trace] = (done.returncode, last, report)
    return results


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_printed_names_and_units_match_benchmark_json(runs):
    expected = {
        "0": {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for (name, trace), (_, last, _) in runs.items():
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        units = {key: metric["unit"] for key, metric in last["metrics"].items()}
        assert units == expected[trace], name


def test_correctness_gate_passes(runs):
    for (name, trace), (status, last, report) in runs.items():
        assert status == 0, (name, trace, report["gate"])
        assert last["correct"] and report["gate"] == [], (name, trace)
        assert last["failed"] == 0, report["failure_reasons"]
        assert all(checks["prefix_digest"] is not None for checks in report["checks"])
    assert run.gate_pair(runs["mixed_loopback", "0"][2], runs["mixed_inproc", "0"][2]) == []


def test_reports_record_run_context(runs):
    for (name, _), (_, _, report) in runs.items():
        assert report["seed"] == 3 and report["mode"] == WORKLOADS[name].mode
        assert report["nproc"] >= 1 and report["python"]
        assert "commit" in report
    metrics = runs["churn", "0"][2]["metrics"]
    assert metrics["latency_p99_us"]["samples"] > 100
    assert metrics["setup_s"]["samples"] == run.SEGMENTS


def test_tampered_digest_or_counter_fails_gate(runs):
    checks = runs["mixed_loopback", "0"][2]["checks"][0]
    assert run.gate(checks) == []
    tampered = copy.deepcopy(checks)
    tampered["replay_digest"] = "0" * 64
    assert run.gate(tampered)
    tampered = copy.deepcopy(checks)
    tampered["stats"]["counters"]["enqueued"] += 1
    assert run.gate(tampered)
    tampered = copy.deepcopy(checks)
    tampered["bench"]["ok"]["cancel"] += 1
    assert run.gate(tampered)
    tampered = copy.deepcopy(checks)
    tampered["bench"]["seq_breaks"] = 1
    assert run.gate(tampered)
    other = copy.deepcopy(runs["mixed_inproc", "0"][2])
    other["checks"][0]["prefix_digest"] = "0" * 64
    assert run.gate_pair(runs["mixed_loopback", "0"][2], other)


def test_layer_self_times_and_unattributed_sum_to_traced_wall(runs):
    for name in WORKLOADS:
        layers = runs[name, "1"][2]["layers"]
        wall, top = layers["wall_s"], layers["top_s"]
        self_times = layers["self_s"]
        assert all(seconds >= 0 for seconds in self_times.values()), name
        unattributed = wall - top
        assert unattributed >= 0, name
        assert sum(self_times.values()) + unattributed == pytest.approx(wall, rel=0.01), name
    socket_share = runs["mixed_loopback", "1"][1]["metrics"]["socket.share"]["value"]
    assert socket_share > 0


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(base, list(base), 0.10, True)[0] == "same"
    assert compare.verdict(base, [x * 1.3 for x in base], 0.10, True)[0] == "worse"
    assert compare.verdict(base, [x * 0.95 for x in base], 0.10, True)[0] == "better"
    assert compare.verdict(base, [x * 0.95 for x in base], 0.10, False)[0] == "same"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(base, noisy, 0.10, True)[0] == "unresolved"
    assert compare.verdict(noisy, [x / 10 for x in base], 0.10, True)[0] == "better"


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "serve", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "churn", "--seed", "1", "--seconds", SECONDS, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
