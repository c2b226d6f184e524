"""Smoke coverage for the perf-regression harness.

Runs the suite's smoke preset end to end — every workload × engine
cell, each workload parity-checked on its probe pass before timing —
then exercises the baseline write/check round trip exactly as CI
invokes it (``python -m repro bench --smoke`` / ``--check``), and
measures that the *disabled* telemetry layer stays within 5% of the
uninstrumented hot path.
"""

import contextlib
import gc
import json
import time


@contextlib.contextmanager
def _quiesced_gc():
    """Collect pending garbage, then time with the collector off.

    Earlier tests in the session leave survivors behind; a gen-2
    collection landing inside a timed loop inflates that reading by far
    more than the 5% bounds below measure.  Like ``timeit``, the gates
    sample with GC disabled so only the code under test is on the clock.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

from repro.bench.perf import (
    _SCHEMA,
    _sorted_tags,
    check_against_baseline,
    machine_mismatch_warnings,
    main,
    run_bench,
)
from repro.core.engine import numpy_or_none
from repro.core.matching import ALL_MATCHERS, DEFAULT_MATCHER
from repro.core.matching.base import MatchResult
from repro.core.sort_retrieve import ServedTag, TagSortRetrieveCircuit
from repro.core.tree import SearchOutcome
from repro.core.words import PAPER_FORMAT
from repro.obs.events import TraceEvent


def test_smoke_preset_structure(report):
    document = run_bench(preset="smoke", seed=7)
    assert document["preset"] == "smoke"
    assert "mode" not in document
    names = [scenario["name"] for scenario in document["scenarios"]]
    for name, matcher in ALL_MATCHERS.items():
        # The default matcher's cells are size=w12's gate cells.
        workload = "size=w12" if matcher is DEFAULT_MATCHER else f"matcher={name}"
        assert f"{workload}/gate/insert_per_op" in names
        assert f"{workload}/gate/insert_batch" in names
    engines = ("gate", "turbo") + (
        ("vector",) if numpy_or_none() is not None else ()
    )
    for label in ("w8", "w12", "w16"):
        for engine in engines:
            assert f"size={label}/{engine}/dequeue_batch" in names
    for engine in engines:
        assert f"mixed/{engine}/per_op" in names
        assert f"fabric/{engine}/shards=16" in names
    for scenario in document["scenarios"]:
        assert scenario["ops"] > 0
        assert scenario["ops_per_second"] > 0
        assert scenario["accesses_per_op"] > 0
        assert scenario["passes"] == 1  # smoke: one pass per window
        if scenario.get("shards", 1) > 1:
            # Fabric scenarios report makespan cycles: parallel shards
            # amortize the fixed cost below 4 cycles per op.
            assert 0 < scenario["cycles_per_op"] < 4.0
        elif scenario["name"].startswith("timer/"):
            # Timer-churn removals pay the fixed cost plus one cycle
            # per duplicate-run read beyond the unlink window.
            assert scenario["cycles_per_op"] >= 4.0
        else:
            # Every circuit operation costs exactly FIXED_OP_CYCLES.
            assert scenario["cycles_per_op"] == 4.0
    by_name = {scenario["name"]: scenario for scenario in document["scenarios"]}
    # Exact parity: the turbo engine's per-op accounting is the gate
    # engine's, to the fourth decimal the document rounds to.
    for drive in ("per_op", "batched"):
        for metric in ("accesses_per_op", "cycles_per_op"):
            assert (
                by_name[f"mixed/turbo/{drive}"][metric]
                == by_name[f"mixed/gate/{drive}"][metric]
            )
    ratios = document["ratios"]
    assert {"batched_speedup", "turbo_speedup", "turbo_vs_batched"} <= set(
        ratios
    )
    machine = document["machine"]
    assert machine["python"] and machine["platform"]
    assert machine["cpu_count"] >= 1
    assert machine["calibration_ops_per_second"] > 0
    report(
        f"smoke batched speedup: {ratios['batched_speedup']['value']}x "
        f"({by_name['mixed/gate/batched']['ops_per_second']:,.0f} ops/s "
        f"batched); turbo {ratios['turbo_speedup']['value']}x over gate "
        f"per-op"
    )


def test_batched_paths_amortize_accesses():
    """The machine-independent win: fewer memory accesses per insert."""
    document = run_bench(preset="smoke", seed=11)
    by_name = {s["name"]: s for s in document["scenarios"]}
    for label in ("w8", "w12", "w16"):
        per_op = by_name[f"size={label}/gate/insert_per_op"]
        batch = by_name[f"size={label}/gate/insert_batch"]
        assert batch["accesses_per_op"] < per_op["accesses_per_op"]


def test_check_round_trip(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    assert main(["--smoke", "--output", str(baseline_path)]) == 0
    assert baseline_path.exists()
    document = json.loads(baseline_path.read_text())
    assert document["schema"] == _SCHEMA
    # The vector cells, and the vector floor's ratio, exist whenever
    # numpy imports; a host without it skips them.
    vector_cells = [
        scenario for scenario in document["scenarios"]
        if scenario["engine"] == "vector"
    ]
    if numpy_or_none() is None:
        assert not vector_cells
        assert "vector_speedup" not in document["ratios"]
    else:
        assert vector_cells
        assert document["ratios"]["vector_speedup"]["value"] >= 10.0
    # since schema 3 the forensic reference trace sits beside the baseline
    assert (tmp_path / "baseline.trace.jsonl").exists()
    assert main(["--smoke", "--check", "--output", str(baseline_path)]) == 0


def test_check_flags_access_growth():
    document = run_bench(preset="smoke", seed=3)
    inflated = json.loads(json.dumps(document))
    inflated["scenarios"][0]["accesses_per_op"] *= 2
    degraded = check_against_baseline(document, inflated)
    assert not degraded  # current run is *better*: no complaint
    regressed = check_against_baseline(inflated, document)
    assert any("accesses_per_op" in problem for problem in regressed)


def test_check_flags_missing_scenario_and_preset_mismatch():
    document = run_bench(preset="smoke", seed=3)
    pruned = json.loads(json.dumps(document))
    dropped = pruned["scenarios"].pop(0)
    problems = check_against_baseline(pruned, document)
    assert any(dropped["name"] in problem for problem in problems)
    mismatched = json.loads(json.dumps(document))
    mismatched["preset"] = "full"
    problems = check_against_baseline(document, mismatched)
    assert any("preset" in problem for problem in problems)


def test_machine_header_warns_not_fails():
    """A cross-machine comparison warns; it never lands in problems."""
    document = run_bench(preset="smoke", seed=3)
    moved = json.loads(json.dumps(document))
    moved["machine"]["platform"] = "somewhere-else"
    moved["machine"]["cpu_count"] = (document["machine"]["cpu_count"] or 0) + 1
    assert not check_against_baseline(document, moved)
    warnings = machine_mismatch_warnings(document, moved)
    assert any("platform" in w for w in warnings)
    assert any("cpu_count" in w for w in warnings)
    assert not machine_mismatch_warnings(document, document)


def _wall_doc(ops_per_second, calibration):
    """A minimal document with one long-enough timed scenario."""
    return {
        "preset": "smoke",
        "machine": {"calibration_ops_per_second": calibration},
        "scenarios": [
            {
                "name": "mixed/gate/synthetic",
                "ops": 100_000,
                "seconds": 1.0,
                "window_seconds": 1.0,
                "ops_per_second": ops_per_second,
                "accesses_per_op": 7.0,
                "cycles_per_op": 4.0,
            }
        ],
    }


def test_check_normalizes_wall_floors_by_machine_speed():
    """Same code on a slower machine state passes; a genuine code
    regression fails even when the machine got faster."""
    baseline = _wall_doc(100_000.0, calibration=1_000_000.0)

    # Host uniformly 40% slower: throughput and calibration drop together.
    slow_machine = _wall_doc(60_000.0, calibration=600_000.0)
    assert not check_against_baseline(slow_machine, baseline)

    # Code 40% slower, machine unchanged: still a regression.
    code_regression = _wall_doc(60_000.0, calibration=1_000_000.0)
    problems = check_against_baseline(code_regression, baseline)
    assert any("fell" in p for p in problems)

    # A faster machine must not mask a code regression: raw throughput
    # is within tolerance, but normalized it is 40% down.
    masked = _wall_doc(90_000.0, calibration=1_500_000.0)
    problems = check_against_baseline(masked, baseline)
    assert any("machine-normalized" in p for p in problems)

    # Pre-calibration baselines (no score) fall back to raw comparison,
    # so a slow machine state is indistinguishable from a regression.
    legacy = _wall_doc(100_000.0, calibration=None)
    legacy["machine"] = {}
    assert check_against_baseline(slow_machine, legacy)
    assert check_against_baseline(code_regression, legacy)


def test_machine_speed_warning_on_large_calibration_shift():
    document = run_bench(preset="smoke", seed=3)
    shifted = json.loads(json.dumps(document))
    shifted["machine"]["calibration_ops_per_second"] = (
        document["machine"]["calibration_ops_per_second"] * 3
    )
    warnings = machine_mismatch_warnings(document, shifted)
    assert any("renormalized" in w for w in warnings)


def test_distributions_block_present_and_sane():
    document = run_bench(preset="smoke", seed=5)
    distributions = document["distributions"]
    for phase in ("insert", "dequeue"):
        summary = distributions[phase]
        assert summary["count"] > 0
        assert summary["p50"] <= summary["p99"] <= summary["max"]
    mixed = distributions["mixed"]
    for name in ("op_accesses", "occupancy", "free_list_depth"):
        assert mixed[name]["count"] > 0
    # Every mixed op touches memory, so the access floor is positive.
    assert mixed["op_accesses"]["min"] > 0


def test_hot_records_are_slotted(report):
    """The hot per-op record types carry no per-instance ``__dict__``.

    Also measures what the slots buy: allocation throughput of the
    slotted :class:`SearchOutcome` against a ``__dict__``-backed
    stand-in with the same fields (reported, not asserted — the win is
    machine-dependent; the structural property is the contract).
    """
    samples = (
        MatchResult(3, 1),
        SearchOutcome(key=5, result=5),
        ServedTag(tag=1, payload=None, address=0),
        TraceEvent(0, "insert", "insert"),
    )
    for instance in samples:
        assert not hasattr(instance, "__dict__"), type(instance).__name__

    class DictOutcome:  # the shape SearchOutcome would have un-slotted
        def __init__(self, key, result):
            self.key = key
            self.result = result
            self.exact = False
            self.used_backup = False
            self.fail_level = None
            self.path_literals = []
            self.sequential_node_reads = 0
            self.parallel_node_reads = 0

    count = 20_000

    def alloc_loop(factory):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for i in range(count):
                factory(key=i, result=i)
            best = min(best, time.perf_counter() - start)
        return best

    slotted = alloc_loop(SearchOutcome)
    dict_backed = alloc_loop(DictOutcome)
    report(
        f"slotted SearchOutcome alloc: {slotted * 1e6:.0f}us vs "
        f"{dict_backed * 1e6:.0f}us dict-backed for {count} allocs "
        f"({dict_backed / slotted:.2f}x)"
    )


def _time_inserts_once(invoke, circuit_factory, tags):
    """Process-CPU time for one insert loop shape (fresh circuit each
    run so tree state is identical across shapes)."""
    circuit = circuit_factory()
    start = time.process_time()
    for tag in tags:
        invoke(circuit, tag)
    return time.process_time() - start


def test_disabled_tracer_overhead(report):
    """The acceptance bound: tracing off must cost <5% on the hot path.

    Structurally, an untraced circuit has no instance-level wrappers, so
    ``circuit.insert`` resolves to the exact class method; the measured
    check then compares instance dispatch against a direct class call
    (the pre-telemetry code path) on identical workloads.
    """
    fmt = PAPER_FORMAT
    count = 2_000
    tags = _sorted_tags(fmt, count, seed=13)

    circuit = TagSortRetrieveCircuit(fmt, capacity=count)
    assert not circuit.tracer.enabled
    # No traced wrappers shadowing the class hot paths.
    for name in ("insert", "dequeue_min", "insert_batch", "dequeue_batch"):
        assert name not in vars(circuit)

    def fresh():
        return TagSortRetrieveCircuit(fmt, capacity=count)

    # Same discipline as test_live_plane_overhead: judge on process CPU
    # time, interleave the two shapes pairwise, and compare best-of-k
    # floors — noise only ever inflates a reading, so the minimum
    # converges to the true cost, and a real regression raises the
    # instance floor itself.  Stop sampling once the floors settle
    # under the bound.
    via_instance = via_class = float("inf")
    with _quiesced_gc():
        for pair in range(10):
            via_instance = min(
                via_instance,
                _time_inserts_once(
                    lambda c, tag: c.insert(tag), fresh, tags
                ),
            )
            via_class = min(
                via_class,
                _time_inserts_once(
                    lambda c, tag: TagSortRetrieveCircuit.insert(c, tag),
                    fresh,
                    tags,
                ),
            )
            if pair >= 3 and via_instance / via_class < 1.05:
                break
    ratio = via_instance / via_class
    report(
        f"disabled-tracer insert overhead: {ratio:.3f}x "
        f"({via_instance * 1e6:.0f}us vs {via_class * 1e6:.0f}us "
        f"for {count} ops)"
    )
    assert ratio < 1.05


def test_live_plane_overhead(report, tmp_path):
    """The live observability plane costs <5% over an equivalent
    traced+monitored soak.

    The hot path gains only two extra tracer observers (flight-recorder
    ring append, serve-stream auditor); the collector and HTTP server
    live on their own threads and never touch the driving loop.
    """
    from repro.obs.runner import run_traced_soak

    ops = 15_000

    def timed(**kwargs):
        start = time.process_time()
        run_traced_soak(ops=ops, monitor=True, **kwargs)
        return time.process_time() - start

    live_kwargs = dict(
        serve_port=0,
        live_interval=0.2,
        flight_path=str(tmp_path / "flight.jsonl"),
    )
    # Overhead is judged on *process CPU time*, not wall clock: the
    # plane's threads bill their cycles to the process, so extra work
    # still shows up, while co-tenant load on a shared runner does not.
    # Baseline and live runs interleave pairwise and the gate compares
    # best-of-k floors — CPU noise (frequency scaling, cache
    # contention) only ever inflates a reading, so the minimum
    # converges to the true cost as k grows.  Sampling stops once the
    # floors settle under the bound; a real regression raises the live
    # floor itself, which no amount of resampling pulls back down.
    baseline = live = float("inf")
    with _quiesced_gc():
        for pair in range(10):
            baseline = min(baseline, timed())
            live = min(live, timed(**live_kwargs))
            if pair >= 3 and live / baseline < 1.05:
                break
    ratio = live / baseline
    report(
        f"live-plane soak overhead: {ratio:.3f}x "
        f"({live * 1e3:.0f}ms vs {baseline * 1e3:.0f}ms CPU "
        f"for {ops} monitored ops)"
    )
    assert ratio < 1.05
