#!/usr/bin/env python3
"""Serve-path benchmark: seeded workloads through ``repro serve``.

Run from the repository root::

    python3 benchmarks/serve/run.py --workload mixed_inproc --seed 1 --seconds 10
    python3 benchmarks/serve/run.py --workload churn --seed 1 --trace 1
    python3 benchmarks/serve/run.py --seed 1      # every workload, each in a fresh process

One client drives each workload closed-loop: one thread, at most one TCP
connection.  Loopback workloads start the real ``python -m repro serve``
(or, with ``--trace 1``, the traced launcher ``launch.py``) and talk to it
over 127.0.0.1 with stdlib ``json``; in-process workloads run the per-line
work of the server's connection handler, ``decode_line`` →
``ServeEngine.handle_request`` → ``encode``, minus the socket.

A run pins itself to one CPU and splits ``--seconds`` over SEGMENTS fresh
servers, each set up (timed; ``setup_s`` is the median), warmed up with a
fixed number of requests, then measured.  Times are scaled to a reference
host speed by calibration slices run between requests (:class:`Phase`).
With ``--trace 1`` one server is measured: an untraced half, then a half
with span wrappers installed (``spans.py``), which gives the per-layer
metrics and the tracing overhead.  Afterwards the outputs are
checked (:func:`gate`), and the last line printed is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: scratch space for snapshots, span dumps and child reports
RUN_DIR = ROOT / ".bench_run"

from spans import (  # noqa: E402  (sibling module of this script)
    PER_LAYER_UNITS,
    Patch,
    Recorder,
    engine_targets,
    layer_counters,
    layer_metrics,
    layer_self_s,
)
from workloads import WORKLOADS, Workload, make_traffic, open_requests  # noqa: E402

#: end-to-end metric → unit
END_TO_END_UNITS = {
    "req_per_s": "1/s",
    "served_pkts_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: fresh servers per untraced run, each set up and measured in turn;
#: ``setup_s`` is the median of their set-ups
SEGMENTS = 5
#: equal-count windows per measured phase; rates are medians over the
#: windows of all phases
WINDOWS = 9
#: requests after which the served-order digest is checkpointed; both
#: mixed workloads must agree on it at the same seed
PREFIX_REQUESTS = 2500
#: requests between two calibration slices
CALIBRATE_EVERY = 64
#: calibration slices a request's latency is scaled by
NEIGHBOUR_SLICES = 16
#: slices timed on each side of a set-up
CALIBRATION_SLICES = 16
#: one calibration slice's duration on the reference host: a 2-core
#: x86-64 VM at 2.1 GHz running CPython 3.11, otherwise idle
CALIBRATION_REF_S = 120e-6
#: the final ``stats`` request; the traced launcher stops tracing on it
FINAL_STATS = {"op": "stats", "id": "trace-stop"}
TRACE_START = {"op": "stats", "id": "trace-start"}

perf_counter = time.perf_counter


def client_encode(message: Dict[str, Any]) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# transports


class InProcess:
    """The server's per-line work, called directly on a ``ServeEngine``."""

    def __init__(self, workload: Workload) -> None:
        from repro.serve import server

        self.server = server
        self.engine = server.ServeEngine(
            server.ServeConfig(**workload.config_fields())
        )

    def call(self, line: bytes) -> Dict[str, Any]:
        # Module and instance attributes are looked up on every call, so
        # span wrappers installed between phases take effect.
        server = self.server
        request = server.decode_line(line.strip())
        return json.loads(server.encode(self.engine.handle_request(request)))

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb("self")

    def close(self) -> None:
        self.engine.close()


class Loopback:
    """One TCP connection to a ``repro serve`` child process."""

    def __init__(self, workload: Workload, run_dir: Path, dump: Optional[Path]) -> None:
        if dump is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(HERE / "launch.py"), "--dump", str(dump)]
        command += ["--port", "0"] + workload.server_args()
        if workload.snapshot_interval:
            command += ["--snapshot", str(run_dir / "snapshot.json")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        self.sock: Optional[socket.socket] = None
        try:
            announce = json.loads(self.process.stdout.readline())
            self.sock = socket.create_connection(
                ("127.0.0.1", announce["port"]), timeout=60
            )
        except (ValueError, KeyError, OSError):
            self._reap()
            raise RuntimeError(f"server did not start: {' '.join(command)}")
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def call(self, line: bytes) -> Dict[str, Any]:
        self.sock.sendall(line)
        reply = self.file.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb(str(self.process.pid))

    def close(self) -> None:
        """Graceful stop: the ``shutdown`` verb, then wait for exit."""
        try:
            self.call(client_encode({"op": "shutdown"}))
        except OSError:
            pass
        finally:
            self.file.close()
            self.sock.close()
            self._reap()

    def _reap(self) -> None:
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _vm_hwm_mb(pid: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# ----------------------------------------------------------------------
# bench-side accounting


class Tally:
    """Everything the bench saw: per-verb ok counts, served order, failures."""

    def __init__(self) -> None:
        self.requests = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.ok: Counter = Counter()
        self.served = 0
        self.next_seq = 0
        self.seq_breaks = 0
        self.digest = hashlib.sha256()
        self.prefix_digest: Optional[str] = None

    def record(self, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        self.requests += 1
        if response["ok"]:
            op = request["op"]
            self.ok[op] += 1
            if op == "drain":
                update = self.digest.update
                for record in response["served"]:
                    seq = record["seq"]
                    if seq != self.next_seq:
                        self.seq_breaks += 1
                    self.next_seq = seq + 1
                    update(
                        f"{seq},{record['flow']},{record['tag']!r},{record['size']}\n".encode()
                    )
                self.served += len(response["served"])
        else:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{request['op']}: {response.get('reason')}")
        if self.requests == PREFIX_REQUESTS:
            self.prefix_digest = self.digest.hexdigest()

    def summary(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "failed": self.failed,
            "ok": dict(self.ok),
            "served": self.served,
            "next_seq": self.next_seq,
            "seq_breaks": self.seq_breaks,
        }


class Client:
    """One closed-loop client on one transport."""

    def __init__(self, transport, *, calibrate: bool = True) -> None:
        self.transport = transport
        #: run calibration slices; off in traced runs, where they would
        #: land in the traced wall time
        self.calibrate = calibrate
        self.tally = Tally()
        #: requests sent from the traffic stream (set-up excluded)
        self.streamed = 0

    def exchange(self, request: Dict[str, Any]) -> Dict[str, Any]:
        response = self.transport.call(client_encode(request))
        self.tally.record(request, response)
        return response

    def set_up(self, opens: List[Dict[str, Any]]) -> float:
        """``hello`` plus every ``open``; returns the tag quantum."""
        granularity = self.exchange({"op": "hello"})["granularity"]
        for request in opens:
            response = self.exchange(request)
            if not response["ok"]:
                raise RuntimeError(f"set-up open refused: {response['reason']}")
        return granularity

    def run(self, stream, request, *, count: int = 0, deadline: float = 0.0):
        """Send until ``count`` requests or ``deadline``; returns the phase.

        Every CALIBRATE_EVERY requests a calibration slice runs; its time
        is taken off the phase's clock, so rates cover the traffic only.
        """
        call, record, pc = self.transport.call, self.tally.record, perf_counter
        send = stream.send
        calibrate = self.calibrate
        latencies = array("d")
        ends = array("d")
        served = array("q", [self.tally.served])
        slices: List[float] = []
        paused = 0.0
        start = pc()
        while True:
            line = client_encode(request)
            sent = pc()
            response = call(line)
            done = pc()
            latencies.append(done - sent)
            ends.append(done - paused)
            record(request, response)
            served.append(self.tally.served)
            request = send(response)
            if (count and len(ends) >= count) or (deadline and done >= deadline):
                break
            if calibrate and len(ends) % CALIBRATE_EVERY == 0:
                slices.append(calibration_slice())
                paused += slices[-1]
        self.streamed += len(ends)
        return Phase(start, ends, latencies, served, slices), request


class Phase:
    """Timings of one measured phase, scaled to the reference host speed.

    On a shared machine the host's speed drifts by ±10% over seconds, and
    the calibration slices run every CALIBRATE_EVERY requests drift with
    it.  A window's rates are scaled by the mean duration of the
    slices inside it over CALIBRATION_REF_S, and each request's latency by
    that of the NEIGHBOUR_SLICES slices around it: rates go up and
    latencies down when the host was slow.
    """

    def __init__(self, start, ends, latencies, served, slices: List[float]) -> None:
        self.start = start
        self.ends = ends
        self.latencies = latencies
        #: drain records served so far: before the phase, then after each request
        self.served = served
        self.slices = slices
        self._prefix = [0.0, *itertools.accumulate(slices)]

    def host_factor(self, first: int = 0, stop: Optional[int] = None) -> float:
        """How slow the host ran during slices ``[first, stop)`` (clipped)."""
        count = len(self.slices)
        if not count:
            return 1.0
        first = min(max(first, 0), count - 1)
        stop = min(max(count if stop is None else stop, first + 1), count)
        mean = (self._prefix[stop] - self._prefix[first]) / (stop - first)
        return mean / CALIBRATION_REF_S

    def window_rates(self, *, served: bool = False) -> List[float]:
        """Scaled requests (or drain records) per second of each window."""
        n = len(self.ends)
        bounds = [round(k * n / WINDOWS) for k in range(WINDOWS + 1)]
        rates = []
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                begin = self.start if lo == 0 else self.ends[lo - 1]
                factor = self.host_factor(lo // CALIBRATE_EVERY, hi // CALIBRATE_EVERY)
                count = self.served[hi] - self.served[lo] if served else hi - lo
                rates.append(factor * count / (self.ends[hi - 1] - begin))
        return rates

    def scaled_latencies(self) -> List[float]:
        scaled = []
        half = NEIGHBOUR_SLICES // 2
        for block in range(0, len(self.latencies), CALIBRATE_EVERY):
            index = block // CALIBRATE_EVERY
            factor = self.host_factor(index - half, index + half)
            scaled.extend(x / factor for x in self.latencies[block : block + CALIBRATE_EVERY])
        return scaled


def median_rate(phases: List[Phase], *, served: bool = False) -> float:
    """Median over the windows of all ``phases``."""
    return statistics.median(rate for phase in phases for rate in phase.window_rates(served=served))


def percentile(ordered: List[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * quantile)) - 1]


def calibration_slice() -> float:
    """Time a fixed piece of interpreter work; returns its seconds.

    It runs between requests, never inside one, and stands in for the
    host's current speed: a program change cannot move it.
    """
    table: Dict[int, int] = {}
    began = perf_counter()
    for i in range(60):
        key = i & 31
        table[key] = table.get(key, 0) + len(json.dumps({"i": i, "k": key}))
    return perf_counter() - began


def host_factor(slices: List[float]) -> float:
    """How much slower than the reference host these slices ran."""
    return statistics.fmean(slices) / CALIBRATION_REF_S


def host_slices() -> List[float]:
    return [calibration_slice() for _ in range(CALIBRATION_SLICES)]


# ----------------------------------------------------------------------
# the correctness gate


def gate(checks: Dict[str, Any]) -> List[str]:
    """Every reason the run's outputs are wrong; empty when they are right.

    ``checks`` holds the server's final ``stats``, the bench's own
    accounting and the served-order digests.
    """
    problems = []
    stats, bench = checks["stats"], checks["bench"]
    counters = stats["counters"]
    backlog = stats["fabric"]["backlog"]
    if counters["enqueued"] != counters["served"] + counters["cancelled"] + backlog:
        problems.append(
            f"conservation: enqueued {counters['enqueued']} != served "
            f"{counters['served']} + cancelled {counters['cancelled']} + backlog {backlog}"
        )
    pairs = [
        ("requests", bench["requests"], counters["requests"]),
        ("enqueue ok", bench["ok"].get("enqueue", 0), counters["enqueued"]),
        ("cancel ok", bench["ok"].get("cancel", 0), counters["cancelled"]),
        ("reschedule ok", bench["ok"].get("reschedule", 0), counters["rescheduled"]),
        ("served records", bench["served"], counters["served"]),
        ("next seq", bench["next_seq"], stats["served_seq"]),
    ]
    for what, seen, counted in pairs:
        if seen != counted:
            problems.append(f"{what}: bench saw {seen}, server counted {counted}")
    if bench["seq_breaks"]:
        problems.append(f"served seq not contiguous ({bench['seq_breaks']} breaks)")
    replay = checks.get("replay_digest")
    if replay is not None and replay != checks["digest"]:
        problems.append("served order differs from an in-process replay")
    return problems


def gate_pair(loopback: Dict[str, Any], inproc: Dict[str, Any]) -> List[str]:
    """Both mixed workloads must serve the same prefix at the same seed."""
    a = loopback["checks"][0]["prefix_digest"]
    b = inproc["checks"][0]["prefix_digest"]
    if a is None or b is None:
        return [f"mixed prefix digest needs {PREFIX_REQUESTS} requests per run"]
    if a != b:
        return ["mixed_loopback and mixed_inproc served different orders"]
    return []


def replay_digest(workload: Workload, seed: int, opens, stream_requests: int) -> str:
    """Serve the same stream in-process; returns its served-order digest."""
    transport = InProcess(workload)
    try:
        client = Client(transport, calibrate=False)
        granularity = client.set_up(opens)
        stream = make_traffic(workload, seed, granularity, opens).stream()
        client.run(stream, next(stream), count=stream_requests)
        return client.tally.digest.hexdigest()
    finally:
        transport.close()


# ----------------------------------------------------------------------
# one workload


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # look no further up than the checkout itself
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _pin_to_one_cpu() -> int:
    """Run on the last CPU this process may use; children inherit it.

    The loopback client and server then share one core, so the
    calibration slices measure the core both run on, and nothing moves
    between a quiet and a busy core mid-run.  On small VMs CPU 0 takes
    most interrupts, hence the last one.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _connect(workload: Workload, run_dir: Path, dump: Optional[Path]):
    if workload.transport == "loopback":
        return Loopback(workload, run_dir, dump)
    return InProcess(workload)


def _segment(workload: Workload, seed: int, opens, seconds: float, trace: bool, run_dir: Path) -> Dict[str, Any]:
    """One fresh server: set it up (timed), warm it up, measure, check."""
    dump = run_dir / "spans.jsonl" if trace and workload.transport == "loopback" else None
    gc.collect()
    before = host_slices()
    began = perf_counter()
    transport = _connect(workload, run_dir, dump)
    try:
        client = Client(transport, calibrate=not trace)
        granularity = client.set_up(opens)
        elapsed = perf_counter() - began
        setup_s = elapsed / host_factor(before + host_slices())
        stream = make_traffic(workload, seed, granularity, opens).stream()
        _, request = client.run(stream, next(stream), count=workload.warmup_requests)
        gc.collect()
        untraced = summary = None
        if trace:
            untraced, request = client.run(stream, request, deadline=perf_counter() + seconds / 2)
            gc.collect()
            client.exchange(TRACE_START)
            summary, phase, request = _traced_phase(client, stream, request, seconds / 2, run_dir)
        else:
            phase, request = client.run(stream, request, deadline=perf_counter() + seconds)
        stats = client.exchange(FINAL_STATS)["stats"]
        peak_rss = transport.peak_rss_mb()
    finally:
        transport.close()
    if dump is not None:
        with open(dump, encoding="utf-8") as handle:
            summary = json.loads(handle.readline())
    tally = client.tally
    checks = {
        "stats": stats,
        "bench": tally.summary(),
        "digest": tally.digest.hexdigest(),
        "prefix_digest": tally.prefix_digest,
    }
    if workload.transport == "loopback":
        checks["replay_digest"] = replay_digest(workload, seed, opens, client.streamed)
    return {
        "setup_s": setup_s,
        "phase": phase,
        "untraced": untraced,
        "summary": summary,
        "peak_rss_mb": peak_rss,
        "tally": tally,
        "checks": checks,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> Dict[str, Any]:
    """Measure and check one workload; returns its report.

    Untraced, the measured time is split over SEGMENTS fresh servers, each
    set up, warmed up and measured in turn: a server process that happens
    to run slow for its whole life then moves the pooled medians little.
    A traced run measures one server.
    """
    workload = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    cpu = _pin_to_one_cpu()
    opens = open_requests(seed, workload.flows, workload.tenants)
    count = 1 if trace else SEGMENTS
    segments = [
        _segment(workload, seed, opens, seconds / count, trace, run_dir) for _ in range(count)
    ]
    problems = [
        f"segment {index}: {problem}"
        for index, segment in enumerate(segments)
        for problem in gate(segment["checks"])
    ]
    prefixes = {segment["checks"]["prefix_digest"] for segment in segments}
    if len(prefixes) > 1:
        problems.append("segments served different orders from the same stream")
    phases = [segment["phase"] for segment in segments]
    layers = None
    if trace:
        summary = segments[0]["summary"]
        values = layer_metrics(summary, median_rate([segments[0]["untraced"]]), median_rate(phases))
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER_UNITS.items()}
        layers = {
            "wall_s": summary["wall_s"],
            "top_s": summary["top_s"],
            "self_s": layer_self_s(summary),
        }
    else:
        latencies = sorted(x for phase in phases for x in phase.scaled_latencies())
        setups = [segment["setup_s"] for segment in segments]
        values = {
            "req_per_s": (median_rate(phases), None),
            "served_pkts_per_s": (median_rate(phases, served=True), None),
            "latency_p50_us": (1e6 * percentile(latencies, 0.50), len(latencies)),
            "latency_p99_us": (1e6 * percentile(latencies, 0.99), len(latencies)),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (max(segment["peak_rss_mb"] for segment in segments), None),
        }
        metrics = {}
        for key, unit in END_TO_END_UNITS.items():
            value, samples = values[key]
            metrics[key] = {"value": value, "unit": unit}
            if samples is not None:
                metrics[key]["samples"] = samples
    tallies = [segment["tally"] for segment in segments]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "transport": workload.transport,
        "mode": workload.mode,
        "nproc": nproc,
        "cpu": cpu,
        "host_factor": statistics.fmean(phase.host_factor() for phase in phases),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "correct": not problems,
        "attempted": sum(tally.requests for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "failure_reasons": [reason for tally in tallies for reason in tally.reasons][:5],
        "gate": problems,
        "metrics": metrics,
        "layers": layers,
        "checks": [segment["checks"] for segment in segments],
    }


def _traced_phase(client: Client, stream, request, seconds: float, run_dir: Path):
    """Measure with span wrappers on; returns (summary, phase, next request)."""
    transport = client.transport
    if isinstance(transport, Loopback):
        # The launcher traces itself: it armed on TRACE_START and stops on
        # FINAL_STATS, then writes its summary to the dump file.
        phase, request = client.run(stream, request, deadline=perf_counter() + seconds)
        return None, phase, request
    from repro.serve import server

    engine = transport.engine
    recorder = Recorder()
    patch = Patch(recorder)
    patch.apply(engine_targets(engine, server) + [(engine, "handle_request", "server.handle_request")])
    before = layer_counters(engine)
    recorder.start()
    try:
        phase, request = client.run(stream, request, deadline=perf_counter() + seconds)
    finally:
        recorder.stop()
        patch.undo()
    extra = {"before": before, "after": layer_counters(engine), "snapshot_bytes": 0}
    recorder.dump(str(run_dir / "spans.jsonl"), extra)
    return {**recorder.summary(), **extra}, phase, request


def _print_metrics(report: Dict[str, Any]) -> None:
    print(
        f"{report['workload']}: seed {report['seed']}, {report['transport']}, "
        f"mode {report['mode']}, nproc {report['nproc']}, "
        f"{report['attempted']} requests, {report['failed']} failed"
    )
    for key, metric in report["metrics"].items():
        samples = f"  (n={metric['samples']})" if "samples" in metric else ""
        print(f"  {key:32s} {metric['value']:14.4f} {metric['unit']}{samples}")
    if report["layers"]:
        wall = report["layers"]["wall_s"]
        attributed = sum(report["layers"]["self_s"].values())
        print(
            f"  traced wall {wall:.4f} s = layer self {attributed:.4f} s "
            f"+ unattributed {wall - report['layers']['top_s']:.4f} s"
        )
    for problem in report["gate"]:
        print(f"  GATE FAILED: {problem}")
    for reason in report["failure_reasons"]:
        print(f"  failed request: {reason}")


def _result_line(report: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                key: {"value": metric["value"], "unit": metric["unit"]}
                for key, metric in report["metrics"].items()
            },
        }
    )


# ----------------------------------------------------------------------
# every workload


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, then the cross-workload check."""
    reports = {}
    exit_codes = []
    for name in WORKLOADS:
        child_out = RUN_DIR / f"report-{os.getpid()}-{name}.json"
        child_out.unlink(missing_ok=True)
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--output", str(child_out),
        ]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        exit_codes.append(done.returncode)
        print("\n".join(done.stdout.splitlines()[:-1]))
        if child_out.exists():
            reports[name] = json.loads(child_out.read_text(encoding="utf-8"))
            child_out.unlink()
    problems = []
    if "mixed_loopback" in reports and "mixed_inproc" in reports:
        problems = gate_pair(reports["mixed_loopback"], reports["mixed_inproc"])
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    if args.output:
        with open(args.output, "a", encoding="utf-8") as handle:
            for report in reports.values():
                handle.write(json.dumps(report) + "\n")
    correct = (
        len(reports) == len(WORKLOADS)
        and all(report["correct"] for report in reports.values())
        and not problems
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in reports.values()),
                "failed": sum(r["failed"] for r in reports.values()),
                "metrics": {
                    f"{name}.{key}": {"value": metric["value"], "unit": metric["unit"]}
                    for name, report in reports.items()
                    for key, metric in report["metrics"].items()
                },
            }
        )
    )
    return 0 if correct and not any(exit_codes) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="run one workload (default: every workload, each in a fresh process)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: report per-layer metrics from a traced half of the run",
    )
    parser.add_argument("--output", metavar="FILE", help="append each full report here as a JSON line")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args)
    run_dir = RUN_DIR / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        if args.trace:
            spans = run_dir / "spans.jsonl"
            spans.replace(RUN_DIR / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    _print_metrics(report)
    if args.output:
        with open(args.output, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(report) + "\n")
    print(_result_line(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
