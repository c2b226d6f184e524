"""Every subcommand's command-line surface, pinned.

The shared flags come from one table (:mod:`repro.obs.harness`); this
test holds each subcommand's options, defaults and choices to a
literal copy of the surface, so moving a flag into the table can never
add, drop or change one unnoticed.  The literal records three deliberate
edits: ``fabric --turbo`` is gone (``--mode turbo`` replaces it),
fabric's ``--mode`` defaults to ``"gate"`` (the engine it always chose
when neither flag was given), and ``bench --mode`` is gone (one bench
run times every engine).
"""

import argparse

import pytest

from repro.bench.perf import build_parser as bench_parser
from repro.fabric.runner import build_parser as fabric_parser
from repro.net.timer import build_parser as timer_parser
from repro.obs.runner import build_parser as obs_parser
from repro.serve.server import build_parser as serve_parser

#: subcommand -> option strings -> (default, choices)
SURFACE = {
    "bench": {
        ("--smoke",): (False, None),
        ("--check",): (False, None),
        ("--output",): ("BENCH_sort_retrieve.json", None),
        ("--seed",): (20060101, None),
    },
    "obs": {
        ("--ops",): (10000, None),
        ("--seed",): (20060101, None),
        ("--granularity",): (8.0, None),
        ("--batched",): (False, None),
        ("--mode",): ("gate", ("gate", "turbo", "vector")),
        ("--trace",): (None, None),
        ("--metrics",): (None, None),
        ("--output",): (None, None),
        ("--format",): ("text", ("text", "json", "prometheus")),
        ("--buffer-size",): (65536, None),
        ("--monitor",): (False, None),
        ("--allow-lossy",): (False, None),
        ("--serve",): (None, None),
        ("--serve-linger",): (0.0, None),
        ("--live-interval",): (0.5, None),
        ("--watchdog",): (None, None),
        ("--flight",): (None, None),
        ("--inject-fault",): (
            None,
            ("coverage", "dequeue_bound", "free_list", "insert_budget",
             "monotonic"),
        ),
        ("--fault-after",): (None, None),
    },
    "fabric": {
        ("--shards",): (4, None),
        ("--ops",): (10000, None),
        ("--seed",): (20060101, None),
        ("--flows",): (256, None),
        ("--granularity",): (8.0, None),
        ("--batched",): (False, None),
        ("--mode",): ("gate", ("gate", "turbo", "vector")),
        ("--trace",): (None, None),
        ("--metrics",): (None, None),
        ("--checkpoint",): (None, None),
        ("--output",): (None, None),
        ("--format",): ("text", ("text", "json", "prometheus")),
        ("--buffer-size",): (65536, None),
        ("--monitor",): (False, None),
        ("--serve",): (None, None),
        ("--serve-host",): ("127.0.0.1", None),
        ("--serve-linger",): (0.0, None),
        ("--live-interval",): (0.5, None),
        ("--shard-slo-inversions",): (None, None),
        ("--watchdog",): (None, None),
        ("--flight",): (None, None),
        ("--allow-lossy",): (False, None),
    },
    "timer": {
        ("--pattern",): ("churn", ("churn", "retransmit", "expiry")),
        ("--events",): (10000, None),
        ("--seed",): (20060101, None),
        ("--granularity",): (1.0, None),
        ("--mode",): ("gate", ("gate", "turbo", "vector")),
        ("--capacity",): (4096, None),
        ("--pending-target",): (1500, None),
        ("--ramp",): (0, None),
        ("--shards",): (1, None),
        ("--cancel-ratio",): (0.6, None),
        ("--trace",): (None, None),
        ("--buffer-size",): (65536, None),
        ("--monitor",): (False, None),
        ("--serve",): (None, None),
        ("--serve-host",): ("127.0.0.1", None),
        ("--serve-linger",): (0.0, None),
        ("--live-interval",): (0.5, None),
        ("--watchdog",): (None, None),
        ("--output",): (None, None),
        ("--format",): ("text", ("text", "json")),
    },
    "serve": {
        ("--host",): ("127.0.0.1", None),
        ("--port",): (0, None),
        ("--rate",): (40000000000.0, None),
        ("--shards",): (4, None),
        ("--buffer",): (8192, None),
        ("--table",): (8192, None),
        ("--min-rate",): (1000000.0, None),
        ("--utilization",): (0.95, None),
        ("--mode",): ("turbo", ("gate", "turbo", "vector")),
        ("--scheme",): ("shared", ("shared", "per_queue", "weighted")),
        ("--mark-fraction",): (0.65, None),
        ("--reject-fraction",): (0.9, None),
        ("--per-queue-mark",): (64, None),
        ("--drain",): ("manual", ("manual", "paced")),
        ("--pace-multiplier",): (1.0, None),
        ("--snapshot",): (None, None),
        ("--snapshot-interval",): (0, None),
        ("--restore",): (None, None),
        ("--serve-log",): (None, None),
        ("--metrics",): (None, None),
        ("--metrics-host",): ("127.0.0.1", None),
        ("--live-interval",): (0.5, None),
        ("--watchdog",): (None, None),
        ("--trace",): (None, None),
        ("--flight",): (None, None),
    },
}

PARSERS = {
    "bench": bench_parser,
    "obs": obs_parser,
    "fabric": fabric_parser,
    "timer": timer_parser,
    "serve": serve_parser,
}


def surface(parser: argparse.ArgumentParser):
    return {
        tuple(action.option_strings): (
            action.default,
            None if action.choices is None else tuple(action.choices),
        )
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    }


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_cli_surface_is_unchanged(command):
    assert surface(PARSERS[command]()) == SURFACE[command]
