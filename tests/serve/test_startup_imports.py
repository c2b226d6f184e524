"""What a plain ``repro serve`` loads before it announces its port.

Without a bytecode cache every module the server imports is compiled at
each start, so start-up time follows the module set.  A plain server
(no ``--metrics``) builds its engine, the fabric and an untraced run
harness; none of the subsystems below may load on that path.  The check
runs in a fresh interpreter, the way ``python -m repro serve`` starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

STARTUP = """
import json, sys
import repro.cli
from repro.obs.harness import RunHarness
from repro.serve import server

engine = server.ServeEngine(server.ServeConfig(mode="turbo"))
fabric = engine.system.store
with RunHarness(fabric, header={}, traced=False):
    pass
print(json.dumps(sorted(sys.modules)))
"""

NEVER_LOADED = (
    "http.server",
    "numpy",
    "repro.obs.live",
    "repro.obs.monitors",
    "repro.obs.slo",
    "repro.obs.flight",
    "repro.obs.exporters",
    "repro.obs.diff",
    "repro.obs.timeline",
    "repro.obs.profiler",
    "repro.analysis",
    "repro.baselines",
    "repro.silicon",
    "repro.traffic",
    "repro.sched.gps",
    "repro.net.metrics",
    "repro.net.multihop",
    "repro.net.dual_circuit",
    "repro.core.pipeline",
)


def _startup_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", STARTUP],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_plain_server_start_up_loads_no_unused_subsystem():
    modules = _startup_modules()
    assert "repro.fabric.fabric" in modules  # the path did run
    assert "repro.obs.tracer" in modules  # NULL_TRACER, the default
    loaded = sorted(name for name in NEVER_LOADED if name in modules)
    assert loaded == []
