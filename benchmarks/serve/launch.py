#!/usr/bin/env python3
"""A traced ``repro serve`` for the serve benchmark's loopback workloads.

Builds ``ServeEngine`` and ``WfqServer`` from their public classes, as
``python -m repro serve`` does, and accepts the same flags plus ``--dump``.
Span wrappers (``spans.py``) go on in this process only, armed by a
``stats`` request with id ``trace-start`` and taken off by one with id
``trace-stop``; besides the layers below the socket they cover
``asyncio.StreamReader.readline`` and ``StreamWriter.write``/``drain``.
At exit the span summary and the kept spans are written to ``--dump``.

Run by ``run.py --trace 1`` with ``PYTHONPATH`` pointing at ``src``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import Any, Dict, List, Optional

from spans import Patch, Recorder, engine_targets, layer_counters, socket_targets


class TraceControl:
    """Sits in front of ``handle_request`` and arms/disarms the wrappers."""

    def __init__(self, engine, server_module) -> None:
        self.engine = engine
        self.server_module = server_module
        self.recorder = Recorder()
        self.patch = Patch(self.recorder)
        self.extra: Dict[str, Any] = {}
        #: what the engine's ``handle_request`` calls next; traced once armed
        self.inner = engine.handle_request
        engine.handle_request = self.handle_request

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        marker = request.get("id") if request.get("op") == "stats" else None
        if marker == "trace-stop" and self.recorder.started is not None:
            self._stop()
        response = self.inner(request)
        if marker == "trace-start":
            self._start()
        return response

    def _start(self) -> None:
        self.extra["before"] = layer_counters(self.engine)
        self.patch.apply(
            engine_targets(self.engine, self.server_module)
            + [(self, "inner", "server.handle_request")]
            + socket_targets()
        )
        self.recorder.start()

    def _stop(self) -> None:
        self.recorder.stop()
        self.patch.undo()
        self.extra["after"] = layer_counters(self.engine)
        path = self.engine.config.snapshot_path
        self.extra["snapshot_bytes"] = (
            os.path.getsize(path) if path and os.path.exists(path) else 0
        )


def main(argv: Optional[List[str]] = None) -> int:
    from repro.serve import server

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", required=True, metavar="FILE")
    args, rest = parser.parse_known_args(argv)
    config = server.config_from_args(server.build_parser().parse_args(rest))
    engine = server.ServeEngine(config)
    control = TraceControl(engine, server)
    status = asyncio.run(server.WfqServer(engine).serve())
    if control.recorder.stopped is not None:
        control.recorder.dump(args.dump, control.extra)
    return status


if __name__ == "__main__":
    sys.exit(main())
