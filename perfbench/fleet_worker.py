"""Evaluator factory for the fleet workload's external worker.

``python -m repro.exec.worker STORE --evaluator fleet_worker:make_toolkit``
builds the canonical toolkit here, then marks the worker ready by
writing a ``time.monotonic()`` stamp to ``$PERFBENCH_WORKER_READY`` so
the benchmark can time the worker's start-up from its launch.
"""

from __future__ import annotations

import json
import os
import time


def make_toolkit():
    from repro.core.toolkit import SensorNodeDesignToolkit

    toolkit = SensorNodeDesignToolkit()
    path = os.environ["PERFBENCH_WORKER_READY"]
    with open(f"{path}.tmp", "w", encoding="utf-8") as fh:
        json.dump({"ready": time.monotonic()}, fh)
    os.replace(f"{path}.tmp", path)
    return toolkit
