#!/usr/bin/env python3
"""Write BENCHMARK.json at the checkout root from the tables in metrics.py.

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json

from checkout import ROOT
from metrics import COMMAND, END_TO_END, PATHS, RUN_SECONDS, WORKLOADS, per_layer

SPEC_FILE = ROOT / "BENCHMARK.json"


def spec() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer()],
    }


if __name__ == "__main__":
    SPEC_FILE.write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
