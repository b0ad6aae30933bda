"""Re-record ``reference.json``: the values the benchmark checks outputs against.

Monte-Carlo samples are recorded through the scalar
``evaluate_mc_sample`` path (``batch_size=1``), so the batched runs of
the benchmark are checked against the scalar physics.  Array access
delays come from ``compile_array`` + ``measure_array``.  Run it only
when a change is meant to move these values, and say so in the change::

    python3 perfbench/record.py          # a few minutes on 2 cores
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import array_path
import mc_yield
from common import Spans

HERE = Path(__file__).resolve().parent

REFERENCE_PATH = HERE / "reference.json"


def record_mc() -> dict:
    from repro.engine.mc import MonteCarloBatch
    from repro.engine.scheduler import EngineConfig

    mc_yield.setup()
    out = {}
    for metric, roots in mc_yield.ROOTS.items():
        samples, _ = mc_yield.UNITS[metric]
        out[metric] = {}
        for root in roots:
            result = MonteCarloBatch(mc_yield.specs()[metric]).run(
                samples, seed=root, engine=EngineConfig(jobs=mc_yield.JOBS)
            )
            out[metric][str(root)] = [mc_yield.encode(float(v)) for v in result.samples]
            print(f"{metric} root {root}: {len(result.samples)} samples", flush=True)
    return out


def record_array() -> dict:
    array_path.setup()
    spans = Spans(False)
    out = {}
    for rows, scenario in array_path.PATHS:
        path = array_path.run_path(rows, scenario, spans)
        if not path.ok:
            raise SystemExit(f"{path.key} did not complete: {path.error}")
        out[path.key] = path.measurement.access_delay
        print(f"{path.key}: {out[path.key]!r}", flush=True)
    return out


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    reference = {"array": record_array(), "mc": record_mc()}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
