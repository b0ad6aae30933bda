"""``array_path``: compiled critical paths through ``compile_array`` and
``measure_array``, in-process.

The ``read`` and ``write`` paths of the proposed cell at 64x32 and
256x32 (about 170 to 840 unknowns, served by the sparse MNA assembler)
with nominal device cards: scalar sparse transient work while the
engine, the batch solver and the serve layers sit idle.  The seed only
orders the paths within each round, so every run simulates the same
decks and each access delay has one recorded reference value.
"""

from __future__ import annotations

import random
import time

from common import median, ratio, rel_close

VDD = 0.8
COLUMNS = 32
PATHS = ((64, "read"), (64, "write"), (256, "read"), (256, "write"))
"""One round: about 8 s of simulation."""

REFERENCE_REL = 1e-6
"""Access delays must match the recorded reference to this relative tolerance."""

PLAN_TOLERANCE = 0.40
"""Simulated read access within +/-40 % of ``plan_array`` (as ext_array_read)."""


def _cell():
    from repro.experiments.designs import proposed_cell

    return proposed_cell()


def setup() -> None:
    """Device calibration and the nominal cell the paths instantiate.

    Keeps the device cache: the paths only run beside another load,
    whose warm tables stay in place."""
    _cell().read_testbench(VDD)


class PathRun:
    """One compiled and measured path."""

    def __init__(self, rows, scenario, compile_s, measure_s, measurement, error):
        self.rows = rows
        self.scenario = scenario
        self.compile_s = compile_s
        self.measure_s = measure_s
        self.measurement = measurement
        self.error = error

    @property
    def key(self) -> str:
        return f"{self.rows}x{COLUMNS}:{self.scenario}"

    @property
    def ok(self) -> bool:
        return self.measurement is not None and self.measurement.completed


def run_path(rows: int, scenario: str, spans) -> PathRun:
    from repro.sram.array import ArrayGeometry
    from repro.sram.compiler import compile_array, measure_array

    geometry = ArrayGeometry(rows=rows, columns=COLUMNS)
    compile_s = measure_s = 0.0
    try:
        with spans.span("compile_array", rows=rows, scenario=scenario):
            t0 = time.perf_counter()
            compiled = compile_array(_cell(), geometry, VDD, scenario=scenario)
            compile_s = time.perf_counter() - t0
        with spans.span("measure_array", rows=rows, scenario=scenario):
            t0 = time.perf_counter()
            measurement = measure_array(compiled)
            measure_s = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 — an exception is a failed path
        return PathRun(rows, scenario, compile_s, measure_s, None, repr(exc))
    return PathRun(rows, scenario, compile_s, measure_s, measurement, None)


class ArrayLoad:
    """Paths in rounds over :data:`PATHS`, each round in a seed-shuffled order."""

    round_slices = len(PATHS)

    def __init__(self, seed: int, spans):
        self.spans = spans
        self.paths: list[PathRun] = []
        self._rng = random.Random(f"{seed}:array")
        self._queue: list = []

    def slice(self) -> float:
        if not self._queue:
            self._queue = list(PATHS)
            self._rng.shuffle(self._queue)
        rows, scenario = self._queue.pop(0)
        path = run_path(rows, scenario, self.spans)
        self.paths.append(path)
        return path.compile_s + path.measure_s

    def throughput(self) -> float:
        """Paths per second over every compiled and measured path."""
        return ratio(len(self.paths), sum(p.compile_s + p.measure_s for p in self.paths))

    @property
    def attempted(self) -> int:
        return len(self.paths)

    @property
    def failed(self) -> int:
        return sum(1 for path in self.paths if not path.ok)

    @property
    def sparse_share(self) -> float:
        return ratio(
            sum(1 for p in self.paths if p.ok and p.measurement.sparse_engaged),
            len(self.paths),
        )

    def metrics(self) -> dict:
        return {
            "array.paths_per_s": (self.throughput(), "1/s"),
        }

    def check(self, reference: dict) -> list[str]:
        """Every path completes with a finite access delay equal to its
        recorded reference, and each read delay is within
        :data:`PLAN_TOLERANCE` of the analytic ``plan_array``."""
        problems = []
        for path in self.paths:
            if not path.ok:
                problems.append(f"array: {path.key} incomplete ({path.error})")
                continue
            delay = path.measurement.access_delay
            expected = reference.get(path.key)
            if expected is None:
                problems.append(f"array: no reference for {path.key}")
            elif not rel_close(delay, expected, REFERENCE_REL):
                problems.append(
                    f"array: {path.key} delay {delay!r}, reference {expected!r}"
                )
        from repro.sram.array import ArrayGeometry, plan_array

        reads = {p.rows: p for p in self.paths if p.ok and p.scenario == "read"}
        for rows, path in sorted(reads.items()):
            geometry = ArrayGeometry(rows=rows, columns=COLUMNS)
            analytic = plan_array(_cell(), geometry, VDD).read_access_time
            ratio_ = path.measurement.access_delay / analytic
            if abs(ratio_ - 1.0) > PLAN_TOLERANCE:
                problems.append(f"array: {path.key} delay is {ratio_:.3f}x plan_array")
        return problems

    def describe(self) -> list[str]:
        lines = [
            f"  {p.key}: compile {1e3 * p.compile_s:.1f} ms, measure "
            f"{p.measure_s:.3f} s, delay {p.measurement.access_delay * 1e12:.2f} ps"
            if p.ok else f"  {p.key}: failed ({p.error})"
            for p in self.paths
        ]
        lines.append(f"array: share of paths served sparse {self.sparse_share:.3f}")
        return lines

    def layers(self) -> dict:
        done = [p for p in self.paths if p.ok]
        return {
            "compiler.compile_ms": (
                1e3 * median([p.compile_s for p in self.paths]), "ms"
            ),
            "compiler.measure_s": (median([p.measure_s for p in self.paths]), "s"),
            "compiler.unknowns": (
                median([p.measurement.unknowns for p in done]) if done else 0.0,
                "count",
            ),
            "array.sparse_share": (self.sparse_share, "share"),
        }
