"""The repository's cross-commit benchmark: one command, two workloads.

::

    python3 perfbench/run.py --workload mc_yield --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the program is imported from
``src/``).  Three loads drive the program:

* ``mc_yield`` — fig09/fig10-class Monte-Carlo through
  ``MonteCarloBatch.run`` on the engine pool and the stacked-batch
  solver (:mod:`mc_yield`);
* ``array_path`` — compiled read/write critical paths through
  ``compile_array`` / ``measure_array`` (:mod:`array_path`);
* ``serve_mixed`` — a ``repro serve start`` daemon under closed-loop
  hit and backfill-miss traffic (:mod:`serve_mixed`).

A workload is ``mc_yield`` or ``serve_mixed``: that load is the run's
primary.  A run sets the primary up :data:`SETUP_REPS` times
(``setup_s`` is the import time plus the median set-up), then measures
it in whole rounds of fixed composition for at least ``--seconds``.
Every end-to-end metric is reported on every workload, so fixed
companion rounds of the other two loads (:data:`COMPANION_ROUNDS`) are
spread evenly between the primary's slices; they run one at a time,
never alongside it.  Every output is checked after the timed window.

``--trace 1`` measures the primary twice, untraced then traced
(benchmark-side spans around each layer call, an in-process telemetry
session, the engine's ``trace_dir`` and the daemon's ``--trace-dir``),
then one traced round of array paths, and reports the per-layer
metrics of the traced passes plus ``trace.overhead_frac``.  A layer the
run never calls reports 0.

The last line of standard output is the JSON result; everything
before it is a human-readable summary.  Exit code 0 means the run
finished (``correct`` says whether the checks passed); 2 means bad
arguments, 3 that the program could not be imported or set up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

import array_path
import mc_yield
import serve_mixed
from common import Spans, failed_frac, median, ratio, result_line, self_times, share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LOADS = ("mc_yield", "array_path", "serve_mixed")
WORKLOADS = ("mc_yield", "serve_mixed")
SETUP_REPS = 3
COMPANION_ROUNDS = {"mc_yield": 1, "array_path": 1, "serve_mixed": 4}
"""Rounds of each non-primary load a run adds: about 22 s of Monte-Carlo
units, 8 s of array paths, 14 s of traffic."""
REFERENCE_PATH = HERE / "reference.json"
WORK_ROOT = Path(".perfbench")

PER_LAYER_UNITS = {
    "serve.hit_rps": "1/s",
    "serve.hit_p99_ms": "ms",
    "serve.request_us": "us",
    "serve.client_gap_us": "us",
    "char.query_us": "us",
    "serve.hit_wait_ms": "ms",
    "serve.backfill_share": "share",
    "serve.reloads_per_miss": "count",
    "char.build_s": "s",
    "analysis.evaluate_s": "s",
    "serve.points_per_batch": "count",
    "circuit.transient_s": "s",
    "newton.iterations": "count",
    "newton.reuse_frac": "share",
    "transient.accept_frac": "share",
    "mna.sparse_selected": "count",
    "batch.ticks": "count",
    "batch.member_assemblies": "count",
    "batch.occupancy": "share",
    "batch.table_points": "count",
    "engine.tasks": "count",
    "engine.busy_s": "s",
    "engine.parallel_eff": "share",
    "engine.retries": "count",
    "tables.builds": "count",
    "tables.build_points": "count",
    "compiler.compile_ms": "ms",
    "compiler.measure_s": "s",
    "compiler.unknowns": "count",
    "mc.retry_share": "share",
    "array.sparse_share": "share",
    "trace.overhead_frac": "share",
}


def _import_program() -> float:
    """Import every layer the benchmark drives; returns the seconds spent."""
    sys.path.insert(0, str(Path("src").resolve()))
    t0 = time.perf_counter()
    import repro.char  # noqa: F401
    import repro.engine.mc  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sram.compiler  # noqa: F401
    import repro.telemetry  # noqa: F401

    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Run:
    """One invocation: set-up, measured slices, checks, result."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK_ROOT / f"work-{os.getpid()}"
        self.reference = json.loads(REFERENCE_PATH.read_text())
        self.daemons: list[serve_mixed.Daemon] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.summary: list[str] = []

    # -- set-up -----------------------------------------------------------------

    def _start_daemon(self, tag: str, trace_dir=None) -> serve_mixed.Daemon:
        daemon = serve_mixed.Daemon(self.work, tag, trace_dir)
        self.daemons.append(daemon)
        daemon.start()
        return daemon

    def _setup_once(self, tag: str):
        if self.workload == "mc_yield":
            mc_yield.setup()
            return None
        return self._start_daemon(tag)

    def setup(self, telemetry=None):
        """:data:`SETUP_REPS` set-ups of the workload; keeps the last one.

        Returns ``(median seconds, kept daemon or None, session)``; with
        ``telemetry`` the last rep runs under a session of its own.
        """
        times = []
        kept = session = None
        for rep in range(SETUP_REPS):
            if kept is not None:
                kept.stop()
            t0 = time.perf_counter()
            if telemetry is not None and rep == SETUP_REPS - 1:
                with telemetry.enabled() as session:
                    kept = self._setup_once(f"setup{rep}")
            else:
                kept = self._setup_once(f"setup{rep}")
            times.append(time.perf_counter() - t0)
        self.summary.append("set-up reps: " + ", ".join(f"{t:.3f}" for t in times) + " s")
        return median(times), kept, session

    def load(self, name: str, daemon, spans, trace_dir=None):
        if name == "mc_yield":
            return mc_yield.McLoad(self.seed, spans, trace_dir)
        if name == "array_path":
            return array_path.ArrayLoad(self.seed, spans)
        return serve_mixed.ServeLoad(daemon, self.seed, spans)

    # -- measuring --------------------------------------------------------------

    def measure(self, primary, companions=()) -> None:
        """Whole primary rounds for at least ``--seconds``, with the
        ``(name, load)`` companions' rounds spread evenly between the
        primary's slices."""
        counts = [COMPANION_ROUNDS[name] * load.round_slices for name, load in companions]
        flat = [load for (_, load), count in zip(companions, counts) for _ in range(count)]
        queue = [flat[i] for i in _interleave(counts)]
        spent = 0.0
        done = 0
        while spent < self.seconds or not primary.at_round_end:
            spent += primary.slice()
            while done < len(queue) and done < len(queue) * spent / self.seconds:
                queue[done].slice()
                done += 1
        for load in queue[done:]:
            load.slice()
        for load in [primary] + [load for _, load in companions]:
            if isinstance(load, serve_mixed.ServeLoad):
                load.finish()

    def check(self, name: str, load, companion: bool):
        timings = None
        if name == "mc_yield":
            problems = load.check(self.reference["mc"], rederive=not companion)
        elif name == "array_path":
            problems = load.check(self.reference["array"])
        else:
            problems, timings = load.check(0 if companion else 2)
        self.problems += problems
        self.attempted += load.attempted
        self.failed += load.failed
        return timings

    # -- modes ------------------------------------------------------------------

    def end_to_end(self, import_s: float) -> dict:
        marks = [time.perf_counter()]
        setup_s, kept, _ = self.setup()
        spans = Spans(False)
        primary = self.load(self.workload, kept, spans)
        companions = []
        for other in LOADS:
            if other == self.workload:
                continue
            daemon = None
            if other == "mc_yield":
                mc_yield.setup()
            elif other == "array_path":
                array_path.setup()
            else:
                daemon = self._start_daemon("companion")
            companions.append((other, self.load(other, daemon, spans)))
        marks.append(time.perf_counter())
        self.measure(primary, companions)
        marks.append(time.perf_counter())
        for daemon in self.daemons:
            daemon.stop()

        values = {"setup_s": (import_s + setup_s, "s")}
        values.update(primary.metrics())
        self.check(self.workload, primary, companion=False)
        self.summary += primary.describe()
        for name, load in companions:
            values.update(load.metrics())
            self.check(name, load, companion=True)
            self.summary += load.describe()
        for load in [primary] + [load for _, load in companions]:
            if isinstance(load, serve_mixed.ServeLoad):
                self.summary += [
                    f"{name} {value:.4f} {unit} (per-layer metric)"
                    for name, (value, unit) in load.hit_tail().items()
                ]
        marks.append(time.perf_counter())
        self.summary.append(
            "phases: " + ", ".join(
                f"{name} {b - a:.1f} s"
                for name, a, b in zip(("set-up", "measure", "checks"), marks, marks[1:])
            )
        )
        values["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        return values

    def traced(self) -> dict:
        from repro import telemetry

        _, kept, setup_session = self.setup(telemetry)
        untraced = self.load(self.workload, kept, Spans(False))
        self.measure(untraced)
        if kept is not None:
            kept.stop()
            kept = self._start_daemon("traced", trace_dir=self.work / "daemon-trace")
        self.check(self.workload, untraced, companion=True)
        spans = Spans(True, trace_id=f"{self.workload}-{self.seed}")
        array_path.setup()
        with telemetry.enabled() as session:
            traced = self.load(
                self.workload, kept, spans, trace_dir=self.work / "engine-trace"
            )
            self.measure(traced)
            if kept is not None:
                kept.stop()
            timings = self.check(self.workload, traced, companion=False)
            paths = self.load("array_path", None, spans)
            for _ in range(paths.round_slices):
                paths.slice()
            self.check("array_path", paths, companion=False)
        spans.write(WORK_ROOT / "traces" / f"{self.workload}-seed{self.seed}.json")
        self.summary += traced.describe() + paths.describe()
        self.summary += [
            f"self time {name}: {seconds:.3f} s"
            for name, seconds in sorted(self_times(spans.records).items())
        ]

        values = {name: (0.0, unit) for name, unit in PER_LAYER_UNITS.items()}
        counters = dict(session.counters)
        if self.workload == "serve_mixed":
            values.update(traced.layers(timings))
            values.update(traced.hit_tail())
            for name, n in traced.counter_deltas().items():
                counters[name] = counters.get(name, 0) + n
        else:
            values.update(traced.layers())
        values.update(paths.layers())
        values.update(_circuit_layers(counters, session))
        for name in ("tables.builds", "tables.build_points"):
            values[name] = (setup_session.counters.get(name, 0), "count")
        values["trace.overhead_frac"] = (
            ratio(untraced.throughput(), traced.throughput()) - 1.0, "share"
        )
        return values

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.stop()
        shutil.rmtree(self.work, ignore_errors=True)


def _interleave(counts: list[int]) -> list[int]:
    """Indices into the concatenation of ``counts`` groups, ordered so
    each group is spread evenly (by its members' fractional positions)."""
    keyed = []
    offset = 0
    for count in counts:
        keyed += [((k + 0.5) / count, offset + k) for k in range(count)]
        offset += count
    return [index for _, index in sorted(keyed)]


def _circuit_layers(counters: dict, session) -> dict:
    timer = session.timers.get("transient.wall_s")
    return {
        "circuit.transient_s": (ratio(timer.total, timer.count) if timer else 0.0, "s"),
        "newton.iterations": (
            ratio(counters.get("newton.iterations", 0), counters.get("newton.solves", 0)),
            "count",
        ),
        "newton.reuse_frac": (
            share(
                counters.get("newton.jacobian_reuses", 0),
                counters.get("newton.jacobian_stamps", 0),
            ),
            "share",
        ),
        "transient.accept_frac": (
            share(
                counters.get("transient.steps_accepted", 0),
                counters.get("transient.steps_rejected", 0),
            ),
            "share",
        ),
        "mna.sparse_selected": (counters.get("mna.sparse_selected", 0), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # A terminated run still stops its daemons and pools (``finally`` below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    try:
        import_s = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 3

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        metrics = run.traced() if run.trace else run.end_to_end(import_s)
    except Exception:
        import traceback

        traceback.print_exc()
        print("perfbench: the run could not finish", file=sys.stderr)
        return 3
    finally:
        run.close()

    for line in run.summary:
        print(line)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"attempted {run.attempted}, failed {run.failed}; failed_frac "
          f"{failed_frac(run.failed, run.attempted):.4f} share")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(result_line(not run.problems, max(1, run.attempted), run.failed, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
