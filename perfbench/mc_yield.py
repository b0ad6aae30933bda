"""``mc_yield``: fig09/fig10-class Monte-Carlo through ``MonteCarloBatch.run``.

Two studies share the engine process pool (``jobs=2``) and the
stacked-batch Newton solver:

* **DRNM** — fig10's read-disturb margin at beta 0.6 under the
  ``vdd_raising`` read assist: one transient per sample.
* **WL_crit** — fig09's critical wordline pulse at beta 2.0 under the
  ``wl_lowering`` write assist: a bisection per sample, so batch
  members diverge.

Each slice of work is one ``MonteCarloBatch.run`` call (a *unit*) whose
root seed comes from a fixed pool.  Units come in rounds of fixed
composition (:data:`ROUND`): the run's seed picks the DRNM roots and
orders both pools, while every round runs the same WL_crit roots,
because a WL_crit unit's cost depends on its root by up to 40 %
(bisection depth) and a seed-drawn mix would move the rate by more
than the program does.
Every sample of every pool root has a value recorded through the
scalar ``evaluate_mc_sample`` path in ``reference.json``, so each
batched sample is checked against the scalar physics without
re-simulating it; two DRNM samples of the run are also re-derived
through the scalar path after the timed window.
"""

from __future__ import annotations

import math
import random
import time

from common import failed_samples, ratio, rel_close

JOBS = 2

UNITS = {"drnm": (32, 16), "wlcrit": (4, 2)}
"""Samples per ``run`` call and the stacked-batch size, per study: two
chunks, one per worker."""

ROOTS = {"drnm": tuple(range(101, 109)), "wlcrit": (201, 205, 206)}
"""Root seeds the units draw from; each has recorded reference values
(``reference.json`` also holds WL_crit roots 202-204)."""

ROUND = ("wlcrit", "drnm", "wlcrit", "drnm", "wlcrit")
"""One round of units: about 3 s of DRNM and 19 s of WL_crit.  WL_crit
units run both engine workers for seconds at a time, so host noise
moves them most; they get the larger share."""

REFERENCE_REL = 1e-9
"""Recorded and re-derived samples must agree to this relative tolerance."""

SPREAD = 0.05
"""The paper's +/-5 % t_ox variation band."""


def specs():
    from repro.engine.mc import McMetricSpec

    drnm = McMetricSpec(
        metric="drnm", beta=0.6, assist="vdd_raising", metric_name="DRNM"
    )
    wlcrit = McMetricSpec(
        metric="wlcrit", beta=2.0, assist="wl_lowering", metric_name="WL_crit"
    )
    return {"drnm": drnm, "wlcrit": wlcrit}


def setup() -> None:
    """Device calibration plus every quantized TFET table the +/-5 %
    band can draw, so forked engine workers inherit warm tables."""
    from repro.devices.library import clear_device_cache, nominal_tfet_physics, tfet_device
    from repro.devices.variation import DEFAULT_QUANTUM

    clear_device_cache()
    nominal_tfet_physics()
    steps = round(SPREAD / DEFAULT_QUANTUM)
    for k in range(-steps, steps + 1):
        tfet_device(1.0 + k * DEFAULT_QUANTUM)


class Unit:
    """One ``MonteCarloBatch.run`` call and what it returned."""

    def __init__(self, metric, root, samples, batch, values, report, wall_s):
        self.metric = metric
        self.root = root
        self.samples = samples
        self.batch = batch
        self.values = values
        self.report = report
        self.wall_s = wall_s


def run_unit(metric: str, root: int, spans, trace_dir=None) -> Unit:
    from repro.engine.mc import MonteCarloBatch
    from repro.engine.scheduler import EngineConfig

    samples, batch = UNITS[metric]
    engine = EngineConfig(
        jobs=JOBS,
        run_key=f"perfbench:{metric}:{root}",
        root_seed=root,
        trace_dir=trace_dir,
    )
    with spans.span("MonteCarloBatch.run", metric=metric, root=root):
        t0 = time.perf_counter()
        result = MonteCarloBatch(specs()[metric]).run(
            samples, seed=root, engine=engine, batch_size=batch
        )
        wall = time.perf_counter() - t0
    return Unit(metric, root, samples, batch, list(map(float, result.samples)),
                result.report, wall)


class McLoad:
    """Rounds of :data:`ROUND` units, roots in seed order."""

    round_slices = len(ROUND)

    def __init__(self, seed: int, spans, trace_dir=None):
        self.seed = seed
        self.spans = spans
        self.trace_dir = trace_dir
        self.units: list[Unit] = []
        self._roots = {}
        for metric, pool in ROOTS.items():
            roots = list(pool)
            random.Random(f"{seed}:{metric}").shuffle(roots)
            self._roots[metric] = roots

    def slice(self) -> float:
        metric = ROUND[len(self.units) % len(ROUND)]
        roots = self._roots[metric]
        root = roots[len(self.of(metric)) % len(roots)]
        unit = run_unit(metric, root, self.spans, self.trace_dir)
        self.units.append(unit)
        return unit.wall_s

    @property
    def at_round_end(self) -> bool:
        return len(self.units) % len(ROUND) == 0

    def of(self, metric: str) -> list[Unit]:
        return [u for u in self.units if u.metric == metric]

    def rate(self, metric: str) -> float:
        """Samples per second over every unit of ``metric``."""
        units = self.of(metric)
        return ratio(sum(u.samples for u in units), sum(u.wall_s for u in units))

    def throughput(self) -> float:
        return ratio(self.attempted, sum(u.wall_s for u in self.units))

    @property
    def attempted(self) -> int:
        return sum(u.samples for u in self.units)

    @property
    def failed(self) -> int:
        return sum(failed_samples(u.values) for u in self.units)

    @property
    def retried(self) -> int:
        return sum(1 for u in self.units for o in u.report.outcomes if o.attempts > 1)

    def metrics(self) -> dict:
        return {
            "mc.drnm_samples_per_s": (self.rate("drnm"), "1/s"),
            "mc.wlcrit_samples_per_s": (self.rate("wlcrit"), "1/s"),
        }

    def check(self, reference: dict, rederive: bool) -> list[str]:
        """Problems with the units' values; empty when all are right.

        Every sample must be free of ``nan`` and equal the scalar-path
        value recorded for its ``(root, index)``.  With ``rederive``,
        two DRNM samples are also recomputed through
        ``evaluate_mc_sample`` now (a scalar WL_crit bisection costs
        seconds; the recorded WL_crit values already come from the
        scalar path).
        """
        problems = []
        for unit in self.units:
            recorded = reference[unit.metric].get(str(unit.root))
            if recorded is None or len(recorded) < unit.samples:
                problems.append(f"mc: no reference for {unit.metric} root {unit.root}")
                continue
            for index, value in enumerate(unit.values):
                if math.isnan(value):
                    problems.append(f"mc: {unit.metric} root {unit.root} #{index} is nan")
                elif not rel_close(value, decode(recorded[index]), REFERENCE_REL):
                    problems.append(
                        f"mc: {unit.metric} root {unit.root} #{index} = {value!r}, "
                        f"reference {recorded[index]!r}"
                    )
        drnm = self.of("drnm")
        if rederive and drnm:
            rng = random.Random(f"{self.seed}:rederive")
            for _ in range(2):
                unit = rng.choice(drnm)
                index = rng.randrange(unit.samples)
                scalar = scalar_sample("drnm", unit.root, index)
                if not rel_close(unit.values[index], scalar, REFERENCE_REL):
                    problems.append(
                        f"mc: batched drnm root {unit.root} #{index} = "
                        f"{unit.values[index]!r}, scalar path {scalar!r}"
                    )
        return problems

    def describe(self) -> list[str]:
        return [
            f"mc: {self.attempted} samples in {len(self.units)} units; share that "
            f"needed retries {ratio(self.retried, self.attempted):.3f}"
        ]

    def layers(self) -> dict:
        """Per-layer figures of the batch solver and the engine."""
        counters: dict[str, int] = {}
        busy = wall = 0.0
        tasks = capacity = 0
        for unit in self.units:
            report = unit.report
            for name, n in report.counters.items():
                counters[name] = counters.get(name, 0) + n
            busy += sum(o.wall_s for o in report.outcomes)
            wall += report.wall_s
            tasks += math.ceil(unit.samples / unit.batch)
            capacity += report.counters.get("batch.ticks", 0) * unit.batch
        return {
            "batch.ticks": (counters.get("batch.ticks", 0), "count"),
            "batch.member_assemblies": (
                counters.get("batch.member_assemblies", 0), "count"
            ),
            "batch.occupancy": (
                ratio(counters.get("batch.member_assemblies", 0), capacity), "share"
            ),
            "batch.table_points": (counters.get("batch.table_points", 0), "count"),
            "engine.tasks": (tasks, "count"),
            "engine.busy_s": (busy, "s"),
            "engine.parallel_eff": (ratio(busy, JOBS * wall), "share"),
            "engine.retries": (counters.get("engine.retries", 0), "count"),
            "mc.retry_share": (ratio(self.retried, self.attempted), "share"),
        }


def scalar_sample(metric: str, root: int, index: int) -> float:
    """One sample through the scalar task function, as a retry would run it."""
    from repro.engine.jobs import TaskContext, derive_seed
    from repro.engine.mc import evaluate_mc_sample, sample_scales

    spec = specs()[metric]
    scales = sample_scales(spec.variation, root, index, spec.transistor_count)
    ctx = TaskContext(index=index, seed=derive_seed(root, index), attempt=0)
    return float(evaluate_mc_sample((spec, scales), ctx))


def decode(value) -> float:
    return math.inf if value == "inf" else float(value)


def encode(value: float):
    return "inf" if math.isinf(value) else value
