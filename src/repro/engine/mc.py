"""Engine-backed Monte-Carlo: picklable sample specs and batch runs.

The serial :class:`repro.analysis.montecarlo.MonteCarloStudy` takes
arbitrary callables, which cannot cross a process boundary when they
are closures.  This module provides the parallel counterpart: a
:class:`McMetricSpec` *describes* the cell and metric as plain data
(beta, access configuration, assist name, metric kind), and a
module-level task function rebuilds and evaluates it inside any worker
process.

Per-sample thickness scales derive from ``(root_seed, sample_index)``
via the engine's seed derivation, so a batch is reproducible at any
worker count, resumable, and extendable (a 200-sample run shares its
first 64 samples with a 64-sample run of the same seed).
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from repro.circuit.dcop import SolveMember, SolverOptions, run_alone
from repro.circuit.transient import TransientOptions, transient_gen
from repro.devices.variation import OxideVariation
from repro.engine.jobs import Task, TaskContext, TaskOutcome, derive_seed, task_rng
from repro.engine.scheduler import BatchReport, EngineConfig, run_tasks

__all__ = [
    "McMetricSpec",
    "MonteCarloBatch",
    "escalated_transient_options",
    "evaluate_mc_chunk",
    "evaluate_mc_sample",
    "sample_scales",
]


def sample_scales(
    variation: OxideVariation, root_seed: int, index: int, transistor_count: int
) -> tuple[float, ...]:
    """The per-transistor thickness scales of one Monte-Carlo sample.

    A pure function of ``(root_seed, index)`` — the engine's
    determinism and resume guarantees for Monte-Carlo rest on exactly
    this property.
    """
    rng = task_rng(root_seed, index)
    return tuple(variation.sample_per_transistor(rng, 1, transistor_count)[0])


def escalated_transient_options(attempt: int) -> TransientOptions | None:
    """Solver knobs for retry attempt ``attempt`` (0 = experiment defaults).

    Escalation follows the standard SPICE playbook: first give Newton
    more room (iterations, backtracks, gentler step rejection), then
    additionally raise the gmin floor to shunt the near-singular
    operating points that defeat attempt 1.
    """
    if attempt <= 0:
        return None
    if attempt == 1:
        solver = SolverOptions(max_iterations=160, line_search_backtracks=8)
        return TransientOptions(solver=solver, shrink=0.25)
    solver = SolverOptions(
        max_iterations=240, line_search_backtracks=10, gmin=1e-11
    )
    return TransientOptions(solver=solver, shrink=0.2, max_voltage_step=0.04)


@dataclass(frozen=True)
class McMetricSpec:
    """Plain-data description of one Monte-Carlo metric evaluation.

    ``metric`` is ``"wlcrit"`` (critical wordline pulse; ``assist``
    names an entry of ``WRITE_ASSISTS``) or ``"drnm"`` (dynamic read
    noise margin; ``assist`` names an entry of ``READ_ASSISTS``).
    ``access`` is an :class:`~repro.sram.AccessConfig` member name.
    Everything here is picklable, so a spec travels to worker
    processes by value.
    """

    metric: str
    beta: float
    vdd: float = 0.8
    access: str = "INWARD_P"
    assist: str | None = None
    wlcrit_upper_bound: float = 4.0e-9
    metric_name: str = "metric"
    transistor_count: int = 6
    variation: OxideVariation = field(default_factory=OxideVariation)

    def __post_init__(self) -> None:
        if self.metric not in ("wlcrit", "drnm"):
            raise ValueError(
                f"metric must be 'wlcrit' or 'drnm', got {self.metric!r}"
            )


def evaluate_mc_sample(payload, ctx: TaskContext) -> float:
    """Task function: build the varied cell and evaluate the spec's metric.

    ``payload`` is ``(spec, scales)``.  On retries the transient solver
    runs with :func:`escalated_transient_options` for the attempt.
    """
    member = SolveMember()
    return run_alone(member, _mc_sample_gen(member, payload, ctx))


def _mc_sample_gen(member, payload, ctx: TaskContext):
    """The one per-sample implementation, as a solver generator.

    :func:`evaluate_mc_sample` runs it alone; :func:`evaluate_mc_chunk`
    runs a chunk of them as one stacked batch.
    """
    from repro.analysis.montecarlo import varied_device_set
    from repro.analysis.stability import SETTLE_TIME, WlCritSearch
    from repro.sram import (
        READ_ASSISTS,
        WRITE_ASSISTS,
        AccessConfig,
        CellSizing,
        Tfet6TCell,
    )

    spec, scales = payload
    options = escalated_transient_options(ctx.attempt)
    devices = varied_device_set(scales)
    cell = Tfet6TCell(
        CellSizing().with_beta(spec.beta), AccessConfig[spec.access], devices=devices
    )
    if spec.metric == "wlcrit":
        assist = WRITE_ASSISTS[spec.assist] if spec.assist else None
        search = WlCritSearch(upper_bound=spec.wlcrit_upper_bound, options=options)
        value = yield from search.search_gen(
            member, cell.write_bench_factory(spec.vdd, assist=assist)
        )
        return float(value)
    assist = READ_ASSISTS[spec.assist] if spec.assist else None
    bench = cell.read_testbench(spec.vdd, assist=assist)
    result = yield from transient_gen(
        member,
        bench.circuit,
        bench.settle_stop(SETTLE_TIME),
        initial_conditions=bench.initial_conditions,
        options=options,
    )
    return float(
        result.min_difference(
            bench.one_node, bench.zero_node, bench.window.t_on, bench.window.t_off
        )
    )


def evaluate_mc_chunk(payload, ctx: TaskContext) -> list[dict]:
    """Task function: evaluate a whole chunk of samples as one stacked batch.

    ``payload`` is ``(spec, entries, retries, verify_fraction,
    verify_options)`` with ``entries`` a tuple of ``(index, seed,
    scales)`` triples, one per batch member.  Attempt 0 solves every
    member together through :mod:`repro.circuit.batch`; a member that
    fails with a retryable solver error splits off to the scalar
    :func:`evaluate_mc_sample` path with the usual escalation ladder
    (``engine.convergence_errors`` / ``engine.retries`` counter
    semantics match :func:`~repro.engine.worker.execute_task`).

    Bit-level trust: the same deterministic per-seed draw the engine
    uses for task auditing (:func:`~repro.engine.worker.verify_selected`)
    selects members whose batched value is re-derived on the scalar
    path under a :mod:`repro.verify` session; any disagreement is a
    solver bug and fails the member with a ``VerificationError``.

    Returns one JSON-able record per member, checkpoint-safe and
    field-compatible with :meth:`~repro.engine.jobs.TaskOutcome`.
    """
    from repro import telemetry, verify
    from repro.circuit.batch import BatchMember, run_generators
    from repro.engine.worker import RETRYABLE_ERRORS, verify_selected
    from repro.verify.core import VerificationError

    spec, entries, retries, verify_fraction, verify_options = payload
    tel = telemetry.active()

    pairs = []
    for index, seed, scales in entries:
        member = BatchMember(label=f"s{index}")
        gen = _mc_sample_gen(
            member, (spec, scales), TaskContext(index=index, seed=seed, attempt=0)
        )
        pairs.append((member, gen))
    outcomes = run_generators(pairs)

    records = []
    for (index, seed, scales), outcome in zip(entries, outcomes):
        attempt = 0
        value = outcome.value if outcome.status == "ok" else None
        error = outcome.error if outcome.status != "ok" else None

        # Scalar fallback ladder for members the batch could not solve.
        while error is not None and isinstance(error, RETRYABLE_ERRORS):
            if tel is not None:
                tel.count("engine.convergence_errors")
            if attempt >= retries:
                break
            attempt += 1
            if tel is not None:
                tel.count("engine.retries")
            if tel is not None:
                tel.count("batch.member_retries")
            try:
                value = evaluate_mc_sample(
                    (spec, scales),
                    TaskContext(index=index, seed=seed, attempt=attempt),
                )
                error = None
            except RETRYABLE_ERRORS as exc:
                error = exc
            except Exception as exc:  # noqa: BLE001 — recorded, chunk survives
                error = exc
                break

        # Audit a deterministic member subset: re-derive the batched
        # value on the scalar path under full verification.  Only
        # attempt-0 successes qualify — a retried member's value came
        # from the scalar path already.
        if error is None and attempt == 0 and verify_selected(seed, verify_fraction):
            if tel is not None:
                tel.count("verify.audited_tasks")
            session = None
            try:
                with verify.enabled(verify_options) as session:
                    check = evaluate_mc_sample(
                        (spec, scales),
                        TaskContext(index=index, seed=seed, attempt=0),
                    )
                both_nan = math.isnan(check) and math.isnan(value)
                if check != value and not both_nan:
                    raise VerificationError(
                        "batch",
                        f"batched sample {index} disagrees with the scalar path",
                        {"batched": value, "scalar": check},
                    )
            except Exception as exc:  # noqa: BLE001 — a real solver bug
                error = exc
                value = None
            if tel is not None and session is not None:
                for name, n in session.audits.items():
                    tel.count(f"verify.audit.{name}", n)

        if error is None:
            records.append(
                {
                    "index": index,
                    "status": "ok",
                    "value": value,
                    "attempts": attempt + 1,
                }
            )
        else:
            if tel is not None:
                tel.count("batch.member_failures")
            records.append(
                {
                    "index": index,
                    "status": "failed",
                    "value": None,
                    "attempts": attempt + 1,
                    "error_type": type(error).__name__,
                    "error": "".join(
                        traceback.format_exception_only(error)
                    ).strip(),
                }
            )
    return records


@dataclass(frozen=True)
class MonteCarloBatch:
    """Monte-Carlo study of one :class:`McMetricSpec` on the batch engine."""

    spec: McMetricSpec

    def tasks(self, sample_count: int, seed: int) -> list[Task]:
        """The batch's task list (sample scales drawn parent-side)."""
        if sample_count <= 0:
            raise ValueError("sample_count must be positive")
        return [
            Task(
                index=k,
                fn=evaluate_mc_sample,
                payload=(
                    self.spec,
                    sample_scales(
                        self.spec.variation, seed, k, self.spec.transistor_count
                    ),
                ),
                seed=derive_seed(seed, k),
            )
            for k in range(sample_count)
        ]

    def chunk_tasks(
        self, sample_count: int, seed: int, config: EngineConfig, batch_size: int
    ) -> list[Task]:
        """The batched task list: one chunk task per ``batch_size`` samples.

        Member seeds and scales are exactly those of :meth:`tasks`, so
        every sample's work — and the deterministic audit selection —
        is identical to the scalar layout at any chunk size.
        """
        if sample_count <= 0:
            raise ValueError("sample_count must be positive")
        if batch_size <= 1:
            raise ValueError("batch_size must be > 1 for chunked tasks")
        chunks = []
        for c in range((sample_count + batch_size - 1) // batch_size):
            lo = c * batch_size
            hi = min(sample_count, lo + batch_size)
            entries = tuple(
                (
                    k,
                    derive_seed(seed, k),
                    sample_scales(
                        self.spec.variation, seed, k, self.spec.transistor_count
                    ),
                )
                for k in range(lo, hi)
            )
            chunks.append(
                Task(
                    index=c,
                    fn=evaluate_mc_chunk,
                    payload=(
                        self.spec,
                        entries,
                        config.retries,
                        config.verify_fraction,
                        config.verify_options,
                    ),
                    seed=derive_seed(seed, c),
                )
            )
        return chunks

    def run(
        self,
        sample_count: int,
        seed: int = 2011,
        engine: EngineConfig | None = None,
        batch_size: int = 1,
    ):
        """Evaluate ``sample_count`` samples; returns a
        :class:`~repro.analysis.montecarlo.MonteCarloResult` whose
        ``report`` attribute carries the :class:`BatchReport`.

        Engine-level task failures (retry exhaustion, timeout, a died
        worker) enter the sample array as ``nan`` — distinguishable
        from the metric's own ``inf`` write failures, but equally
        counted by ``MonteCarloResult.failure_count``.

        ``batch_size > 1`` solves that many samples per task as one
        stacked Newton batch (:mod:`repro.circuit.batch`) — same
        values to the last bit, a fraction of the wall clock.  Retries,
        timeouts and verify audits keep their per-*sample* semantics
        (retried members split to the scalar path inside the chunk;
        ``timeout_s`` scales by the chunk size); checkpoints are keyed
        per batch size and the report is re-expanded to per-sample
        outcomes, so downstream consumers see the scalar shape.
        ``report.resumed_count`` and the ``engine.tasks_*`` session
        counters count *chunks* in batched mode.
        """
        from repro.analysis.montecarlo import MonteCarloResult

        config = engine or EngineConfig()
        if batch_size > 1:
            report = self._run_batched(sample_count, seed, config, batch_size)
        else:
            report = run_tasks(self.tasks(sample_count, seed), config)
        values = np.array(
            [v if v is not None else math.nan for v in report.values()], dtype=float
        )
        return MonteCarloResult(self.spec.metric_name, values, report=report)

    def _run_batched(
        self, sample_count: int, seed: int, config: EngineConfig, batch_size: int
    ) -> BatchReport:
        """Run chunked tasks and expand them into a per-sample report."""
        chunk_config = replace(
            config,
            retries=0,
            verify_fraction=0.0,
            verify_options=None,
            run_key=f"{config.run_key}:bs={batch_size}",
            timeout_s=(
                config.timeout_s * batch_size
                if config.timeout_s is not None
                else None
            ),
        )
        chunk_report = run_tasks(
            self.chunk_tasks(sample_count, seed, config, batch_size), chunk_config
        )
        outcomes: list[TaskOutcome] = []
        for chunk in chunk_report.outcomes:
            lo = chunk.index * batch_size
            hi = min(sample_count, lo + batch_size)
            if chunk.ok:
                share = chunk.wall_s / max(1, len(chunk.value))
                for rec in chunk.value:
                    outcomes.append(
                        TaskOutcome(
                            index=int(rec["index"]),
                            status=str(rec["status"]),
                            value=rec.get("value"),
                            attempts=int(rec.get("attempts", 1)),
                            wall_s=share,
                            error_type=rec.get("error_type"),
                            error=rec.get("error"),
                        )
                    )
            else:
                # The whole chunk died (timeout, worker loss, a bug):
                # every member it covered is recorded as failed.
                share = chunk.wall_s / max(1, hi - lo)
                for k in range(lo, hi):
                    outcomes.append(
                        TaskOutcome(
                            index=k,
                            status="failed",
                            attempts=chunk.attempts,
                            wall_s=share,
                            error_type=chunk.error_type,
                            error=chunk.error,
                        )
                    )
        outcomes.sort(key=lambda o: o.index)
        return BatchReport(
            outcomes=outcomes,
            jobs=chunk_report.jobs,
            wall_s=chunk_report.wall_s,
            resumed_count=chunk_report.resumed_count,
            counters=chunk_report.counters,
        )
