"""Transient analysis: adaptive backward-Euler integration.

Backward Euler is L-stable, which matters here: SRAM flip events mix
picosecond regenerative transitions with nanosecond settling tails, and
the solver must never ring artificially on the stiff part (a trapezoid
oscillation across a separatrix would corrupt every WL_crit bisection).

Step control combines three mechanisms:

* waveform breakpoints are always landed on exactly;
* a step is rejected when Newton fails or when any node moves more than
  ``max_voltage_step`` in one step (temporal resolution guard);
* the step grows after easy steps and shrinks after hard ones.

Each step's Newton iteration is warm-started from a linear
extrapolation of the last two accepted points (``TransientOptions.predictor``)
— on smooth segments this lands within an iteration or two of the
solution.  If Newton rejects the extrapolated seed, the step retries
once from the last accepted point before shrinking, so the predictor
can never make a step fail that would have succeeded without it.

The integrator is written once, as the generator :func:`transient_gen`
(see :class:`repro.circuit.dcop.SolveMember`); :func:`simulate_transient`
runs it alone and :mod:`repro.circuit.batch` runs many at once.

With a :mod:`repro.telemetry` session active, the integrator records
accepted/rejected step counts (split by rejection cause), predictor
fallbacks, a step-size histogram, and breakpoint landings; disabled,
the cost is one guard check per simulation call.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

import numpy as np

from repro.circuit.dcop import (
    ConvergenceError,
    SolveMember,
    SolverOptions,
    newton_gen,
    run_alone,
    solve_dc_gen,
)
from repro.circuit.mna import MnaSystem, TransientState
from repro.circuit.netlist import Circuit
from repro.circuit.results import TransientResult
from repro.circuit.sparse import make_system
from repro.telemetry import core as telemetry
from repro.verify import audits as verify_audits
from repro.verify import core as verify

__all__ = ["TransientOptions", "simulate_transient", "transient_gen"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TransientOptions:
    """Integrator controls."""

    initial_step: float = 1e-12
    max_step: float = 5e-11
    min_step: float = 1e-17
    max_voltage_step: float = 0.06
    """Largest accepted per-step node-voltage change (volts)."""

    growth: float = 1.4
    shrink: float = 0.35
    easy_iterations: int = 4
    """Newton iteration count at or below which the step may grow."""

    method: str = "backward_euler"
    """"backward_euler" (L-stable, default) or "trapezoidal"
    (second-order accurate; use for smooth waveform-accuracy studies,
    not for separatrix races where its ringing can corrupt outcomes)."""

    predictor: str = "linear"
    """Newton warm-start seed per step: "linear" extrapolates the last
    two accepted points; "none" seeds from the last accepted point
    (the pre-optimization behaviour)."""

    solver: SolverOptions = SolverOptions()

    def __post_init__(self) -> None:
        if self.method not in ("backward_euler", "trapezoidal"):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.predictor not in ("linear", "none"):
            raise ValueError(f"unknown predictor {self.predictor!r}")


def attempt_step_gen(
    member: SolveMember,
    x: np.ndarray,
    x_prev: np.ndarray | None,
    h_prev: float,
    t: float,
    h_try: float,
    charges: np.ndarray,
    currents: np.ndarray,
    options: TransientOptions,
    tel,
):
    """Shrink ``h_try`` until one step from ``t`` is accepted (a generator).

    Each attempt seeds Newton from the extrapolated predictor (when
    enabled and history exists); a Newton failure on an extrapolated
    seed retries from ``x`` at the same ``h_try`` before shrinking.

    Returns ``(x_new, iterations, state, h_used)`` — all four always
    bound on return, so the caller never touches conditionally-assigned
    locals.  Raises :class:`ConvergenceError` (with forensics) when the
    step underflows ``min_step``.
    """
    extrapolate = (
        options.predictor == "linear" and x_prev is not None and h_prev > 0.0
    )
    n = member.system.n_nodes
    while True:
        state = TransientState(
            timestep=h_try,
            capacitor_charges=charges,
            capacitor_currents=currents,
            method=options.method,
        )
        reason = "newton"
        dv = float("nan")
        seeds = [x + (x - x_prev) * (h_try / h_prev)] if extrapolate else []
        seeds.append(x)
        try:
            for attempt, x_seed in enumerate(seeds):
                try:
                    x_new, iterations = yield from newton_gen(
                        member, x_seed, t + h_try, options.solver, transient=state
                    )
                    break
                except ConvergenceError:
                    if attempt == len(seeds) - 1:
                        raise
                    if tel is not None:
                        tel.count("transient.predictor_fallbacks")
            dv = float(np.max(np.abs(x_new[:n] - x[:n])))
            if dv <= options.max_voltage_step or h_try <= options.min_step:
                return x_new, iterations, state, h_try
            reason = "dv_limit"
        except ConvergenceError:
            pass

        if tel is not None:
            tel.count("transient.steps_rejected")
            tel.count(f"transient.rejected_{reason}")
        h_try *= options.shrink
        if h_try < options.min_step:
            if tel is not None:
                tel.count("transient.step_underflows")
            raise ConvergenceError(
                f"transient step underflow at t = {t:.3e} s",
                forensics={
                    "time_s": t,
                    "step_s": h_try,
                    "last_rejection": reason,
                    "last_dv": dv,
                },
            ) from None


def transient_gen(
    member: SolveMember,
    circuit: Circuit,
    t_stop: float,
    initial_conditions: dict[str, float] | None = None,
    options: TransientOptions | None = None,
    operating_point_guess: dict[str, float] | None = None,
):
    """Generator form of :func:`simulate_transient`; binds ``member``."""
    if t_stop <= 0.0:
        raise ValueError("t_stop must be positive")
    options = options or TransientOptions()
    tel = telemetry.active()

    # ``timed`` is the telemetry session while the member's span is open
    # (see SolveMember.span), so the wall timer follows the span.
    with member.span("transient") as timed:
        wall_start = time.perf_counter() if timed is not None else 0.0

        guess = dict(operating_point_guess or {})
        guess.update(initial_conditions or {})
        # Dense class through the module global so monkeypatched assemblers
        # (ReferenceMnaSystem in benchmarks) keep flowing through the factory.
        system = make_system(
            circuit,
            matrix_format=options.solver.matrix_format,
            sparse_threshold=options.solver.sparse_threshold,
            dense_cls=MnaSystem,
        )
        op = yield from solve_dc_gen(
            member,
            circuit,
            initial_guess=guess or None,
            clamp_nodes=initial_conditions,
            options=options.solver,
            system=system,
        )
        x = op.x.copy()
        charges = system.capacitor_charges(x)
        currents = np.zeros_like(charges)  # caps carry no current at DC

        breakpoints = [b for b in circuit.breakpoints() if 0.0 < b < t_stop]
        breakpoints.append(t_stop)

        times = [0.0]
        states = [x.copy()]

        t = 0.0
        h = options.initial_step
        x_prev: np.ndarray | None = None
        h_prev = 0.0
        while t < t_stop - 1e-21:
            # Never step across a breakpoint; land on it exactly.
            k = bisect.bisect_right(breakpoints, t)
            next_break = breakpoints[k] if k < len(breakpoints) else t_stop
            h_cap = min(h, options.max_step, next_break - t)

            x_new, iterations, state, h_try = yield from attempt_step_gen(
                member, x, x_prev, h_prev, t, h_cap, charges, currents, options, tel
            )

            t += h_try
            # Snap accumulated-roundoff landings onto the breakpoint.  A
            # fixed step that divides the breakpoint time exactly in real
            # arithmetic can still leave ``t`` a few ulps short of it in
            # floats; the leftover ~ulp sliver step would get a companion
            # conductance C/h so large that Newton can never satisfy the
            # absolute residual tolerance, and the run dies in a step
            # underflow.  The slack is a few ulps — far below any real
            # waveform feature spacing.
            if t != next_break and abs(next_break - t) <= 64.0 * _EPS * next_break:
                t = next_break
            x_prev, h_prev = x, h_try
            x = x_new
            currents = system.capacitor_currents(x, state)
            charges = system.capacitor_charges(x)
            times.append(t)
            states.append(x.copy())

            ver = verify.active()
            if ver is not None:
                verify_audits.audit_transient_step(
                    ver, system, x_prev, x, state, charges, currents
                )

            if tel is not None:
                tel.count("transient.steps_accepted")
                tel.observe("transient.step_seconds", h_try)
                if t >= next_break - 1e-21:
                    tel.count("transient.breakpoint_landings")

            # Controller update.  ``h`` is the step the controller *wants*;
            # ``h_cap`` is what the breakpoint/max_step clamp allowed this
            # attempt, and ``h_try`` what was actually accepted.  Only a
            # shrink during the attempt (Newton failure, dv limit) pulls
            # the controller down — a step that was merely clamped to land
            # on a breakpoint must not reset the working step to the
            # sliver, which previously forced a 1.4x/step regrowth climb
            # after every late breakpoint.
            if h_try < h_cap:
                h = h_try
            elif iterations <= options.easy_iterations:
                h = min(max(h, h_try) * options.growth, options.max_step)

        if tel is not None:
            tel.count("transient.simulations")
            if timed is not None:
                timed.add_time("transient.wall_s", time.perf_counter() - wall_start)
            tel.event(
                "transient.complete",
                level="debug",
                t_stop=t_stop,
                points=len(times),
            )
    return TransientResult(circuit, np.array(times), np.array(states))


def simulate_transient(
    circuit: Circuit,
    t_stop: float,
    initial_conditions: dict[str, float] | None = None,
    options: TransientOptions | None = None,
    operating_point_guess: dict[str, float] | None = None,
) -> TransientResult:
    """Integrate the circuit from 0 to ``t_stop``.

    ``initial_conditions`` pin the named nodes for the t = 0 operating
    point (bistable-state selection) and are released afterwards.

    ``operating_point_guess`` seeds the t = 0 DC solve with node
    voltages from a previous converged run of the same cell — bisection
    loops (WL_crit) pass the last solution so repeated simulations skip
    the homotopy-from-zero ramp.  A bad guess only costs the solver its
    warm-start tier; the cold-start and stepping fallbacks still run.
    A guess naming a node this circuit does not have (a seed carried
    over from a different circuit) raises :class:`ValueError`.
    """
    member = SolveMember()
    return run_alone(
        member,
        transient_gen(
            member, circuit, t_stop, initial_conditions, options,
            operating_point_guess,
        ),
    )
