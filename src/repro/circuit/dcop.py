"""DC operating-point solver: damped Newton with homotopy fallbacks.

TFET circuits are numerically nasty for a DC solver — currents span
13+ decades and the cells under study are deliberately bistable — so
the solver runs the standard SPICE escalation: plain Newton-Raphson
(with a per-iteration voltage-step limit), then gmin stepping, then
source stepping.  Callers seed the bistable state via ``initial_guess``
and/or :class:`VoltageClamp` entries.

The Newton iteration is a *modified* Newton: the LU factorization of
the Jacobian is kept and re-used across iterations
(``scipy.linalg.lu_factor``/``lu_solve`` when scipy is present, a
pure-numpy fallback otherwise), and the Jacobian is re-stamped only
when the iteration stalls — a backtracked line search, a weak residual
reduction, or the factorization aging out (``SolverOptions``'s
``jacobian_reuse``/``max_jacobian_age``/``reuse_descent_factor``).
Line searches evaluate the residual only (no Jacobian stores), so a
backtrack costs a fraction of a full assembly.

The control flow is written once, as generators (:func:`newton_gen`,
:func:`solve_dc_gen`) that yield each assembly request; the public
functions run them through the scalar driver :func:`run_alone`, and
:mod:`repro.circuit.batch` runs many at once with stacked assembly.

Both solvers are instrumented against :mod:`repro.telemetry`: when a
session is active, each ``newton_solve`` records its iteration count,
line-search backtracks, trust-region shrinks, and Jacobian
stamp/reuse split (``newton.jacobian_stamps`` vs
``newton.jacobian_reuses``), and ``solve_dc`` records which fallback
tier finally converged.  With telemetry off the cost is one guard
check per solve.  On failure, a forensic snapshot (worst-residual node
names, last dV, fallback tier reached) rides on the
:class:`ConvergenceError` so the exception alone is diagnosable.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.circuit.mna import MnaSystem, TransientState, VoltageClamp
from repro.circuit.netlist import Circuit
from repro.circuit.results import OperatingPoint
from repro.circuit.sparse import DEFAULT_SPARSE_THRESHOLD, SparseFactorization, make_system
from repro.telemetry import core as telemetry
from repro.verify import audits as verify_audits
from repro.verify import core as verify

try:  # pragma: no cover - exercised via either branch in CI images
    from scipy.linalg import get_lapack_funcs

    # Raw LAPACK getrf/getrs: the scipy lu_factor/lu_solve wrappers add
    # ~100 us of validation per call, which is comparable to the
    # factorization itself at SRAM-cell matrix sizes (~20x20).
    _getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), (np.empty((1, 1)),))

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _HAVE_SCIPY = False

__all__ = [
    "SolverOptions",
    "ConvergenceError",
    "SolveMember",
    "newton_gen",
    "newton_solve",
    "resume",
    "run_alone",
    "solve_dc",
    "solve_dc_gen",
]


def _format_forensic(value) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    if isinstance(value, (list, tuple)):
        return "|".join(_format_forensic(v) for v in value)
    return str(value)


class ConvergenceError(RuntimeError):
    """The nonlinear solver failed to converge.

    ``forensics`` carries a structured snapshot of the failure (worst
    residual nodes, last voltage step, fallback tier reached, …); it is
    also rendered into the message so a bare traceback is enough to
    diagnose the failure.
    """

    def __init__(self, message: str, forensics: dict | None = None):
        self.forensics = dict(forensics or {})
        if self.forensics:
            detail = ", ".join(
                f"{key}={_format_forensic(value)}"
                for key, value in self.forensics.items()
            )
            message = f"{message} [{detail}]"
        super().__init__(message)


@dataclass(frozen=True)
class SolverOptions:
    """Newton-Raphson controls."""

    max_iterations: int = 80
    voltage_tolerance: float = 1e-7
    residual_tolerance: float = 1e-10
    step_limit: float = 0.4
    """Maximum node-voltage change per Newton iteration (volts)."""

    gmin: float = 1e-12
    """Permanent node-to-ground conductance floor."""

    line_search_backtracks: int = 6
    """Maximum residual-norm backtracking halvings per iteration."""

    jacobian_reuse: bool = True
    """Re-use the LU factorization across iterations (modified Newton)."""

    max_jacobian_age: int = 6
    """Iterations a factorization may serve before a forced re-stamp."""

    reuse_descent_factor: float = 0.5
    """Re-stamp when ``||f_new|| > factor * ||f_old||`` on a reused
    factorization — a stale direction that stops making fast progress
    is refreshed rather than ridden into a stall."""

    matrix_format: str = "auto"
    """MNA assembly backend: ``"auto"`` (sparse CSC once the system
    reaches ``sparse_threshold`` unknowns, dense below), ``"dense"``,
    or ``"sparse"``.  See :func:`repro.circuit.sparse.make_system`."""

    sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD
    """System size (nodes + source branches) at which ``"auto"``
    switches to sparse assembly."""


class _Factorization:
    """LU of one stamped Jacobian (scipy when present, numpy fallback).

    The scipy path factorizes once and back-substitutes per solve; the
    numpy fallback stores a copy of the matrix and runs
    ``np.linalg.solve`` per request — identical semantics, no
    factorization caching (numpy exposes none), so reuse still saves
    the re-stamp even without scipy.
    """

    __slots__ = ("_lu", "_piv", "_matrix")

    def __init__(self, jac: np.ndarray):
        if _HAVE_SCIPY:
            lu, piv, info = _getrf(jac)
            # getrf signals exact singularity via info > 0 (zero U
            # diagonal) instead of raising; a NaN/Inf Jacobian passes
            # through LAPACK silently.  Normalize both to the
            # LinAlgError contract np.linalg.solve provides.
            if info != 0 or not np.all(np.isfinite(lu)):
                raise np.linalg.LinAlgError("singular matrix in LU factorization")
            self._lu, self._piv, self._matrix = lu, piv, None
        else:
            self._lu = self._piv = None
            self._matrix = jac.copy()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._matrix is None:
            x, _ = _getrs(self._lu, self._piv, rhs)
            return x
        return np.linalg.solve(self._matrix, rhs)


def _factorize(jac):
    """Factorize a stamped Jacobian — dense LU or sparse splu by type."""
    if isinstance(jac, np.ndarray):
        return _Factorization(jac)
    return SparseFactorization(jac)


def _worst_residual_nodes(
    system: MnaSystem, f: np.ndarray, top: int = 3
) -> list[str]:
    """The ``top`` node names with the largest KCL residual, annotated."""
    names = system.circuit.node_names
    n = min(system.n_nodes, len(names))
    if n == 0:
        return []
    magnitudes = np.abs(f[:n])
    order = np.argsort(magnitudes)[::-1][:top]
    return [f"{names[int(i)]}:{magnitudes[int(i)]:.2e}" for i in order]


class SolveMember:
    """One solve's binding to the assembler its requests are answered from.

    The solver control flow is written once, as generators
    (:func:`newton_gen`, :func:`solve_dc_gen`, and in
    :mod:`repro.circuit.transient` the step and integration loops) that
    *yield* each assembly request ``(x, t, gmin, transient, clamps,
    source_scale, want_jac)`` and receive ``(f, jac)``.  A generator
    sets ``member.system`` to the assembler it is about to solve with;
    the driver answers from there.  Two drivers exist: :func:`run_alone`
    runs one generator on its own assembler (every public scalar entry
    point), and :func:`repro.circuit.batch.run_generators` advances many
    at once with stacked assembly.
    """

    __slots__ = ("system",)

    def __init__(self, system: MnaSystem | None = None):
        self.system = system

    def span(self, name: str):
        """A telemetry span around one section of this solve.

        Entered inside the generators, so a scalar transient records
        ``transient`` ⊃ ``dcop``.  The context value is the telemetry
        session while a span is open, ``None`` otherwise.
        """
        tel = telemetry.active()
        return _NO_SPAN if tel is None else tel.span(name)


_NO_SPAN = nullcontext()


def resume(gen, system: MnaSystem, request: tuple):
    """Answer one assembly request from ``system`` and resume ``gen``.

    A residual-only request is answered by ``assemble_residual``, a
    Jacobian request by ``assemble(..., copy=False)``: the reusable
    buffer is valid until the member's next request.  An assembly error
    is thrown into the generator at the request, so it unwinds the
    solver's frames (and closes their spans) as a direct call would.
    Returns the generator's next request.
    """
    x, t, gmin, transient, clamps, source_scale, want_jac = request
    try:
        if want_jac:
            answer = system.assemble(
                x, t, gmin=gmin, transient=transient, clamps=clamps,
                source_scale=source_scale, copy=False,
            )
        else:
            answer = (
                system.assemble_residual(
                    x, t, gmin=gmin, transient=transient, clamps=clamps,
                    source_scale=source_scale,
                ),
                None,
            )
    except Exception as exc:
        return gen.throw(exc)
    return gen.send(answer)


def run_alone(member: SolveMember, gen):
    """The scalar driver: run one solver generator to its return value."""
    try:
        request = gen.send(None)
        while True:
            request = resume(gen, member.system, request)
    except StopIteration as stop:
        return stop.value


def newton_gen(
    member: SolveMember,
    x0: np.ndarray,
    t: float,
    options: SolverOptions,
    transient: TransientState | None = None,
    clamps: tuple[VoltageClamp, ...] = (),
    extra_gmin: float = 0.0,
    source_scale: float = 1.0,
):
    """Generator form of :func:`newton_solve` on ``member.system``."""
    if options.max_iterations < 1:
        raise ValueError(
            f"SolverOptions.max_iterations must be >= 1, got {options.max_iterations}"
        )
    tel = telemetry.active()
    wall_start = time.perf_counter() if tel is not None else 0.0
    system = member.system

    x = x0.copy()
    n = system.n_nodes
    gmin = options.gmin + extra_gmin

    f, _ = yield (x, t, gmin, transient, clamps, source_scale, False)
    factor = None
    age = 0
    stamps = 0
    reuses = 0
    residual_ok_streak = 0
    trust = options.step_limit
    backtracks = 0
    trust_shrinks = 0
    step = float("nan")
    iteration = 0
    while iteration < options.max_iterations:
        iteration += 1

        refresh = (
            factor is None
            or not options.jacobian_reuse
            or age >= options.max_jacobian_age
        )
        if refresh:
            _, jac = yield (x, t, gmin, transient, clamps, source_scale, True)
            try:
                factor = _factorize(jac)
            except np.linalg.LinAlgError as exc:
                if tel is not None:
                    tel.count("newton.singular_jacobians")
                    _record_newton(tel, wall_start, iteration, backtracks,
                                   trust_shrinks, stamps, reuses, converged=False)
                raise ConvergenceError(
                    f"singular Jacobian at iteration {iteration}",
                    forensics={"worst_residual_nodes": _worst_residual_nodes(system, f)},
                ) from exc
            age = 0
            stamps += 1
        else:
            age += 1
            reuses += 1

        try:
            delta = factor.solve(-f)
        except np.linalg.LinAlgError as exc:
            if tel is not None:
                tel.count("newton.singular_jacobians")
                _record_newton(tel, wall_start, iteration, backtracks,
                               trust_shrinks, stamps, reuses, converged=False)
            raise ConvergenceError(
                f"singular Jacobian at iteration {iteration}",
                forensics={"worst_residual_nodes": _worst_residual_nodes(system, f)},
            ) from exc
        if not np.all(np.isfinite(delta)):
            if age > 0:
                # The stale factorization produced garbage; retry this
                # iteration with a fresh stamp before giving up.
                factor = None
                iteration -= 1
                continue
            if tel is not None:
                _record_newton(tel, wall_start, iteration, backtracks,
                               trust_shrinks, stamps, reuses, converged=False)
            raise ConvergenceError(
                f"non-finite Newton step at iteration {iteration}",
                forensics={"worst_residual_nodes": _worst_residual_nodes(system, f)},
            )

        max_dv = float(np.max(np.abs(delta[:n]))) if n else 0.0
        if max_dv > trust:
            delta = delta * (trust / max_dv)
            max_dv = trust

        norm_old = float(np.linalg.norm(f))
        scale = 1.0
        descended = False
        for _ in range(options.line_search_backtracks + 1):
            x_try = x + scale * delta
            f_try, _ = yield (x_try, t, gmin, transient, clamps, source_scale, False)
            if float(np.linalg.norm(f_try)) <= norm_old or norm_old == 0.0:
                descended = True
                break
            scale *= 0.5
            backtracks += 1
        if not descended and age > 0:
            # A stale direction that cannot descend at any scale is not
            # a Newton failure — discard the step, re-stamp at the
            # current point, and retry the iteration (f is untouched:
            # every answer carries a fresh residual array).
            factor = None
            iteration -= 1
            continue
        x, f = x_try, f_try
        step = scale * max_dv

        # Trust-region adaptation: a backtracked step means the Newton
        # direction overshoots (flat, curved residual valley near a
        # metastable point) — shrink the cap; a clean full step restores it.
        if scale < 1.0:
            trust = max(0.25 * trust, 1e-7)
            trust_shrinks += 1
            factor = None  # curvature moved under us; re-stamp next iteration
        else:
            trust = min(2.0 * trust, options.step_limit)
            norm_new = float(np.linalg.norm(f))
            if age > 0 and norm_new > options.reuse_descent_factor * norm_old:
                factor = None  # stale direction stopped making fast progress

        max_f = float(np.max(np.abs(f)))
        if max_f < options.residual_tolerance:
            # Convergence is only judged on *fresh*-factorization
            # iterations: a stale LU underestimates the true Newton
            # step, so a reused-Jacobian iterate that looks settled can
            # still carry microvolts of error.  A stale iteration in
            # the endgame re-stamps and confirms on the next pass —
            # acceptance accuracy is identical to full Newton.
            if age == 0:
                residual_ok_streak += 1
                # Near a metastable/bistable boundary the Jacobian is
                # close to singular: the step never settles although
                # KCL holds to the requested current accuracy at every
                # iterate.  Accept once the residual has stayed
                # converged for a few (fresh) steps.
                if step < options.voltage_tolerance or residual_ok_streak >= 3:
                    ver = verify.active()
                    if ver is not None:
                        verify_audits.audit_newton_solution(
                            ver, system, x, t, gmin=gmin,
                            transient=transient, clamps=clamps,
                            source_scale=source_scale,
                            residual_tolerance=options.residual_tolerance,
                        )
                    if tel is not None:
                        _record_newton(tel, wall_start, iteration, backtracks,
                                       trust_shrinks, stamps, reuses,
                                       converged=True)
                    return x, iteration
            else:
                factor = None
        else:
            residual_ok_streak = 0

    if tel is not None:
        _record_newton(tel, wall_start, options.max_iterations, backtracks,
                       trust_shrinks, stamps, reuses, converged=False)
    raise ConvergenceError(
        f"Newton did not converge in {options.max_iterations} iterations",
        forensics={
            "last_dv": step,
            "max_residual": float(np.max(np.abs(f))),
            "worst_residual_nodes": _worst_residual_nodes(system, f),
            "extra_gmin": extra_gmin,
            "source_scale": source_scale,
        },
    )


def newton_solve(
    system: MnaSystem,
    x0: np.ndarray,
    t: float,
    options: SolverOptions,
    transient: TransientState | None = None,
    clamps: tuple[VoltageClamp, ...] = (),
    extra_gmin: float = 0.0,
    source_scale: float = 1.0,
) -> tuple[np.ndarray, int]:
    """Damped modified Newton with backtracking; returns (x, iterations).

    Device characteristics with locally flat regions (e.g. the dip where
    the TFET's gated reverse component hands over to the p-i-n diode)
    produce huge raw Newton steps; a residual-norm line search keeps the
    iteration descending instead of oscillating across the flat spot.

    The Jacobian LU is re-used across iterations and re-stamped only on
    stall (see :class:`SolverOptions`); a step taken from a stale
    factorization that fails to descend is discarded and retried with a
    fresh stamp before the iteration counts as failed.
    """
    member = SolveMember(system)
    return run_alone(
        member,
        newton_gen(
            member, x0, t, options, transient, clamps, extra_gmin, source_scale
        ),
    )


def _record_newton(
    tel, wall_start: float, iterations: int, backtracks: int,
    trust_shrinks: int, stamps: int, reuses: int, converged: bool,
) -> None:
    tel.count("newton.solves")
    tel.count("newton.iterations", iterations)
    tel.count("newton.backtracks", backtracks)
    tel.count("newton.trust_shrinks", trust_shrinks)
    tel.count("newton.jacobian_stamps", stamps)
    tel.count("newton.jacobian_reuses", reuses)
    tel.observe("newton.iterations_per_solve", iterations)
    tel.add_time("newton.wall_s", time.perf_counter() - wall_start)
    if not converged:
        tel.count("newton.failures")
        tel.event("newton.failure", level="debug", iterations=iterations,
                  backtracks=backtracks)


def _initial_vector(system: MnaSystem, initial_guess: dict[str, float] | None) -> np.ndarray:
    x0 = np.zeros(system.size)
    if initial_guess:
        for name, value in initial_guess.items():
            try:
                idx = system.circuit.index_of(name)
            except KeyError:
                raise ValueError(
                    f"initial guess names node {name!r}, which does not exist "
                    "in this circuit — was it carried over from a different "
                    "circuit?"
                ) from None
            if idx >= 0:
                x0[idx] = value
    return x0


def _seed_vector(system: MnaSystem, x0) -> np.ndarray:
    """Validate and normalize a warm-start seed.

    Accepts a full solution vector or an :class:`OperatingPoint`.  An
    operating point carries its circuit, so it is fingerprint-checked
    (node names and source count, not just vector size) against the
    system being solved: two same-sized circuits with different nets
    would otherwise silently bias the solve toward a foreign solution.
    Same-fingerprint *instances* (e.g. Monte-Carlo samples of one cell)
    remain valid seeds — that is the corners/variation reuse idiom.
    """
    if isinstance(x0, OperatingPoint):
        seed_circuit = x0.circuit
        target = system.circuit
        if seed_circuit is not target and (
            seed_circuit.node_names != target.node_names
            or len(seed_circuit.voltage_sources) != len(target.voltage_sources)
        ):
            raise ValueError(
                "warm-start operating point comes from a different circuit "
                f"(seed nodes {seed_circuit.node_names}, "
                f"target nodes {target.node_names})"
            )
        x0 = x0.x
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.shape != (system.size,):
        raise ValueError(
            f"x0 has shape {x0.shape}, expected ({system.size},)"
        )
    return x0


def _tier_converged(tel, tier: str, t: float) -> None:
    if tel is not None:
        tel.count(f"dcop.converged.{tier}")
        tel.event("dcop.converged", level="debug", tier=tier, sim_time=t)


def solve_dc_gen(
    member: SolveMember,
    circuit: Circuit,
    initial_guess: dict[str, float] | None = None,
    clamp_nodes: dict[str, float] | None = None,
    options: SolverOptions | None = None,
    t: float = 0.0,
    system: MnaSystem | None = None,
    x0: np.ndarray | OperatingPoint | None = None,
):
    """Generator form of :func:`solve_dc`; binds ``member`` to the system."""
    options = options or SolverOptions()
    if system is None:
        # The dense class is passed through the module global so tests
        # and benchmarks that monkeypatch ``dcop.MnaSystem`` (e.g. to
        # ReferenceMnaSystem) keep controlling the assembler.
        system = make_system(
            circuit,
            matrix_format=options.matrix_format,
            sparse_threshold=options.sparse_threshold,
            dense_cls=MnaSystem,
        )
    member.system = system
    clamps = tuple(
        VoltageClamp(circuit.index_of(name), target)
        for name, target in (clamp_nodes or {}).items()
        if circuit.index_of(name) >= 0
    )
    if x0 is None:
        x0 = _initial_vector(system, initial_guess)
    else:
        x0 = _seed_vector(system, x0)

    tel = telemetry.active()
    if tel is not None:
        tel.count("dcop.solves")
    with member.span("dcop"):
        warm = bool(np.any(x0 != 0.0))
        first_tier = "warm_start" if warm else "cold_start"
        try:
            x, _ = yield from newton_gen(member, x0, t, options, clamps=clamps)
            _tier_converged(tel, first_tier, t)
            return OperatingPoint(circuit, x, options.gmin)
        except ConvergenceError:
            pass

        # A bad warm start can trap the iteration in a local residual
        # minimum of the TFET reverse branch (node driven above a rail);
        # the all-zeros start approaches every junction from the forward
        # side and avoids the pocket.
        if warm:
            try:
                x, _ = yield from newton_gen(
                    member, np.zeros(system.size), t, options, clamps=clamps
                )
                _tier_converged(tel, "cold_start", t)
                return OperatingPoint(circuit, x, options.gmin)
            except ConvergenceError:
                pass

        # gmin stepping: relax with a strong shunt, then tighten it away.
        x = x0.copy()
        try:
            for extra in np.geomspace(1e-2, 1e-12, 11):
                x, _ = yield from newton_gen(
                    member, x, t, options, clamps=clamps, extra_gmin=extra
                )
            x, _ = yield from newton_gen(member, x, t, options, clamps=clamps)
            _tier_converged(tel, "gmin_stepping", t)
            return OperatingPoint(circuit, x, options.gmin)
        except ConvergenceError:
            pass

        # Source stepping: ramp all independent sources from zero.
        x = np.zeros(system.size)
        try:
            for scale in np.linspace(0.1, 1.0, 10):
                x, _ = yield from newton_gen(
                    member, x, t, options, clamps=clamps, source_scale=scale
                )
        except ConvergenceError as exc:
            if tel is not None:
                tel.count("dcop.failures")
                tel.event("dcop.failure", level="error", sim_time=t, **{
                    k: v for k, v in exc.forensics.items()
                    if k != "worst_residual_nodes"
                })
            raise ConvergenceError(
                "DC operating point failed after every fallback tier",
                forensics={"fallback_tier": "source_stepping", **exc.forensics},
            ) from exc
        _tier_converged(tel, "source_stepping", t)
        return OperatingPoint(circuit, x, options.gmin)


def solve_dc(
    circuit: Circuit,
    initial_guess: dict[str, float] | None = None,
    clamp_nodes: dict[str, float] | None = None,
    options: SolverOptions | None = None,
    t: float = 0.0,
    system: MnaSystem | None = None,
    x0: np.ndarray | OperatingPoint | None = None,
) -> OperatingPoint:
    """DC operating point with gmin- and source-stepping fallbacks.

    ``clamp_nodes`` adds stiff Norton clamps pinning nodes at the given
    voltages — the supported way to select one state of a bistable
    cell.  The clamps stay active in the returned solution, so release
    them (or hand the solution to the transient integrator, which does)
    before interpreting branch currents that the clamps might carry.

    Sweep and bisection loops that solve the same circuit repeatedly
    pass ``system`` (a prebuilt :class:`MnaSystem`, skipping stamp
    recompilation) and/or ``x0`` (a full previous solution — either a
    raw vector including branch currents or, preferably, the previous
    :class:`OperatingPoint`, which is fingerprint-validated against
    this circuit's node names — overriding ``initial_guess``) to
    warm-start each point from the last one.  A seed from a circuit
    with a different net list raises :class:`ValueError` rather than
    silently biasing the solve.

    Escalation tiers (telemetry counters ``dcop.converged.<tier>`` tell
    which one succeeded): ``warm_start`` (the caller's guess),
    ``cold_start`` (all-zeros restart), ``gmin_stepping``,
    ``source_stepping``.
    """
    member = SolveMember()
    return run_alone(
        member,
        solve_dc_gen(
            member, circuit, initial_guess, clamp_nodes, options, t, system, x0
        ),
    )
