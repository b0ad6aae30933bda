"""Dynamic cell-stability metrics: DRNM and WL_crit.

Following the paper's Section 3, stability is measured *dynamically*:

* **DRNM** (dynamic read noise margin, after Dehaene et al.): the
  minimum voltage difference between q and qb during a read access.  A
  non-positive DRNM means the read flipped the cell.
* **WL_crit** (after Wang et al.): the minimum wordline pulse width
  that flips the cell during a write.  An unwritable cell has infinite
  WL_crit.

Both capture the dynamics that static margins miss — a slow cell can
survive a disturb that would kill it at DC, and a write can fail even
when the static margin says otherwise.
"""

from __future__ import annotations

import math

from repro.circuit.dcop import ConvergenceError, SolveMember, run_alone
from repro.circuit.transient import TransientOptions, simulate_transient, transient_gen
from repro.sram.assist import Assist
from repro.sram.testbench import Testbench
from repro.telemetry import core as telemetry

__all__ = [
    "dynamic_read_noise_margin",
    "write_flips_cell",
    "critical_wordline_pulse",
    "WlCritSearch",
]

SETTLE_TIME = 1.0e-9
"""Post-access settling time before declaring the final state."""

FLIP_MARGIN = 0.0
"""v(one) - v(zero) below this at the end of settling counts as flipped."""


def dynamic_read_noise_margin(
    bench: Testbench, options: TransientOptions | None = None
) -> float:
    """DRNM in volts for a read testbench.

    Simulates through the access window plus settling and returns the
    minimum separation of the storage nodes inside the window.
    """
    if bench.read_bitline is None:
        raise ValueError("testbench is not a read operation")
    result = simulate_transient(
        bench.circuit,
        bench.settle_stop(SETTLE_TIME),
        initial_conditions=bench.initial_conditions,
        options=options,
    )
    return result.min_difference(
        bench.one_node, bench.zero_node, bench.window.t_on, bench.window.t_off
    )


def write_flips_cell(
    bench: Testbench, options: TransientOptions | None = None
) -> bool:
    """Whether a write testbench ends with the cell state flipped."""
    result = simulate_transient(
        bench.circuit,
        bench.settle_stop(SETTLE_TIME),
        initial_conditions=bench.initial_conditions,
        options=options,
    )
    final = result.final(bench.one_node) - result.final(bench.zero_node)
    return final < FLIP_MARGIN


class WlCritSearch:
    """Bisection for the critical wordline pulse width.

    ``upper_bound`` is the widest pulse tried; if even that pulse fails
    to flip the cell the write is declared impossible and the search
    returns ``math.inf`` — the paper's "infinite WL_crit".

    Every bisection iteration simulates the same cell with only the
    pulse width changed, so the t = 0 operating point is identical;
    the search caches the first converged DC solution (node voltages)
    and seeds every subsequent simulation with it, skipping the
    repeated homotopy-from-zero DC solve.

    The bisection is written once, as the generator :meth:`search_gen`;
    :meth:`search` runs it alone, and the stacked Monte-Carlo batch runs
    many searches at once.
    """

    def __init__(
        self,
        lower_bound: float = 1.0e-12,
        upper_bound: float = 4.0e-9,
        relative_tolerance: float = 0.02,
        options: TransientOptions | None = None,
    ):
        if not 0.0 < lower_bound < upper_bound:
            raise ValueError("need 0 < lower_bound < upper_bound")
        if relative_tolerance <= 0.0:
            raise ValueError("relative tolerance must be positive")
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.relative_tolerance = relative_tolerance
        self.options = options
        self._op_guess: dict[str, float] | None = None

    def _flips(self, member: SolveMember, bench_factory, width: float):
        """Generator probe: whether a write pulse of ``width`` flips the cell."""
        bench = bench_factory(width)
        try:
            result = yield from transient_gen(
                member,
                bench.circuit,
                bench.settle_stop(SETTLE_TIME),
                initial_conditions=bench.initial_conditions,
                options=self.options,
                operating_point_guess=self._op_guess,
            )
        except ConvergenceError:
            # A non-converging corner case is treated as "did not
            # flip": the bisection then errs toward a *larger* WL_crit,
            # the conservative direction for a reliability metric.  The
            # counter keeps such probes visible.
            tel = telemetry.active()
            if tel is not None:
                tel.count("wlcrit.nonconverged")
            return False
        # states[0] is the converged t = 0 operating point; node_names
        # and state columns share the same index ordering.
        self._op_guess = dict(
            zip(bench.circuit.node_names, (float(v) for v in result.states[0]))
        )
        final = result.final(bench.one_node) - result.final(bench.zero_node)
        return final < FLIP_MARGIN

    def search_gen(self, member: SolveMember, bench_factory):
        """Generator form of :meth:`search`, solving through ``member``."""
        self._op_guess = None  # a new cell/assist invalidates the cached OP
        if not (yield from self._flips(member, bench_factory, self.upper_bound)):
            return math.inf
        if (yield from self._flips(member, bench_factory, self.lower_bound)):
            return self.lower_bound

        lo, hi = self.lower_bound, self.upper_bound
        while hi - lo > self.relative_tolerance * hi:
            mid = math.sqrt(lo * hi)  # geometric: widths span 3+ decades
            if (yield from self._flips(member, bench_factory, mid)):
                hi = mid
            else:
                lo = mid
        return hi

    def search(self, bench_factory) -> float:
        """``bench_factory(pulse_width) -> Testbench`` for this cell/assist."""
        member = SolveMember()
        return run_alone(member, self.search_gen(member, bench_factory))


def critical_wordline_pulse(
    cell,
    vdd: float,
    assist: Assist | None = None,
    search: WlCritSearch | None = None,
) -> float:
    """WL_crit in seconds for a cell at the given supply (inf if unwritable)."""
    search = search or WlCritSearch()
    factory = getattr(cell, "write_bench_factory", None)
    if factory is not None:
        # One built netlist for the whole bisection (waveform swaps per
        # width) instead of a rebuild per probe — value-identical.
        return search.search(factory(vdd, assist=assist))
    return search.search(lambda width: cell.write_testbench(vdd, width, assist=assist))
