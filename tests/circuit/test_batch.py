"""The stacked driver must reproduce a solve run alone, bit for bit.

The solver control flow exists once, as generators
(``solve_dc_gen`` / ``transient_gen``); ``solve_dc`` and
``simulate_transient`` run one of them through the scalar driver, and
:func:`run_generators` runs K of them with stacked assembly.  The two
drivers must produce the same waveforms *exactly* (``tobytes``
equality), not merely to tolerance — including above the sparse
threshold, where members are served singly on their own CSC
assembler.  Error isolation and the shared-topology precondition are
pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.batch import BatchMember, run_generators
from repro.circuit.dcop import solve_dc, solve_dc_gen
from repro.circuit.netlist import Circuit
from repro.circuit.sparse import DEFAULT_SPARSE_THRESHOLD, HAVE_SPARSE
from repro.circuit.transient import simulate_transient, transient_gen
from repro.circuit.waveforms import Pulse
from repro.devices.charges import SmoothStepCharge
from repro.devices.library import tfet_device
from repro.telemetry import core as telemetry

T_STOP = 2e-9


def _inverter(width_n: float, cload: float) -> Circuit:
    """A loaded TFET inverter — small, nonlinear, fast to integrate."""
    c = Circuit("inv")
    model = tfet_device()
    c.add_voltage_source("vdd", "vdd", "0", 0.8)
    c.add_voltage_source(
        "vin", "in", "0", Pulse(0.0, 0.8, t_start=2e-10, width=1e-9, t_edge=5e-11)
    )
    c.add_transistor("mp", "out", "in", "vdd", model, polarity="p", width_um=0.2)
    c.add_transistor("mn", "out", "in", "0", model, polarity="n", width_um=width_n)
    c.add_capacitor("out", "0", SmoothStepCharge(1e-16, 5e-16, 0.4, 0.08))
    c.add_capacitor("out", "0", cload)
    c.add_resistor("out", "0", 1e8)
    return c


VARIANTS = [(0.1, 1e-16), (0.14, 2e-16), (0.2, 5e-17), (0.08, 3e-16)]


def test_batched_transient_bit_identical_to_scalar():
    scalar = [simulate_transient(_inverter(*v), T_STOP) for v in VARIANTS]

    pairs = []
    for k, v in enumerate(VARIANTS):
        member = BatchMember(label=f"v{k}")
        pairs.append((member, transient_gen(member, _inverter(*v), T_STOP)))
    with telemetry.enabled() as tel:
        outcomes = run_generators(pairs)
        counters = dict(tel.counters)

    assert [o.status for o in outcomes] == ["ok"] * len(VARIANTS)
    for ref, outcome in zip(scalar, outcomes):
        result = outcome.value
        assert result.times.tobytes() == ref.times.tobytes()
        assert result.states.tobytes() == ref.states.tobytes()
    assert counters["batch.runs"] == 1
    assert counters["batch.members"] == len(VARIANTS)
    assert counters["batch.ticks"] >= 1
    # One stacked assembly per member per tick, minus early finishers.
    assert counters["batch.member_assemblies"] <= (
        counters["batch.ticks"] * len(VARIANTS)
    )


def test_batched_dc_bit_identical_to_scalar():
    pairs = []
    for k, v in enumerate(VARIANTS):
        member = BatchMember(label=f"v{k}")
        pairs.append((member, solve_dc_gen(member, _inverter(*v))))
    outcomes = run_generators(pairs)
    for v, outcome in zip(VARIANTS, outcomes):
        assert outcome.status == "ok"
        ref = solve_dc(_inverter(*v))
        assert outcome.value.x.tobytes() == ref.x.tobytes()


def test_member_error_is_isolated():
    """One failing member must not disturb the survivors' results."""

    def exploding():
        raise RuntimeError("boom")
        yield  # pragma: no cover - makes this a generator

    good = BatchMember(label="good")
    bad = BatchMember(label="bad")
    pairs = [
        (good, transient_gen(good, _inverter(*VARIANTS[0]), T_STOP)),
        (bad, exploding()),
    ]
    outcomes = run_generators(pairs)
    assert outcomes[0].status == "ok"
    assert outcomes[1].status == "error"
    assert isinstance(outcomes[1].error, RuntimeError)

    ref = simulate_transient(_inverter(*VARIANTS[0]), T_STOP)
    assert outcomes[0].value.states.tobytes() == ref.states.tobytes()


def test_generator_returning_before_first_yield_is_ok():
    def immediate():
        return 42
        yield  # pragma: no cover - makes this a generator

    outcomes = run_generators([(BatchMember(label="fast"), immediate())])
    assert outcomes[0].status == "ok"
    assert outcomes[0].value == 42


def test_mixed_topology_members_rejected():
    small = _inverter(*VARIANTS[0])
    big = _inverter(*VARIANTS[1])
    big.add_resistor("out", "extra", 1e6)
    big.add_capacitor("extra", "0", 1e-16)

    a = BatchMember(label="a")
    b = BatchMember(label="b")
    pairs = [
        (a, transient_gen(a, small, T_STOP)),
        (b, transient_gen(b, big, T_STOP)),
    ]
    with pytest.raises(ValueError, match="share one topology"):
        run_generators(pairs)


def _inverter_with_ladder(width_n: float, cload: float) -> Circuit:
    """The inverter driving an RC ladder: the smallest deck here that
    crosses ``DEFAULT_SPARSE_THRESHOLD``, so ``"auto"`` assembles it sparse."""
    c = _inverter(width_n, cload)
    prev = "out"
    for k in range(DEFAULT_SPARSE_THRESHOLD - 2):
        node = f"l{k}"
        c.add_resistor(prev, node, 2e4)
        c.add_capacitor(node, "0", 2e-17)
        prev = node
    return c


@pytest.mark.skipif(not HAVE_SPARSE, reason="scipy is unavailable")
def test_sparse_members_match_auto_scalar_runs():
    """Above the sparse threshold a batch member factors the same CSC
    Jacobian as a default-options scalar run, so the bits agree."""
    decks = [_inverter_with_ladder(*v) for v in VARIANTS[:2]]
    assert all(
        d.node_count + len(d.voltage_sources) >= DEFAULT_SPARSE_THRESHOLD
        for d in decks
    )
    scalar = [simulate_transient(d, T_STOP) for d in decks]

    pairs = []
    for k, deck in enumerate(decks):
        member = BatchMember(label=f"v{k}")
        pairs.append((member, transient_gen(member, deck, T_STOP)))
    outcomes = run_generators(pairs)

    assert [o.status for o in outcomes] == ["ok"] * len(decks)
    for ref, outcome in zip(scalar, outcomes):
        assert outcome.value.times.tobytes() == ref.times.tobytes()
        assert outcome.value.states.tobytes() == ref.states.tobytes()
