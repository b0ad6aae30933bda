"""Stacked-batch SPICE: K same-topology variants solved as one block.

Monte-Carlo campaigns solve thousands of *variants of one topology* —
same nodes, same stamps, different device tables — and a solve run on
its own pays the full python/numpy dispatch overhead of every assembly
once per variant.  This module removes that multiplier.  The solver
control flow (Newton, the DC tier ladder, transient step control, even
the WL_crit bisection above it) exists once, as generators in the
modules that own it (:func:`repro.circuit.dcop.newton_gen`,
:func:`~repro.circuit.dcop.solve_dc_gen`,
:func:`repro.circuit.transient.transient_gen`,
:meth:`repro.analysis.stability.WlCritSearch.search_gen`) that suspend
at every residual/Jacobian request.  Two drivers run them:
:func:`repro.circuit.dcop.run_alone` answers one generator from its own
assembler (every scalar entry point), and :func:`run_generators` here
collects the suspended requests of many members each tick and serves
them with one batched assembly over a ``(K, size)`` state block — one
scatter-add per stamp kind for the whole batch instead of one per
member.

Only dense members are stacked.  A member whose system
:func:`~repro.circuit.sparse.make_system` built as a
:class:`~repro.circuit.sparse.SparseMnaSystem` is served one request
at a time by :func:`~repro.circuit.dcop.resume`, exactly as the scalar
driver serves it, so it factors the same CSC Jacobian the scalar run
does.

Bit-exactness is the design contract, not an aspiration: every batched
kernel replicates the scalar assembly expression-for-expression (same
operation order, same elementwise arithmetic, per-member ``matmul`` for
the linear stamp because a fused dgemm is *not* bit-stable), so a batch
of any size produces solution vectors bit-identical to a solve run
alone.  ``repro.verify`` leans on this — batch members can be audited
by re-running them alone and comparing exactly.

What the stacked driver does differently, all value-neutral:

* the Jacobian block is assembled every tick for every stacked member,
  even for residual-only (line search) requests — per-member it would
  be wasted work, batched it is almost free, and the residual is
  computed independently so delivered values are unchanged;
* ``tables.evals``/``tables.eval_points`` telemetry counters are not
  incremented (the stacked kernel bypasses ``CubicTable2D.evaluate``);
  ``batch.table_points`` counts the stacked evaluations instead;
* :class:`BatchMember` opens no ``dcop``/``transient`` spans and records
  no ``transient.wall_s`` — a member's wall time includes time parked
  while other members advance, so per-member exclusive wall time has
  no meaning under cooperative scheduling (``newton.wall_s`` still
  measures each solve's span of life);
* ``verify`` in-loop audits still run against the member's own scalar
  :class:`MnaSystem`, so enabling a verify session inside a batch is
  supported (the engine instead audits whole members by re-running
  them alone).

Members advance at their own pace — a member that converges early
leaves the batch, shrinking the active block; a member that raises
(e.g. :class:`ConvergenceError`) is recorded as failed and the rest
continue.  The engine layer retries failed members one at a time.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.dcop import SolveMember, resume
from repro.circuit.mna import MnaSystem
from repro.circuit.sparse import SparseMnaSystem
from repro.devices.tables import CurrentTable
from repro.telemetry import core as telemetry

__all__ = [
    "BatchMember",
    "MemberOutcome",
    "run_generators",
]


class BatchMember(SolveMember):
    """One variant's identity and assembler binding in a stacked batch.

    The driver compiles a stamping plan for the member's system lazily
    and rebuilds it whenever the binding (or the system's own compiled
    stamps) changes.
    """

    __slots__ = ("label", "_plan")

    def __init__(self, label: str = ""):
        super().__init__()
        self.label = label
        self._plan = None

    def span(self, name: str):
        """No span: see the module docstring."""
        return nullcontext()


@dataclass
class MemberOutcome:
    """Terminal state of one batch member."""

    member: BatchMember
    status: str  # "ok" | "error"
    value: object = None
    error: BaseException | None = field(default=None, repr=False)


class _TableRegistry:
    """Concatenated per-cell coefficients of every distinct device table.

    Distinct :class:`CurrentTable` objects seen across the batch are
    stacked (coefficient blocks concatenated, per-table grid parameters
    gathered per point), so one kernel call evaluates devices from any
    mix of Monte-Carlo variants.  The memory bound is the number of
    distinct quantized oxide scales (±5 % at quantum 0.0025 → ≤ 41
    tables), each of which already lives in the lru-cached models.
    """

    def __init__(self):
        self._index: dict[int, int] = {}
        self._currents: list[CurrentTable] = []
        self._dirty = True

    def slot_of(self, current_table: CurrentTable) -> int:
        key = id(current_table)
        slot = self._index.get(key)
        if slot is None:
            slot = len(self._currents)
            self._index[key] = slot
            self._currents.append(current_table)
            self._dirty = True
        return slot

    def _rebuild(self) -> None:
        tables = [ct._table for ct in self._currents]
        self._coeffs = np.concatenate([t._coeffs for t in tables])
        counts = [t._coeffs.shape[0] for t in tables]
        self._base = np.concatenate(
            [[0], np.cumsum(counts[:-1], dtype=np.intp)]
        ).astype(np.intp)
        self._x_start = np.array([t.x_grid.start for t in tables])
        self._x_stop = np.array([t.x_grid.stop for t in tables])
        self._x_inv = np.array([t.x_grid._inv_step for t in tables])
        self._x_hi = np.array([t.x_grid.count - 2 for t in tables], dtype=np.intp)
        self._y_start = np.array([t.y_grid.start for t in tables])
        self._y_stop = np.array([t.y_grid.stop for t in tables])
        self._y_inv = np.array([t.y_grid._inv_step for t in tables])
        self._y_hi = np.array([t.y_grid.count - 2 for t in tables], dtype=np.intp)
        self._nym1 = np.array([t.y_grid.count - 1 for t in tables], dtype=np.intp)
        self._sv = np.array([ct.shape_voltage for ct in self._currents])
        self._dirty = False

    def evaluate(
        self, tbl: np.ndarray, vgs: np.ndarray, vds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked replica of :meth:`CurrentTable.evaluate`, bit-exact.

        Each point evaluates against table ``tbl[k]``; the arithmetic
        mirrors ``CubicTable2D.evaluate`` (clamp, cell lookup, baked
        coefficient matmuls, tangent-plane extension) followed by the
        shape-factored current reconstruction, expression for
        expression.  The extension is applied unconditionally — at
        ``dx = dy = 0`` it reproduces the inside values exactly, so no
        per-call outside test is needed.
        """
        if self._dirty:
            self._rebuild()
        x, y = vgs, vds
        xc = np.minimum(np.maximum(x, self._x_start[tbl]), self._x_stop[tbl])
        yc = np.minimum(np.maximum(y, self._y_start[tbl]), self._y_stop[tbl])

        pos = (xc - self._x_start[tbl]) * self._x_inv[tbl]
        ix = np.minimum(pos.astype(np.intp), self._x_hi[tbl])
        tx = pos - ix
        pos = (yc - self._y_start[tbl]) * self._y_inv[tbl]
        iy = np.minimum(pos.astype(np.intp), self._y_hi[tbl])
        ty = pos - iy

        cells = self._coeffs[self._base[tbl] + ix * self._nym1[tbl] + iy]
        m = cells.shape[0]
        u = np.empty((m, 2, 4))
        v = np.empty((m, 4, 2))
        tx2 = tx * tx
        u[:, 0, 0] = 1.0
        u[:, 0, 1] = tx
        u[:, 0, 2] = tx2
        u[:, 0, 3] = tx2 * tx
        u[:, 1, 0] = 0.0
        u[:, 1, 1] = 1.0
        u[:, 1, 2] = 2.0 * tx
        u[:, 1, 3] = 3.0 * tx2
        ty2 = ty * ty
        v[:, 0, 0] = 1.0
        v[:, 1, 0] = ty
        v[:, 2, 0] = ty2
        v[:, 3, 0] = ty2 * ty
        v[:, 0, 1] = 0.0
        v[:, 1, 1] = 1.0
        v[:, 2, 1] = 2.0 * ty
        v[:, 3, 1] = 3.0 * ty2
        out = u @ cells @ v

        inv_hx = self._x_inv[tbl]
        inv_hy = self._y_inv[tbl]
        f = out[:, 0, 0]
        fx = out[:, 1, 0] * inv_hx
        fy = out[:, 0, 1] * inv_hy
        fxy = out[:, 1, 1] * (inv_hx * inv_hy)

        dx = x - xc
        dy = y - yc
        z = f + fx * dx + fy * dy + fxy * dx * dy
        dz_dvgs = fx + fxy * dy
        dz_dvds = fy + fxy * dx

        sv = self._sv[tbl]
        residue = np.exp(z)
        shape = np.sign(y) * (1.0 - np.exp(-np.abs(y) / sv))
        current = shape * residue
        di_dvgs = current * dz_dvgs
        di_dvds = (np.exp(-np.abs(y) / sv) / sv) * residue + current * dz_dvds
        return current, di_dvgs, di_dvds


class _MemberPlan:
    """Per-(member, system) stamping plan in the system's own layout.

    Group partition is by model *identity*, so two Monte-Carlo variants
    of one topology can flatten their transistors in different orders
    (shared quantized-scale models group differently).  The plan
    therefore carries the member's own per-device arrays and the
    member's own scatter index arrays — never another member's.
    """

    __slots__ = (
        "system", "lin", "vs_waves", "t_tbl", "t_sign", "t_width",
        "t_d", "t_g", "t_s", "t_fallback", "all_table",
    )

    def __init__(self, system: MnaSystem, registry: _TableRegistry):
        self.system = system
        self.lin = system._lin  # identity tracks invalidate_caches()
        self.vs_waves = system._vs_waves
        n_t = system._t_count
        self.t_tbl = np.full(n_t, -1, dtype=np.intp)
        self.t_sign = np.empty(n_t)
        self.t_width = np.empty(n_t)
        self.t_d = np.zeros(n_t, dtype=np.intp)
        self.t_g = np.zeros(n_t, dtype=np.intp)
        self.t_s = np.zeros(n_t, dtype=np.intp)
        self.t_fallback: list[tuple] = []
        for group in system._t_groups:
            model, sl, sign, width, d, g, s = group
            self.t_sign[sl] = sign
            self.t_width[sl] = width
            self.t_d[sl] = d
            self.t_g[sl] = g
            self.t_s[sl] = s
            table = getattr(model, "table", None)
            if isinstance(table, CurrentTable):
                self.t_tbl[sl] = registry.slot_of(table)
            else:
                # Non-table models (e.g. the MOSFET baseline) evaluate
                # through the scalar model call, member by member.
                self.t_fallback.append(group)
        self.all_table = not self.t_fallback


class _Layout:
    """Buffers and concatenated scatter arrays for one active set.

    Valid while the active members, their order, and each member's plan
    are unchanged; the driver rebuilds it on any change (bounded by the
    number of simulations run, not by tick count).  Device-evaluation
    caches live in the layout rows and reset on rebuild — a cache miss
    only re-evaluates pure functions, so resets never change results.
    """

    def __init__(self, plans: list[_MemberPlan]):
        self.plans = plans
        first = plans[0].system
        self.n = n = first.n_nodes
        self.size = size = first.size
        self.n_t = n_t = first._t_count
        bank = first._caps
        self.n_c = n_c = len(bank)
        for plan in plans:
            sys = plan.system
            if (
                sys.n_nodes != n
                or sys.size != size
                or sys._t_count != n_t
                or len(sys._caps) != n_c
            ):
                raise ValueError("batch members must share one topology")

        K = len(plans)
        self.X = np.zeros((K, size))
        self.XG = np.zeros((K, n + 1))
        self.F = np.zeros((K, size))
        self.Fr = self.F.reshape(-1)
        self.JAC = np.zeros((K, size, size))
        self.JACr = self.JAC.reshape(-1)
        self.JAC2 = self.JAC.reshape(K, size * size)
        self.LIN = np.empty((K, size, size))
        for i, plan in enumerate(plans):
            self.LIN[i] = plan.system._lin
        self.diag_flat = first._diag_flat

        if n_t:
            self.S = np.vstack([p.t_s for p in plans])
            self.G = np.vstack([p.t_g for p in plans])
            self.D = np.vstack([p.t_d for p in plans])
            self.SIGN = np.vstack([p.t_sign for p in plans])
            self.WIDTH = np.vstack([p.t_width for p in plans])
            self.TBL = np.vstack([p.t_tbl for p in plans])
            self.all_table = all(p.all_table for p in plans)
            # Residual/Jacobian scatters concatenate each member's OWN
            # index arrays offset to its row; within-member ordering is
            # preserved, so the single add.at matches the scalar adds.
            self.tf_idx = np.concatenate(
                [i * size + p.system._tf_idx for i, p in enumerate(plans)]
            )
            self.tf_sign = np.concatenate([p.system._tf_sign for p in plans])
            self.tf_mem = np.concatenate(
                [i * n_t + p.system._tf_member for i, p in enumerate(plans)]
            )
            self.tj_flat = np.concatenate(
                [i * size * size + p.system._tj_flat for i, p in enumerate(plans)]
            )
            self.tj_sign = np.concatenate([p.system._tj_sign for p in plans])
            self.tj_kind = np.concatenate([p.system._tj_kind for p in plans])
            self.tj_mem = np.concatenate(
                [i * n_t + p.system._tj_member for i, p in enumerate(plans)]
            )
            self.ID = np.zeros((K, n_t))
            self.GM = np.zeros((K, n_t))
            self.GDS = np.zeros((K, n_t))
            self.COEF = np.zeros((3, K, n_t))
            self.COEF2 = self.COEF.reshape(3, K * n_t)
            self.T_X = np.full((K, n), np.nan)
            self.T_VALID = np.zeros(K, dtype=bool)

        if n_c:
            # Capacitor wiring (nodes, signs, linear/step kinds, scale,
            # mirror) is topology, identical across members; only the
            # charge-model parameters vary with the device sample.
            for plan in plans[1:]:
                other = plan.system._caps
                if not (
                    np.array_equal(other.a, bank.a)
                    and np.array_equal(other.b, bank.b)
                    and np.array_equal(other.kind, bank.kind)
                    and np.array_equal(other.scale, bank.scale)
                    and np.array_equal(other.mirror, bank.mirror)
                ):
                    raise ValueError("batch members must share one topology")
            self.cap_a = bank.a
            self.cap_b = bank.b
            self.cap_scale = bank.scale
            self.cap_mirror = bank.mirror
            self.cap_step = bank.kind == 1
            self.cap_all_linear = all(p.system._caps._all_linear for p in plans)
            self.cap_other = any(p.system._caps.other for p in plans)
            self.C_SCLIN = np.vstack([p.system._caps._scaled_lin for p in plans])
            self.C_LIN = np.vstack([p.system._caps.c_lin for p in plans])
            self.C_LOW = np.vstack([p.system._caps.c_low for p in plans])
            self.C_HIGH = np.vstack([p.system._caps.c_high for p in plans])
            self.C_VSTEP = np.vstack([p.system._caps.v_step for p in plans])
            self.C_WIDTH = np.vstack([p.system._caps.width for p in plans])
            self.cf_idx = first._cf_idx
            self.cf_sign = first._cf_sign
            self.cf_member = first._cf_member
            self.cj_flat = first._cj_flat
            self.cj_sign = first._cj_sign
            self.cj_member = first._cj_member


def _stamp_devices_batch(layout: _Layout, registry: _TableRegistry, tel) -> None:
    """Evaluate + scatter every member's transistors for this tick."""
    n = layout.n
    X = layout.X
    fresh = [
        i
        for i in range(len(layout.plans))
        if not (layout.T_VALID[i] and np.array_equal(X[i, :n], layout.T_X[i]))
    ]
    if fresh:
        fr = np.array(fresh, dtype=np.intp)
        base = fr * (n + 1)
        xgr = layout.XG.reshape(-1)
        VS = xgr[base[:, None] + layout.S[fr]]
        VG = xgr[base[:, None] + layout.G[fr]]
        VD = xgr[base[:, None] + layout.D[fr]]
        SGN = layout.SIGN[fr]
        W = layout.WIDTH[fr]
        VGS = SGN * (VG - VS)
        VDS = SGN * (VD - VS)
        TBL = layout.TBL[fr]
        J = np.empty_like(VGS)
        GMv = np.empty_like(VGS)
        GDSv = np.empty_like(VGS)
        tb = TBL >= 0
        if tb.any():
            cur, dg, dd = registry.evaluate(TBL[tb], VGS[tb], VDS[tb])
            J[tb] = cur
            GMv[tb] = dg
            GDSv[tb] = dd
            if tel is not None:
                tel.count("batch.table_points", int(cur.size))
        for local, i in enumerate(fresh):
            plan = layout.plans[i]
            if not plan.t_fallback:
                continue
            xg = layout.XG[i]
            for model, sl, sign, width, d, g, s in plan.t_fallback:
                vs = xg[s]
                vgs = sign * (xg[g] - vs)
                vds = sign * (xg[d] - vs)
                j, gm, gds = model.evaluate_density(vgs, vds)
                J[local, sl] = np.asarray(j, dtype=float)
                GMv[local, sl] = np.asarray(gm, dtype=float)
                GDSv[local, sl] = np.asarray(gds, dtype=float)
        layout.ID[fr] = SGN * W * J
        layout.GM[fr] = W * GMv
        layout.GDS[fr] = W * GDSv
        layout.T_X[fr] = X[fr, :n]
        layout.T_VALID[fr] = True

    np.add.at(layout.Fr, layout.tf_idx, layout.tf_sign * layout.ID.reshape(-1)[layout.tf_mem])
    layout.COEF[0] = layout.GDS
    layout.COEF[1] = layout.GM
    np.add(layout.GM, layout.GDS, out=layout.COEF[2])
    np.add.at(
        layout.JACr,
        layout.tj_flat,
        layout.tj_sign * layout.COEF2[layout.tj_kind, layout.tj_mem],
    )


def _stamp_capacitors_batch(layout: _Layout, reqs: list, tr: list[int]) -> None:
    """Companion-model capacitor stamps for members in transient."""
    trows = np.array(tr, dtype=np.intp)
    size = layout.size
    XGt = layout.XG[trows]
    V = XGt[:, layout.cap_a] - XGt[:, layout.cap_b]
    if layout.cap_all_linear:
        Q = layout.C_SCLIN[trows] * V
        C = np.broadcast_to(layout.C_SCLIN[trows], V.shape)
    else:
        VM = layout.cap_mirror * V
        Xc = np.clip((VM - layout.C_VSTEP[trows]) / layout.C_WIDTH[trows], -200.0, 200.0)
        softplus = layout.C_WIDTH[trows] * np.logaddexp(0.0, Xc)
        sigmoid = 1.0 / (1.0 + np.exp(-Xc))
        c_low = layout.C_LOW[trows]
        c_high = layout.C_HIGH[trows]
        q_step = layout.cap_mirror * (c_low * VM + (c_high - c_low) * softplus)
        c_step = c_low + (c_high - c_low) * sigmoid
        Q = np.where(layout.cap_step, q_step, layout.C_LIN[trows] * V)
        C = np.where(layout.cap_step, c_step, layout.C_LIN[trows])
        Q = layout.cap_scale * Q
        C = layout.cap_scale * C

    n_c = layout.n_c
    QP = np.empty((len(tr), n_c))
    H = np.empty(len(tr))
    trapezoidal = False
    for j, i in enumerate(tr):
        state = reqs[i][3]
        QP[j] = state.capacitor_charges
        H[j] = state.timestep
        if state.method == "trapezoidal":
            trapezoidal = True
    if not trapezoidal:
        CUR = (Q - QP) / H[:, None]
        CON = C / H[:, None]
    else:
        CUR = np.empty_like(Q)
        CON = np.empty_like(Q)
        for j, i in enumerate(tr):
            state = reqs[i][3]
            if state.method == "trapezoidal":
                CUR[j] = 2.0 * (Q[j] - QP[j]) / H[j] - state.capacitor_currents
                CON[j] = 2.0 * C[j] / H[j]
            else:
                CUR[j] = (Q[j] - QP[j]) / H[j]
                CON[j] = C[j] / H[j]

    f_idx = (trows * size)[:, None] + layout.cf_idx
    np.add.at(layout.Fr, f_idx.reshape(-1), (layout.cf_sign * CUR[:, layout.cf_member]).reshape(-1))
    j_idx = (trows * size * size)[:, None] + layout.cj_flat
    np.add.at(layout.JACr, j_idx.reshape(-1), (layout.cj_sign * CON[:, layout.cj_member]).reshape(-1))


def _assemble_tick(layout: _Layout, reqs: list, registry: _TableRegistry, tel) -> None:
    """One batched assembly over the active set.

    ``reqs[i]`` is member i's request tuple.  Stamp order per member
    matches :meth:`MnaSystem._assemble` exactly: linear, gmin, clamps,
    voltage sources, current sources, transistors, capacitors.
    """
    n = layout.n
    K = len(reqs)
    X = layout.X
    F = layout.F
    for i, r in enumerate(reqs):
        X[i] = r[0]
    layout.XG[:, :n] = X[:, :n]

    # Linear elements: one per-member mat-vec (a fused (K,n)x(n,n) dgemm
    # is NOT bit-identical to the scalar matmul — measured, not guessed).
    for i in range(K):
        np.matmul(layout.LIN[i], X[i], out=F[i])
    np.copyto(layout.JAC, layout.LIN)

    gv = np.array([r[2] for r in reqs])
    idx = np.flatnonzero(gv > 0.0)
    if idx.size:
        F[idx, :n] += gv[idx, None] * X[idx, :n]
        layout.JAC2[np.ix_(idx, layout.diag_flat)] += gv[idx, None]

    for i, r in enumerate(reqs):
        clamps = r[4]
        if clamps:
            sys = layout.plans[i].system
            nodes, conductance, target = sys._clamp_arrays(clamps)
            if nodes.size:
                np.add.at(F[i], nodes, conductance * (r[0][nodes] - target))
                np.add.at(
                    layout.JAC2[i], nodes * (layout.size + 1), conductance
                )

    # Independent sources: per-member, reusing each system's (t,
    # waveform) caches so the cache evolution matches the scalar path.
    for i, r in enumerate(reqs):
        sys = layout.plans[i].system
        t = r[1]
        source_scale = r[5]
        if sys.n_branches:
            vs = sys._vs_values
            sources = sys.circuit.voltage_sources
            waves = sys._vs_waves
            if t != sys._vs_t or any(
                s.waveform is not w for s, w in zip(sources, waves)
            ):
                for m, src in enumerate(sources):
                    vs[m] = src.waveform.value(t)
                    waves[m] = src.waveform
                sys._vs_t = t
            F[i, n:] -= source_scale * vs
        if sys._is_idx.size:
            iv = sys._is_values
            sources = sys.circuit.current_sources
            waves = sys._is_waves
            if t != sys._is_t or any(
                s.waveform is not w for s, w in zip(sources, waves)
            ):
                for m, src in enumerate(sources):
                    iv[m] = src.waveform.value(t)
                    waves[m] = src.waveform
                sys._is_t = t
            np.add.at(
                F[i], sys._is_idx, sys._is_sign * (source_scale * iv[sys._is_member])
            )

    if layout.n_t:
        _stamp_devices_batch(layout, registry, tel)

    if layout.n_c:
        tr = [i for i, r in enumerate(reqs) if r[3] is not None]
        if tr:
            if layout.cap_other:
                # Exotic charge functions: the vectorized bank falls
                # back per member, exactly like the scalar assembler.
                for i in tr:
                    sys = layout.plans[i].system
                    sys._stamp_capacitors(
                        X[i], F[i], layout.JAC2[i], reqs[i][3], True
                    )
            else:
                _stamp_capacitors_batch(layout, reqs, tr)


def _plan_for(member: BatchMember, registry: _TableRegistry) -> _MemberPlan:
    plan = member._plan
    system = member.system
    if (
        plan is None
        or plan.system is not system
        or plan.lin is not system._lin  # invalidate_caches() recompiled
        or plan.vs_waves is not system._vs_waves
    ):
        plan = _MemberPlan(system, registry)
        member._plan = plan
    return plan


def run_generators(
    pairs: list[tuple[BatchMember, object]]
) -> list[MemberOutcome]:
    """Drive (member, generator) pairs to completion, batching assembly.

    Each generator yields assembly requests and receives ``(f, jac)``
    answers; the driver advances every live member once per tick and
    serves the parked requests of all dense members with one stacked
    assembly (``jac`` is a view into the tick buffer, valid until the
    generator's next request).  A member on a sparse system is answered
    on its own by :func:`~repro.circuit.dcop.resume`, the scalar
    driver's answer.  A generator's return value becomes its member's
    ``value``; an uncaught exception (most commonly
    :class:`ConvergenceError`) becomes an ``"error"`` outcome without
    disturbing the other members.  Outcomes are returned in input order.
    """
    tel = telemetry.active()
    registry = _TableRegistry()
    results: list[MemberOutcome | None] = [None] * len(pairs)
    active: list[list] = []
    for pos, (member, gen) in enumerate(pairs):
        try:
            req = gen.send(None)
        except StopIteration as stop:
            results[pos] = MemberOutcome(member, "ok", stop.value)
        except Exception as exc:
            results[pos] = MemberOutcome(member, "error", error=exc)
        else:
            active.append([pos, member, gen, req])
    if tel is not None:
        tel.count("batch.runs")
        tel.count("batch.members", len(pairs))

    layout = None
    layout_key = None
    while active:
        alone = [isinstance(entry[1].system, SparseMnaSystem) for entry in active]
        stacked = [entry for entry, a in zip(active, alone) if not a]
        if stacked:
            plans = [_plan_for(entry[1], registry) for entry in stacked]
            key = tuple(id(p) for p in plans)
            if key != layout_key:
                layout = _Layout(plans)
                layout_key = key
            _assemble_tick(layout, [entry[3] for entry in stacked], registry, tel)
        if tel is not None:
            tel.count("batch.ticks")
            tel.count("batch.member_assemblies", len(active))

        still = []
        row = 0
        for entry, a in zip(active, alone):
            pos, member, gen, req = entry
            if not a:
                answer = (layout.F[row].copy(), layout.JAC[row] if req[6] else None)
                row += 1
            try:
                if a:
                    nxt = resume(gen, member.system, req)
                else:
                    nxt = gen.send(answer)
            except StopIteration as stop:
                results[pos] = MemberOutcome(member, "ok", stop.value)
            except Exception as exc:
                results[pos] = MemberOutcome(member, "error", error=exc)
            else:
                entry[3] = nxt
                still.append(entry)
        active = still
    return results
