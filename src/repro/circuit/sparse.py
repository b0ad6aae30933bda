"""Sparse MNA assembly: fixed-pattern CSC stamping with splu.

Dense assembly (:class:`repro.circuit.mna.MnaSystem`) copies an
``size x size`` Jacobian per stamp and hands it to dense LAPACK — an
O(n^2) copy and an O(n^3) factorization that are invisible at SRAM-cell
sizes (~10 unknowns) but dominate array-scale netlists (bitline RC
ladders, decoder chains: hundreds to thousands of unknowns at ~5
nonzeros per row).

:class:`SparseMnaSystem` reuses every compiled index/sign array of the
dense assembler and changes only where stamps land:

* the sparsity *pattern* is computed once at compile time — the union
  of the linear-stamp nonzeros, the gmin/clamp diagonal, and the
  transistor/capacitor scatter targets — and every flat dense index
  (``row * size + col``) is pre-mapped to its position in the CSC data
  vector, so per-call stamping is the same handful of ``np.add.at``
  scatters, now into a length-nnz vector instead of ``size**2``;
* the residual's linear mat-vec runs on a CSR copy of the constant
  linear stamp (O(nnz) instead of O(n^2));
* ``assemble`` returns a ``scipy.sparse`` CSC matrix sharing the fixed
  pattern, which :class:`repro.circuit.dcop._Factorization` routes to
  ``splu``.

scipy's ``splu`` exposes no values-only refactorization hook, so what
is reused across Newton iterations is the *assembly-level* symbolic
work (pattern, index maps, buffers) plus the modified-Newton LU reuse
in the solver; each re-stamp pays one full ``splu``.  ``permc_spec``
is pinned to ``"COLAMD"`` so the fill-reducing ordering — a pure
function of the fixed pattern — is deterministic across calls.

:func:`make_system` is the selection point and
:func:`sparse_requested` its one policy: ``"auto"`` picks sparse when
the system size reaches ``sparse_threshold`` (and scipy is
available), so small decks keep the dense fast path that beats sparse
overhead below ~tens of unknowns.  Selection is recorded on the
telemetry counters ``mna.sparse_selected`` / ``mna.dense_selected``
(surfaced by ``repro diag``).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.mna import MnaSystem, TransientState, VoltageClamp
from repro.circuit.netlist import Circuit
from repro.telemetry import core as telemetry

try:  # pragma: no cover - exercised via either branch in CI images
    from scipy import sparse as _sparse
    from scipy.sparse.linalg import splu as _splu

    HAVE_SPARSE = True
except ImportError:  # pragma: no cover
    _sparse = None
    _splu = None
    HAVE_SPARSE = False

__all__ = [
    "HAVE_SPARSE",
    "DEFAULT_SPARSE_THRESHOLD",
    "SparseMnaSystem",
    "SparseFactorization",
    "make_system",
    "sparse_requested",
]

DEFAULT_SPARSE_THRESHOLD = 64
"""``"auto"`` switches to CSC assembly at this system size (unknowns)."""

MATRIX_FORMATS = ("auto", "dense", "sparse")


class SparseFactorization:
    """splu of one stamped CSC Jacobian, matching ``_Factorization``'s
    contract: construction raises ``np.linalg.LinAlgError`` on a
    singular or non-finite matrix, ``solve`` back-substitutes."""

    __slots__ = ("_lu",)

    def __init__(self, jac):
        if not np.all(np.isfinite(jac.data)):
            raise np.linalg.LinAlgError("non-finite sparse Jacobian")
        try:
            # COLAMD ordering is a pure function of the (fixed) pattern,
            # keeping factorization deterministic across re-stamps.
            self._lu = _splu(jac, permc_spec="COLAMD")
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


class SparseMnaSystem(MnaSystem):
    """MNA assembler producing fixed-pattern CSC Jacobians.

    Construction requires scipy; :func:`make_system` guards the
    selection.  The public surface is identical to
    :class:`MnaSystem` except that the Jacobian returned by
    ``assemble`` is a ``scipy.sparse.csc_matrix`` (``copy`` requests a
    matrix with private data; the no-copy fast path shares the
    assembler's data buffer, overwritten by the next assembly).
    """

    def __init__(self, circuit: Circuit):
        if not HAVE_SPARSE:  # pragma: no cover - guarded by make_system
            raise RuntimeError("SparseMnaSystem requires scipy.sparse")
        super().__init__(circuit)

    def _compile(self) -> None:
        super()._compile()
        size = self.size
        n = self.n_nodes

        # Pattern union: linear stamp + node diagonal (gmin and clamps
        # land there) + transistor and capacitor scatter targets.  The
        # diagonal of the *whole* system is included so splu never sees
        # a structurally empty pivot column.
        lin_flat = np.flatnonzero(self._lin)
        parts = [
            lin_flat,
            np.arange(size, dtype=np.intp) * (size + 1),
            self._tj_flat,
            self._cj_flat,
        ]
        pattern = np.unique(np.concatenate(parts)).astype(np.intp)
        rows = pattern // size
        cols = pattern % size

        # CSC layout: entries sorted by (col, row).  ``pattern`` is
        # sorted by flat index = row-major, so re-sort; the map from a
        # flat dense index to its CSC data slot is then one
        # ``searchsorted`` at compile time per stamp array.
        order = np.lexsort((rows, cols))
        self._csc_indices = rows[order].astype(np.int32)
        self._csc_indptr = np.zeros(size + 1, dtype=np.int32)
        np.add.at(self._csc_indptr, cols + 1, 1)
        np.cumsum(self._csc_indptr, out=self._csc_indptr)
        slot_of_pattern = np.empty(len(pattern), dtype=np.intp)
        slot_of_pattern[order] = np.arange(len(pattern), dtype=np.intp)
        self._pattern = pattern
        self._pattern_slots = slot_of_pattern

        def slots(flat_idx: np.ndarray) -> np.ndarray:
            return slot_of_pattern[np.searchsorted(pattern, flat_idx)]

        self._nnz = len(pattern)
        self._data = np.zeros(self._nnz)
        base = np.zeros(self._nnz)
        base[slots(lin_flat)] = self._lin.reshape(-1)[lin_flat]
        self._data_base = base
        self._diag_slots = slots(np.arange(n, dtype=np.intp) * (size + 1))
        self._tj_slots = slots(self._tj_flat)
        self._cj_slots = slots(self._cj_flat)
        self._lin_csr = _sparse.csr_matrix(self._lin)
        self._clamp_slot_cache: tuple | None = None
        # The dense Jacobian scratch is never stamped on this class;
        # release the O(size^2) buffers the base compile allocated.
        self._jac = np.empty((0, 0))
        self._jac_flat = self._jac.reshape(-1)

    def _flat_slots(self, flat_idx: np.ndarray) -> np.ndarray:
        """Map flat dense indices (row*size+col) to CSC data positions."""
        return self._pattern_slots[np.searchsorted(self._pattern, flat_idx)]

    def _clamp_slots(self, clamps: tuple[VoltageClamp, ...]):
        cached = self._clamp_slot_cache
        if cached is not None and cached[0] == clamps:
            return cached[1]
        nodes, _, _ = self._clamp_arrays(clamps)
        # Every node diagonal is in the pattern by construction.
        slots = self._flat_slots(nodes * (self.size + 1))
        self._clamp_slot_cache = (clamps, slots)
        return slots

    def _assemble(
        self,
        x: np.ndarray,
        t: float,
        gmin: float,
        transient: TransientState | None,
        clamps: tuple[VoltageClamp, ...],
        source_scale: float,
        want_jac: bool,
    ):
        if self._topology != self._topology_key():
            self._compile()

        n = self.n_nodes
        f = self._f
        data = self._data

        np.copyto(f, self._lin_csr.dot(x))
        if want_jac:
            np.copyto(data, self._data_base)

        if gmin > 0.0:
            f[:n] += gmin * x[:n]
            if want_jac:
                data[self._diag_slots] += gmin

        if clamps:
            nodes, conductance, target = self._clamp_arrays(clamps)
            if nodes.size:
                np.add.at(f, nodes, conductance * (x[nodes] - target))
                if want_jac:
                    np.add.at(data, self._clamp_slots(clamps), conductance)

        if self.n_branches:
            vs = self._vs_values
            sources = self.circuit.voltage_sources
            waves = self._vs_waves
            if t != self._vs_t or any(
                s.waveform is not w for s, w in zip(sources, waves)
            ):
                for m, src in enumerate(sources):
                    vs[m] = src.waveform.value(t)
                    waves[m] = src.waveform
                self._vs_t = t
            f[n:] -= source_scale * vs
        if self._is_idx.size:
            iv = self._is_values
            sources = self.circuit.current_sources
            waves = self._is_waves
            if t != self._is_t or any(
                s.waveform is not w for s, w in zip(sources, waves)
            ):
                for m, src in enumerate(sources):
                    iv[m] = src.waveform.value(t)
                    waves[m] = src.waveform
                self._is_t = t
            np.add.at(
                f, self._is_idx, self._is_sign * (source_scale * iv[self._is_member])
            )

        if self._t_count:
            self._stamp_transistors_sparse(x, f, data, want_jac)
        if transient is not None and len(self._caps):
            self._stamp_capacitors_sparse(x, f, data, transient, want_jac)

        if not want_jac:
            return f.copy(), None
        jac = _sparse.csc_matrix(
            (data, self._csc_indices, self._csc_indptr),
            shape=(self.size, self.size),
            copy=False,
        )
        return f.copy(), jac

    def assemble(self, x, t, gmin=0.0, transient=None, clamps=(),
                 source_scale=1.0, copy=True):
        f, jac = self._assemble(x, t, gmin, transient, clamps, source_scale, True)
        return (f, jac.copy()) if copy else (f, jac)

    def _stamp_transistors_sparse(self, x, f, data, want_jac: bool) -> None:
        i_d, gm_w, gds_w = self._t_id, self._t_gm, self._t_gds
        volts = x[: self.n_nodes]
        if not (self._t_valid and np.array_equal(volts, self._t_x)):
            xg = self._xg
            xg[: self.n_nodes] = volts
            for model, sl, sign, width, d, g, s in self._t_groups:
                vs = xg[s]
                vgs = sign * (xg[g] - vs)
                vds = sign * (xg[d] - vs)
                j, gm, gds = model.evaluate_density(vgs, vds)
                i_d[sl] = sign * width * np.asarray(j)
                gm_w[sl] = width * np.asarray(gm)
                gds_w[sl] = width * np.asarray(gds)
            self._t_x[:] = volts
            self._t_valid = True
        np.add.at(f, self._tf_idx, self._tf_sign * i_d[self._tf_member])
        if want_jac:
            coef = self._t_coef
            coef[0] = gds_w
            coef[1] = gm_w
            np.add(gm_w, gds_w, out=coef[2])
            np.add.at(
                data,
                self._tj_slots,
                self._tj_sign * coef[self._tj_kind, self._tj_member],
            )

    def _stamp_capacitors_sparse(
        self, x, f, data, transient: TransientState, want_jac: bool
    ) -> None:
        h = transient.timestep
        q, c = self._cap_qc(x)
        if transient.method == "trapezoidal":
            current = (
                2.0 * (q - transient.capacitor_charges) / h
                - transient.capacitor_currents
            )
            conductance = 2.0 * c / h
        else:
            current = (q - transient.capacitor_charges) / h
            conductance = c / h
        np.add.at(f, self._cf_idx, self._cf_sign * current[self._cf_member])
        if want_jac:
            np.add.at(
                data, self._cj_slots, self._cj_sign * conductance[self._cj_member]
            )


def sparse_requested(
    size: int,
    matrix_format: str = "auto",
    sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD,
) -> bool:
    """The selection policy: whether a system of ``size`` unknowns asks
    for sparse assembly.

    ``"sparse"`` always does, ``"dense"`` never, ``"auto"`` once
    ``size >= sparse_threshold``.  :func:`make_system` honours a request
    whenever scipy is available (``HAVE_SPARSE``).
    """
    if matrix_format not in MATRIX_FORMATS:
        raise ValueError(
            f"matrix_format must be one of {MATRIX_FORMATS}, got {matrix_format!r}"
        )
    return matrix_format == "sparse" or (
        matrix_format == "auto" and size >= sparse_threshold
    )


def make_system(
    circuit: Circuit,
    matrix_format: str = "auto",
    sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD,
    dense_cls: type | None = None,
) -> MnaSystem:
    """Build the MNA assembler selected by format and system size.

    :func:`sparse_requested` decides on ``node_count + branch_count``;
    a request falls back to dense with a warning counter when scipy is
    absent.  ``dense_cls`` overrides the dense assembler class — callers
    pass their module-level ``MnaSystem`` binding so monkeypatched
    reference assemblers (benchmarks) keep flowing through this factory.
    """
    dense_cls = dense_cls or MnaSystem
    size = circuit.node_count + len(circuit.voltage_sources)
    want_sparse = sparse_requested(size, matrix_format, sparse_threshold)
    tel = telemetry.active()
    if want_sparse and HAVE_SPARSE and dense_cls is MnaSystem:
        if tel is not None:
            tel.count("mna.sparse_selected")
        return SparseMnaSystem(circuit)
    if tel is not None:
        if want_sparse:
            tel.count("mna.sparse_unavailable")
        tel.count("mna.dense_selected")
    return dense_cls(circuit)
