"""Distributed sparse operator: SpMV with halo exchange.

Wraps a local matrix (any registered format) with its halo-exchange
plan, so every application is: copy the owned rows of a column-major
panel into a pooled full-panel workspace, exchange every column's
ghosts in one wide message per neighbor, run the local panel SpMV
through the kernel registry.  :meth:`DistributedOperator.matvec_panel`
is the one implementation; the single-vector ``matvec`` is its width-1
call.

With ``overlap=True`` the operator partitions the matrix into
interior/boundary row blocks (:mod:`repro.sparse.partitioned`) and
every application runs the paper's two-stream schedule (§3.2.3): halo
in flight while the interior block computes, boundary block after the
ghosts land in the panel's ghost rows.  ``matvec_sequential`` (full
exchange, then both blocks) and ``matvec_split`` (row-subset kernels)
remain as independent single-vector reference schedules the tests
cross-check the panel path against.

The operator owns (or shares) a :class:`~repro.backends.workspace.Workspace`
arena; with ``out=`` buffers supplied by the caller, ``matvec``,
``matvec_panel`` and ``residual`` are allocation-free after warmup —
including the halo path, whose pack buffers and transport messages are
pooled.
"""

from __future__ import annotations

import numpy as np

from repro.backends.dispatch import (
    spmv,
    spmv_boundary_multi,
    spmv_dot_multi,
    spmv_interior_multi,
    spmv_multi,
    spmv_rows,
    waxpby_dot_multi,
)
from repro.backends.workspace import Workspace
from repro.geometry.halo import HaloPattern
from repro.parallel.comm import Communicator
from repro.parallel.halo_exchange import HaloExchange
from repro.resilience.faults import abft_scope
from repro.sparse.partitioned import partition_matrix


class DistributedOperator:
    """``y = A x`` across ranks, for one matrix in one precision."""

    def __init__(
        self,
        A,
        halo_pattern: HaloPattern,
        comm: Communicator,
        workspace: Workspace | None = None,
        overlap: bool = False,
        partition=None,
    ) -> None:
        self.A = A
        self.comm = comm
        self.ws = workspace if workspace is not None else Workspace("operator")
        self.halo_ex = HaloExchange(halo_pattern, comm, workspace=self.ws)
        self.nlocal = halo_pattern.nlocal
        self.overlap = overlap
        # Ghost-aware partitioned layout for the overlap schedule; the
        # partition is built once at setup (HPCG's SetupHalo moment),
        # not on the hot path.  ``partition`` lets a setup cache inject
        # an already-built layout for this (A, halo) pair.
        if overlap:
            self.P = (
                partition
                if partition is not None
                else partition_matrix(A, halo_pattern)
            )
        else:
            self.P = None
        self.nfull = self.nlocal + halo_pattern.n_ghost
        # Owned + ghost staging for the single-vector reference
        # schedules (matvec_sequential / matvec_split).
        self._xfull = np.zeros(self.nfull, dtype=A.dtype)
        # Matrix-reuse accounting for the batched pipeline: each full
        # application increments ``matrix_passes`` by the number of
        # times the matrix block is streamed and ``rhs_columns`` by the
        # number of RHS columns served.  A panel matvec charges one
        # pass for N columns, so ``rhs_columns / matrix_passes`` is the
        # measured matrix-traffic amortization (1.0 for sequential
        # single-RHS solves, → panel width for batched ones).
        self.matrix_passes = 0
        self.rhs_columns = 0
        #: Optional :class:`~repro.resilience.abft.ABFTCheck` verifying
        #: every matvec output column against the cached column-sum
        #: checksum.  ``None`` (the default) adds nothing to
        #: the hot path; the check itself is read-only, so attaching
        #: one never changes results on fault-free runs.
        self.abft = None

    def attach_abft(self, check) -> None:
        """Install (or clear, with ``None``) the ABFT verifier."""
        self.abft = check

    @property
    def dtype(self) -> np.dtype:
        return self.A.dtype

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply the operator to one vector: the width-1 :meth:`matvec_panel`."""
        y = out if out is not None else np.empty(self.nlocal, dtype=self.dtype)
        self.matvec_panel(x[:, None], out=y[:, None])
        return y

    def matvec_overlapped(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """:meth:`matvec` on the overlapped schedule (``overlap=True`` only)."""
        self._require_partition()
        return self.matvec(x, out=out)

    def matvec_panel(
        self, X: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Panel matvec: one operator application serving every column.

        ``X`` is a column-major ``(nlocal, N)`` panel.  The halo is
        panel-native: **one wide exchange** per application ships
        every column's boundary values in one message per neighbor
        (message count is O(1) in the panel width; bytes scale with
        it).  On the overlapped schedule the whole panel's interior
        compute hides that single wide exchange
        (``spmv_interior_multi`` / ``spmv_boundary_multi``) — bitwise
        equal to :meth:`matvec_sequential` per column, since both run
        the same block kernels in the same order; on the sequential
        schedule the wide exchange precedes one ``spmv_multi`` — the
        registry seam a single-pass backend serves with one matrix
        stream for the whole panel.  Either way the panel is booked as
        **one** matrix pass serving N columns, which is what the
        measured ``rhs_columns / matrix_passes`` amortization records.

        With an ABFT verifier attached every column is checked against
        the column-sum checksum; a mismatch raises
        :class:`~repro.resilience.errors.FaultDetectedError` carrying
        the panel column it found.
        """
        ncol = X.shape[1]
        Y = (
            out
            if out is not None
            else np.empty((self.nlocal, ncol), dtype=self.dtype, order="F")
        )
        self.matrix_passes += 1
        self.rhs_columns += ncol
        XF = self.ws.get_panel("op.panel.xfull", self.nfull, ncol, self.dtype)
        XF[: self.nlocal, :] = X
        # The scope marker tells a covered-site fault injector the final
        # write below is checksum-verified; it reads state only, so the
        # fault-free path stays bitwise identical.
        if self.P is not None:
            pending = self.halo_ex.exchange_begin_panel(XF)
            # Every column's interior rows compute while the single
            # wide exchange is in flight ...
            spmv_interior_multi(self.P, XF, out=Y, ws=self.ws)
            # ... land all ghosts at once, then the boundary rows.
            self.halo_ex.exchange_finish_panel(pending, XF)
            with abft_scope(self.abft is not None):
                spmv_boundary_multi(self.P, XF, out=Y, ws=self.ws)
        else:
            self.halo_ex.exchange_panel(XF)
            with abft_scope(self.abft is not None):
                spmv_multi(self.A, XF, out=Y, ws=self.ws)
        if self.abft is not None:
            for j in range(ncol):
                self.abft.verify(XF[:, j], Y[:, j], column=j)
        return Y

    def matvec_sequential(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Non-overlapped reference: full exchange, then both blocks."""
        P = self._require_partition()
        xf = self._xfull
        xf[: self.nlocal] = x
        self.halo_ex.exchange(xf)
        self.matrix_passes += 1
        self.rhs_columns += 1
        with abft_scope(self.abft is not None):
            y = spmv(P, xf, out=out, ws=self.ws)
        if self.abft is not None:
            self.abft.verify(xf, y)
        return y

    def _require_partition(self):
        if self.P is None:
            raise RuntimeError(
                "operator was built without overlap=True; no partitioned "
                "layout available"
            )
        return self.P

    def matvec_split(self, x: np.ndarray) -> np.ndarray:
        """Overlapped SpMV through the row-subset kernels.

        The original (pre-partitioned-format) overlap path: receives
        and sends are posted first, ``spmv_rows`` computes the interior
        subset while messages are in transit, and the boundary subset
        runs after the ghosts land.  Kept as an independent
        implementation of the same schedule — tests cross-check it
        against :meth:`matvec`.
        """
        xf = self._xfull
        xf[: self.nlocal] = x
        interior = self.halo_ex.interior_rows
        boundary = self.halo_ex.boundary_rows
        y = np.empty(self.nlocal, dtype=self.dtype)
        pending = self.halo_ex.exchange_begin(xf)
        # Interior compute while the halo is in flight ...
        y[interior] = spmv_rows(self.A, interior, xf, ws=self.ws)
        # ... land the ghosts, then the boundary rows.
        self.halo_ex.exchange_finish(pending, xf)
        y[boundary] = spmv_rows(self.A, boundary, xf, ws=self.ws)
        return y

    def residual(
        self, b: np.ndarray, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``b - A x`` in this operator's precision."""
        ax = self.ws.get("op.residual.ax", (self.nlocal,), self.dtype)
        return np.subtract(b, self.matvec(x, out=ax), out=out)

    def residual_panel_norm2_local(
        self, B: np.ndarray, X: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Panel residual ``out = B - A X`` plus per-column local ``r . r``.

        GMRES-IR's outer residual check through the fused-motif
        pipeline; returns the float64 array of local squared norms (the
        caller owns the cross-rank reduction).  On the sequential
        schedule the whole evaluation is one ``spmv_dot_multi`` matrix
        pass; on the overlapped schedule the SpMV keeps its two-stream
        halo overlap (and its ABFT check) and the subtraction + dot
        fuse into one ``waxpby_dot_multi`` vector pass.  Both compose
        the registry's kernels operation-for-operation under the
        reference backend, so every column is bitwise-identical to
        :meth:`matvec_panel` followed by the per-column subtract and
        dot.  The matrix pass is charged once for the whole panel.
        """
        ncol = X.shape[1]
        if self.P is not None:
            AX = self.ws.get_panel("op.panel.ax", self.nlocal, ncol, self.dtype)
            self.matvec_panel(X, out=AX)
            _, locals_sq = waxpby_dot_multi(
                1.0, B, -1.0, AX, out=out, ws=self.ws
            )
            return locals_sq
        self.matrix_passes += 1
        self.rhs_columns += ncol
        XF = self.ws.get_panel("op.panel.xfull", self.nfull, ncol, self.dtype)
        XF[: self.nlocal, :] = X
        self.halo_ex.exchange_panel(XF)
        _, locals_sq = spmv_dot_multi(self.A, XF, B, out=out, ws=self.ws)
        return locals_sq
