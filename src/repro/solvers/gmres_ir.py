"""Right-preconditioned mixed-precision GMRES-IR (paper Algorithm 3).

One implementation serves both benchmark phases:

- with :data:`~repro.fp.policy.MIXED_DS_POLICY` it is the "mxp" solver:
  the multigrid preconditioner, SpMV, Krylov basis and CGS2 run in
  single precision, while the outer residual (line 7) and solution
  update (line 47) stay in double — the iterative-refinement structure
  that recovers double-precision accuracy;
- with :data:`~repro.fp.policy.DOUBLE_POLICY` every step is double and
  the algorithm reduces to restarted GMRES (Algorithm 2 with restarts),
  the benchmark's "double" reference phase;
- with a ladder policy (:meth:`PrecisionPolicy.from_ladder`, e.g.
  ``"fp16:fp32:fp64"``) the inner stage starts as low as fp16 and the
  **precision control plane** (:mod:`repro.fp.controller`) adapts the
  rungs at run time.  In ``"policy"`` mode (the default, bit-identical
  to the PR 2 escalator) a stalling restart cycle promotes the whole
  policy one rung; in ``"per-ingredient"`` mode each (ingredient, MG
  level) pair — smoother per level, SpMV, grid transfers,
  orthogonalization — owns its rung: only the controllers on the
  binding (lowest) rung promote, and sustained recovery of the outer
  residual demotes promoted controllers back down after a hysteresis
  window.  Every rung change rebuilds the affected low-precision
  state and is recorded in :class:`SolverStats` (with its ingredient
  and level) and exportable as timeline events (:mod:`repro.trace`).

Convergence checking follows the benchmark: the implicit residual from
the Givens-transformed rhs (``|t_{k+1}|``) is monitored every inner
step; the true double-precision residual is recomputed at every outer
(restart) boundary and has final say.  Iteration counts — the quantity
the validation phase penalizes — count inner Arnoldi steps.

There is one solve path.  :meth:`GMRESIRSolver.solve_panel` advances a
panel of right-hand sides in lockstep restart cycles — panel V-cycle,
panel SpMV, wide halo exchanges — with per-column projections, Givens
rotations and convergence tests, so each column's result is the one it
would get alone; :meth:`GMRESIRSolver.solve` is the width-1 panel.
Restart-boundary checkpoint replay (with ABFT-checked SpMVs) therefore
covers single solves and coalesced service batches alike.

Every hot operation dispatches through :mod:`repro.backends`, and all
O(n) temporaries live in a solver-owned workspace arena: after the
first (warmup) restart cycle the inner Arnoldi loop performs zero
array allocations, which the allocation regression test asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends.dispatch import dot_multi, gemv
from repro.backends.workspace import Workspace
from repro.fp.controller import (
    ControlConfig,
    PrecisionControlPlane,
    PrecisionEvent,
)
from repro.fp.ladder import EscalationConfig
from repro.fp.policy import DOUBLE_POLICY, PrecisionPolicy
from repro.fp.precision import Precision
from repro.mg.multigrid import MGConfig, MultigridPreconditioner
from repro.parallel.comm import Communicator
from repro.parallel.distributed import (
    dnorm2,
    dnorm2_from_local,
    dnorm2_panel_from_local,
)
from repro.resilience.abft import ABFTCheck, abft_checksums, abft_rel_tol
from repro.resilience.config import ResilienceConfig
from repro.resilience.errors import FaultDetectedError, NumericalBreakdownError
from repro.resilience.stats import ResilienceStats
from repro.solvers.givens import GivensQR
from repro.solvers.operator import DistributedOperator
from repro.solvers.ortho import ORTHO_METHODS, cgs2_fused
from repro.solvers.setup_cache import SetupCache, operator_fingerprint
from repro.sparse.formats import known_formats, to_format
from repro.sparse.partitioned import partition_matrix
from repro.sparse.scaled import to_precision
from repro.stencil.poisson27 import Problem
from repro.util.timers import NullTimers


#: Backward-compatible alias: a "promotion" record is now one
#: :class:`~repro.fp.controller.PrecisionEvent` (a superset — it also
#: covers demotions and carries the ingredient + MG level).
Promotion = PrecisionEvent


@dataclass
class SolverStats:
    """Outcome of one GMRES / GMRES-IR solve."""

    iterations: int = 0
    restarts: int = 0
    converged: bool = False
    final_relres: float = np.inf
    rho0: float = 0.0
    implicit_history: list[float] = field(default_factory=list)
    cycle_lengths: list[int] = field(default_factory=list)
    breakdown: bool = False  # "happy breakdown" (exact solution in span)
    #: Per-ingredient precision event log: every promotion *and*
    #: demotion, in firing order, with its ingredient and MG level
    #: (whole-policy events carry ``ingredient="policy"``).
    promotions: list[PrecisionEvent] = field(default_factory=list)
    #: Setup-cache counters (cumulative for the solver's cache at the
    #: time the solve finished; both zero without a cache).
    setup_cache_hits: int = 0
    setup_cache_misses: int = 0
    #: A caller-supplied ``cancel`` callback stopped this solve (or
    #: this panel column) at a restart boundary before convergence.
    cancelled: bool = False
    #: Detection/recovery counters; ``None`` unless the solver was
    #: built with a :class:`~repro.resilience.config.ResilienceConfig`
    #: (so pre-existing stats consumers and JSON records are unchanged).
    resilience: "ResilienceStats | None" = None

    @property
    def demotions(self) -> list[PrecisionEvent]:
        """The de-escalation subset of the event log."""
        return [p for p in self.promotions if p.direction == "demote"]

    def summary(self) -> str:
        if self.cancelled:
            state = "cancelled"
        else:
            state = "converged" if self.converged else "NOT converged"
        n_demote = len(self.demotions)
        n_promote = len(self.promotions) - n_demote
        promo = f", {n_promote} promotion(s)" if n_promote else ""
        if n_demote:
            promo += f", {n_demote} demotion(s)"
        return (
            f"{state} in {self.iterations} iterations "
            f"({self.restarts} restarts{promo}), "
            f"relres={self.final_relres:.3e}"
        )


class GMRESIRSolver:
    """Reusable GMRES-IR solver bound to one problem and one policy.

    Construction performs the benchmark's setup work: the double
    operator, the low-precision matrix copy (when the policy needs
    one), the multigrid hierarchy on the policy's per-level precision
    schedule, and the preallocated workspace buffers the hot loop runs
    in.  ``solve`` may then be called repeatedly (the timed benchmark
    phase re-solves from a zero guess until its time budget is spent).

    ``escalation`` configures the stall/floor detector; pass ``False``
    (or :data:`repro.fp.ladder.NO_ESCALATION`) to pin the policy for
    the whole solve.  ``control`` selects the precision control plane's
    granularity: ``"policy"`` (default — the whole-policy escalator,
    bit-identical to PR 2), ``"per-ingredient"`` (independent
    controllers per ingredient and MG level, with de-escalation), or
    ``"off"``; a full :class:`~repro.fp.controller.ControlConfig` may
    be passed instead, optionally carrying a roundoff ``budget`` that
    derives the *initial* per-ingredient rungs from the matrix
    (:mod:`repro.fp.budget`) rather than the flat policy.  After a
    rung change the solver *stays* on the new schedule for subsequent
    ``solve`` calls — rebuilding per solve would repay the setup cost
    the change already bought.
    """

    def __init__(
        self,
        problem: Problem,
        comm: Communicator,
        policy: PrecisionPolicy = DOUBLE_POLICY,
        mg_config: MGConfig | None = None,
        restart: int = 30,
        ortho: str = "cgs2",
        timers=None,
        precond: MultigridPreconditioner | None = None,
        matrix_format: str = "ell",
        escalation: "EscalationConfig | bool | None" = None,
        overlap: "bool | str" = "auto",
        control: "ControlConfig | str | None" = None,
        overlap_symgs: "bool | str" = "auto",
        fusion: bool = True,
        setup_cache: SetupCache | None = None,
        workspace: Workspace | None = None,
        format_params: dict | None = None,
        resilience: ResilienceConfig | None = None,
        adopt_plan: bool = True,
    ) -> None:
        if ortho not in ORTHO_METHODS:
            raise ValueError(f"unknown orthogonalization {ortho!r}")
        if matrix_format not in known_formats():
            raise ValueError(
                f"unknown matrix format {matrix_format!r}; registered "
                f"formats: {known_formats()}"
            )
        self.problem = problem
        self.comm = comm
        self.restart = restart
        self.ortho_name = ortho
        self.matrix_format = matrix_format
        # Storage-format construction parameters (SELL-C-σ chunk/sigma);
        # folded into every format-derived setup-cache key.
        self.format_params = dict(format_params or {})
        # Overlap interior SpMV with the halo exchange through the
        # ghost-aware partitioned layout.  "auto": on whenever there
        # are neighbor ranks to exchange with (the partition is pure
        # overhead on a serial communicator, but remains selectable
        # for tests and single-rank validation of the schedule).
        if overlap == "auto":
            self.overlap = comm.size > 1
        else:
            self.overlap = bool(overlap)
        # Overlap the *smoother's* halo exchanges with its interior
        # color blocks (the PR 5 schedule).  "auto" follows the SpMV
        # overlap decision; an explicit bool decouples the two for
        # ablation (--no-overlap-symgs).
        if overlap_symgs == "auto":
            self.overlap_symgs = self.overlap
        else:
            self.overlap_symgs = bool(overlap_symgs)
        # Fused-motif kernels (spmv_dot / waxpby_dot): the residual
        # check's subtraction and dot ride the SpMV's memory pass.
        # Numerically identical to the unfused sequence (bitwise under
        # the reference backend); off for ablation (--no-fusion).
        self.fusion = bool(fusion)
        self._orthogonalize = ORTHO_METHODS[ortho]
        # Fused CGS2: the second projection's GEMV, subtraction and
        # the norm's local reduction share one registry motif
        # (bitwise-identical composition under the reference backend).
        self._ortho_fused = (
            cgs2_fused if (self.fusion and ortho == "cgs2") else None
        )
        self.timers = timers if timers is not None else NullTimers()
        # Leased-pool integration: a caller (the batched benchmark, a
        # service front end) may hand in an already-warm arena from a
        # WorkspacePool; the solver otherwise owns a fresh one.
        self.ws = workspace if workspace is not None else Workspace("gmres-ir")
        # Operator-keyed setup cache: format conversions, precision
        # copies, partitions and the MG hierarchy are reused across
        # solver instances bound to content-identical operators.
        self.setup_cache = setup_cache
        self._fingerprint = (
            operator_fingerprint(problem.A) if setup_cache is not None else None
        )
        # Autotuned dispatch: a plan stored next to this operator's
        # cached hierarchy (repro.tune) retargets the storage format,
        # SELL-C-σ parameters and fusion — parity-asserted choices
        # only, so adoption never changes numerics.  This is the seam
        # through which solve_panel and the SolverService inherit tuned
        # dispatch: they share the SetupCache, nothing else.
        # ``adopt_plan=False`` declines a stored plan outright — the
        # service's degraded-retry path runs the untuned reference
        # dispatch when a fault persists on the tuned one.
        self.dispatch_plan = None
        if setup_cache is not None and adopt_plan:
            plan = setup_cache.plan_for(self._fingerprint)
            if plan is not None and plan.applies_to(
                self.matrix_format,
                tuple(sorted(self.format_params.items())),
                self.fusion,
            ):
                plan.assert_parity()
                self.dispatch_plan = plan
                self.matrix_format = plan.solver_format()
                self.format_params = dict(plan.solver_format_params())
                self.fusion = plan.solver_fusion()
                self._ortho_fused = (
                    cgs2_fused if (self.fusion and ortho == "cgs2") else None
                )
        self._format_key = (
            self.matrix_format,
            tuple(sorted(self.format_params.items())),
        )
        if escalation is None:
            # fp16 rungs cannot reach double tolerances without climbing,
            # so the controller defaults on for them; fp32/fp64 policies
            # keep the paper's fixed-policy behaviour unless the caller
            # opts in explicitly.
            escalation = EscalationConfig(
                enabled=(policy.low is Precision.HALF)
            )
        elif escalation is True:
            escalation = EscalationConfig()
        elif escalation is False:
            escalation = EscalationConfig(enabled=False)
        # The control plane: a ControlConfig wins outright (it carries
        # its own detector settings); a bare mode string combines with
        # the escalation resolution above; None is the historical
        # whole-policy escalator.
        if isinstance(control, ControlConfig):
            escalation = control.escalation
        elif isinstance(control, str):
            control = ControlConfig(mode=control, escalation=escalation)
        elif control is None:
            control = ControlConfig(mode="policy", escalation=escalation)
        else:
            raise TypeError(
                f"control must be a ControlConfig, a mode string or "
                f"None, got {control!r}"
            )
        self.escalation = escalation
        self.control = control

        # Krylov-loop matrix in the requested storage format (the
        # reference implementation uses CSR, the optimized one ELL;
        # SELL-C-σ is the GPU-general layout).
        self.A64 = self._setup(
            "A64",
            self._format_key,
            lambda: to_format(
                problem.A, self.matrix_format, **self.format_params
            ),
        )

        # Double-precision operator for outer residuals, and the outer
        # residual buffer — both policy-independent (always fp64), so
        # they survive ladder promotions unchanged.
        self.op64 = DistributedOperator(
            self.A64,
            problem.halo,
            comm,
            workspace=self.ws,
            overlap=self.overlap,
            partition=self._setup_partition(self.A64, "fp64"),
        )

        # Resilience: ABFT column-sum checksums, computed ONCE in fp64
        # from A64 and cached with the other setup products.  Scaled
        # low-precision kernels fold their row scales back into the
        # output, so every rung presents the *original* operator and one
        # fp64 checksum pair serves the whole ladder — only the
        # verification tolerance tracks the rung's unit roundoff.
        self.resilience = resilience
        self._abft = None
        if resilience is not None and resilience.abft:
            self._abft = self._setup(
                "abft", self._format_key, lambda: abft_checksums(self.A64)
            )
            c, cabs = self._abft
            self.op64.attach_abft(
                ABFTCheck(c, cabs, self._abft_tol(np.float64))
            )
        # Per-slot Krylov state, one slot per panel column (slot 0 is
        # the single-RHS ``solve``'s): the bases are rebuilt per rung
        # by ``_bind_policy``, the Givens QRs are policy-independent
        # (always fp64) and fully reset per restart cycle.  The
        # Hessenberg-column staging buffer is shared by every slot.
        # Slots persist across calls, so repeated solves at one width
        # perform no setup allocations.
        self._Qs: list[np.ndarray] = []
        self._qrs: list[GivensQR] = []
        self._hcol = np.zeros(restart + 1, dtype=np.float64)

        self.mg_config = mg_config or MGConfig()
        self._shared_precond = precond
        nlevels = self.mg_config.nlevels
        if control.mode == "per-ingredient" and control.budget is not None:
            # Carson-style chooser: the initial per-ingredient rungs
            # come from the matrix's norm/condition estimates, not the
            # flat policy spec.
            self.plane = PrecisionControlPlane.from_budget(
                control, policy, nlevels, self.A64, restart=restart
            )
        else:
            self.plane = PrecisionControlPlane(control, policy, nlevels)
        self._bind_policy(self.plane.live_policy())

    # ------------------------------------------------------------------
    def _setup(self, kind: str, params: tuple, builder):
        """Build a setup product, through the cache when one is bound."""
        if self.setup_cache is None:
            return builder()
        return self.setup_cache.get_or_build(
            self._fingerprint, kind, params, builder
        )

    def _setup_partition(self, A, prec_name: str):
        """Cached interior/boundary partition for the overlap schedule."""
        if not self.overlap:
            return None
        return self._setup(
            "partition",
            (self._format_key, prec_name, self.comm.size, self.comm.rank),
            lambda: partition_matrix(A, self.problem.halo),
        )

    def _abft_tol(self, dtype) -> float:
        """ABFT relative tolerance for one rung's arithmetic."""
        if self.resilience is not None and self.resilience.abft_rel_tol:
            return self.resilience.abft_rel_tol
        return abft_rel_tol(dtype)

    # ------------------------------------------------------------------
    def _bind_policy(self, policy: PrecisionPolicy) -> None:
        """(Re)build every precision-dependent piece for ``policy``.

        Called at construction and again by the escalation controller
        after each promotion: the inner operator, the multigrid
        hierarchy (on the policy's per-level schedule) and the Krylov
        bases all change dtype with the rung.
        """
        self.policy = policy

        # Inner operator in the policy's matrix precision.  GMRES-IR
        # stores this *second* copy of A (the memory overhead §5 notes);
        # the uniform-double policy reuses the double operator.  fp16
        # rungs get row-equilibrated storage (repro.sparse.scaled).
        if policy.matrix is Precision.DOUBLE:
            self.op_inner = self.op64
            self.A_low = self.A64
        else:
            prec_name = policy.matrix.short_name
            self.A_low = self._setup(
                "A_low",
                (self._format_key, prec_name),
                lambda: to_precision(self.A64, policy.matrix),
            )
            self.op_inner = DistributedOperator(
                self.A_low,
                self.problem.halo,
                self.comm,
                workspace=self.ws,
                overlap=self.overlap,
                partition=self._setup_partition(self.A_low, prec_name),
            )
            if self._abft is not None:
                # Same fp64 checksums (the scaled kernels present the
                # original operator); tolerance at this rung's roundoff.
                c, cabs = self._abft
                self.op_inner.attach_abft(
                    ABFTCheck(c, cabs, self._abft_tol(policy.matrix.dtype))
                )

        # Multigrid preconditioner on the policy's per-level schedule.
        # When the fine level runs in the inner-operator precision (and
        # the hierarchy's format), share it (no second low copy).
        if self._shared_precond is not None:
            self.M = self._shared_precond
        else:
            shared = (
                self.A_low
                if policy.preconditioner is policy.matrix
                else None
            )
            mg_schedule = policy.mg_schedule(self.mg_config.nlevels)
            transfer_schedule = self.plane.transfer_schedule()

            def _build_mg():
                return MultigridPreconditioner.build(
                    self.problem,
                    self.comm,
                    self.mg_config,
                    precision=mg_schedule,
                    timers=self.timers,
                    fine_matrix=shared,
                    matrix_format=self.matrix_format,
                    format_params=self.format_params,
                    workspace=self.ws,
                    # Per-ingredient mode schedules the grid transfers
                    # apart from the levels; None preserves the
                    # historical coarse-rung coupling (the
                    # "policy"-mode bitwise guarantee).
                    transfer_precision=transfer_schedule,
                    overlap=self.overlap_symgs,
                )

            # The cached hierarchy carries its colorings, partitioned
            # smoother layouts and warm workspace with it; only the
            # timers rebind to the acquiring solver.
            self.M = self._setup(
                "mg",
                (
                    self._format_key,
                    tuple(mg_schedule),
                    tuple(transfer_schedule) if transfer_schedule else None,
                    self.mg_config,
                    self.overlap_symgs,
                    shared is not None,
                    self.comm.size,
                    self.comm.rank,
                ),
                _build_mg,
            )
            self.M.timers = self.timers

        # Krylov bases (every panel slot; ``self.Q`` is slot 0's) and
        # the basis-precision staging for the least-squares solution,
        # preallocated once per rung.
        n = self.problem.nlocal
        basis_dtype = policy.krylov_basis.dtype
        self._Qs = [
            np.zeros((n, self.restart + 1), dtype=basis_dtype)
            for _ in range(max(1, len(self._Qs)))
        ]
        self.Q = self._Qs[0]
        self._ycast = np.zeros(self.restart, dtype=basis_dtype)

    # ------------------------------------------------------------------
    def _halo_exchanges(self) -> list:
        """Every distinct halo-exchange plan the solver drives."""
        plans = [self.op64.halo_ex]
        if self.op_inner is not self.op64:
            plans.append(self.op_inner.halo_ex)
        for lv in self.M.levels:
            if all(lv.halo_ex is not p for p in plans):
                plans.append(lv.halo_ex)
        return plans

    def halo_seconds(self) -> float:
        """Measured wall-clock seconds inside halo exchanges.

        Summed over the outer/inner operators and every MG level;
        counters restart on :meth:`reset_halo_counters` (a rung-change
        rebuild also restarts the rebuilt components' counters).
        """
        return sum(ex.seconds for ex in self._halo_exchanges())

    def halo_exchange_count(self) -> int:
        """Measured number of halo exchanges (same scope as above)."""
        return sum(ex.exchanges for ex in self._halo_exchanges())

    def halo_message_count(self) -> int:
        """Measured halo *messages* posted (same scope as above).

        One per neighbor per exchange round — the quantity the
        panel-native wide exchange divides by the panel width relative
        to the looped schedule (bytes on the wire are unchanged).
        """
        return sum(ex.messages for ex in self._halo_exchanges())

    def halo_sent_bytes(self) -> int:
        """Measured halo wire bytes sent (same scope as above)."""
        return sum(ex.sent_bytes for ex in self._halo_exchanges())

    def halo_exposed_seconds(self) -> float:
        """Measured wall clock in *exposed* halo communication.

        The subset of :meth:`halo_seconds` no compute hid: blocking
        full exchanges plus the landing waits of overlapped exchanges.
        The exposed/total ratio is the benchmark's Fig. 9b health
        metric — overlap schedules (SpMV and SymGS) drive it down.
        """
        return sum(ex.exposed_seconds for ex in self._halo_exchanges())

    def exposed_comm_seconds_by_level(self) -> list[float]:
        """Exposed halo seconds per MG level (finest first).

        The per-level view of :meth:`halo_exposed_seconds` the
        distributed benchmark phase reports: coarse levels' tiny
        interior windows are where exposure concentrates (Fig. 9b).
        """
        return [lv.halo_ex.exposed_seconds for lv in self.M.levels]

    def reset_halo_counters(self) -> None:
        for ex in self._halo_exchanges():
            ex.reset_counters()

    # ------------------------------------------------------------------
    def _export_setup_stats(self, *stats: SolverStats) -> None:
        """Snapshot the setup cache's counters into the stats records."""
        hits = self.setup_cache.hits if self.setup_cache is not None else 0
        misses = self.setup_cache.misses if self.setup_cache is not None else 0
        for s in stats:
            s.setup_cache_hits = hits
            s.setup_cache_misses = misses

    def _apply_events(
        self, stats: list[SolverStats], events: list[PrecisionEvent]
    ) -> None:
        """Record the plane's rung changes and rebuild the inner stage.

        One schedule serves the whole panel, so the events land in
        every listed column's log.  A caller-supplied preconditioner is
        abandoned here: it sits on the old schedule — often containing
        the very component whose roundoff floor triggered the change —
        so the rebuild constructs a fresh hierarchy on the plane's live
        schedule instead.
        """
        for s in stats:
            s.promotions.extend(events)
        self._shared_precond = None
        self._bind_policy(self.plane.live_policy())

    def _replay_fault(
        self,
        fault: Exception,
        stats: list[SolverStats],
        culprit: SolverStats,
        X: np.ndarray,
        X_ckpt: np.ndarray | None,
    ) -> bool:
        """Recover from a fault detected inside a panel restart cycle.

        The replay semantics: every column in ``stats`` (the columns
        the faulted round was advancing) rewinds to its
        restart-boundary checkpoint and counts one replay, and only
        ``culprit`` — the column the checksum or finite guard flagged —
        is charged ``detected`` (or ``breakdowns``).  The control
        plane's breakdown path then promotes the binding ingredient one
        rung (a corrupted low-precision unit retries with more
        headroom); that rung change is panel-wide, so it lands in every
        rewound column's promotion log, flagged or not.

        Returns ``False`` to tell the caller to re-raise: resilience
        off, finite guards off for a breakdown, or some rewound column's
        replay budget spent (the persistent-fault escape hatch).
        """
        res = self.resilience
        if res is None or X_ckpt is None:
            return False
        if isinstance(fault, FaultDetectedError):
            culprit.resilience.detected += 1
        else:
            if not res.finite_guards:
                return False
            culprit.resilience.breakdowns += 1
        if any(s.resilience.replays >= res.max_replays for s in stats):
            return False
        for s in stats:
            s.resilience.replays += 1
        np.copyto(X, X_ckpt)
        events = self.plane.observe_fault(
            max(s.final_relres for s in stats),
            max(s.iterations for s in stats),
            max(s.restarts for s in stats),
        )
        if events:
            self._apply_events(stats, events)
        return True

    @staticmethod
    def _note_recovery(stats: SolverStats) -> None:
        """Mark a converged solve that needed at least one replay."""
        rs = stats.resilience
        if rs is not None and rs.replays and stats.converged:
            rs.recovered = 1

    def _outer_residual(
        self, B: np.ndarray, X: np.ndarray, cols: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(R, rho)``: fp64 residuals ``B - A X`` of columns ``cols``.

        Algorithm 3 line 7 for the listed panel columns: one fp64
        matrix pass, then **one** vector all-reduce for their norms
        (each entry bitwise-equal to a per-column ``dnorm2``).  Fused —
        the subtraction and the local dots ride the SpMV's memory pass
        — unless the solver was built with ``fusion=False``, which runs
        ``matvec_panel`` and then the per-column subtract and dot
        (bitwise-identical under the reference backend).
        """
        n, w = self.problem.nlocal, len(cols)
        Bc = self.ws.get_panel("panel.b", n, w, np.float64)
        Xc = self.ws.get_panel("panel.x", n, w, np.float64)
        R = self.ws.get_panel("panel.r", n, w, np.float64)
        for i, j in enumerate(cols):
            np.copyto(Bc[:, i], B[:, j])
            np.copyto(Xc[:, i], X[:, j])
        with self.timers.section("spmv"):
            if self.fusion:
                local = self.op64.residual_panel_norm2_local(Bc, Xc, out=R)
            else:
                self.op64.matvec_panel(Xc, out=R)
                np.subtract(Bc, R, out=R)
        with self.timers.section("dot"):
            if not self.fusion:
                local = dot_multi(R, R)
            return R, dnorm2_panel_from_local(self.comm, local)

    # ------------------------------------------------------------------
    def solve(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        tol: float = 1e-9,
        maxiter: int = 300,
        target_residual: float | None = None,
        cancel=None,
    ) -> tuple[np.ndarray, SolverStats]:
        """Solve ``A x = b``: the width-1 :meth:`solve_panel`.

        Parameters
        ----------
        tol:
            Relative-residual convergence tolerance (vs ``||b||``).
        maxiter:
            Cap on total inner iterations.
        target_residual:
            Optional *absolute* residual-norm target overriding ``tol``
            (the full-scale validation mode converges GMRES-IR to the
            residual the double solver achieved).
        cancel:
            Optional zero-argument callable polled at every restart
            boundary; returning ``True`` stops the solve there (the
            partial iterate is returned with its boundary residual and
            ``stats.cancelled`` set).
        """
        X, stats = self.solve_panel(
            np.asarray(b)[:, None],
            None if x0 is None else np.asarray(x0)[:, None],
            tol=tol,
            maxiter=maxiter,
            target_residual=target_residual,
            cancel=None if cancel is None else (lambda _j: cancel()),
        )
        return X[:, 0], stats[0]

    def _ensure_slots(self, ncol: int) -> None:
        """Grow the per-slot Krylov bases and Givens QRs to ``ncol``.

        Slots persist across solves (a rung change reallocates the
        bases, the QRs are rung-independent), so repeated solves at one
        panel width allocate nothing.
        """
        n, m = self.problem.nlocal, self.restart
        while len(self._Qs) < ncol:
            self._Qs.append(np.zeros((n, m + 1), dtype=self.Q.dtype))
        while len(self._qrs) < ncol:
            self._qrs.append(GivensQR(m))

    def solve_panel(
        self,
        B: np.ndarray,
        X0: np.ndarray | None = None,
        tol: float = 1e-9,
        maxiter: int = 300,
        target_residual: float | None = None,
        cancel=None,
    ) -> tuple[np.ndarray, list[SolverStats]]:
        """Solve ``A X = B`` for a panel of right-hand sides at once.

        ``B`` is ``(nlocal, N)`` (any layout; consumed column-major).
        All active columns advance in lockstep restart cycles so the
        operator applications become *panel* kernels: one
        ``matvec_panel`` / ``apply_panel`` / panel outer residual per
        step, with the matrix block charged **once** per panel (the
        amortization ``DistributedOperator.matrix_passes`` /
        ``rhs_columns`` records).  Per column the arithmetic sequence —
        residuals, projections, Givens rotations, convergence tests —
        depends on that column alone, so every column's result is
        bitwise-equal to solving it alone (:meth:`solve` is this method
        at width 1).  Column ``j`` runs in the solver-owned Krylov
        basis and Givens QR of slot ``j``.

        Columns **deflate**: a column that converges at a restart
        boundary (or exhausts ``maxiter``) leaves the panel and later
        cycles run narrower.  The precision control plane is consulted
        once per panel boundary (on the worst active column) — a rung
        change rebinds the whole panel, exactly one schedule for all
        columns.

        With a :class:`~repro.resilience.config.ResilienceConfig` the
        panel checkpoints ``X`` at every restart boundary, and a fault
        detected inside a round (an ABFT checksum mismatch in a panel
        SpMV, a non-finite outer residual) replays the round from the
        checkpoint; see :meth:`_replay_fault` for the per-column
        accounting.  Each column carries its own
        :class:`~repro.resilience.stats.ResilienceStats`.

        ``cancel``, when given, is a one-argument callable polled per
        column (``cancel(j) -> bool``) at every panel boundary: a
        ``True`` deflates column ``j`` exactly like convergence would
        — it leaves the panel mid-solve with ``stats[j].cancelled``
        set and its boundary residual recorded — while the surviving
        columns' arithmetic is untouched.

        Returns ``(X, stats)`` with one :class:`SolverStats` per
        column.
        """
        comm, timers = self.comm, self.timers
        n = self.problem.nlocal
        m = self.restart

        B = np.asarray(B)
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(
                f"B must be (nlocal, N) = ({n}, *), got {B.shape}"
            )
        ncol = B.shape[1]
        X = np.zeros((n, ncol), dtype=np.float64, order="F")
        if X0 is not None:
            X[:] = X0
        stats = [SolverStats() for _ in range(ncol)]
        self._export_setup_stats(*stats)
        self.plane.reset_observation()
        self._ensure_slots(ncol)

        with timers.section("dot"):
            # N local dots, then ONE vector all-reduce — each entry
            # bitwise-equal to a per-column dnorm2.
            rho0 = dnorm2_panel_from_local(comm, dot_multi(B, B))
        for j in range(ncol):
            stats[j].rho0 = rho0[j]
            if rho0[j] == 0.0:
                stats[j].converged = True
                stats[j].final_relres = 0.0
        if target_residual is not None:
            abs_tol = np.full(ncol, float(target_residual))
        else:
            abs_tol = tol * rho0
        active = [j for j in range(ncol) if rho0[j] != 0.0]

        # Resilience: checkpoint panel + per-column counters.  ``None``
        # (the default) skips both the copy and the stats blocks.
        X_ckpt = None
        if self.resilience is not None:
            for j in active:
                stats[j].resilience = ResilienceStats()
            X_ckpt = self.ws.get_panel("panel.ckpt", n, ncol, np.float64)
        # Columns stopped for good by an empty-cycle breakdown with no
        # rung left to promote.  A breakdown with k > 0 does NOT halt a
        # column — it updates and keeps restarting (the flag stays in
        # its stats).
        halted: set[int] = set()

        while active:
            if X_ckpt is not None:
                # Restart-boundary checkpoint; the copy reads state
                # only, so a fault-free run is bitwise identical with
                # or without it.
                np.copyto(X_ckpt, X)
            # ``rewound``: the columns a fault in this round replays;
            # ``inflight``: the panel the SpMV in flight serves (a
            # FaultDetectedError's column indexes it).
            rewound = inflight = active
            try:
                # --- panel outer (IR) step: one fp64 matrix pass ---
                Ract, rhos = self._outer_residual(B, X, active)
                for i, j in enumerate(active):
                    stats[j].final_relres = rhos[i] / rho0[j]
                if not np.all(np.isfinite(rhos)):
                    # NaN/inf never compares <= abs_tol: without this
                    # guard the panel silently burns iterations to
                    # maxiter on poisoned state.  Typed abort (or, with
                    # resilience enabled, a checkpoint replay).
                    bad = int(np.flatnonzero(~np.isfinite(rhos))[0])
                    fault = NumericalBreakdownError(
                        f"outer residual norm (column {active[bad]})",
                        float(rhos[bad]),
                    )
                    fault.column = bad
                    raise fault

                # --- convergence + deflation at the panel boundary ---
                cycle_cols: list[tuple[int, int]] = []
                worst: tuple[float, float] | None = None
                for i, j in enumerate(active):
                    if rhos[i] <= abs_tol[j]:
                        stats[j].converged = True
                    elif cancel is not None and cancel(j):
                        stats[j].cancelled = True
                    elif stats[j].iterations < maxiter and j not in halted:
                        cycle_cols.append((i, j))
                        relres = rhos[i] / rho0[j]
                        if worst is None or relres > worst[1]:
                            worst = (rhos[i], relres)
                if not cycle_cols:
                    break
                rewound = [j for _, j in cycle_cols]

                # --- precision control plane: one verdict per panel ---
                # Stagnation promotes the binding rung (whole policy in
                # "policy" mode, the lowest-rung controllers otherwise);
                # sustained recovery demotes per-ingredient controllers
                # after the hysteresis window.
                events = self.plane.observe_restart(
                    worst[0],
                    worst[1],
                    max(stats[j].iterations for j in rewound),
                    max(stats[j].restarts for j in rewound),
                )
                if events:
                    self._apply_events([stats[j] for j in rewound], events)
                basis_dtype = self.policy.krylov_basis.dtype

                # --- start a lockstep restart cycle (lines 11-13) ---
                klast: dict[int, int] = {}
                for i, j in cycle_cols:
                    self._qrs[j].start(rhos[i])
                    np.divide(Ract[:, i], rhos[i], out=self._Qs[j][:, 0])
                    stats[j].restarts += 1
                    klast[j] = 0

                cols = rewound
                k = 0
                while k < m:
                    cols = [j for j in cols if stats[j].iterations < maxiter]
                    if not cols:
                        break
                    inflight = cols
                    nw = len(cols)
                    # --- panel inner Arnoldi step (one matrix pass) ---
                    Qk = self.ws.get_panel("panel.qk", n, nw, basis_dtype)
                    for idx, j in enumerate(cols):
                        np.copyto(Qk[:, idx], self._Qs[j][:, k])
                    prec_dtype = self.M.precision.dtype
                    Zp = self.ws.get_panel("panel.z", n, nw, prec_dtype)
                    self.M.apply_panel(Qk, out=Zp)  # line 18: MG precond
                    if prec_dtype != self.op_inner.dtype:
                        Zin = self.ws.get_panel(
                            "panel.zop", n, nw, self.op_inner.dtype
                        )
                        np.copyto(Zin, Zp)  # precision cast, no alloc
                    else:
                        Zin = Zp
                    Wp = self.ws.get_panel("panel.w", n, nw, self.op_inner.dtype)
                    with timers.section("spmv"):
                        self.op_inner.matvec_panel(Zin, out=Wp)  # line 19
                    if self.op_inner.dtype != basis_dtype:
                        Wb = self.ws.get_panel("panel.wb", n, nw, basis_dtype)
                        np.copyto(Wb, Wp)
                    else:
                        Wb = Wp

                    # --- per-column orthogonalization + Givens update ---
                    still: list[int] = []
                    for idx, j in enumerate(cols):
                        Q = self._Qs[j]
                        w = Wb[:, idx]
                        with timers.section("ortho"):
                            if self._ortho_fused is not None:
                                # lines 20-27 with the norm's local
                                # reduction fused into the second
                                # projection pass.
                                h, local = self._ortho_fused(
                                    comm, Q, k + 1, w, ws=self.ws
                                )
                                beta = dnorm2_from_local(comm, local)
                            else:
                                h = self._orthogonalize(
                                    comm, Q, k + 1, w, ws=self.ws
                                )
                                beta = dnorm2(comm, w)
                        stats[j].iterations += 1
                        # (Near-)breakdown: the new direction is
                        # numerically dependent on the basis at this
                        # precision.  The column leaves the cycle
                        # without the degenerate column; the IR outer
                        # loop restarts it from a fresh fp64 residual.
                        pre_ortho_norm = float(np.sqrt(h @ h + beta * beta))
                        if beta <= 4.0 * np.finfo(basis_dtype).eps * max(
                            pre_ortho_norm, 1e-300
                        ):
                            stats[j].breakdown = True
                            continue
                        np.divide(
                            w,
                            np.asarray(beta, dtype=basis_dtype),
                            out=Q[:, k + 1],
                        )  # lines 28-30
                        with timers.section("qr_host"):
                            # Stage the Hessenberg column in the
                            # preallocated buffer (add_column copies).
                            col = self._hcol[: k + 2]
                            col[: k + 1] = h
                            col[k + 1] = beta
                            rho_j = self._qrs[j].add_column(col)  # lines 31-43
                        klast[j] = k + 1
                        stats[j].implicit_history.append(rho_j / rho0[j])
                        if rho_j > abs_tol[j]:
                            still.append(j)
                        # else: implicit convergence (lines 15-17) — the
                        # column leaves the cycle; the boundary's true
                        # residual has final say.
                    cols = still
                    k += 1
                self.plane.cycle_completed()

                # --- solution update (lines 45-47): per-column host QR
                # back-solves and basis GEMVs feed ONE panel V-cycle ---
                upd_cols = []
                for j in rewound:
                    stats[j].cycle_lengths.append(klast[j])
                    if klast[j]:
                        upd_cols.append(j)
                if upd_cols:
                    nupd = len(upd_cols)
                    Up = self.ws.get_panel("panel.u", n, nupd, basis_dtype)
                    for idx, j in enumerate(upd_cols):
                        kj = klast[j]
                        with timers.section("qr_host"):
                            y = self._qrs[j].solve(kj)  # t <- H^{-1} t
                        with timers.section("ortho"):
                            yc = self._ycast[:kj]
                            np.copyto(yc, y)  # basis-precision cast
                            gemv(self._Qs[j], kj, yc, out=Up[:, idx])
                    Zup = self.ws.get_panel(
                        "panel.zup", n, nupd, self.M.precision.dtype
                    )
                    self.M.apply_panel(Up, out=Zup)  # M^{-1}, one wide pass
                    with timers.section("waxpby"):
                        for idx, j in enumerate(upd_cols):
                            xj = X[:, j]
                            np.add(xj, Zup[:, idx], out=xj)  # fp64 mandated

                # Empty-cycle breakdown columns: this precision cannot
                # extend their basis at all.  With rungs left on the
                # ladder, one panel-wide promotion retries them next
                # boundary (their breakdown flag resets); on a fixed
                # plane they halt for good.
                stuck = [
                    j for j in rewound if klast[j] == 0 and stats[j].breakdown
                ]
                if stuck:
                    events = self.plane.observe_breakdown(
                        worst[0],
                        worst[1],
                        max(stats[j].iterations for j in stuck),
                        max(stats[j].restarts for j in stuck),
                    )
                    if events:
                        self._apply_events([stats[j] for j in rewound], events)
                        for j in stuck:
                            stats[j].breakdown = False
                    else:
                        halted.update(stuck)
            except (FaultDetectedError, NumericalBreakdownError) as fault:
                culprit = stats[inflight[fault.column or 0]]
                rewound_stats = [stats[j] for j in rewound]
                if not self._replay_fault(
                    fault, rewound_stats, culprit, X, X_ckpt
                ):
                    raise

            active = [
                j
                for j in rewound
                if not stats[j].converged
                and not stats[j].cancelled
                and stats[j].iterations < maxiter
                and j not in halted
            ]

        # --- final true residuals for columns that exited mid-state ---
        # Cancelled columns are excluded: their boundary residual is
        # already recorded, and charging a matrix pass for abandoned
        # work would bill the surviving requests for it.
        pending = [
            j
            for j in range(ncol)
            if rho0[j] != 0.0
            and not stats[j].converged
            and not stats[j].cancelled
        ]
        if pending:
            _, rhos = self._outer_residual(B, X, pending)
            for i, j in enumerate(pending):
                stats[j].final_relres = rhos[i] / rho0[j]
                stats[j].converged = rhos[i] <= abs_tol[j]
        for s in stats:
            self._note_recovery(s)
        self._export_setup_stats(*stats)
        return X, stats


def gmres_solve(
    problem: Problem,
    comm: Communicator,
    b: np.ndarray | None = None,
    policy: PrecisionPolicy = DOUBLE_POLICY,
    mg_config: MGConfig | None = None,
    restart: int = 30,
    tol: float = 1e-9,
    maxiter: int = 300,
    ortho: str = "cgs2",
    escalation: "EscalationConfig | bool | None" = None,
    control: "ControlConfig | str | None" = None,
) -> tuple[np.ndarray, SolverStats]:
    """One-shot convenience wrapper around :class:`GMRESIRSolver`."""
    solver = GMRESIRSolver(
        problem,
        comm,
        policy=policy,
        mg_config=mg_config,
        restart=restart,
        ortho=ortho,
        escalation=escalation,
        control=control,
    )
    rhs = problem.b if b is None else b
    return solver.solve(rhs, tol=tol, maxiter=maxiter)
