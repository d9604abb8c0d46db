"""Per-ingredient precision control plane.

PR 2's escalation controller watched the outer residual and, on
stagnation, promoted the *whole* :class:`~repro.fp.policy.PrecisionPolicy`
one rung — so a single stalling ingredient dragged every kernel up the
ladder and forfeited the byte savings the perf model predicts.  The
paper's gains (and HPL-MxP's refinement design) come from giving each
solver *ingredient* its own rung; Carson's inexactness-balancing
analysis shows the right control granularity is per ingredient against
a roundoff budget.

This module is that control plane:

- :class:`IngredientController` — one per ``(ingredient, MG level)``
  pair, owning its rung, its floor (the rung it started on, which
  de-escalation never goes below) and its recovery streak;
- :class:`PrecisionControlPlane` — the collection consulted by
  :class:`~repro.solvers.gmres_ir.GMRESIRSolver` at every restart
  boundary.  Three modes:

  * ``"per-ingredient"`` — stall/floor/breakdown promotes only the
    controllers sitting on the *binding* (lowest) rung, and sustained
    recovery of the outer residual demotes previously-promoted
    controllers back down after a hysteresis window;
  * ``"policy"`` — the PR 2 behaviour, bit-for-bit: one pseudo
    controller promotes the whole policy, never demotes;
  * ``"off"`` — the plane observes but never changes anything (the
    fixed-policy solver).

- :class:`PrecisionEvent` — one promotion *or* demotion, carrying the
  ingredient and MG level so traces and reports can attribute the move
  (``SolverStats.promotions`` is a list of these);
- :class:`IngredientSchedule` — an immutable snapshot of the live
  rungs, duck-typing the policy interface the byte model consumes
  (:meth:`~repro.perf.scaling.ScalingModel.cycle_traffic_bytes`), so
  modeled traffic tracks the live mixed schedule.

The initial rung assignment can come from a flat policy
(:meth:`PrecisionControlPlane.seeded`) or from the Carson-style
roundoff-budget chooser in :mod:`repro.fp.budget`.

Ingredients
-----------
``"smoother"``  GS sweeps of one MG level (level-indexed).
``"transfer"``  restriction/prolongation out of one level: the rung of
                the coarse-defect vector crossing the level boundary.
``"spmv"``      the inner Krylov operator (level 0 only).
``"ortho"``     CGS2 orthogonalization and the Krylov basis storage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fp.ladder import EscalationConfig, next_rung, prev_rung
from repro.fp.policy import PrecisionPolicy
from repro.fp.precision import Precision

#: The controllable solver ingredients.
INGREDIENTS = ("smoother", "transfer", "spmv", "ortho")

#: Valid control-plane modes.
CONTROL_MODES = ("per-ingredient", "policy", "off")


@dataclass(frozen=True)
class PrecisionEvent:
    """One rung change (promotion or demotion) during a solve.

    ``ingredient``/``level`` attribute the move; whole-policy events
    (the PR 2 escalator) carry ``ingredient="policy"``.  The field
    names ``from_low``/``to_low`` predate the per-ingredient split (a
    whole-policy event records the policy's lowest rung); for a
    per-ingredient event they are simply the controller's rung before
    and after.
    """

    iteration: int  # inner-iteration count when the event fired
    restart: int  # restart cycles completed at that point
    relres: float  # outer relative residual that triggered it
    reason: str  # "stall" | "floor" | "breakdown" | "recovered" | "fault"
    from_low: Precision  # rung before the event
    to_low: Precision  # rung after
    ingredient: str = "policy"
    level: int | None = None
    direction: str = "promote"  # "promote" | "demote"

    def describe(self) -> str:
        where = self.ingredient
        if self.level is not None:
            where += f"@L{self.level}"
        return (
            f"iter {self.iteration}: {self.direction} {where} "
            f"{self.from_low.short_name}->{self.to_low.short_name} "
            f"({self.reason}, relres={self.relres:.2e})"
        )


@dataclass(frozen=True)
class ControlConfig:
    """Knobs of the precision control plane.

    ``escalation`` carries the PR 2 stall/floor detector settings
    (shared by both modes so ``"policy"`` stays bit-identical to the
    old escalator).  The remaining knobs drive per-ingredient
    de-escalation:

    Attributes
    ----------
    mode:
        ``"per-ingredient"``, ``"policy"`` or ``"off"``.
    demote_ratio:
        A restart cycle counts toward the recovery streak only when it
        shrinks the true residual to at most ``demote_ratio *
        previous``.  At judgement time the effective threshold is
        ``min(demote_ratio, stall_ratio)`` — recovery is always
        strictly stronger progress than merely avoiding a stall, even
        under an aggressive (small) ``stall_ratio``.
    hysteresis:
        Consecutive recovering cycles required before one demotion
        step.  Any non-recovering cycle resets the streak, so a rung
        oscillation costs at least ``hysteresis`` good cycles per
        round trip.
    demote_headroom:
        A controller only demotes while the outer relative residual
        still sits well above the *target* rung's roundoff floor:
        ``relres > demote_headroom * floor_factor * eps(target)``.
        Demoting below that would re-stall immediately.
    budget:
        Optional Carson-style roundoff budget handed to
        :func:`repro.fp.budget.choose_plane` for the *initial* rung
        assignment (``--precision-budget``).  ``None`` seeds from the
        configured policy instead.
    """

    mode: str = "policy"
    escalation: EscalationConfig = EscalationConfig()
    demote_ratio: float = 0.25
    hysteresis: int = 2
    demote_headroom: float = 10.0
    budget: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in CONTROL_MODES:
            raise ValueError(
                f"unknown precision-control mode {self.mode!r}; valid "
                f"modes: {CONTROL_MODES}"
            )
        if not 0.0 < self.demote_ratio <= 1.0:
            raise ValueError("demote_ratio must be in (0, 1]")
        if self.hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        if self.budget is not None and self.budget <= 0.0:
            raise ValueError("budget must be positive")

    @property
    def active(self) -> bool:
        """True when the plane may change rungs at run time."""
        return self.mode != "off" and self.escalation.enabled


#: Control disabled — the fixed-policy historical behaviour.
NO_CONTROL = ControlConfig(mode="off", escalation=EscalationConfig(enabled=False))


@dataclass
class IngredientController:
    """Rung state of one ``(ingredient, MG level)`` pair.

    ``floor`` is the initial rung: promotion climbs above it on
    stall/floor/breakdown, de-escalation returns toward it but never
    below.  ``promote``/``demote`` at the ladder ends are explicit
    no-ops (they return ``False``), so the plane never needs a bounds
    check before moving a controller.
    """

    ingredient: str
    level: int
    rung: Precision
    floor: Precision
    good_cycles: int = 0  # recovery streak toward one demotion
    moves: int = 0  # total rung changes (diagnostics)

    def __post_init__(self) -> None:
        if self.ingredient not in INGREDIENTS:
            raise ValueError(
                f"unknown ingredient {self.ingredient!r}; valid: {INGREDIENTS}"
            )
        if self.rung.bytes < self.floor.bytes:
            raise ValueError("controller rung cannot start below its floor")

    @property
    def key(self) -> tuple[str, int]:
        return (self.ingredient, self.level)

    @property
    def can_promote(self) -> bool:
        return self.rung is not Precision.DOUBLE

    @property
    def can_demote(self) -> bool:
        """True when promoted above the floor (de-escalation headroom)."""
        return self.rung.bytes > self.floor.bytes

    def promote(self) -> bool:
        """One rung up; explicit no-op (False) at the top of the ladder."""
        if not self.can_promote:
            return False
        self.rung = next_rung(self.rung)
        self.good_cycles = 0
        self.moves += 1
        return True

    def demote(self) -> bool:
        """One rung down toward the floor; no-op (False) at the floor."""
        if not self.can_demote:
            return False
        nxt = prev_rung(self.rung)
        self.rung = nxt if nxt.bytes >= self.floor.bytes else self.floor
        self.good_cycles = 0
        self.moves += 1
        return True


@dataclass(frozen=True)
class IngredientSchedule:
    """Immutable snapshot of the plane's live rungs.

    Duck-types the slice of the :class:`PrecisionPolicy` interface the
    byte model consumes (``matrix``, ``krylov_basis``, ``mg_level``)
    and adds :meth:`transfer_level`, so
    :meth:`~repro.perf.scaling.ScalingModel.cycle_traffic_bytes`
    charges each ingredient at its *current* rung.
    """

    matrix: Precision
    ortho: Precision
    smoother_levels: tuple[Precision, ...]
    transfer_levels: tuple[Precision, ...]

    @property
    def krylov_basis(self) -> Precision:
        return self.ortho

    @property
    def orthogonalization(self) -> Precision:
        return self.ortho

    @property
    def mg_levels(self) -> tuple[Precision, ...]:
        return self.smoother_levels

    def mg_level(self, lvl: int) -> Precision:
        return self.smoother_levels[min(lvl, len(self.smoother_levels) - 1)]

    def transfer_level(self, lvl: int) -> Precision:
        """Rung of the coarse-defect transfer out of level ``lvl``."""
        if not self.transfer_levels:
            return self.mg_level(lvl + 1)
        return self.transfer_levels[min(lvl, len(self.transfer_levels) - 1)]

    def describe(self) -> str:
        from repro.fp.ladder import format_ladder

        return (
            f"spmv={self.matrix.short_name} "
            f"ortho={self.ortho.short_name} "
            f"smoother={format_ladder(self.smoother_levels)} "
            f"transfer={format_ladder(self.transfer_levels)}"
        )


class PrecisionControlPlane:
    """The controllers consulted by the solver at restart boundaries.

    The observation protocol mirrors the solver's outer loop: call
    :meth:`observe_restart` with the fresh true residual *before* each
    restart cycle (returns the events to apply, empty when nothing
    changed), :meth:`cycle_completed` after each cycle, and
    :meth:`observe_breakdown` when a cycle broke down without
    extending the basis.  The plane owns the previous-residual and
    cycles-since-change bookkeeping, so ``"policy"`` mode reproduces
    the PR 2 escalator decision-for-decision (regression-asserted
    bitwise by the test suite).
    """

    def __init__(
        self,
        config: ControlConfig,
        policy: PrecisionPolicy,
        nlevels: int,
        rungs: "dict[tuple[str, int], Precision] | None" = None,
    ) -> None:
        if nlevels < 1:
            raise ValueError("nlevels must be >= 1")
        self.config = config
        self.nlevels = nlevels
        self._policy = policy
        self.controllers: dict[tuple[str, int], IngredientController] = {}
        if config.mode == "per-ingredient":
            seeds = rungs if rungs is not None else seed_rungs(policy, nlevels)
            for (ing, lvl), prec in sorted(seeds.items()):
                self.controllers[(ing, lvl)] = IngredientController(
                    ingredient=ing, level=lvl, rung=prec, floor=prec
                )
        elif rungs is not None:
            raise ValueError("explicit rungs require per-ingredient mode")
        # Observation state (owned here so the solver carries none).
        self._prev_rho: float | None = None
        self._cycles_since_change = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def seeded(
        cls, config: ControlConfig, policy: PrecisionPolicy, nlevels: int
    ) -> "PrecisionControlPlane":
        """Plane with every controller on the policy's rung for it."""
        return cls(config, policy, nlevels)

    @classmethod
    def from_budget(
        cls,
        config: ControlConfig,
        policy: PrecisionPolicy,
        nlevels: int,
        A,
        restart: int = 30,
    ) -> "PrecisionControlPlane":
        """Initial rungs from the Carson-style roundoff-budget chooser.

        ``config.budget`` must be set; the matrix supplies the norm and
        condition estimates (:mod:`repro.fp.budget`).
        """
        from repro.fp.budget import choose_plane

        if config.budget is None:
            raise ValueError("ControlConfig.budget is not set")
        report = choose_plane(A, nlevels, config.budget, restart=restart)
        return cls(config, policy, nlevels, rungs=report.assignments)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        return self.config.mode

    def rung(self, ingredient: str, level: int = 0) -> Precision:
        """The live rung of one controller (policy fields otherwise)."""
        if self.mode == "per-ingredient":
            ctl = self.controllers.get((ingredient, level))
            if ctl is None:
                raise KeyError(f"no controller for {(ingredient, level)}")
            return ctl.rung
        if ingredient == "spmv":
            return self._policy.matrix
        if ingredient == "ortho":
            return self._policy.orthogonalization
        if ingredient == "transfer":
            return self._policy.mg_level(level + 1)
        return self._policy.mg_level(level)

    def smoother_schedule(self) -> tuple[Precision, ...]:
        return tuple(self.rung("smoother", lvl) for lvl in range(self.nlevels))

    def transfer_schedule(self) -> "tuple[Precision, ...] | None":
        """Per-level transfer rungs, or ``None`` outside per-ingredient
        mode (the hierarchy then uses its historical coarse-rung
        defaults, keeping ``"policy"`` bit-identical to PR 2)."""
        if self.mode != "per-ingredient" or self.nlevels < 2:
            return None
        return tuple(self.rung("transfer", lvl) for lvl in range(self.nlevels - 1))

    def live_policy(self) -> PrecisionPolicy:
        """The current rungs materialized as a solver policy."""
        if self.mode != "per-ingredient":
            return self._policy
        ortho = self.rung("ortho")
        return replace(
            self._policy,
            matrix=self.rung("spmv"),
            mg_levels=self.smoother_schedule(),
            krylov_basis=ortho,
            orthogonalization=ortho,
        )

    def snapshot(self):
        """Byte-model view of the live schedule.

        Per-ingredient mode returns an :class:`IngredientSchedule`;
        the other modes return the policy itself (whose charging the
        model already understands) — either way the object plugs
        straight into ``ScalingModel.cycle_traffic_bytes``.
        """
        if self.mode != "per-ingredient":
            return self._policy
        return IngredientSchedule(
            matrix=self.rung("spmv"),
            ortho=self.rung("ortho"),
            smoother_levels=self.smoother_schedule(),
            transfer_levels=self.transfer_schedule() or (),
        )

    # ------------------------------------------------------------------
    # Observation protocol
    # ------------------------------------------------------------------
    def reset_observation(self) -> None:
        """Forget the residual history (start of a new solve).

        Rung state persists across solves — rebuilding per solve would
        repay the setup cost a change already bought — but the
        stall/recovery bookkeeping restarts, exactly as the PR 2
        escalator's per-solve locals did.
        """
        self._prev_rho = None
        self._cycles_since_change = 0
        for ctl in self.controllers.values():
            ctl.good_cycles = 0

    def cycle_completed(self) -> None:
        """One restart cycle finished at the current rungs."""
        self._cycles_since_change += 1

    def observe_restart(
        self, rho: float, relres: float, iteration: int, restarts: int
    ) -> list[PrecisionEvent]:
        """Judge the outer residual at a restart boundary.

        Returns the rung-change events that fired (the caller rebinds
        its precision-dependent state when the list is non-empty).
        """
        prev, self._prev_rho = self._prev_rho, rho
        cfg = self.config
        esc = cfg.escalation
        if not cfg.active:
            return []
        if prev is None or self._cycles_since_change < esc.min_cycles:
            return []
        if rho <= esc.stall_ratio * prev:
            # Progress.  Per-ingredient mode also feeds the
            # de-escalation hysteresis; "policy" mode never demotes
            # (the PR 2 behaviour, kept bit-identical).
            if self.mode == "per-ingredient":
                return self._observe_recovery(rho, prev, relres, iteration, restarts)
            return []
        # Stagnation: classify against the binding rung's floor.
        low = self._binding_rung()
        if low is None:
            return []
        reason = "floor" if relres <= esc.floor_factor * low.eps else "stall"
        return self._promote_binding(reason, relres, iteration, restarts)

    def observe_breakdown(
        self, rho: float, relres: float, iteration: int, restarts: int
    ) -> list[PrecisionEvent]:
        """An empty restart cycle broke down at the current rungs.

        The active precision cannot extend the basis at all, so the
        binding rung is promoted immediately (no stall window) and the
        previous-residual memory is cleared — the post-promotion cycle
        starts fresh, exactly as the PR 2 escalator did.
        """
        del rho  # the decision depends only on promotability
        if not self.config.active or self._binding_rung() is None:
            return []
        events = self._promote_binding("breakdown", relres, iteration, restarts)
        if events:
            self._prev_rho = None
        return events

    def observe_fault(
        self, relres: float, iteration: int, restarts: int
    ) -> list[PrecisionEvent]:
        """A detected fault (ABFT mismatch, non-finite state) is being
        replayed from the last checkpoint.

        Same immediate-promotion semantics as :meth:`observe_breakdown`
        — the fault may well be the active rung's own overflow, so the
        replay runs one rung up — but tagged ``reason="fault"`` so
        telemetry can tell recovery promotions from numerical ones.
        Returns ``[]`` when no rung can move (the replay then retries
        at the same rungs, which handles transient upsets).
        """
        if not self.config.active or self._binding_rung() is None:
            return []
        events = self._promote_binding("fault", relres, iteration, restarts)
        if events:
            self._prev_rho = None
        return events

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _binding_rung(self) -> "Precision | None":
        """The lowest promotable rung — the roundoff floor that binds."""
        if self.mode == "per-ingredient":
            eligible = [c for c in self.controllers.values() if c.can_promote]
            if not eligible:
                return None
            return min((c.rung for c in eligible), key=lambda p: p.bytes)
        return self._policy.low if self._policy.can_promote else None

    def _promote_binding(
        self, reason: str, relres: float, iteration: int, restarts: int
    ) -> list[PrecisionEvent]:
        events: list[PrecisionEvent] = []
        if self.mode == "per-ingredient":
            low = self._binding_rung()
            for key in sorted(self.controllers):
                ctl = self.controllers[key]
                if ctl.can_promote and ctl.rung is low:
                    frm = ctl.rung
                    ctl.promote()
                    events.append(
                        PrecisionEvent(
                            iteration=iteration,
                            restart=restarts,
                            relres=relres,
                            reason=reason,
                            from_low=frm,
                            to_low=ctl.rung,
                            ingredient=ctl.ingredient,
                            level=ctl.level,
                        )
                    )
            # A promotion invalidates every recovery streak: the new
            # rung must re-earn its demotion.
            for ctl in self.controllers.values():
                ctl.good_cycles = 0
        else:
            old_low = self._policy.low
            self._policy = self._policy.promote()
            events.append(
                PrecisionEvent(
                    iteration=iteration,
                    restart=restarts,
                    relres=relres,
                    reason=reason,
                    from_low=old_low,
                    to_low=self._policy.low,
                )
            )
        if events:
            self._cycles_since_change = 0
        return events

    def _observe_recovery(
        self,
        rho: float,
        prev: float,
        relres: float,
        iteration: int,
        restarts: int,
    ) -> list[PrecisionEvent]:
        """Feed the de-escalation hysteresis; maybe demote."""
        cfg = self.config
        promoted = [c for c in self.controllers.values() if c.can_demote]
        # Recovery must always be stronger progress than non-stalling,
        # even under an aggressive (small) stall_ratio.
        demote_ratio = min(cfg.demote_ratio, cfg.escalation.stall_ratio)
        if rho > demote_ratio * prev:
            # Progress, but not the strong recovery de-escalation
            # wants: the streak restarts.
            for ctl in promoted:
                ctl.good_cycles = 0
            return []
        events: list[PrecisionEvent] = []
        for key in sorted(self.controllers):
            ctl = self.controllers[key]
            if not ctl.can_demote:
                continue
            ctl.good_cycles += 1
            if ctl.good_cycles < cfg.hysteresis:
                continue
            target = prev_rung(ctl.rung)
            floor_at_target = cfg.escalation.floor_factor * target.eps
            if relres <= cfg.demote_headroom * floor_at_target:
                # No headroom: the demoted rung would re-stall at this
                # residual.  Hold the streak at the window so a later
                # (larger-residual) solve may still demote.
                ctl.good_cycles = cfg.hysteresis
                continue
            frm = ctl.rung
            ctl.demote()
            events.append(
                PrecisionEvent(
                    iteration=iteration,
                    restart=restarts,
                    relres=relres,
                    reason="recovered",
                    from_low=frm,
                    to_low=ctl.rung,
                    ingredient=ctl.ingredient,
                    level=ctl.level,
                    direction="demote",
                )
            )
        if events:
            self._cycles_since_change = 0
        return events


def seed_rungs(
    policy: PrecisionPolicy, nlevels: int
) -> dict[tuple[str, int], Precision]:
    """The per-ingredient rung assignment a flat policy implies.

    Smoother levels take the policy's MG schedule, transfers the rung
    of the *coarser* side of each boundary (the dtype the coarse-defect
    buffer has always had), SpMV the inner-matrix rung, ortho the
    orthogonalization rung — so a freshly seeded per-ingredient plane
    executes exactly the schedule the policy describes.
    """
    rungs: dict[tuple[str, int], Precision] = {
        ("spmv", 0): policy.matrix,
        ("ortho", 0): policy.orthogonalization,
    }
    for lvl in range(nlevels):
        rungs[("smoother", lvl)] = policy.mg_level(lvl)
    for lvl in range(nlevels - 1):
        rungs[("transfer", lvl)] = policy.mg_level(lvl + 1)
    return rungs
