"""Typed errors the resilience subsystem raises and recovers from.

Each error class marks one detection channel: ABFT checksum mismatch,
non-finite solver state, or an injected transient in the service
worker.  They all subclass :class:`ResilienceError` (a
``RuntimeError``) so a caller can catch the whole family, while
recovery code dispatches on the concrete type.
:class:`~repro.parallel.comm.CommTimeoutError` lives in the transport
layer (the detection happens there) and is re-exported from
:mod:`repro.resilience` for convenience.
"""

from __future__ import annotations


class ResilienceError(RuntimeError):
    """Base class for detected faults and breakdowns."""


class FaultDetectedError(ResilienceError):
    """A checksum (ABFT) verification caught corrupted kernel output.

    Carries the detection site, the relative checksum error and (for a
    panel SpMV) the panel column that failed, so the replay path (and
    telemetry) can attribute the fault.
    """

    #: Panel column whose checksum failed, when known.
    column: int | None = None

    def __init__(self, site: str, detail: str = "") -> None:
        msg = f"fault detected at {site}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.site = site
        self.detail = detail


class NumericalBreakdownError(ResilienceError):
    """Solver state went non-finite (NaN/Inf residual or basis norm).

    Raised at the restart boundary (or inside the Arnoldi loop) instead
    of silently iterating to ``maxiter`` on NaNs; with resilience
    enabled the solver converts it into a checkpoint replay.
    """

    #: Panel column whose state went non-finite, when known.
    column: int | None = None

    def __init__(self, where: str, value: float) -> None:
        super().__init__(
            f"non-finite solver state at {where} (value={value!r}); "
            "aborting instead of iterating on NaNs"
        )
        self.where = where
        self.value = value


class TransientFaultError(ResilienceError):
    """An injected transient worker failure (service fault site)."""

    def __init__(self, detail: str = "injected transient fault") -> None:
        super().__init__(detail)
