"""Spans around the calls into each layer's public entry points.

The tracer adds nothing inside the program.  While installed it
(a) wraps every kernel dispatch through ``registry.set_wrapper``,
labelling the span ``backends.<op>.<rung>``, and (b) replaces a few
public methods on their classes -- the solver's ``solve`` /
``solve_panel``, the multigrid ``apply`` / ``apply_panel`` and the
distributed operator's ``matvec*`` -- with timed pass-throughs.
``uninstall`` restores both, so an untraced solve runs exactly the
original code.

Spans are aggregated as they close, per thread (rank threads and the
service's worker thread each keep their own stack).  Each closing span
charges its duration to its parent, so a layer's *self* time -- its
duration minus the part its child spans cover -- needs no second pass:
``symgs_sweep``'s self time excludes the ``spmv_rows`` dispatches
nested inside it.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

from repro.backends import registry
from repro.fp.precision import Precision
from repro.mg import MultigridPreconditioner
from repro.solvers import DistributedOperator, GMRESIRSolver

#: Public methods timed from outside, by span name.
METHOD_SPANS = {
    "solvers.solve": (GMRESIRSolver, "solve"),
    "solvers.solve_panel": (GMRESIRSolver, "solve_panel"),
    "mg.apply": (MultigridPreconditioner, "apply"),
    "mg.apply_panel": (MultigridPreconditioner, "apply_panel"),
    "op.matvec": (DistributedOperator, "matvec"),
    "op.matvec_overlapped": (DistributedOperator, "matvec_overlapped"),
    "op.matvec_panel": (DistributedOperator, "matvec_panel"),
}

#: Ops whose rung is keyed on an argument other than the first (the
#: dispatch facade keys the waxpby family on ``y``).
_RUNG_ARG = {"waxpby": 3, "waxpby_dot": 3, "waxpby_multi": 3, "waxpby_dot_multi": 3}

#: Ops that stream a whole unpartitioned matrix once per call; their
#: computed bytes (matrix arrays plus the vectors passed) give a GB/s.
STREAMING_OPS = frozenset(
    {
        "spmv",
        "spmv_dot",
        "spmv_multi",
        "spmv_dot_multi",
        "symgs_sweep",
        "symgs_sweep_multi",
        "fused_restrict",
    }
)

_RUNGS: dict = {}


def matrix_bytes(A) -> int:
    """Bytes of a matrix's arrays (computed from their sizes)."""
    return sum(v.nbytes for v in vars(A).values() if isinstance(v, np.ndarray))


def _rung(dtype) -> str:
    r = _RUNGS.get(dtype)
    if r is None:
        r = _RUNGS[dtype] = Precision.from_any(dtype).short_name
    return r


class _Acc:
    """Totals of one span name on one thread."""

    __slots__ = ("calls", "total", "self_s", "nbytes")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.nbytes = 0


class Tracer:
    """In-memory span aggregation; install around traced calls only."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: One accumulator dict per thread that ran a span.
        self._threads: list[dict[str, _Acc]] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[type, str, object]] = []
        self._matrix_bytes: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _state(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.acc = {}
            with self._lock:
                self._threads.append(self._local.acc)
        return st, self._local.acc

    def _run(self, name: str, fn, args, kwargs, nbytes: int = 0):
        stack, acc = self._state()
        frame = [0.0]  # child seconds
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            a = acc.get(name)
            if a is None:
                a = acc[name] = _Acc()
            a.calls += 1
            a.total += dur
            a.self_s += dur - frame[0]
            a.nbytes += nbytes

    def _streamed_bytes(self, args, kwargs) -> int:
        A = args[0]
        mb = self._matrix_bytes.get(id(A))
        if mb is None:
            mb = self._matrix_bytes[id(A)] = matrix_bytes(A)
        vec = sum(a.nbytes for a in args[1:] if isinstance(a, np.ndarray))
        out = kwargs.get("out")
        return mb + vec + (out.nbytes if isinstance(out, np.ndarray) else 0)

    def _wrap_kernel(self, op: str, fn):
        idx = _RUNG_ARG.get(op, 0)
        streaming = op in STREAMING_OPS
        prefix = f"backends.{op}."

        def traced(*args, **kwargs):
            name = prefix + _rung(args[idx].dtype)
            nbytes = self._streamed_bytes(args, kwargs) if streaming else 0
            return self._run(name, fn, args, kwargs, nbytes)

        return traced

    def _wrap_method(self, name: str, method):
        @functools.wraps(method)
        def traced(*args, **kwargs):
            return self._run(name, method, args, kwargs)

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Start tracing (call while no solve is running)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        if registry.wrapper is not None:
            raise RuntimeError("another dispatch wrapper is installed")
        for name, (cls, attr) in METHOD_SPANS.items():
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap_method(name, orig))
        registry.set_wrapper(self._wrap_kernel)

    def uninstall(self) -> None:
        """Restore the original methods and the unwrapped dispatch."""
        registry.set_wrapper(None)
        for cls, attr, orig in reversed(self._saved):
            setattr(cls, attr, orig)
        self._saved.clear()

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, _Acc]:
        """Per-name totals summed over threads."""
        out: dict[str, _Acc] = {}
        with self._lock:
            items = list(self._threads)
        for acc in items:
            for name, a in acc.items():
                t = out.setdefault(name, _Acc())
                t.calls += a.calls
                t.total += a.total
                t.self_s += a.self_s
                t.nbytes += a.nbytes
        return out
