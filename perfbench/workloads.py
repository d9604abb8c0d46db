"""The benchmark's workloads, driven through the program's public APIs.

Every workload solves ``A x = b`` for the 27-point HPG-MxP operator to
an fp64 relative residual of 1e-9, in mixed precision (fp32 inner
stage, fp64 outer refinement: the paper's GMRES-IR) and in uniform
double, alternating the two on the same inputs.  Inputs come from the
seed: ``b = A x*`` with a seeded ``x*``, computed here from
``problem.A`` without the program's kernels, and every answer is
checked against the same ``A`` after it returns.

A run sets the program up ``SETUP_REPS`` times and measures the last
set-up for the requested seconds.  With ``trace=True`` every measured
step runs twice, untraced and then under a :class:`~tracing.Tracer`
(one tracer per precision): the two answers must be bitwise equal, the
untraced step gives clean times and counters, the traced one the
per-layer spans, and their difference the tracing overhead.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import DOUBLE_POLICY, MIXED_DS_POLICY, SerialComm, run_spmd
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.service import SolverService, SolveRequest
from repro.solvers import GMRESIRSolver
from repro.solvers.setup_cache import SetupCache
from repro.stencil import generate_problem
from repro.util.timers import MotifTimers

from tracing import Tracer, matrix_bytes

TOL = 1e-9
MAXITER = 300
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Iteration cap of the warm-up solves that fill workspaces and caches.
WARMUP_ITERS = 2
#: Mixed precision first: the order of every measured pair.
KINDS = ("mxp", "double")
POLICIES = {"mxp": MIXED_DS_POLICY, "double": DOUBLE_POLICY}
#: The service's ladder spec per kind ("fp32" builds MIXED_DS_POLICY).
LADDERS = {"mxp": "fp32", "double": None}
SERIAL_N = 40
SPMD_GRID = ProcessGrid(2, 1, 1)
SPMD_LOCAL = 32
SERVICE_N = 32
CLIENTS = 8

#: One line per workload: why it is in the benchmark.
WHY = {
    "solve-40": (
        "serial 40^3, one RHS per solve: kernels, multigrid and ortho do "
        "the work, halo/panel/service code is bypassed; mixed precision "
        "already wins here"
    ),
    "spmd-2x32": (
        "2 rank threads on a 2x1x1 grid, 32^3 per rank, overlap on: the "
        "parallel layer's halo exchanges, plus rank threads contending "
        "for the GIL"
    ),
    "service-32x8": (
        "SolverService at 32^3 with 8 closed-loop clients: coalesced "
        "solve_panel, _multi kernels, setup-cache hits and queueing; "
        "parallel is bypassed"
    ),
}


# ----------------------------------------------------------------------
# Inputs and the independent correctness check
# ----------------------------------------------------------------------
def seeded_solution(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """The exact solution ``x*`` of one right-hand side."""
    return np.random.default_rng([seed, stream]).standard_normal(n)


def apply_matrix(A, x: np.ndarray) -> np.ndarray:
    """``A @ x`` in fp64 from the ELL arrays of a serial problem
    (padded slots hold column 0 and value 0)."""
    return (A.vals.astype(np.float64) * x[A.cols]).sum(axis=1)


def relres(A, x: np.ndarray, b: np.ndarray) -> float:
    """fp64 ``||b - A x|| / ||b||``."""
    return float(np.linalg.norm(b - apply_matrix(A, x)) / np.linalg.norm(b))


def solver_bytes(solvers, panel_width: int = 1) -> int:
    """Computed working set of solvers: every distinct matrix (Krylov
    operators and multigrid levels) plus ``panel_width`` Krylov bases
    per solver."""
    mats, total = {}, 0
    for s in solvers:
        for A in [s.op64.A, s.op_inner.A] + [lv.A for lv in s.M.levels]:
            mats[id(A)] = A
        total += s.Q.nbytes * panel_width
    return total + sum(matrix_bytes(A) for A in mats.values())


def _operator_reuse(s: GMRESIRSolver) -> float:
    """RHS columns served per matrix pass over a solver's operators."""
    ops = {id(o): o for o in (s.op64, s.op_inner)}.values()
    passes = sum(o.matrix_passes for o in ops)
    return sum(o.rhs_columns for o in ops) / passes if passes else 0.0


def _hit_rate(cache: SetupCache) -> float:
    lookups = cache.hits + cache.misses
    return cache.hits / lookups if lookups else 0.0


def _motif_layers(seconds: dict, nsolves: int) -> dict:
    """Per-solve motif seconds from a solver's ``MotifTimers``."""
    names = {
        "solvers.spmv_s": "spmv",
        "solvers.ortho_s": "ortho",
        "solvers.qr_s": "qr_host",
        "mg.smooth_s": "gs",
        "mg.restrict_s": "restrict",
        "mg.prolong_s": "prolong",
    }
    return {k: seconds.get(m, 0.0) / nsolves for k, m in names.items()}


# ----------------------------------------------------------------------
# What a run records
# ----------------------------------------------------------------------
@dataclass
class Record:
    """Samples and counters of one workload run."""

    setup_s: list = field(default_factory=list)
    generate_s: list = field(default_factory=list)
    solver_s: list = field(default_factory=list)
    #: Untraced wall seconds per solve (a batch on the service), by kind.
    solve_s: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    #: Untraced mixed-precision request latencies.
    latency_s: list = field(default_factory=list)
    #: Traced wall seconds per solve (or batch), by kind.
    traced_s: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    #: First solve of each kind on a set-up that skipped the warm-up.
    cold_s: dict = field(default_factory=dict)
    solved: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    max_relres: float = 0.0
    #: Exact counts per solve, by name; every sample must repeat.
    counts: dict = field(default_factory=dict)
    working_set_bytes: int = 0
    #: Threads a solve runs on; span and halo times are per thread.
    ranks: int = 1
    tracers: dict = field(default_factory=dict)
    #: Per-layer values measured outside the tracers (traced runs).
    layers: dict = field(default_factory=dict)

    def count(self, name: str, value) -> None:
        self.counts.setdefault(name, []).append(value)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def check(self, what: str, converged: bool, rr: float) -> bool:
        """Count one attempted solve; missing the tolerance fails it."""
        self.attempted += 1
        self.max_relres = max(self.max_relres, rr)
        if converged and rr <= TOL:
            return True
        self.fail(f"{what}: converged={converged} relres={rr:.3e}")
        return False

    def parity(self, what: str, x_ref, x, same_counts: bool, attempt=True) -> None:
        """An answer that must be bitwise equal to its reference;
        ``attempt=False`` re-checks an answer already counted."""
        self.attempted += attempt
        if not (same_counts and np.array_equal(x_ref, x)):
            self.fail(f"{what}: answer or iterations differ")

    def add_sample(self, kind: str, seconds: float) -> None:
        """One untraced solve time (the mixed one is also a latency)."""
        self.solve_s[kind].append(seconds)
        if kind == "mxp":
            self.latency_s.append(seconds)


# ----------------------------------------------------------------------
# solve-40: serial solves
# ----------------------------------------------------------------------
def _build_solvers(problem, comm, timers=False) -> dict:
    cache = SetupCache()
    return {
        k: GMRESIRSolver(
            problem,
            comm,
            policy=POLICIES[k],
            setup_cache=cache,
            timers=MotifTimers() if timers else None,
        )
        for k in KINDS
    }


def _warm(solvers: dict, b) -> None:
    for s in solvers.values():
        s.solve(b, tol=TOL, maxiter=WARMUP_ITERS)


def _timed_solve(rec: Record, what: str, solver, b, tracer=None):
    """``(x, stats, seconds)`` of one solve, or None if it raised (a
    failed attempt: the run goes on)."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        x, st = solver.solve(b, tol=TOL, maxiter=MAXITER)
    except Exception as exc:  # a failed solve must not end the run
        rec.attempted += 1
        rec.fail(f"{what}: {exc!r}")
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    return x, st, time.perf_counter() - t0


def solve_40(seed: int, seconds: float, trace: bool) -> Record:
    rec = Record()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        problem = generate_problem(Subdomain.serial(SERIAL_N))
        t1 = time.perf_counter()
        b = apply_matrix(problem.A, seeded_solution(seed, problem.nlocal))
        t2 = time.perf_counter()
        plain = _build_solvers(problem, SerialComm())
        t3 = time.perf_counter()
        _warm(plain, b)
        t4 = time.perf_counter()
        rec.generate_s.append(t1 - t0)
        rec.solver_s.append(t3 - t2)
        rec.setup_s.append((t1 - t0) + (t4 - t2))
    rec.working_set_bytes = solver_bytes(plain.values())

    traced = None
    if trace:
        rec.tracers = {k: Tracer() for k in KINDS}
        traced = _build_solvers(problem, SerialComm(), timers=True)
        _warm(traced, b)
        plain = _build_solvers(problem, SerialComm())
        for kind in KINDS:
            out = _timed_solve(rec, f"cold {kind} solve", plain[kind], b)
            if out is not None:
                x, st, rec.cold_s[kind] = out
                rec.check(f"cold {kind} solve", st.converged, relres(problem.A, x, b))

    deadline = time.perf_counter() + seconds
    while True:
        for kind in KINDS:
            out = _timed_solve(rec, f"{kind} solve", plain[kind], b)
            if out is None:
                continue
            x, st, dt = out
            rec.add_sample(kind, dt)
            rec.count(f"{kind}.iterations", st.iterations)
            rec.count(f"{kind}.restarts", st.restarts)
            rec.count(f"{kind}.precision_events", len(st.promotions))
            if rec.check(f"{kind} solve", st.converged, relres(problem.A, x, b)):
                rec.solved += 1
                rec.busy_s += dt
            if traced is None:
                continue
            out = _timed_solve(
                rec, f"traced {kind} solve", traced[kind], b, rec.tracers[kind]
            )
            if out is not None:
                xt, stt, dt = out
                rec.traced_s[kind].append(dt)
                rec.parity(
                    f"traced {kind} solve", x, xt, stt.iterations == st.iterations
                )
        if time.perf_counter() >= deadline:
            break

    if traced is not None:
        s = plain["mxp"]
        rec.layers.update(
            _motif_layers(traced["mxp"].timers.seconds, len(rec.traced_s["mxp"]))
        )
        rec.layers["solvers.matrix_reuse"] = _operator_reuse(s)
        rec.layers["solvers.setup_cache_hit_rate"] = _hit_rate(s.setup_cache)
    return rec


# ----------------------------------------------------------------------
# spmd-2x32: rank threads
# ----------------------------------------------------------------------
def _spmd_rank(comm, b_of_rank, seconds: float, tracers: dict | None):
    """One rank: set up, then alternate solves until rank 0 says stop.

    Returns the rank's set-up times per rep, one sample per solve and,
    on rank 0, the counters only a rank can read.  Rank 0 installs and
    removes a tracer while every rank waits at a barrier.
    """
    sub = Subdomain(
        BoxGrid(SPMD_LOCAL, SPMD_LOCAL, SPMD_LOCAL), SPMD_GRID, comm.rank
    )
    b = b_of_rank[comm.rank]
    reps = []
    for _ in range(SETUP_REPS):
        comm.barrier()
        t0 = time.perf_counter()
        problem = generate_problem(sub)
        t1 = time.perf_counter()
        plain = _build_solvers(problem, comm)
        t2 = time.perf_counter()
        _warm(plain, b)
        reps.append((t1 - t0, t2 - t1, time.perf_counter() - t0))

    def timed_solve(s, tracer=None):
        comm.barrier()
        if tracer is not None and comm.rank == 0:
            tracer.install()
        comm.barrier()
        msgs, nbytes = s.halo_message_count(), s.halo_sent_bytes()
        halo, exposed = s.halo_seconds(), s.halo_exposed_seconds()
        red, red_bytes = comm.stats.allreduces, comm.stats.allreduce_bytes
        t0 = time.perf_counter()
        x, st = s.solve(b, tol=TOL, maxiter=MAXITER)
        dt = time.perf_counter() - t0
        sample = {
            "dt": dt,
            "x": x,
            "converged": st.converged,
            "iterations": st.iterations,
            "restarts": st.restarts,
            "precision_events": len(st.promotions),
            "halo_msgs": s.halo_message_count() - msgs,
            "halo_bytes": s.halo_sent_bytes() - nbytes,
            "halo_s": s.halo_seconds() - halo,
            "halo_exposed_s": s.halo_exposed_seconds() - exposed,
            "allreduces": comm.stats.allreduces - red,
            "allreduce_bytes": comm.stats.allreduce_bytes - red_bytes,
        }
        comm.barrier()
        if tracer is not None and comm.rank == 0:
            tracer.uninstall()
        return sample

    samples = []
    traced = None
    if tracers:
        traced = _build_solvers(problem, comm, timers=True)
        _warm(traced, b)
        plain = _build_solvers(problem, comm)
        for kind in KINDS:
            samples.append(("cold", kind, timed_solve(plain[kind])))
    deadline = time.perf_counter() + seconds
    while True:
        for kind in KINDS:
            samples.append(("plain", kind, timed_solve(plain[kind])))
            if traced is not None:
                samples.append(
                    ("traced", kind, timed_solve(traced[kind], tracers[kind]))
                )
        if not comm.bcast(time.perf_counter() < deadline):
            break

    extra = {}
    if comm.rank == 0:
        extra["working_set_bytes"] = solver_bytes(plain.values())
        if traced is not None:
            s = plain["mxp"]
            extra["motifs"] = dict(traced["mxp"].timers.seconds)
            extra["solvers.matrix_reuse"] = _operator_reuse(s)
            extra["solvers.setup_cache_hit_rate"] = _hit_rate(s.setup_cache)
    return reps, samples, extra


#: Per-solve counters summed over ranks (the rest are read on rank 0).
_RANK_SUMS = ("halo_msgs", "halo_bytes", "allreduces", "allreduce_bytes")


def spmd_2x32(seed: int, seconds: float, trace: bool) -> Record:
    rec = Record(ranks=SPMD_GRID.size)
    # The verification reference: the same operator as one serial
    # global problem, and each rank's rows in its global numbering.
    local = BoxGrid(SPMD_LOCAL, SPMD_LOCAL, SPMD_LOCAL)
    ref = generate_problem(
        Subdomain.serial(SPMD_LOCAL * SPMD_GRID.px, SPMD_LOCAL, SPMD_LOCAL)
    )
    b_global = apply_matrix(ref.A, seeded_solution(seed, ref.nlocal))
    rows = []
    for r in range(SPMD_GRID.size):
        sub = Subdomain(local, SPMD_GRID, r)
        rows.append(sub.global_grid.linear_index(*sub.global_coords()))

    if trace:
        rec.tracers = {k: Tracer() for k in KINDS}
    per_rank = run_spmd(
        SPMD_GRID.size,
        _spmd_rank,
        [b_global[r] for r in rows],
        seconds,
        rec.tracers or None,
    )
    for rep in zip(*(reps for reps, _, _ in per_rank)):
        rec.generate_s.append(max(t[0] for t in rep))
        rec.solver_s.append(max(t[1] for t in rep))
        rec.setup_s.append(max(t[2] for t in rep))
    extra = per_rank[0][2]
    rec.working_set_bytes = extra["working_set_bytes"] * SPMD_GRID.size

    skew, halo, exposed, last = [], [], [], {}
    for step in zip(*(samples for _, samples, _ in per_rank)):
        phase, kind, _ = step[0]
        ranks = [s for _, _, s in step]
        dt = max(s["dt"] for s in ranks)
        x = np.empty(ref.nlocal)
        for r, s in enumerate(ranks):
            x[rows[r]] = s["x"]
        iters = ranks[0]["iterations"]
        if len({s["iterations"] for s in ranks}) != 1:
            rec.fail(f"{phase} {kind} solve: ranks disagree on iterations")
        if phase == "traced":
            rec.traced_s[kind].append(dt)
            x_ref, iters_ref = last[kind]
            rec.parity(f"traced {kind} solve", x_ref, x, iters == iters_ref)
            continue
        ok = rec.check(
            f"{phase} {kind} solve", ranks[0]["converged"], relres(ref.A, x, b_global)
        )
        if phase == "cold":
            rec.cold_s[kind] = dt
            continue
        last[kind] = (x, iters)
        rec.add_sample(kind, dt)
        if ok:
            rec.solved += 1
            rec.busy_s += dt
        for name in ("iterations", "restarts", "precision_events"):
            rec.count(f"{kind}.{name}", ranks[0][name])
        for name in _RANK_SUMS:
            rec.count(f"{kind}.{name}", sum(s[name] for s in ranks))
        if kind == "mxp":
            skew.append(dt - min(s["dt"] for s in ranks))
            halo.append(sum(s["halo_s"] for s in ranks))
            exposed.append(sum(s["halo_exposed_s"] for s in ranks))

    if trace:
        rec.layers.update(_motif_layers(extra["motifs"], len(rec.traced_s["mxp"])))
        for name in ("solvers.matrix_reuse", "solvers.setup_cache_hit_rate"):
            rec.layers[name] = extra[name]
        rec.layers["parallel.halo_s"] = statistics.median(halo) / rec.ranks
        rec.layers["parallel.halo_exposed_s"] = (
            statistics.median(exposed) / rec.ranks
        )
        rec.layers["parallel.rank_skew_s"] = statistics.median(skew)
    return rec


# ----------------------------------------------------------------------
# service-32x8: closed-loop clients of a SolverService
# ----------------------------------------------------------------------
async def _round(svc, fp, bs, kind, maxiter=MAXITER):
    """Every client sends one request and waits for its reply.

    Returns ``(response or None, latency, error or None)`` per client.
    The clients are closed-loop: the next round starts only when every
    reply of this one has arrived.
    """

    async def client(j):
        t0 = time.perf_counter()
        try:
            resp = await svc.solve(
                SolveRequest(fp, bs[j], ladder=LADDERS[kind], tol=TOL, maxiter=maxiter)
            )
        except Exception as exc:  # a failed request is counted, not fatal
            return None, time.perf_counter() - t0, exc
        return resp, time.perf_counter() - t0, None

    return await asyncio.gather(*(client(j) for j in range(CLIENTS)))


async def _service(seed: int, seconds: float, trace: bool) -> Record:
    rec = Record()
    svc = None
    try:
        for _ in range(SETUP_REPS):
            if svc is not None:
                await svc.stop()
            t0 = time.perf_counter()
            problem = generate_problem(Subdomain.serial(SERVICE_N))
            t1 = time.perf_counter()
            bs = [
                apply_matrix(problem.A, seeded_solution(seed, problem.nlocal, j))
                for j in range(CLIENTS)
            ]
            t2 = time.perf_counter()
            svc = SolverService(max_panel=CLIENTS)
            await svc.start()
            fp = svc.register_operator(problem)
            t3 = time.perf_counter()
            # A traced run leaves the last set-up cold: its first
            # rounds show the lazy set-up the warm-up otherwise hides.
            if not (trace and len(rec.setup_s) == SETUP_REPS - 1):
                for kind in KINDS:
                    await _round(svc, fp, bs, kind, maxiter=WARMUP_ITERS)
            t4 = time.perf_counter()
            rec.generate_s.append(t1 - t0)
            rec.solver_s.append(t3 - t2)
            rec.setup_s.append((t1 - t0) + (t4 - t2))
        await _measure_service(rec, svc, fp, problem, bs, seconds, trace)
    finally:
        if svc is not None:
            await svc.stop()
    return rec


def _verify_round(rec, problem, bs, kind, replies, first) -> int:
    """Check every reply of a round; returns how many passed.

    Each answer is checked against ``A`` and must repeat bitwise the
    first answer its client got for this kind (``first`` records it).
    """
    passed = 0
    for j, (resp, _, err) in enumerate(replies):
        if resp is None:
            rec.attempted += 1
            rec.fail(f"{kind} request {j}: {err!r}")
            continue
        x_ref = first.setdefault((kind, j), resp.x)
        if rec.check(
            f"{kind} request {j}",
            resp.stats.converged,
            relres(problem.A, resp.x, bs[j]),
        ):
            passed += 1
        rec.parity(f"{kind} request {j}", x_ref, resp.x, True, attempt=False)
    return passed


async def _measure_service(rec, svc, fp, problem, bs, seconds, trace):
    first: dict = {}
    if trace:
        rec.tracers = {k: Tracer() for k in KINDS}
        for kind in KINDS:
            replies = await _round(svc, fp, bs, kind)
            _verify_round(rec, problem, bs, kind, replies, first)
            rec.cold_s[kind] = max(
                (r.solve_seconds for r, _, _ in replies if r), default=0.0
            )
    wait, reuse = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for kind in KINDS:
            t0 = time.perf_counter()
            replies = await _round(svc, fp, bs, kind)
            rec.busy_s += time.perf_counter() - t0
            rec.solved += _verify_round(rec, problem, bs, kind, replies, first)
            # A round is one coalesced batch; its solve is the sample.
            rec.solve_s[kind].append(
                max((r.solve_seconds for r, _, _ in replies if r), default=0.0)
            )
            for resp, lat, _ in replies:
                if resp is not None and kind == "mxp":
                    rec.latency_s.append(lat)
                    wait.append(resp.queue_wait_seconds)
                    reuse.append(resp.matrix_reuse)
            # The panel runs until its slowest column converges.
            stats = [r.stats for r, _, _ in replies if r]
            rec.count(f"{kind}.iterations", max((s.iterations for s in stats), default=0))
            rec.count(f"{kind}.restarts", max((s.restarts for s in stats), default=0))
            rec.count(f"{kind}.columns", tuple(s.iterations for s in stats))
            rec.count(
                f"{kind}.precision_events", sum(len(s.promotions) for s in stats)
            )
            if not trace:
                continue
            tracer = rec.tracers[kind]
            tracer.install()
            try:
                traced = await _round(svc, fp, bs, kind)
            finally:
                tracer.uninstall()
            rec.traced_s[kind].append(
                max((r.solve_seconds for r, _, _ in traced if r), default=0.0)
            )
            for j, (resp, _, err) in enumerate(traced):
                if resp is None:
                    rec.attempted += 1
                    rec.fail(f"traced {kind} request {j}: {err!r}")
                else:
                    rec.parity(
                        f"traced {kind} request {j}", first[(kind, j)], resp.x, True
                    )
        if time.perf_counter() >= deadline:
            break

    # One coalesced answer must equal a solo solve with the same knobs.
    solo = GMRESIRSolver(
        problem, SerialComm(), policy=POLICIES["mxp"], setup_cache=svc.setup_cache
    )
    x_solo, _ = solo.solve(bs[0], tol=TOL, maxiter=MAXITER)
    rec.parity("coalesced vs solo request 0", x_solo, first[("mxp", 0)], True)
    rec.working_set_bytes = solver_bytes([solo], panel_width=CLIENTS)
    m = svc.metrics
    rec.layers.update(
        {
            "service.queue_wait_s": statistics.median(wait),
            "service.batch_solve_s": statistics.median(rec.solve_s["mxp"]),
            "service.coalesce_width": m.coalesce_width,
            "service.rejected": m.rejected,
            "service.timed_out": m.timed_out,
            "service.pool_exhaustions": m.pool_exhaustions,
            "solvers.matrix_reuse": statistics.median(reuse),
            "solvers.setup_cache_hit_rate": _hit_rate(svc.setup_cache),
        }
    )


def service_32x8(seed: int, seconds: float, trace: bool) -> Record:
    return asyncio.run(_service(seed, seconds, trace))


WORKLOADS = {
    "solve-40": solve_40,
    "spmd-2x32": spmd_2x32,
    "service-32x8": service_32x8,
}
