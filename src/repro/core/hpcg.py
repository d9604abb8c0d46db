"""HPCG benchmark driver (for the paper's cross-benchmark comparison).

The paper reports running HPCG on Frontier at 9408 nodes (10.4 PF)
next to HPG-MxP's 17.23 PF.  This driver reproduces HPCG's structure:
preconditioned CG (Algorithm 1) with a 4-level multigrid preconditioner
using *symmetric* Gauss-Seidel smoothing, double precision throughout,
a fixed 50-iteration timed run, and HPCG's flop model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.flops import flops_pcg_iteration, hierarchy_dims
from repro.core.metrics import PhaseMetrics
from repro.geometry.grid import BoxGrid
from repro.geometry.partition import ProcessGrid, Subdomain
from repro.mg.multigrid import MGConfig
from repro.parallel.comm import Communicator, SerialComm
from repro.parallel.spmd import run_spmd
from repro.solvers.cg import PCGSolver
from repro.stencil.poisson27 import generate_problem
from repro.util.timers import MotifTimers


@dataclass(frozen=True)
class HPCGConfig:
    """HPCG run parameters (scaled-down defaults)."""

    local_nx: int = 32
    local_ny: int | None = None
    local_nz: int | None = None
    nranks: int = 1
    maxiter: int = 50  # HPCG's fixed iteration count per set
    nlevels: int = 4

    @property
    def local_dims(self) -> tuple[int, int, int]:
        ny = self.local_ny if self.local_ny is not None else self.local_nx
        nz = self.local_nz if self.local_nz is not None else self.local_nx
        return (self.local_nx, ny, nz)

    def mg_config(self) -> MGConfig:
        """HPCG's preconditioner: symmetric GS sweeps at every level."""
        return MGConfig(nlevels=self.nlevels, sweep="symmetric")


@dataclass
class HPCGResult:
    """Outcome of an HPCG run."""

    config: HPCGConfig
    metrics: PhaseMetrics
    iterations: int
    final_relres: float

    @property
    def gflops(self) -> float:
        return self.metrics.gflops


def _hpcg_worker(comm: Communicator, config: HPCGConfig) -> dict:
    proc = ProcessGrid.from_size(comm.size)
    sub = Subdomain(BoxGrid(*config.local_dims), proc, comm.rank)
    problem = generate_problem(sub)
    timers = MotifTimers()
    solver = PCGSolver(problem, comm, mg_config=config.mg_config(), timers=timers)
    comm.barrier()
    t0 = time.perf_counter()
    # tol=0 runs the fixed iteration budget like the official benchmark.
    _, stats = solver.solve(problem.b, tol=0.0, maxiter=config.maxiter)
    comm.barrier()
    wall = time.perf_counter() - t0
    return {
        "seconds_by_motif": dict(timers.seconds),
        "wall": wall,
        "iterations": stats.iterations,
        "relres": stats.final_relres,
    }


class HPCGBenchmark:
    """HPCG driver mirroring :class:`~repro.core.benchmark.HPGMxPBenchmark`."""

    def __init__(self, config: HPCGConfig | None = None) -> None:
        self.config = config or HPCGConfig()

    def run(self) -> HPCGResult:
        cfg = self.config
        if cfg.nranks == 1:
            records = [_hpcg_worker(SerialComm(), cfg)]
        else:
            records = run_spmd(cfg.nranks, _hpcg_worker, cfg)

        motifs: dict[str, float] = {}
        for rec in records:
            for m, s in rec["seconds_by_motif"].items():
                motifs[m] = max(motifs.get(m, 0.0), s)
        wall = max(rec["wall"] for rec in records)

        nx, ny, nz = cfg.local_dims
        proc = ProcessGrid.from_size(cfg.nranks)
        dims = hierarchy_dims(nx * proc.px, ny * proc.py, nz * proc.pz, cfg.nlevels)
        per_iter = flops_pcg_iteration(dims, cfg.mg_config())
        iters = records[0]["iterations"]
        flops = {m: f * iters for m, f in per_iter.items()}

        metrics = PhaseMetrics(
            label="hpcg",
            flops_by_motif=flops,
            seconds_by_motif=motifs,
            total_seconds=wall,
            iterations=iters,
            penalty=1.0,
        )
        return HPCGResult(
            config=cfg,
            metrics=metrics,
            iterations=iters,
            final_relres=records[0]["relres"],
        )


def run_hpcg(config: HPCGConfig | None = None) -> HPCGResult:
    """Convenience entry point."""
    return HPCGBenchmark(config).run()
