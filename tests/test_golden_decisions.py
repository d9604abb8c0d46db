"""Decision-level goldens for single-RHS GMRES-IR.

Every expected value here was captured from the implementation at
commit ecf037a, where ``GMRESIRSolver.solve`` still ran its own
single-vector stack (scalar V-cycle, scalar SpMV, scalar halo
exchange).  ``solve`` is now a width-1 call into ``solve_panel``; these
tests pin that the collapse changed no decision the solver makes:
iteration and restart counts, the per-cycle Krylov lengths, every
precision event, and the resilience replay counters.
"""

import numpy as np

from repro.backends.registry import registry
from repro.fp import DOUBLE_POLICY, HALF_LADDER_POLICY, MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.parallel import SerialComm, run_spmd
from repro.resilience import ResilienceConfig, parse_fault_spec
from repro.solvers import GMRESIRSolver
from repro.stencil import generate_problem


def decisions(st) -> dict:
    """The decision-level record of one solve."""
    rec = {
        "iterations": st.iterations,
        "restarts": st.restarts,
        "converged": st.converged,
        "cycle_lengths": list(st.cycle_lengths),
        "events": [
            (
                p.iteration,
                p.restart,
                p.reason,
                p.from_low.short_name,
                p.to_low.short_name,
                p.ingredient,
                p.level,
                p.direction,
            )
            for p in st.promotions
        ],
    }
    rs = st.resilience
    if rs is not None:
        rec["resilience"] = (rs.detected, rs.replays, rs.breakdowns, rs.recovered)
    return rec


def solve_double_16():
    prob = generate_problem(Subdomain.serial(16, 16, 16))
    _, st = GMRESIRSolver(prob, SerialComm(), DOUBLE_POLICY).solve(
        prob.b, tol=1e-9, maxiter=300
    )
    return decisions(st)


def solve_mixed_16():
    prob = generate_problem(Subdomain.serial(16, 16, 16))
    _, st = GMRESIRSolver(prob, SerialComm(), MIXED_DS_POLICY).solve(
        prob.b, tol=1e-9, maxiter=300
    )
    return decisions(st)


def solve_fp16_per_ingredient():
    prob = generate_problem(Subdomain.serial(16, 16, 16))
    b = np.random.default_rng(7).standard_normal(prob.nlocal)
    solver = GMRESIRSolver(
        prob, SerialComm(), policy=HALF_LADDER_POLICY, control="per-ingredient"
    )
    _, st = solver.solve(b, tol=1e-11, maxiter=300)
    return decisions(st)


def solve_mixed_2ranks_overlap():
    def fn(comm):
        sub = Subdomain(BoxGrid(16, 16, 16), ProcessGrid.from_size(2), comm.rank)
        prob = generate_problem(sub)
        solver = GMRESIRSolver(prob, comm, MIXED_DS_POLICY, overlap=True)
        _, st = solver.solve(prob.b, tol=1e-9, maxiter=300)
        return decisions(st)

    return run_spmd(2, fn)


def bitflip_campaign():
    """``spmv:bitflip:2`` on covered sites, MIXED_DS at 16^3: one
    record per solve until the schedule is spent."""
    prob = generate_problem(Subdomain.serial(16, 16, 16))
    injector = parse_fault_spec("spmv:bitflip:2;seed=7").injector()
    injector.cover()
    solver = GMRESIRSolver(
        prob, SerialComm(), MIXED_DS_POLICY, resilience=ResilienceConfig()
    )
    records = []
    registry.set_wrapper(injector.kernel_wrapper())
    try:
        while injector.remaining("spmv") and len(records) < 6:
            _, st = solver.solve(prob.b, tol=1e-8, maxiter=400)
            records.append(decisions(st))
    finally:
        registry.set_wrapper(None)
    return records, injector.stats.injected_total


GOLDEN_DOUBLE_16 = {
    "iterations": 16,
    "restarts": 1,
    "converged": True,
    "cycle_lengths": [16],
    "events": [],
}

GOLDEN_MIXED_16 = {
    "iterations": 22,
    "restarts": 2,
    "converged": True,
    "cycle_lengths": [16, 6],
    "events": [],
}

GOLDEN_FP16_PER_INGREDIENT = {
    "iterations": 56,
    "restarts": 4,
    "converged": True,
    "cycle_lengths": [21, 15, 10, 10],
    "events": [
        (46, 3, "floor", "fp16", "fp32", "ortho", 0, "promote"),
        (46, 3, "floor", "fp16", "fp32", "smoother", 0, "promote"),
        (46, 3, "floor", "fp16", "fp32", "spmv", 0, "promote"),
    ],
}

GOLDEN_MIXED_2RANKS_OVERLAP = {
    "iterations": 29,
    "restarts": 2,
    "converged": True,
    "cycle_lengths": [23, 6],
    "events": [],
}

#: Both scheduled bitflips land in the first inner SpMV of a cycle, so
#: two cycles replay from their checkpoint with zero Arnoldi steps
#: charged; the restarts count includes the two replayed cycles.
GOLDEN_BITFLIP_CAMPAIGN = [
    {
        "iterations": 17,
        "restarts": 4,
        "converged": True,
        "cycle_lengths": [15, 2],
        "events": [],
        "resilience": (2, 2, 0, 1),
    }
]


class TestGoldenDecisions:
    """Captured at commit ecf037a (the separate single-RHS stack)."""

    def test_double_16(self):
        assert solve_double_16() == GOLDEN_DOUBLE_16

    def test_mixed_16(self):
        assert solve_mixed_16() == GOLDEN_MIXED_16

    def test_fp16_ladder_per_ingredient(self):
        assert solve_fp16_per_ingredient() == GOLDEN_FP16_PER_INGREDIENT

    def test_mixed_2ranks_overlap(self):
        assert solve_mixed_2ranks_overlap() == [GOLDEN_MIXED_2RANKS_OVERLAP] * 2

    def test_bitflip_campaign(self):
        records, injected = bitflip_campaign()
        assert injected == 2
        assert records == GOLDEN_BITFLIP_CAMPAIGN
