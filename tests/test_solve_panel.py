"""Batched ``solve_panel`` parity with sequential solves (PR 6).

Acceptance: an 8-wide ``solve_panel`` must return, per column, the
bitwise-identical iterate a sequential ``solve`` of that column
produces (fp64 policy; rung-tolerance for the mixed ladder), at 1, 2
and 8 SPMD ranks — all while the operator streams its matrix once per
panel step (the measured ``rhs_columns / matrix_passes``
amortization).
"""

import os

import numpy as np
import pytest

from repro.backends.registry import registry
from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.parallel import SerialComm, run_spmd
from repro.solvers import GMRESIRSolver
from repro.stencil import generate_problem


def spmd_rank_counts() -> list[int]:
    env = os.environ.get("REPRO_RANKS", "").strip()
    if env:
        return [int(tok) for tok in env.replace(",", " ").split()]
    return [1, 2, 4]


RANKS = spmd_rank_counts()


def run_ranks(nranks: int, fn) -> list:
    if nranks == 1:
        return [fn(SerialComm())]
    return run_spmd(nranks, fn)


def make_rhs_panel(b: np.ndarray, ncol: int) -> np.ndarray:
    """Panel of scaled copies of the stencil RHS (fp64-exact scales)."""
    B = np.empty((b.shape[0], ncol), order="F")
    for j in range(ncol):
        np.multiply(b, 1.0 + 0.5 * j, out=B[:, j])
    return B


def _solver(prob, comm, policy, **kw):
    return GMRESIRSolver(
        prob,
        comm,
        policy=policy,
        mg_config=MGConfig(nlevels=2),
        restart=10,
        **kw,
    )


class TestPanelParitySerial:
    @pytest.mark.parametrize("policy", [DOUBLE_POLICY, MIXED_DS_POLICY])
    def test_panel_bitwise_equals_sequential(self, problem16, policy):
        ncol = 8
        B = make_rhs_panel(problem16.b, ncol)
        pan = _solver(problem16, SerialComm(), policy)
        X, stats = pan.solve_panel(B, tol=0.0, maxiter=20)
        assert X.shape == (problem16.nlocal, ncol)
        assert len(stats) == ncol
        for j in range(ncol):
            seq = _solver(problem16, SerialComm(), policy)
            xj, sj = seq.solve(B[:, j].copy(), tol=0.0, maxiter=20)
            assert np.array_equal(X[:, j], xj), f"column {j} diverged"
            assert stats[j].iterations == sj.iterations
            assert stats[j].final_relres == sj.final_relres

    def test_deflation_converged_columns_leave_the_panel(self, problem16):
        # Column 0 is all-zero: it converges immediately (rho0 == 0)
        # and must not perturb the others.
        ncol = 4
        B = make_rhs_panel(problem16.b, ncol)
        B[:, 0] = 0.0
        pan = _solver(problem16, SerialComm(), DOUBLE_POLICY)
        X, stats = pan.solve_panel(B, tol=1e-8, maxiter=60)
        assert stats[0].converged and stats[0].iterations == 0
        assert np.array_equal(X[:, 0], np.zeros(problem16.nlocal))
        for j in range(1, ncol):
            seq = _solver(problem16, SerialComm(), DOUBLE_POLICY)
            xj, sj = seq.solve(B[:, j].copy(), tol=1e-8, maxiter=60)
            assert np.array_equal(X[:, j], xj)
            assert stats[j].converged == sj.converged

    def test_panel_amortizes_matrix_passes(self, problem16):
        ncol = 8
        B = make_rhs_panel(problem16.b, ncol)
        pan = _solver(problem16, SerialComm(), DOUBLE_POLICY)
        X, _ = pan.solve_panel(B, tol=0.0, maxiter=20)
        for op in {id(pan.op64): pan.op64, id(pan.op_inner): pan.op_inner}.values():
            if op.matrix_passes:
                reuse = op.rhs_columns / op.matrix_passes
                assert reuse == pytest.approx(ncol), (
                    f"panel booked {reuse:.2f} columns/pass, expected {ncol}"
                )

    def test_rejects_wrong_shape(self, problem16):
        pan = _solver(problem16, SerialComm(), DOUBLE_POLICY)
        with pytest.raises(ValueError, match="nlocal"):
            pan.solve_panel(np.zeros((7, 2)))
        with pytest.raises(ValueError, match="nlocal"):
            pan.solve_panel(problem16.b)  # 1-D is not a panel


@pytest.fixture
def reference_backend():
    """Run the test on the NumPy reference backend, then restore."""
    prev = registry.active_backend
    registry.set_backend("numpy")
    try:
        yield
    finally:
        registry.set_backend(prev)


class TestPanelFusionFlag:
    def test_unfused_panel_matches_fused_bitwise(
        self, problem16, reference_backend
    ):
        """``fusion=False`` runs the outer residual as ``matvec_panel``
        plus the per-column subtract and dot — the same bits as the
        fused motifs under the reference backend, through the unfused
        ops only."""
        B = make_rhs_panel(problem16.b, 4)
        Xf, sf = _solver(problem16, SerialComm(), MIXED_DS_POLICY).solve_panel(
            B, tol=1e-9, maxiter=60
        )
        seen = set()

        def record(op, fn):
            seen.add(op)
            return fn

        unfused = _solver(problem16, SerialComm(), MIXED_DS_POLICY, fusion=False)
        registry.set_wrapper(record)
        try:
            Xu, su = unfused.solve_panel(B, tol=1e-9, maxiter=60)
        finally:
            registry.set_wrapper(None)
        assert np.array_equal(Xf, Xu)
        assert [s.iterations for s in su] == [s.iterations for s in sf]
        assert [s.final_relres for s in su] == [s.final_relres for s in sf]
        assert {"spmv_multi", "dot_multi"} <= seen
        assert not seen & {"spmv_dot_multi", "waxpby_dot_multi", "gemv_sub_dot"}


class TestPanelParityDistributed:
    @pytest.mark.parametrize("nranks", RANKS)
    def test_fp64_bitwise_across_ranks(self, nranks):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            ncol = 8
            B = make_rhs_panel(prob.b, ncol)
            pan = _solver(prob, comm, DOUBLE_POLICY)
            X, _ = pan.solve_panel(B, tol=0.0, maxiter=10)
            ok = True
            for j in range(ncol):
                seq = _solver(prob, comm, DOUBLE_POLICY)
                xj, _ = seq.solve(B[:, j].copy(), tol=0.0, maxiter=10)
                ok = ok and np.array_equal(X[:, j], xj)
            return bool(ok)

        assert all(run_ranks(nranks, fn))

    @pytest.mark.parametrize("nranks", RANKS)
    def test_mixed_ladder_rung_tolerance_across_ranks(self, nranks):
        # The mixed ladder's panel sequence is still bitwise-equal to
        # the sequential one under the reference backend; assert the
        # strict contract and keep the rung-tolerance bound as the
        # documented acceptance floor.
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            ncol = 4
            B = make_rhs_panel(prob.b, ncol)
            pan = _solver(prob, comm, MIXED_DS_POLICY)
            X, _ = pan.solve_panel(B, tol=0.0, maxiter=10)
            ok = True
            for j in range(ncol):
                seq = _solver(prob, comm, MIXED_DS_POLICY)
                xj, _ = seq.solve(B[:, j].copy(), tol=0.0, maxiter=10)
                ok = ok and np.array_equal(X[:, j], xj)
                ok = ok and np.allclose(X[:, j], xj, rtol=1e-5, atol=1e-5)
            return bool(ok)

        assert all(run_ranks(nranks, fn))
