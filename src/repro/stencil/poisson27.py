"""Generator for the HPG-MxP / HPCG 27-point stencil matrix.

Each rank builds its block of rows with zero communication: the
geometry package supplies ghost column indices for stencil neighbors
owned by other ranks.  The right-hand side is chosen so the exact
solution is the vector of ones (HPCG's convention: ``b_i`` equals the
row sum), which gives tests an exact global solution at any scale.

Per Yamazaki et al. the symmetric matrix (diag 26, offdiag -1) is used
for the benchmark even though GMRES permits nonsymmetry — the symmetric
problem takes more GMRES iterations.  The nonsymmetric variant is kept
for completeness: lower couplings ``-(1+delta)``, upper ``-(1-delta)``,
which preserves the weak diagonal dominance ``sum_j |a_ij| <= a_ii``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fp.precision import Precision
from repro.geometry.halo import (
    CENTER_SLOT,
    STENCIL_OFFSETS,
    HaloPattern,
    build_halo_pattern,
)
from repro.geometry.partition import Subdomain
from repro.sparse.ell import ELLMatrix


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of the generated matrix.

    Attributes
    ----------
    kind:
        ``"symmetric"`` (benchmark default) or ``"nonsymmetric"``.
    diag_value:
        Diagonal entry (26 in the benchmark).
    offdiag_value:
        Magnitude of the off-diagonal coupling (-1 in the benchmark).
    nonsym_delta:
        Skew for the nonsymmetric variant; lower couplings are scaled by
        ``(1+delta)`` and upper by ``(1-delta)``.
    """

    kind: str = "symmetric"
    diag_value: float = 26.0
    offdiag_value: float = -1.0
    nonsym_delta: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in ("symmetric", "nonsymmetric"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if not 0.0 <= self.nonsym_delta < 1.0:
            raise ValueError("nonsym_delta must be in [0, 1)")


@dataclass
class Problem:
    """A generated local problem: matrix, rhs, exact solution, halo."""

    sub: Subdomain
    halo: HaloPattern
    A: ELLMatrix
    b: np.ndarray
    x_exact: np.ndarray
    spec: ProblemSpec = field(default_factory=ProblemSpec)

    @property
    def nlocal(self) -> int:
        return self.sub.nlocal

    @property
    def nglobal(self) -> int:
        return self.sub.nglobal


def generate_problem(
    sub: Subdomain,
    spec: ProblemSpec | None = None,
    halo: HaloPattern | None = None,
    dtype: "Precision | str" = Precision.DOUBLE,
) -> Problem:
    """Generate the local rows of the 27-point stencil problem.

    Fully vectorized: one pass per stencil slot (27 slots), each a flat
    array operation over all local points.
    """
    spec = spec or ProblemSpec()
    halo = halo or build_halo_pattern(sub)
    vdtype = Precision.from_any(dtype).dtype

    n = sub.nlocal
    local = sub.local
    gg = sub.global_grid
    ix, iy, iz = local.all_coords()
    gx0, gy0, gz0 = sub.origin
    gx, gy, gz = ix + gx0, iy + gy0, iz + gz0

    cols = np.zeros((n, 27), dtype=np.int32)
    vals = np.zeros((n, 27), dtype=vdtype)

    # Global linear index of each row, for the nonsymmetric lower/upper
    # classification (must be consistent across ranks, hence global).
    g_row = gg.linear_index(gx, gy, gz)

    for slot, (ox, oy, oz) in enumerate(STENCIL_OFFSETS):
        if slot == CENTER_SLOT:
            cols[:, slot] = np.arange(n, dtype=np.int32)
            vals[:, slot] = spec.diag_value
            continue
        ngx, ngy, ngz = gx + ox, gy + oy, gz + oz
        valid = gg.contains(ngx, ngy, ngz)
        if not valid.any():
            continue
        lx, ly, lz = ix + ox, iy + oy, iz + oz
        col_valid = halo.ghost_columns(lx[valid], ly[valid], lz[valid])
        cols[valid, slot] = col_valid.astype(np.int32)
        if spec.kind == "symmetric":
            vals[valid, slot] = spec.offdiag_value
        else:
            g_nb = gg.linear_index(ngx[valid], ngy[valid], ngz[valid])
            lower = g_nb < g_row[valid]
            scale = np.where(lower, 1.0 + spec.nonsym_delta, 1.0 - spec.nonsym_delta)
            vals[valid, slot] = spec.offdiag_value * scale

    A = ELLMatrix(cols=cols, vals=vals, ncols=n + halo.n_ghost)
    # b = A @ ones (global ones, so ghost entries contribute too):
    # simply the row sums of all stored values.
    b = vals.sum(axis=1, dtype=np.float64)
    x_exact = np.ones(n, dtype=np.float64)
    return Problem(sub=sub, halo=halo, A=A, b=b, x_exact=x_exact, spec=spec)
