"""Multicolor Gauss-Seidel with physical color-block reordering.

The paper does not merely *iterate* over color index sets — it
"reorder[s] the matrix and vectors symmetrically using an independent
set ordering" (§3.2.1) so each color pass reads a contiguous block of
rows (coalesced on a GPU, cache-friendly here).  This smoother applies
that scheme: the matrix is permuted once at construction, sweeps run on
contiguous row slices, and vectors are permuted on entry/exit.

It must agree with the index-set :class:`~repro.mg.smoothers.MulticolorGS`
to rounding, which tests assert — the reordering is a data-layout
optimization, not an algorithmic change.

With a halo pattern the smoother also supports the PR 5 overlapped
schedule: each contiguous color block is split into the
dependency-closed interior sub-block (sweepable before the halo lands;
see :func:`repro.sparse.partitioned.sweep_overlap_split`) and the
boundary remainder, and :meth:`sweep_overlapped_panel` pipelines
post-sends / permute-in / interior passes / land-ghosts / boundary
passes — the vector permutation itself becomes compute that hides the
exchange.
"""

from __future__ import annotations

import numpy as np

from repro.backends.dispatch import spmv_rows
from repro.geometry.halo import HaloPattern
from repro.geometry.partition import Subdomain
from repro.mg.smoothers import Smoother
from repro.parallel.halo_exchange import HaloExchange
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.sparse.ell import ELLMatrix
from repro.sparse.partitioned import sweep_overlap_split
from repro.sparse.reorder import coloring_permutation, permute_symmetric


class ReorderedMulticolorGS(Smoother):
    """Color-block-contiguous multicolor GS (the paper's layout)."""

    def __init__(
        self, A: ELLMatrix, sub: Subdomain, halo: HaloPattern | None = None
    ) -> None:
        colors = structured_coloring8(sub)
        self.old_of_new, self.new_of_old = coloring_permutation(colors)
        self.A_perm = permute_symmetric(A, self.new_of_old)
        self.diag_perm = self.A_perm.diagonal()
        # Contiguous [start, end) row blocks per color in the new order.
        counts = np.bincount(colors, minlength=int(colors.max()) + 1)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        self.blocks = [
            (int(bounds[c]), int(bounds[c + 1])) for c in range(len(counts))
        ]
        self.num_passes = len(self.blocks)
        self.nlocal = A.nrows
        self._ghost = A.ncols - A.nrows
        # Overlap split (optional): dependency-closed interior/boundary
        # permuted-row indices per color and direction, computed on the
        # *original* adjacency and mapped through the permutation.
        self._A = A
        self._sets = color_sets(colors)
        self._interior_mask = None
        if halo is not None:
            self._interior_mask = np.zeros(self.nlocal, dtype=bool)
            self._interior_mask[halo.interior_rows] = True
        self._splits: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

    @property
    def supports_overlap(self) -> bool:
        return self._interior_mask is not None

    # ------------------------------------------------------------------
    def _permute_in(self, xfull: np.ndarray) -> np.ndarray:
        """Owned part to color order; ghost segment is layout-invariant."""
        out = np.empty_like(xfull)
        out[: self.nlocal] = xfull[: self.nlocal][self.old_of_new]
        out[self.nlocal :] = xfull[self.nlocal :]
        return out

    def _permute_out(self, xperm: np.ndarray, xfull: np.ndarray) -> None:
        xfull[: self.nlocal] = xperm[: self.nlocal][self.new_of_old]
        xfull[self.nlocal :] = xperm[self.nlocal :]

    def _sweep(self, r: np.ndarray, xfull: np.ndarray, blocks) -> None:
        rp = r[self.old_of_new]
        xp = self._permute_in(xfull)
        A, diag = self.A_perm, self.diag_perm
        for start, end in blocks:
            rows = np.arange(start, end)
            ax = spmv_rows(A, rows, xp)
            xp[start:end] += (rp[start:end] - ax) / diag[start:end]
        self._permute_out(xp, xfull)

    def forward(self, r: np.ndarray, xfull: np.ndarray) -> None:
        self._sweep(r, xfull, self.blocks)

    def backward(self, r: np.ndarray, xfull: np.ndarray) -> None:
        self._sweep(r, xfull, list(reversed(self.blocks)))

    # Overlap schedule ------------------------------------------------
    def _split(self, direction: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """(interior, boundary) *permuted* row indices per color, in
        sweep order, built lazily per direction and cached."""
        cached = self._splits.get(direction)
        if cached is not None:
            return cached
        ncolors = len(self._sets)
        order = (
            list(range(ncolors))
            if direction == "forward"
            else list(reversed(range(ncolors)))
        )
        split = sweep_overlap_split(self._A, self._sets, self._interior_mask, order)
        out = []
        for c in order:
            interior, boundary = split[c]
            out.append(
                (
                    np.sort(self.new_of_old[interior]),
                    np.sort(self.new_of_old[boundary]),
                )
            )
        self._splits[direction] = out
        return out

    def _relax(self, rows: np.ndarray, rp: np.ndarray, xp: np.ndarray) -> None:
        if len(rows):
            ax = spmv_rows(self.A_perm, rows, xp)
            xp[rows] += (rp[rows] - ax) / self.diag_perm[rows]

    def sweep_overlapped_panel(
        self,
        halo_ex: HaloExchange,
        R: np.ndarray,
        Xfull: np.ndarray,
        direction: str = "forward",
    ) -> None:
        """Post one wide exchange, permute every column in, sweep the
        interior sub-blocks, land the ghosts, sweep the boundary
        sub-blocks, permute out.

        The sends pack from the *original* layout (the exchange plan's
        send indices are original row numbers), so they post before
        the permutation; the permutations and the interior passes are
        the compute that hides the wire time.  Bitwise-equal to
        ``exchange_panel`` + ``forward_panel``/``backward_panel`` by
        the dependency closure.
        """
        if self._interior_mask is None:
            super().sweep_overlapped_panel(halo_ex, R, Xfull, direction)
            return
        if direction not in ("forward", "backward"):
            raise ValueError(f"unknown sweep direction {direction!r}")
        pending = halo_ex.exchange_begin_panel(Xfull)
        split = self._split(direction)
        permuted = []
        for j in range(R.shape[1]):
            rp, xp = R[:, j][self.old_of_new], self._permute_in(Xfull[:, j])
            for rows, _ in split:
                self._relax(rows, rp, xp)
            permuted.append((rp, xp))
        halo_ex.exchange_finish_panel(pending, Xfull)
        for j, (rp, xp) in enumerate(permuted):
            xp[self.nlocal :] = Xfull[self.nlocal :, j]
            for _, rows in split:
                self._relax(rows, rp, xp)
            self._permute_out(xp, Xfull[:, j])
