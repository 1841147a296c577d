"""LU workload: matrix generation, block layout, block kernels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.util.rng import make_rng

__all__ = ["LuParams", "LuWorkload", "lu_nopivot", "panel_l", "panel_u"]


@dataclass(frozen=True, slots=True)
class LuParams:
    """Workload parameters (paper run: 512×512, 16×16 blocks, 4 procs)."""

    n: int = 512
    block: int = 16
    n_procs: int = 4
    seed: int = 1997

    def validate(self) -> "LuParams":
        if self.n % self.block:
            raise ReproError(f"n={self.n} must be a multiple of block={self.block}")
        pr, pc = self.proc_grid
        if pr * pc != self.n_procs:
            raise ReproError(f"n_procs={self.n_procs} is not a P=pr*pc grid")
        return self

    @property
    def n_blocks(self) -> int:
        return self.n // self.block

    @property
    def proc_grid(self) -> tuple[int, int]:
        """Nearly square processor grid (pr rows × pc cols)."""
        pr = int(np.sqrt(self.n_procs))
        while self.n_procs % pr:
            pr -= 1
        return pr, self.n_procs // pr


def lu_nopivot(a: np.ndarray) -> None:
    """In-place unpivoted LU of one block: L strict-lower (unit diagonal
    implied) and U upper share the array, Doolittle style."""
    bs = a.shape[0]
    for r in range(bs):
        if a[r, r] == 0.0:
            raise ReproError("zero pivot in unpivoted block LU (matrix not diagonally dominant?)")
        a[r + 1 :, r] /= a[r, r]
        a[r + 1 :, r + 1 :] -= np.outer(a[r + 1 :, r], a[r, r + 1 :])


def panel_l(a_ik: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """L_ik = A_ik · U_kk⁻¹ (U_kk is the upper part of the pivot block),
    solved as U_kkᵀ · L_ikᵀ = A_ikᵀ."""
    return np.linalg.solve(np.triu(pivot).T, a_ik.T).T


def panel_u(a_kj: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """U_kj = L_kk⁻¹ · A_kj (L_kk is unit-lower from the pivot block)."""
    return np.linalg.solve(np.tril(pivot, -1) + np.eye(len(pivot)), a_kj)


class LuWorkload:
    """The distributed matrix and its block↔processor geometry."""

    def __init__(self, params: LuParams):
        self.params = params.validate()
        p = self.params
        rng = make_rng(p.seed)
        #: diagonally dominant so the unpivoted factorization is stable
        self.matrix = rng.uniform(-1.0, 1.0, (p.n, p.n)) + p.n * np.eye(p.n)
        pr, pc = p.proc_grid
        self._pr, self._pc = pr, pc
        self._owned: list[list[tuple[int, int]]] = [[] for _ in range(p.n_procs)]
        self._offset: dict[tuple[int, int], int] = {}
        b = p.n_blocks
        for i in range(b):
            for j in range(b):
                q = self.owner(i, j)
                self._offset[(i, j)] = len(self._owned[q])
                self._owned[q].append((i, j))

    # -------------------------------------------------------------- geometry

    def owner(self, i: int, j: int) -> int:
        """Block (i, j) -> owning processor (2-D cyclic)."""
        return (i % self._pr) * self._pc + (j % self._pc)

    def proc_coords(self, q: int) -> tuple[int, int]:
        return q // self._pc, q % self._pc

    def owned_blocks(self, q: int) -> list[tuple[int, int]]:
        return self._owned[q]

    def block_offset(self, i: int, j: int) -> int:
        """Element offset of block (i,j) within its owner's block region."""
        bs2 = self.params.block * self.params.block
        return self._offset[(i, j)] * bs2

    def block_of(self, region: np.ndarray, i: int, j: int) -> np.ndarray:
        """View of block (i,j) inside its owner's flat region."""
        bs = self.params.block
        off = self.block_offset(i, j)
        return region[off : off + bs * bs].reshape(bs, bs)

    def initial_block(self, i: int, j: int) -> np.ndarray:
        bs = self.params.block
        return self.matrix[i * bs : (i + 1) * bs, j * bs : (j + 1) * bs]

    # --------------------------------------------------- per-step work lists

    def needs_pivot(self, q: int, k: int) -> bool:
        """Does q own any block in row k / column k beyond the pivot?"""
        qr, qc = self.proc_coords(q)
        b = self.params.n_blocks
        in_row = qr == k % self._pr and any(
            j % self._pc == qc for j in range(k + 1, b)
        )
        in_col = qc == k % self._pc and any(
            i % self._pr == qr for i in range(k + 1, b)
        )
        return in_row or in_col

    def panel_rows(self, q: int, k: int) -> list[int]:
        """Rows i>k whose L_ik block q owns (panel work)."""
        qr, qc = self.proc_coords(q)
        if qc != k % self._pc:
            return []
        return [i for i in range(k + 1, self.params.n_blocks) if i % self._pr == qr]

    def panel_cols(self, q: int, k: int) -> list[int]:
        """Columns j>k whose U_kj block q owns (panel work)."""
        qr, qc = self.proc_coords(q)
        if qr != k % self._pr:
            return []
        return [j for j in range(k + 1, self.params.n_blocks) if j % self._pc == qc]

    def interior_blocks(self, q: int, k: int) -> list[tuple[int, int]]:
        """Interior blocks (i>k, j>k) owned by q."""
        return [(i, j) for (i, j) in self._owned[q] if i > k and j > k]

    def interior_needs(self, q: int, k: int) -> tuple[list[int], list[int]]:
        """(rows i needing L_ik, cols j needing U_kj) for q's interior."""
        blocks = self.interior_blocks(q, k)
        rows = sorted({i for i, _ in blocks})
        cols = sorted({j for _, j in blocks})
        return rows, cols
