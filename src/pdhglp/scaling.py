"""Diagonal preconditioning of the constraint matrix, and the maps between
scaled and original coordinates.

pdhg.run scales every problem it solves.  With positive row factors D_r and
column factors D_c it iterates on

    A~ = D_r A D_c,  c~ = D_c c,  b~ = D_r b,  l~ = l / D_c,  u~ = u / D_c,

whose points map back as x = D_c x~ and y = D_r y~.  The map keeps every
sign (the factors are positive), so y >= 0, the box and the objectives
carry over: b'y = b~'y~ and c'x = c~'x~.  The checks pull only the
points back; every product they read is of the original A.  The scaled
iteration is still averaged in its own M-norm, so the displacement results
behind the certificates hold for it unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .linalg import SparseMatrix
from .model import GeneralFormLp

if TYPE_CHECKING:  # pragma: no cover
    from .pdhg import PdhgState

__all__ = ["ruiz_pock_chambolle", "DiagonalScaling"]

RUIZ_PASSES = 10


def _scaled_csr(
    csr: sp.csr_matrix, row: np.ndarray, col: np.ndarray
) -> sp.csr_matrix:
    """diag(row) @ csr @ diag(col), entry by entry in the stored order."""
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    data = csr.data * row[rows] * col[csr.indices]
    indices, indptr = csr.indices.copy(), csr.indptr.copy()
    return sp.csr_matrix((data, indices, indptr), shape=csr.shape)


def _inverse_sqrt(norms: np.ndarray) -> np.ndarray:
    # An all-zero row or column has norm 0 and keeps factor 1.
    return 1.0 / np.sqrt(np.where(norms > 0.0, norms, 1.0))


def _factors(shape, norms) -> tuple[np.ndarray, np.ndarray]:
    """The passes of ruiz_pock_chambolle, where norms(row, col, ufunc) is
    the (row, column) reductions of diag(row) |A| diag(col) by ufunc:
    np.maximum for the inf-norms, np.add for the 1-norms."""
    row = np.ones(shape[0])
    col = np.ones(shape[1])
    for ufunc in (np.maximum,) * RUIZ_PASSES + (np.add,):
        row_norms, col_norms = norms(row, col, ufunc)
        row *= _inverse_sqrt(row_norms)
        col *= _inverse_sqrt(col_norms)
    return row, col


def _dense_factors(a: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    mag = np.abs(a.dense)

    def norms(row, col, ufunc):
        cur = mag * row[:, None] * col
        return ufunc.reduce(cur, axis=1), ufunc.reduce(cur, axis=0)

    return _factors(mag.shape, norms)


def _segments(ufunc, values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """ufunc over each segment values[indptr[k]:indptr[k + 1]], 0 for an
    empty one."""
    out = np.zeros(indptr.size - 1)
    full = np.flatnonzero(np.diff(indptr))
    if full.size:
        out[full] = ufunc.reduceat(values, indptr[full])
    return out


def _sparse_factors(a: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The factors from the CSR arrays of |A|.  Row reductions run over the
    row segments and column maxima over one column-ordered permutation of
    the entries.  Column sums come from bincount, which adds in stored
    order, as scipy's product ones' |A| does; the factors are therefore
    those of scipy's row and column reductions, to the bit."""
    csr = a.csr
    mag = np.abs(csr.data)
    rows = np.repeat(np.arange(a.n_rows), np.diff(csr.indptr))
    cols = csr.indices
    by_col = np.argsort(cols, kind="stable")
    col_ptr = np.zeros(a.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=a.n_cols), out=col_ptr[1:])

    def norms(row, col, ufunc):
        cur = mag * row[rows] * col[cols]
        if ufunc is np.add:
            col_norms = np.bincount(cols, weights=cur, minlength=a.n_cols)
        else:
            col_norms = _segments(ufunc, cur[by_col], col_ptr)
        return _segments(ufunc, cur, csr.indptr), col_norms

    return _factors(a.shape, norms)


def ruiz_pock_chambolle(a: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column factors (D_r, D_c) for A~ = D_r A D_c.

    RUIZ_PASSES rounds of Ruiz equilibration divide every row and column of
    the current A~ by the square root of its inf-norm; one Pock-Chambolle
    pass (alpha = 1) then divides by the square root of the 1-norms.  Each
    pass measures rows and columns on the matrix before it.  The factors
    are exact, not rounded to powers of two.  A is measured on a.dense when
    it has one (SparseMatrix.dense), else in CSR; every scaled entry is the
    same product either way, and only the 1-norm sums may round apart.
    """
    if a.dense is not None:
        return _dense_factors(a)
    return _sparse_factors(a)


@dataclass(frozen=True)
class DiagonalScaling:
    """D_r (row) and D_c (col) with the maps between the two coordinates."""

    row: np.ndarray
    col: np.ndarray

    def problem(self, p: GeneralFormLp) -> GeneralFormLp:
        """The scaled problem; inf / D_c stays inf, so unbounded sides stay
        unbounded, and the equality rows stay the same."""
        return dataclasses.replace(
            p,
            a=SparseMatrix(_scaled_csr(p.a.csr, self.row, self.col)),
            c=p.c * self.col,
            b=p.b * self.row,
            l=p.l / self.col,
            u=p.u / self.col,
        )

    def to_scaled(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(x / D_c, y / D_r): an original point in scaled coordinates."""
        return x / self.col, y / self.row

    def unscale_state(self, s: "PdhgState") -> "PdhgState":
        """A scaled iterate bundle in original coordinates."""
        col, row = self.col, self.row
        return dataclasses.replace(
            s,
            x=s.x * col,
            y=s.y * row,
            x_prev=s.x_prev * col,
            y_prev=s.y_prev * row,
            sum_x=s.sum_x * col,
            sum_y=s.sum_y * row,
        )
