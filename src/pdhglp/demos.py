"""Built-in desk instances.

A small corpus used by the CLI demo subcommand, the tests and the
acceptance suite (which also stack scaled copies of these into larger
instances): a three-variable inequality family whose (alpha, beta) knobs
move it through all four feasibility cells, a few handcrafted standard-form
instances with known certificates, and a randomized generator that
manufactures tiny standard-form instances in a requested cell by exact
integer construction.
"""

from __future__ import annotations

import numpy as np

from .linalg import SparseMatrix
from .model import GeneralFormLp, StandardFormLp

__all__ = [
    "example1",
    "std_feasible",
    "std_primal_infeasible",
    "std_dual_infeasible",
    "std_both_infeasible",
    "random_cell_instance",
    "DEMO_BUILDERS",
    "CELLS",
]

CELLS = ("both_feasible", "primal_infeasible", "dual_infeasible", "both_infeasible")


def example1(alpha: float = 0.0, beta: float = 1.0) -> GeneralFormLp:
    """min x0 + x1 - alpha*x2 over free variables, subject to

        x0 + 2 x1 <= 2,   3 x0 + x1 <= 2,   x0 + x1 >= beta.

    (alpha, beta) = (0, 1) is solvable, (1, 2) infeasible on both sides,
    (0, 2) primal infeasible with a feasible dual, (1, 1) the reverse.
    """
    a = SparseMatrix.from_dense(
        [
            [-1.0, -2.0, 0.0],
            [-3.0, -1.0, 0.0],
            [1.0, 1.0, 0.0],
        ]
    )
    return GeneralFormLp(
        c=np.array([1.0, 1.0, -float(alpha)]),
        a=a,
        b=np.array([-2.0, -2.0, float(beta)]),
        l=np.full(3, -np.inf),
        u=np.full(3, np.inf),
        name=f"example1(alpha={alpha:g},beta={beta:g})",
    )


def std_feasible() -> StandardFormLp:
    """x0 + x1 = 2, x >= 0, min x0 + 2 x1; optimum 2 at (2, 0)."""
    return StandardFormLp(
        c=np.array([1.0, 2.0]),
        a=SparseMatrix.from_dense([[1.0, 1.0]]),
        b=np.array([2.0]),
        name="std_feasible",
    )


def std_primal_infeasible() -> StandardFormLp:
    """x0 + x1 = -1 with x >= 0 cannot hold; the dual (y <= 1, y <= 2) can.

    The certificate direction is y > 0 (b'y = -y < 0, A'y = (y, y) >= 0).
    """
    return StandardFormLp(
        c=np.array([1.0, 2.0]),
        a=SparseMatrix.from_dense([[1.0, 1.0]]),
        b=np.array([-1.0]),
        name="std_primal_infeasible",
    )


def std_dual_infeasible() -> StandardFormLp:
    """x0 - x1 = 1, x >= 0 is solvable but min -x0 is unbounded.

    The ray d = (1, 1) has Ad = 0, d >= 0, c'd = -1.
    """
    return StandardFormLp(
        c=np.array([-1.0, 0.0]),
        a=SparseMatrix.from_dense([[1.0, -1.0]]),
        b=np.array([1.0]),
        name="std_dual_infeasible",
    )


def std_both_infeasible() -> StandardFormLp:
    """Rows x0 - x1 = 0 and x2 = -1 over x >= 0: the second row is hopeless,
    and the cost -x0 runs off along d = (1, 1, 0)."""
    return StandardFormLp(
        c=np.array([-1.0, 0.0, 0.0]),
        a=SparseMatrix.from_dense([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
        b=np.array([0.0, -1.0]),
        name="std_both_infeasible",
    )


DEMO_BUILDERS = {
    "ex1": example1,
    "std-feasible": std_feasible,
    "std-primal-infeasible": std_primal_infeasible,
    "std-dual-infeasible": std_dual_infeasible,
    "std-both-infeasible": std_both_infeasible,
}


def _draw_matrix(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.integers(-3, 4, size=(m, n)).astype(np.float64)


def _nonzero_vector(
    rng: np.random.Generator, size: int, lo: int, hi: int
) -> np.ndarray:
    while True:
        v = rng.integers(lo, hi + 1, size=size).astype(np.float64)
        if np.any(v != 0.0):
            return v


def random_cell_instance(
    cell: str, rng: np.random.Generator, n: int = 4, m: int = 3
) -> StandardFormLp:
    """A tiny standard-form LP landing in the requested feasibility cell.

    All constructions are exact over the integers:

      * feasible primal: b = A x0 for a nonnegative integer x0;
      * feasible dual: c = A'y0 + s with s >= 0;
      * infeasible primal: columns aligned with a direction y_star
        (a_j'y_star >= 0) while b'y_star < 0;
      * infeasible dual: a nonnegative combination of columns cancels
        (A x1 = 0) while c'x1 < 0.
    """
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    if not (1 <= m <= 6 and 2 <= n <= 6):
        raise ValueError("generator is tuned for 1<=m<=6, 2<=n<=6")
    if cell == "both_infeasible" and m < 2:
        # The vanishing column pair must be orthogonal to y_star, which is
        # impossible with a single row.
        raise ValueError("both_infeasible needs m >= 2")

    for _ in range(1000):
        a = _draw_matrix(rng, m, n)

        # Structural column edits first so b and c see the final matrix.
        x1 = None
        y_star = None
        if cell == "dual_infeasible":
            # Last column cancels a nonnegative combination of the rest.
            x1 = np.zeros(n)
            x1[: n - 1] = rng.integers(0, 3, size=n - 1).astype(np.float64)
            x1[n - 1] = 1.0
            a[:, n - 1] = -(a[:, : n - 1] @ x1[: n - 1])
        elif cell in ("primal_infeasible", "both_infeasible"):
            y_star = _nonzero_vector(rng, m, -2, 2)
            yy = float(y_star @ y_star)
            if cell == "both_infeasible":
                # Columns n-2 and n-1 carry the vanishing combination; make
                # them orthogonal to y_star by integer projection.
                col = yy * a[:, n - 2] - float(a[:, n - 2] @ y_star) * y_star
                if not np.any(col):
                    continue
                a[:, n - 2] = col
                a[:, n - 1] = -col
                x1 = np.zeros(n)
                x1[n - 2] = 1.0
                x1[n - 1] = 1.0
            for j in range(n - 2 if cell == "both_infeasible" else n):
                dot = float(a[:, j] @ y_star)
                if dot < 0.0:
                    a[:, j] = -a[:, j]

        if y_star is not None:
            b0 = _draw_matrix(rng, m, 1)[:, 0]
            yy = float(y_star @ y_star)
            b = yy * b0 - (float(b0 @ y_star) + yy) * y_star
        else:
            x0 = rng.integers(0, 4, size=n).astype(np.float64)
            b = a @ x0

        if x1 is not None:
            c = _draw_matrix(rng, 1, n)[0]
            c[n - 1] -= float(c @ x1) + 1.0  # c'x1 = -1 exactly
        else:
            y0 = rng.integers(-2, 3, size=m).astype(np.float64)
            s = rng.integers(0, 4, size=n).astype(np.float64)
            c = a.T @ y0 + s

        # Reject degenerate shapes the validators would flag anyway.
        if np.any(~a.any(axis=1)) or np.any(~a.any(axis=0)):
            continue
        if np.max(np.abs(a)) > 200 or np.max(np.abs(b)) > 500:
            continue

        perm_rows = rng.permutation(m)
        perm_cols = rng.permutation(n)
        a = a[perm_rows][:, perm_cols]
        b = b[perm_rows]
        c = c[perm_cols]
        return StandardFormLp(
            c=c,
            a=SparseMatrix.from_dense(a),
            b=b,
            name=f"random_{cell}",
        )
    raise RuntimeError(f"could not draw a usable {cell} instance")
