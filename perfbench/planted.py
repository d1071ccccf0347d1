"""Sparse LPs with integer data and a planted feasibility cell.

Each instance carries the certificates that put it in its cell, in exact
integers: a Farkas vector ``y_star`` when the primal is infeasible and a
ray ``x_ray`` when the dual is infeasible.  The constructions follow
``pdhglp.demos.random_cell_instance``:

* standard form (Ax = b, x >= 0)
    - infeasible primal: columns sign-flipped so that A'y* >= 0, then b
      moved along y* until b'y* <= -DEPTH * ||y*||^2;
    - infeasible dual: column pairs a_j2 = -a_j1 with c_j1 + c_j2 = -2 DEPTH,
      so x1 = e_j1 + e_j2 has A x1 = 0 and c'x1 < 0.
* general form (Ax >= b, l <= x <= u, with lower-bounded, boxed and free
  variables)
    - infeasible primal: y* >= 0, lower-bounded columns flipped so that
      A'y* <= 0 there, free columns kept off supp(y*), and b moved along y*
      until the ray objective b'y* + l'r_+ - u'r_- (r = -A'y*) is at least
      DEPTH * ||y*||^2;
    - infeasible dual: a lower-bounded column pair as above.

The sides that stay feasible get a planted optimum that is unique and
strictly complementary, with a well-conditioned basis: the basic columns
form a block-diagonal matrix of dense integer blocks whose smallest
singular value is at least 1 (an unstructured random sparse basis is
often singular, and the solver then crawls).  Every other column has
``per_col`` entries in random rows, so column norms stay within a small
factor of each other and no planted column dominates the operator norm.

For the both-infeasible cell the column pairs are drawn on rows outside
supp(y*), so a_j1'y* = 0 and neither construction disturbs the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlantedLp",
    "planted_instance",
    "farkas_terms",
    "certificate_errors",
    "CELLS",
    "FORMS",
]

FORMS = ("standard", "general")
CELLS = ("both_feasible", "primal_infeasible", "dual_infeasible", "both_infeasible")

BLOCK = 4
# Column pairs that carry the planted ray of a dual-infeasible cell, and row
# blocks that carry the planted Farkas vector of a primal-infeasible one.
PAIRS = 1
Y_BLOCKS = 1
# How far an infeasible instance sits from its cell boundary, in units of
# the planted certificate's squared norm.
DEPTH = 1
# Share of general-form rows that are active (tight, positive dual) at the
# planted optimum; the others keep a positive slack.
_ACTIVE_SHARE = 0.8

# Bound kinds of general-form variables.
_LOWER, _BOXED, _FREE = 0, 1, 2


@dataclass
class PlantedLp:
    """Integer data of one instance plus the certificates of its cell.

    ``rows``/``cols``/``vals`` are the nonzeros of A.  For the general form
    ``l`` and ``u`` hold the bounds (``inf`` where absent); for the standard
    form they are None and every variable is >= 0.
    """

    name: str
    form: str
    cell: str
    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray
    c: np.ndarray
    l: np.ndarray | None
    u: np.ndarray | None
    y_star: np.ndarray | None
    x_ray: np.ndarray | None

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x, in the dtype of x (object arrays give exact Python ints)."""
        out = np.zeros(self.m, dtype=x.dtype)
        np.add.at(out, self.rows, self.vals * x[self.cols])
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A'y, in the dtype of y."""
        out = np.zeros(self.n, dtype=y.dtype)
        np.add.at(out, self.cols, self.vals * y[self.rows])
        return out


def _block(rng: np.random.Generator) -> np.ndarray:
    """A dense BLOCK x BLOCK integer matrix with smallest singular value >= 1."""
    while True:
        q = rng.integers(1, 4, size=(BLOCK, BLOCK)) * rng.choice([-1, 1], size=(BLOCK, BLOCK))
        if np.linalg.svd(q, compute_uv=False)[-1] >= 1.0:
            return q


def _random_column(rng, allowed: np.ndarray, per_col: int):
    rows = np.sort(rng.choice(allowed, size=per_col, replace=False))
    vals = rng.integers(1, 4, size=per_col) * rng.choice([-1, 1], size=per_col)
    return rows, vals


def planted_instance(
    cell: str,
    form: str,
    m: int,
    n: int,
    per_col: int,
    rng: np.random.Generator,
    name: str = "",
) -> PlantedLp:
    """Draw an instance of the given cell and form.

    m rows (a multiple of BLOCK) and n columns.  The basic columns have
    BLOCK entries each, the others ``per_col``.
    """
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if m % BLOCK:
        raise ValueError(f"m must be a multiple of {BLOCK}")
    primal_inf = cell in ("primal_infeasible", "both_infeasible")
    dual_inf = cell in ("dual_infeasible", "both_infeasible")
    general = form == "general"

    # Rows [0, m_act) are active at the planted optimum; basic column j
    # lives in block j // BLOCK of them.  Columns [m_act, n) are nonbasic,
    # the last 2 * PAIRS of them the ray pairs of a dual-infeasible cell.
    n_blocks = m // BLOCK
    m_act = BLOCK * int(round(_ACTIVE_SHARE * n_blocks)) if general else m
    if n < m_act + 2 * PAIRS + 1:
        raise ValueError("n too small for the basis and the ray pairs")
    pair_cols = np.arange(n - 2 * PAIRS, n) if dual_inf else np.empty(0, np.int64)

    in_s = np.zeros(m, dtype=bool)
    s_blocks = np.empty(0, np.int64)
    y_star = None
    if primal_inf:
        # Active blocks only: the rows of an inactive block hold no basic
        # column, and with the nonbasic columns kept off supp(y*) they would
        # be empty rows, a trivial infeasibility.
        s_blocks = rng.choice(m_act // BLOCK, size=Y_BLOCKS, replace=False)
        for k in s_blocks:
            in_s[k * BLOCK : (k + 1) * BLOCK] = True
        y_star = np.zeros(m, dtype=np.int64)
        size = int(in_s.sum())
        if general:
            y_star[in_s] = rng.integers(1, 3, size=size)
        else:
            y_star[in_s] = rng.choice([-1, 1], size=size)

    basic = np.zeros(n, dtype=bool)
    basic[:m_act] = True
    kinds = np.full(n, _LOWER)
    if general:
        kinds[~basic] = np.where(rng.random(n - m_act) < 0.7, _LOWER, _BOXED)
        kinds[basic] = rng.choice(3, size=m_act, p=(0.4, 0.3, 0.3))
        # Free columns must satisfy a_j'y* = 0: keep them off supp(y*).
        kinds[:m_act][(kinds[:m_act] == _FREE) & in_s[:m_act]] = _LOWER
    kinds[pair_cols] = _LOWER

    supports, values = [], []
    for k in range(m_act // BLOCK):
        q = _block(rng)
        for i in range(BLOCK):
            supports.append(np.arange(k * BLOCK, (k + 1) * BLOCK))
            values.append(q[:, i])
    # The nonbasic columns stay off supp(y*), and each ray pair sits on
    # the rows of one block outside it: the infeasible cores then couple to
    # the rest of the problem only through the planted basis.
    off_s = np.flatnonzero(~in_s)
    for j in range(m_act, n - pair_cols.size):
        r, v = _random_column(rng, off_s, per_col)
        supports.append(r)
        values.append(v)
    free_blocks = np.setdiff1d(np.arange(m_act // BLOCK), s_blocks)
    for k in rng.choice(free_blocks, size=pair_cols.size // 2, replace=False):
        v = rng.integers(1, 4, size=BLOCK) * rng.choice([-1, 1], size=BLOCK)
        rows = np.arange(k * BLOCK, (k + 1) * BLOCK)
        supports += [rows, rows.copy()]
        values += [v, -v]

    if primal_inf:
        for j in range(n):
            dot = int(values[j] @ y_star[supports[j]])
            # Standard form needs A'y* >= 0; general form needs A'y* <= 0
            # on lower-bounded columns (reduced cost r = -A'y* >= 0).
            if (not general and dot < 0) or (general and kinds[j] == _LOWER and dot > 0):
                values[j] = -values[j]

    p = PlantedLp(
        name=name or f"{form}_{cell}",
        form=form,
        cell=cell,
        m=m,
        n=n,
        rows=np.concatenate(supports),
        cols=np.repeat(np.arange(n), [s.size for s in supports]),
        vals=np.concatenate(values).astype(np.int64),
        b=np.zeros(m, dtype=np.int64),
        c=np.zeros(n, dtype=np.int64),
        l=None,
        u=None,
        y_star=y_star,
        x_ray=None,
    )

    # The planted optimum: basic variables strictly inside their bounds with
    # zero reduced cost, the others at a bound with a reduced cost that holds
    # them there; general-form rows active (positive dual, zero slack) or
    # slack (zero dual, positive slack).
    x0 = np.where(basic, rng.integers(1, 4, size=n), 0)
    r0 = np.where(basic, 0, rng.integers(1, 4, size=n))
    if general:
        boxed = kinds == _BOXED
        l = np.zeros(n)
        u = np.full(n, np.inf)
        u[boxed] = rng.integers(2, 5, size=int(boxed.sum()))
        l[kinds == _FREE] = -np.inf
        p.l, p.u = l, u
        x0[basic & boxed] = 1
        free = kinds == _FREE
        x0[free] *= rng.choice([-1, 1], size=int(free.sum()))
        at_upper = boxed & ~basic & (rng.random(n) < 0.5)
        x0[at_upper] = u[at_upper].astype(np.int64)
        r0[at_upper] = -r0[at_upper]
        active = np.arange(m) < m_act
        y0 = np.where(active, rng.integers(1, 4, size=m), 0)
        p.b = p.matvec(x0) - np.where(active, 0, rng.integers(1, 4, size=m))
    else:
        y0 = rng.integers(-1, 2, size=m)
        p.b = p.matvec(x0)
    p.c = p.rmatvec(y0) + r0

    if primal_inf:
        # Move b along y* until the certificate objective reaches
        # DEPTH * ||y*||^2: b'y* <= -that in the standard form, the ray
        # objective >= that in the general form.
        yy = int(y_star @ y_star)
        _, objective = farkas_terms(p, "primal", y_star.tolist())
        q = -(-(DEPTH * yy - objective) // yy)
        p.b += (1 if general else -1) * q * y_star
    if dual_inf:
        p.x_ray = np.zeros(n, dtype=np.int64)
        p.x_ray[pair_cols] = 1
        # Both columns of a pair price out at -DEPTH against the planted
        # dual y0, so the ray drifts with y0 still optimal for the rest.
        aty0 = p.rmatvec(y0)
        p.c[pair_cols] = aty0[pair_cols] - DEPTH
    return p


def _worst(*parts: np.ndarray) -> int:
    """The largest entry of the parts, or 0."""
    return max([0] + [max(part) for part in parts if part.size])


def farkas_terms(p: PlantedLp, side: str, v: list[int]) -> tuple[int, int]:
    """(residual, objective) of a certificate on the data of ``p``, exactly.

    ``v`` holds integers: one per row for side "primal" (a Farkas vector y),
    one per column for side "dual" (a ray x).  Scaling a float certificate
    to integers by a positive factor leaves residual / objective unchanged.
    The certificate is exact when the residual is 0 and the objective is
    positive.

    * standard primal: residual of A'y >= 0; objective -b'y.
    * general primal: residual of y >= 0, A'y <= 0 on lower-bounded and
      A'y = 0 on free columns; objective b'y - sum over boxed columns of
      u_j max(a_j'y, 0) (finite lower bounds are all 0).
    * standard dual: residual of Ax = 0, x >= 0; objective -c'x.
    * general dual: residual of Ax >= 0, x = 0 on boxed and x >= 0 on
      lower-bounded columns; objective -c'x.
    """
    v = np.array(v, dtype=object)
    if p.form == "general":
        free, boxed = np.isinf(p.l), np.isfinite(p.u)
        lower = ~free & ~boxed
    if side == "primal":
        aty = p.rmatvec(v)
        objective = int(p.b.astype(object) @ v)
        if p.form == "standard":
            return _worst(-aty), -objective
        u = p.u[boxed].astype(np.int64).astype(object)
        objective -= int(np.sum(u * np.maximum(aty[boxed], 0)))
        return _worst(-v, np.abs(aty[free]), aty[lower]), objective
    ax = p.matvec(v)
    objective = -int(p.c.astype(object) @ v)
    if p.form == "standard":
        return _worst(np.abs(ax), -v), objective
    return _worst(-ax, np.abs(v[boxed]), -v[lower]), objective


def certificate_errors(p: PlantedLp) -> list[str]:
    """Exact check of the planted certificates; empty when they hold."""
    errs = []
    for side, v in (("primal", p.y_star), ("dual", p.x_ray)):
        if v is not None:
            residual, objective = farkas_terms(p, side, v.tolist())
            if residual or objective <= 0:
                errs.append(f"{side} certificate: residual {residual}, objective {objective}")
    return errs
