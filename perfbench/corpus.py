"""The three corpora and their set-up: generate, write the files, label.

Every corpus is a fixed base set drawn from ``CORPUS_SEED``; the workload
seed picks how it is presented: a row and column permutation of every
instance and the order of the items.  The cells, sizes and structure of
the instances are therefore the same for every workload seed, so runs with
different seeds measure the same work, while each seed still writes its
own files.

Instance files are written under ``.bench_out/<workload>/`` in the current
directory.  The program only ever sees those files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from pdhglp import demos, exact
from pdhglp.instance_io import save_problem
from pdhglp.linalg import SparseMatrix
from pdhglp.model import (
    GeneralFormLp,
    StandardFormLp,
    standard_to_general,
    to_standard_form,
)
from pdhglp.mps import MpsDocument, MpsRow, write_mps

from planted import CELLS, FORMS, PlantedLp, planted_instance

__all__ = [
    "CORPUS_SEED",
    "Item",
    "setup_desk",
    "setup_sparse",
    "setup_analyze",
    "SETUPS",
]

CORPUS_SEED = 0
OUT_DIR = ".bench_out"

# desk: random_cell_instance draws per cell, each written in both forms.
DESK_RANDOM_PER_CELL = 5
# sparse: (m, n, nonzeros per column) of the planted instances.
SPARSE_SHAPE = (300, 1200, 8)
# analyze: small planted standard-form instances of the infeasible cells.
ANALYZE_SHAPE = (40, 120, 3)


@dataclass
class Item:
    """One unit of work: an instance file and what its answer must be.

    ``problem`` is the instance exactly as written (the original data the
    certificates are re-checked on); ``planted`` is set for generated
    instances and holds their integer data and planted certificates.
    """

    name: str
    path: str
    form: str
    cell: str
    m: int
    n: int
    nnz: int
    problem: StandardFormLp | GeneralFormLp | None = None
    planted: PlantedLp | None = None

    def describe(self) -> dict:
        return {
            "name": self.name,
            "shape": [self.m, self.n],
            "nnz": self.nnz,
            "form": self.form,
            "cell": self.cell,
        }


def _permute_lp(p, rng: np.random.Generator, name: str):
    """The same LP with rows and columns relabelled."""
    m, n = p.a.shape
    pr, pc = rng.permutation(m), rng.permutation(n)
    rows, cols, vals = p.a.triplets()
    inv_r, inv_c = np.argsort(pr), np.argsort(pc)
    a = SparseMatrix.from_triplets(m, n, inv_r[rows], inv_c[cols], vals)
    common = dict(
        c=p.c[pc], a=a, b=p.b[pr], name=name, objective_offset=p.objective_offset
    )
    if isinstance(p, GeneralFormLp):
        return GeneralFormLp(l=p.l[pc], u=p.u[pc], **common)
    return StandardFormLp(**common)


def _permute_planted(p: PlantedLp, rng: np.random.Generator, name: str) -> PlantedLp:
    pr, pc = rng.permutation(p.m), rng.permutation(p.n)
    inv_r, inv_c = np.argsort(pr), np.argsort(pc)
    return PlantedLp(
        name=name,
        form=p.form,
        cell=p.cell,
        m=p.m,
        n=p.n,
        rows=inv_r[p.rows],
        cols=inv_c[p.cols],
        vals=p.vals.copy(),
        b=p.b[pr],
        c=p.c[pc],
        l=None if p.l is None else p.l[pc],
        u=None if p.u is None else p.u[pc],
        y_star=None if p.y_star is None else p.y_star[pr],
        x_ray=None if p.x_ray is None else p.x_ray[pc],
    )


def planted_to_lp(p: PlantedLp) -> StandardFormLp | GeneralFormLp:
    a = SparseMatrix.from_triplets(p.m, p.n, p.rows, p.cols, p.vals.astype(float))
    if p.form == "standard":
        return StandardFormLp(c=p.c.astype(float), a=a, b=p.b.astype(float), name=p.name)
    return GeneralFormLp(
        c=p.c.astype(float), a=a, b=p.b.astype(float), l=p.l, u=p.u, name=p.name
    )


def planted_to_mps(p: PlantedLp) -> str:
    """MPS text of a general-form instance: G rows plus UP/FR bounds.  Rows
    and columns appear in index order, so the loader keeps the numbering;
    every column has entries in A."""
    doc = MpsDocument(name=p.name)
    doc.rows = [MpsRow("N", "COST")] + [MpsRow("G", f"R{i}") for i in range(p.m)]
    order = np.lexsort((p.rows, p.cols))
    rows, cols, vals = p.rows[order], p.cols[order], p.vals[order]
    starts = np.searchsorted(cols, np.arange(p.n + 1))
    for j in range(p.n):
        name = f"X{j}"
        if p.c[j] != 0:
            doc.columns.append((name, "COST", float(p.c[j])))
        for k in range(starts[j], starts[j + 1]):
            doc.columns.append((name, f"R{rows[k]}", float(vals[k])))
    doc.rhs = {f"R{i}": float(v) for i, v in enumerate(p.b) if v != 0}
    for j in range(p.n):
        if np.isinf(p.l[j]) and np.isinf(p.u[j]):
            doc.bounds.append(("FR", f"X{j}", None))
        elif np.isfinite(p.u[j]):
            doc.bounds.append(("UP", f"X{j}", float(p.u[j])))
    return write_mps(doc)


def _json_item(p, path: str, cell: str, name: str) -> Item:
    save_problem(p, path)
    form = "general" if isinstance(p, GeneralFormLp) else "standard"
    m, n = p.a.shape
    return Item(name, path, form, cell, m, n, p.a.nnz, problem=p)


def _planted_item(p: PlantedLp, out: str) -> Item:
    """Write a planted instance: general form as MPS, standard form as JSON
    (the MPS reader would return it in general form)."""
    if p.form == "general":
        path = os.path.join(out, f"{p.name}.mps")
        with open(path, "w") as fh:
            fh.write(planted_to_mps(p))
    else:
        path = os.path.join(out, f"{p.name}.json")
        save_problem(planted_to_lp(p), path)
    return Item(p.name, path, p.form, p.cell, p.m, p.n, p.nnz, planted=p)


def _out_dir(workload: str) -> str:
    path = os.path.join(OUT_DIR, workload)
    os.makedirs(path, exist_ok=True)
    return path


def _desk_base() -> list[tuple[str, StandardFormLp | GeneralFormLp]]:
    """The built-in demos and random cell instances, each in both forms."""
    base = []
    for alpha, beta in ((0, 1), (1, 2), (0, 2), (1, 1)):
        p = demos.example1(alpha, beta)
        tag = f"ex1_{alpha}_{beta}"
        base.append((tag, p))
        base.append((tag + "_std", to_standard_form(p)[0]))
    for name in sorted(demos.DEMO_BUILDERS):
        if name == "ex1":
            continue
        p = demos.DEMO_BUILDERS[name]()
        base.append((name, p))
        base.append((name + "_gen", standard_to_general(p)))
    for c, cell in enumerate(demos.CELLS):
        # One stream per cell, so the first k draws of a cell do not depend
        # on how many the other cells take.
        rng = np.random.default_rng([CORPUS_SEED, c])
        for i in range(DESK_RANDOM_PER_CELL):
            p = demos.random_cell_instance(cell, rng)
            base.append((f"rand_{cell}_{i}", p))
            base.append((f"rand_{cell}_{i}_gen", standard_to_general(p)))
    return base


def _present(base, seed: int, workload: str, label) -> list[Item]:
    """Permute each instance by the workload seed, write it, label it, and
    shuffle the item order."""
    rng = np.random.default_rng(seed)
    out = _out_dir(workload)
    items = []
    for k, (tag, p) in enumerate(base):
        q = _permute_lp(p, rng, tag)
        items.append(_json_item(q, os.path.join(out, f"{k:03d}_{tag}.json"), label(q), tag))
    return [items[i] for i in rng.permutation(len(items))]


def _oracle_cell(p) -> str:
    return exact.classify_lp(p).cell


def setup_desk(seed: int) -> list[Item]:
    return _present(_desk_base(), seed, "desk", _oracle_cell)


def setup_sparse(seed: int) -> list[Item]:
    """Planted instances in all four cells and both forms: general form as
    MPS, standard form as JSON, so each is solved in its own form."""
    m, n, per_col = SPARSE_SHAPE
    base_rng = np.random.default_rng(CORPUS_SEED)
    rng = np.random.default_rng(seed)
    out = _out_dir("sparse")
    items = []
    for form in FORMS:
        for cell in CELLS:
            name = f"{form}_{cell}"
            p = planted_instance(cell, form, m, n, per_col, base_rng, name=name)
            p = _permute_planted(p, rng, name)
            items.append(_planted_item(p, out))
    return [items[i] for i in rng.permutation(len(items))]


def setup_analyze(seed: int) -> list[Item]:
    """The built-in desk instances whose cell is infeasible, in both forms,
    plus small planted standard-form instances of the infeasible cells.

    Planted general-form instances are left out: after standardization their
    ray refinement runs its full budget (5 rounds of 200k steps, over 20 s
    per item), which no run of this benchmark could repeat."""
    base = [(tag, p) for tag, p in _desk_base() if not tag.startswith("rand_")]
    items = [
        it
        for it in _present(base, seed, "analyze", _oracle_cell)
        if it.cell != "both_feasible"
    ]
    m, n, per_col = ANALYZE_SHAPE
    base_rng = np.random.default_rng(CORPUS_SEED)
    rng = np.random.default_rng(seed)
    out = _out_dir("analyze")
    for cell in CELLS[1:]:
        name = f"planted_{cell}"
        p = planted_instance(cell, "standard", m, n, per_col, base_rng, name=name)
        q = _permute_lp(planted_to_lp(p), rng, name)
        items.append(_json_item(q, os.path.join(out, f"{name}.json"), cell, name))
    return [items[i] for i in rng.permutation(len(items))]


SETUPS = {"desk": setup_desk, "sparse": setup_sparse, "analyze": setup_analyze}
