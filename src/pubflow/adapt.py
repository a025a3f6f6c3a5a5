"""Toy 1-D advection-diffusion demo workflow and its kernels.

The domain [0, 1) is split into M cells of width h = 1/M (cell centers at
(i + 0.5) h).  One run is:

  metis    split cells into P contiguous near-equal ranges
  matrix   assemble the 1-D Poisson operator (tridiagonal)
  init     per partition: W_i = sin(2 pi (i + 0.5) h)
  mumps    direct tridiagonal solve of A Pfield = Q (Thomas algorithm)
  iter     per partition, per step: explicit update with first-order
           upwind convection, central diffusion, and the fixed source:
             rez_conv   = -a (W_i - W_{i-1}) / h
             rez_dissip = nu (W_{i+1} - 2 W_i + W_{i-1}) / h^2
             rez_source = Pfield_i
             W'_i = W_i + dt (rez_conv + rez_dissip + rez_source)
  save     assemble the partitions into one snapshot dataset

Every kernel and sequential_oracle() call into the same per-cell helpers,
so a partitioned run reproduces the single-process result bit for bit:
numpy elementwise arithmetic is exact per element regardless of how the
array was sliced.

Stability: the explicit scheme is a convex combination of neighbours when
dt (a/h + 2 nu/h^2) <= 1, which the generator and kernels enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import InvalidGeometry, SchemaError, SingularSystem
from .execution import (
    ACQUIRERS,
    KERNELS,
    Workspace,
    decode_dataset,
    encode_dataset,
)
from .model import GuardPredicate, KernelSpec, Task, UnfoldRule, WorkflowBatch

BC_DIRICHLET = "dirichlet0"
BC_PERIODIC = "periodic"
_BC_CODES = {BC_DIRICHLET: 0.0, BC_PERIODIC: 1.0}


@dataclass(frozen=True)
class SimParams:
    """Numerical parameters shared by the generator, kernels, and oracle."""

    dt: float
    advection: float = 0.0
    diffusion: float = 0.0
    steps: int = 1
    bc: str = BC_DIRICHLET
    source: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.advection < 0:
            raise ValueError("advection speed must be >= 0 (upwind scheme)")
        if self.diffusion < 0:
            raise ValueError("diffusion coefficient must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.bc not in _BC_CODES:
            raise ValueError(f"bc must be one of {sorted(_BC_CODES)}")

    def cfl(self, cells: int) -> float:
        h = 1.0 / cells
        return self.dt * (self.advection / h
                          + 2.0 * self.diffusion / (h * h))

    def check_cfl(self, cells: int) -> None:
        number = self.cfl(cells)
        if number > 1.0 + 1e-12:
            raise ValueError(
                f"unstable parameters: dt*(a/h + 2*nu/h^2) = {number:.6g} > 1")

    def source_vector(self, cells: int) -> np.ndarray:
        if self.source is None:
            return np.zeros(cells)
        q = np.asarray(self.source, dtype=float)
        if q.shape != (cells,):
            raise ValueError(
                f"source must have length {cells}, got {q.shape}")
        return q


# --------------------------------------------------------------- geometry

def partition_bounds(cells: int, parts: int) -> list[int]:
    """Contiguous near-equal ranges; the first cells % parts ranges get one
    extra cell.  Every partition must hold at least two cells so the
    stencil halo exchange stays between direct neighbours."""
    if parts < 1:
        raise InvalidGeometry(f"need at least one partition, got {parts}")
    if cells < 2 * parts:
        raise InvalidGeometry(
            f"{cells} cells cannot give every one of {parts} partitions "
            "two cells")
    base, extra = divmod(cells, parts)
    bounds = [0]
    for p in range(parts):
        bounds.append(bounds[-1] + base + (1 if p < extra else 0))
    return bounds


def partition_table_bytes(cells: int, parts: int) -> bytes:
    bounds = partition_bounds(cells, parts)
    return encode_dataset([float(cells), float(parts)]
                          + [float(b) for b in bounds])


# a caller's acquirer registered under this name first keeps its place,
# as a caller's kernel does (see _kernel)
ACQUIRERS.setdefault("partition_table", partition_table_bytes)


def _read_partition_table(data: bytes) -> tuple[int, int, list[int]]:
    arr = decode_dataset(data)
    cells, parts = int(arr[0]), int(arr[1])
    bounds = [int(b) for b in arr[2:]]
    if len(bounds) != parts + 1 or bounds[0] != 0 or bounds[-1] != cells:
        raise SchemaError("corrupt partition table")
    return cells, parts, bounds


# --------------------------------------------------------------- operator

def build_operator(cells: int, bc: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals (sub, diag, sup) of the 1-D Laplacian, scaled by 1/h^2.

    dirichlet0 clamps the boundary (ghost values are zero, so the first
    and last rows simply lose their outside coupling); periodic adds the
    corner couplings, making the constant vector a null vector.
    """
    if cells < 2:
        raise InvalidGeometry(f"operator needs at least 2 cells, got {cells}")
    if bc not in _BC_CODES:
        raise ValueError(f"bc must be one of {sorted(_BC_CODES)}")
    h = 1.0 / cells
    inv_h2 = 1.0 / (h * h)
    diag = np.full(cells, 2.0 * inv_h2)
    sub = np.full(cells, -inv_h2)
    sup = np.full(cells, -inv_h2)
    sub[0] = 0.0
    sup[cells - 1] = 0.0
    return sub, diag, sup


def operator_matrix_bytes(cells: int, bc: str) -> bytes:
    sub, diag, sup = build_operator(cells, bc)
    header = [float(cells), _BC_CODES[bc]]
    return encode_dataset(header + list(sub) + list(diag) + list(sup))


def _read_operator(data: bytes) -> tuple[int, str, np.ndarray, np.ndarray, np.ndarray]:
    arr = decode_dataset(data)
    cells = int(arr[0])
    bc = BC_PERIODIC if arr[1] == 1.0 else BC_DIRICHLET
    if arr.size != 2 + 3 * cells:
        raise SchemaError("corrupt operator dataset")
    sub = arr[2:2 + cells]
    diag = arr[2 + cells:2 + 2 * cells]
    sup = arr[2 + 2 * cells:2 + 3 * cells]
    return cells, bc, sub, diag, sup


def apply_operator(cells: int, bc: str, x: np.ndarray) -> np.ndarray:
    """Dense-free A @ x for residual checks (includes periodic corners)."""
    sub, diag, sup = build_operator(cells, bc)
    y = diag * x
    y[1:] += sub[1:] * x[:-1]
    y[:-1] += sup[:-1] * x[1:]
    if bc == BC_PERIODIC:
        h = 1.0 / cells
        corner = -1.0 / (h * h)
        y[0] += corner * x[cells - 1]
        y[cells - 1] += corner * x[0]
    return y


# ---------------------------------------------------------- direct solver

def thomas_factor(sub: np.ndarray, diag: np.ndarray,
                  sup: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU-style forward elimination of a tridiagonal system.

    Returns (den, cp): den holds the pivot denominators, cp the
    normalized super-diagonal.  Raises SingularSystem on a zero pivot.
    """
    n = diag.size
    den = np.empty(n)
    cp = np.empty(n)
    den[0] = diag[0]
    if den[0] == 0.0 or not math.isfinite(den[0]):
        raise SingularSystem("zero pivot in row 0")
    cp[0] = sup[0] / den[0]
    for i in range(1, n):
        den[i] = diag[i] - sub[i] * cp[i - 1]
        if den[i] == 0.0 or not math.isfinite(den[i]):
            raise SingularSystem(f"zero pivot in row {i}")
        cp[i] = sup[i] / den[i]
    return den, cp


def thomas_solve(sub: np.ndarray, den: np.ndarray, cp: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Forward/backward substitution against a thomas_factor result."""
    n = den.size
    g = np.empty(n)
    g[0] = rhs[0] / den[0]
    for i in range(1, n):
        g[i] = (rhs[i] - sub[i] * g[i - 1]) / den[i]
    x = np.empty(n)
    x[n - 1] = g[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = g[i] - cp[i] * x[i + 1]
    return x


def factor_operator_bytes(matrix_data: bytes) -> bytes:
    """Factor the assembled operator; periodic systems are reduced by
    pinning cell 0 to zero (rank deficiency of the periodic Laplacian)."""
    cells, bc, sub, diag, sup = _read_operator(matrix_data)
    if bc == BC_PERIODIC:
        rsub = np.concatenate([[0.0], sub[2:]])
        rdiag = diag[1:].copy()
        rsup = np.concatenate([sup[1:cells - 1], [0.0]])
        den, cp = thomas_factor(rsub, rdiag, rsup)
        used_sub = rsub
    else:
        den, cp = thomas_factor(sub, diag, sup)
        used_sub = sub
    n = den.size
    header = [float(cells), _BC_CODES[bc], float(n)]
    return encode_dataset(header + list(used_sub) + list(den) + list(cp))


def solve_with_factor(factor_data: bytes, q: np.ndarray) -> np.ndarray:
    """Solve A x = q given a factor_operator_bytes() result.

    Periodic systems require sum(q) == 0 (within 1e-9 of the source
    magnitude); the pinned cell 0 stays exactly zero.
    """
    arr = decode_dataset(factor_data)
    cells = int(arr[0])
    bc = BC_PERIODIC if arr[1] == 1.0 else BC_DIRICHLET
    n = int(arr[2])
    if arr.size != 3 + 3 * n:
        raise SchemaError("corrupt factor dataset")
    sub = arr[3:3 + n]
    den = arr[3 + n:3 + 2 * n]
    cp = arr[3 + 2 * n:3 + 3 * n]
    if q.shape != (cells,):
        raise SchemaError(f"rhs must have length {cells}")
    if bc == BC_PERIODIC:
        if abs(float(np.sum(q))) > 1e-9 * max(1.0, float(np.max(np.abs(q)))):
            raise SingularSystem(
                "periodic operator needs a zero-sum source")
        x = thomas_solve(sub, den, cp, q[1:])
        return np.concatenate([[0.0], x])
    return thomas_solve(sub, den, cp, q)


def solve_field(cells: int, bc: str, q: np.ndarray) -> np.ndarray:
    """matrix -> factor -> solve, exactly as the distributed kernels do."""
    return solve_with_factor(
        factor_operator_bytes(operator_matrix_bytes(cells, bc)), q)


# -------------------------------------------------------------- stepping

def initial_field(cells: int, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """W_i = sin(2 pi (i + 0.5) h) over global cell indices [lo, hi)."""
    if hi is None:
        hi = cells
    h = 1.0 / cells
    i = np.arange(lo, hi, dtype=float)
    return np.sin(2.0 * math.pi * (i + 0.5) * h)


def step_cells(w_ext: np.ndarray, pfield: np.ndarray, dt: float,
               advection: float, diffusion: float, h: float) -> np.ndarray:
    """One explicit update of the interior of w_ext (one halo per end).

    This is the single per-cell expression every path uses; do not clone
    it, or bitwise equivalence between partitionings breaks.
    """
    w = w_ext[1:-1]
    left = w_ext[:-2]
    right = w_ext[2:]
    rez_conv = -advection * (w - left) / h
    rez_dissip = diffusion * (right - 2.0 * w + left) / (h * h)
    rez_source = pfield
    return w + dt * (rez_conv + rez_dissip + rez_source)


def extend_field(w: np.ndarray, bc: str) -> np.ndarray:
    """Whole-domain halo: wrap for periodic, zero ghosts for dirichlet0."""
    if bc == BC_PERIODIC:
        return np.concatenate([[w[-1]], w, [w[0]]])
    return np.concatenate([[0.0], w, [0.0]])


def sequential_oracle(cells: int, params: SimParams) -> np.ndarray:
    """Single-process reference run: matrix -> solve -> init -> N steps.

    Uses the identical per-cell helpers as the workflow kernels, so a
    distributed run must reproduce this array exactly (not just within a
    tolerance).
    """
    if cells < 2:
        raise InvalidGeometry(f"need at least 2 cells, got {cells}")
    params.check_cfl(cells)
    q = params.source_vector(cells)
    pfield = solve_field(cells, params.bc, q)
    w = initial_field(cells)
    h = 1.0 / cells
    for _ in range(params.steps):
        w = step_cells(extend_field(w, params.bc), pfield, params.dt,
                       params.advection, params.diffusion, h)
    return w


# ---------------------------------------------------------------- kernels

def _kernel(name: str):
    """register_kernel, except that a kernel the caller registered under
    `name` first keeps its place: this module loads on the first registry
    miss (execution.find_kernel), which may come after the caller's own
    registration."""
    def deco(fn):
        KERNELS.setdefault(name, fn)
        return fn
    return deco


def _require(spec: KernelSpec, key: str):
    if key not in spec.params:
        raise SchemaError(f"kernel {spec.name!r} missing param {key!r}")
    return spec.params[key]


@_kernel("metis")
def kernel_metis(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    cells = int(_require(spec, "cells"))
    parts = int(_require(spec, "partitions"))
    return {"partitions": partition_table_bytes(cells, parts)}


@_kernel("matrix")
def kernel_matrix(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    cells = int(_require(spec, "cells"))
    bc = str(_require(spec, "bc"))
    return {"matrix": operator_matrix_bytes(cells, bc)}


@_kernel("mumps")
def kernel_mumps(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    matrix = ws.get("matrix")
    cells, bc, _, _, _ = _read_operator(matrix)
    source = spec.params.get("source")
    q = np.zeros(cells) if source is None else np.asarray(source, dtype=float)
    factor = factor_operator_bytes(matrix)
    pfield = solve_with_factor(factor, q)
    return {"pfield": encode_dataset(pfield)}


@_kernel("mumps_factorize")
def kernel_mumps_factorize(spec: KernelSpec,
                           ws: Workspace) -> Mapping[str, bytes]:
    return {"pfactor": factor_operator_bytes(ws.get("matrix"))}


@_kernel("mumps_solve")
def kernel_mumps_solve(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    factor = ws.get("pfactor")
    cells = int(decode_dataset(factor)[0])
    source = spec.params.get("source")
    q = np.zeros(cells) if source is None else np.asarray(source, dtype=float)
    return {"pfield": encode_dataset(solve_with_factor(factor, q))}


@_kernel("init")
def kernel_init(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    p = int(_require(spec, "partition"))
    cells, parts, bounds = _read_partition_table(ws.get("partitions"))
    if not 0 <= p < parts:
        raise SchemaError(f"partition index {p} out of range")
    lo, hi = bounds[p], bounds[p + 1]
    return {f"w0_{p}": encode_dataset(initial_field(cells, lo, hi))}


def _halo(ws: Workspace, step: int, parts: int, p: int, bc: str,
          side: int) -> Optional[float]:
    """Edge value of the neighbouring partition; None means a zero ghost."""
    q = p + side
    if bc == BC_PERIODIC:
        q %= parts
    elif q < 0 or q >= parts:
        return None
    neighbour = decode_dataset(ws.get(f"w{step}_{q}"))
    return float(neighbour[-1] if side < 0 else neighbour[0])


@_kernel("iter")
def kernel_iter(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    step = int(_require(spec, "step"))
    p = int(_require(spec, "partition"))
    dt = float(_require(spec, "dt"))
    advection = float(_require(spec, "advection"))
    diffusion = float(_require(spec, "diffusion"))
    bc = str(_require(spec, "bc"))
    cells, parts, bounds = _read_partition_table(ws.get("partitions"))
    params = SimParams(dt=dt, advection=advection, diffusion=diffusion,
                       bc=bc, steps=1)
    params.check_cfl(cells)
    lo, hi = bounds[p], bounds[p + 1]
    w = decode_dataset(ws.get(f"w{step}_{p}"))
    left = _halo(ws, step, parts, p, bc, -1)
    right = _halo(ws, step, parts, p, bc, +1)
    w_ext = np.concatenate([
        [0.0 if left is None else left], w,
        [0.0 if right is None else right]])
    pfield = decode_dataset(ws.get("pfield"))[lo:hi]
    h = 1.0 / cells
    out = step_cells(w_ext, pfield, dt, advection, diffusion, h)
    return {f"w{step + 1}_{p}": encode_dataset(out)}


@_kernel("save")
def kernel_save(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    step = int(_require(spec, "step"))
    cells, parts, bounds = _read_partition_table(ws.get("partitions"))
    pieces = [decode_dataset(ws.get(f"w{step + 1}_{p}"))
              for p in range(parts)]
    full = np.concatenate(pieces)
    if full.size != cells:
        raise SchemaError(
            f"assembled snapshot has {full.size} cells, expected {cells}")
    return {f"save_{step}": encode_dataset(full)}


# --------------------------------------------------------------- generator

MUMPS_SPLIT_RULE = "mumps-split"


def _iter_neighbours(parts: int, p: int, bc: str) -> list[int]:
    out = {p}
    for side in (-1, +1):
        q = p + side
        if bc == BC_PERIODIC:
            out.add(q % parts)
        elif 0 <= q < parts:
            out.add(q)
    return sorted(out)


def generate_adapt_workflow(partitions: int, iterations: int, cells: int,
                            params: SimParams, edges: str = "stencil",
                            unfold_solver: bool = False) -> WorkflowBatch:
    """Build the demo batch: 2 + P + 1 + N*P + N tasks.

    edges="stencil" wires ITER_{n,p} to its three step-(n-1) neighbours
    (wrapping under periodic bc, clamped at the ends for dirichlet0);
    edges="barrier" wires it to every step-(n-1) ITER instead.  The
    numerics are identical either way; only the precedence graph changes.

    unfold_solver attaches a factorize->solve production rule to the
    solver node, expanded opportunistically at release time.
    """
    if edges not in ("stencil", "barrier"):
        raise ValueError(f"edges must be 'stencil' or 'barrier', got {edges!r}")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    bounds = partition_bounds(cells, partitions)  # raises InvalidGeometry
    params.check_cfl(cells)
    source = (None if params.source is None
              else [float(x) for x in params.source])

    tasks: list[Task] = []
    tasks.append(Task(
        id="METIS",
        kernel=KernelSpec(
            name="metis",
            params={"cells": cells, "partitions": partitions},
            outputs=("partitions",),
        ),
    ))
    tasks.append(Task(
        id="MATRIX",
        kernel=KernelSpec(
            name="matrix",
            params={"bc": params.bc, "cells": cells},
            outputs=("matrix",),
        ),
        deps=frozenset({"METIS"}),
    ))
    for p in range(partitions):
        tasks.append(Task(
            id=f"INIT_{p}",
            kernel=KernelSpec(
                name="init",
                params={"partition": p},
                inputs=("partitions",),
                outputs=(f"w0_{p}",),
            ),
            deps=frozenset({"METIS"}),
        ))
    mumps_params: dict[str, object] = {}
    if source is not None:
        mumps_params["source"] = source
    tasks.append(Task(
        id="MUMPS",
        kernel=KernelSpec(
            name="mumps",
            params=mumps_params,
            inputs=("matrix",),
            outputs=("pfield",),
            declared_duration=2.0,
        ),
        deps=frozenset({"MATRIX"} | {f"INIT_{p}" for p in range(partitions)}),
        unfold_rule=MUMPS_SPLIT_RULE if unfold_solver else None,
    ))
    for n in range(iterations):
        for p in range(partitions):
            if n == 0:
                deps = {"MUMPS"}
            elif edges == "barrier":
                deps = {f"ITER_{n - 1}_{q}" for q in range(partitions)}
            else:
                deps = {f"ITER_{n - 1}_{q}"
                        for q in _iter_neighbours(partitions, p, params.bc)}
            inputs = ["partitions", "pfield"] + [
                f"w{n}_{q}"
                for q in _iter_neighbours(partitions, p, params.bc)]
            tasks.append(Task(
                id=f"ITER_{n}_{p}",
                kernel=KernelSpec(
                    name="iter",
                    params={
                        "step": n, "partition": p, "dt": params.dt,
                        "advection": params.advection,
                        "diffusion": params.diffusion, "bc": params.bc,
                    },
                    inputs=tuple(inputs),
                    outputs=(f"w{n + 1}_{p}",),
                ),
                deps=frozenset(deps),
            ))
        tasks.append(Task(
            id=f"SAVE_{n}",
            kernel=KernelSpec(
                name="save",
                params={"step": n},
                inputs=tuple(["partitions"] + [f"w{n + 1}_{p}"
                                               for p in range(partitions)]),
                outputs=(f"save_{n}",),
            ),
            deps=frozenset({f"ITER_{n}_{p}" for p in range(partitions)}),
        ))

    rules = {}
    if unfold_solver:
        rules[MUMPS_SPLIT_RULE] = UnfoldRule(
            rule_id=MUMPS_SPLIT_RULE,
            head="mumps",
            body=(
                Task(
                    id="factorize",
                    kernel=KernelSpec(
                        name="mumps_factorize",
                        inputs=("matrix",),
                        outputs=("pfactor",),
                    ),
                ),
                Task(
                    id="solve",
                    kernel=KernelSpec(
                        name="mumps_solve",
                        params=dict(mumps_params),
                        inputs=("pfactor",),
                        outputs=("pfield",),
                    ),
                    deps=frozenset({"factorize"}),
                ),
            ),
            entries=frozenset({"factorize"}),
            exits=frozenset({"solve"}),
            guard=GuardPredicate(min_workers=1),
        )

    task_map = {t.id: t for t in tasks}
    batch = WorkflowBatch(
        batch_id=f"adapt-P{partitions}-N{iterations}-M{cells}",
        tasks=task_map,
        rules=rules,
        metadata={
            "cells": cells, "partitions": partitions,
            "iterations": iterations, "edges": edges,
        },
    )
    from .graph import validate_structure
    report = validate_structure(batch)
    metadata = dict(batch.metadata)
    metadata["general_dag"] = not report.series_parallel
    return WorkflowBatch(batch_id=batch.batch_id, tasks=task_map,
                         rules=rules, metadata=metadata)


def final_snapshot(workspace: Workspace, iterations: int) -> np.ndarray:
    """The assembled field after the last iteration of a finished run."""
    return decode_dataset(workspace.get(f"save_{iterations - 1}"))
