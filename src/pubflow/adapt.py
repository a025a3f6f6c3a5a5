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
each IEEE-754 operation on Python floats is correctly rounded, so a cell's
value does not depend on how the domain was sliced.  Nothing here imports
numpy until a public function returns a float64 ndarray.

Stability: the explicit scheme is a convex combination of neighbours when
dt (a/h + 2 nu/h^2) <= 1, which the generator and kernels enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import InvalidGeometry, SchemaError, SingularSystem
from .execution import (
    ACQUIRERS,
    KERNELS,
    Workspace,
    decode_dataset,
    encode_dataset,
    read_dataset,
    read_item,
)
from .model import GuardPredicate, KernelSpec, Task, UnfoldRule, WorkflowBatch

if TYPE_CHECKING:
    import numpy as np

BC_DIRICHLET = "dirichlet0"
BC_PERIODIC = "periodic"
_BC_CODES = {BC_DIRICHLET: 0.0, BC_PERIODIC: 1.0}


def _array(values) -> np.ndarray:
    """`values` as a float64 ndarray; the one place numpy loads."""
    import numpy as np
    return np.array(values, dtype=float)


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

    def _source(self, cells: int) -> list[float]:
        q = ([0.0] * cells if self.source is None
             else [float(x) for x in self.source])
        if len(q) != cells:
            raise ValueError(f"source must have length {cells}, got {len(q)}")
        return q


@lru_cache(maxsize=64)  # every iter task of a run repeats the same checks
def _check_stable(dt: float, advection: float, diffusion: float, bc: str,
                  cells: int) -> None:
    SimParams(dt=dt, advection=advection, diffusion=diffusion,
              bc=bc).check_cfl(cells)


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
    arr = read_dataset(data)
    cells, parts = int(arr[0]), int(arr[1])
    bounds = [int(b) for b in arr[2:]]
    if len(bounds) != parts + 1 or bounds[0] != 0 or bounds[-1] != cells:
        raise SchemaError("corrupt partition table")
    return cells, parts, bounds


# --------------------------------------------------------------- operator

def _operator(cells: int, bc: str) -> tuple[list, list, list]:
    """Bands (sub, diag, sup) of the 1-D Laplacian, scaled by 1/h^2.

    Both boundary conditions give the same bands: the first and last rows
    lose their outside coupling.  The periodic corners exist only in
    apply_operator; factor_operator_bytes pins cell 0 instead.
    """
    if cells < 2:
        raise InvalidGeometry(f"operator needs at least 2 cells, got {cells}")
    if bc not in _BC_CODES:
        raise ValueError(f"bc must be one of {sorted(_BC_CODES)}")
    h = 1.0 / cells
    inv_h2 = 1.0 / (h * h)
    off = [-inv_h2] * (cells - 1)
    return [0.0] + off, [2.0 * inv_h2] * cells, off + [0.0]


def operator_matrix_bytes(cells: int, bc: str) -> bytes:
    sub, diag, sup = _operator(cells, bc)
    return encode_dataset([float(cells), _BC_CODES[bc]] + sub + diag + sup)


def _read_bands(data: bytes, what: str,
                head: int) -> tuple[int, str, list, list, list]:
    """cells, bc and the three bands after the `head` header values of an
    operator (cells, bc code) or a factor (cells, bc code, n) dataset."""
    arr = read_dataset(data).tolist()
    n = int(arr[2] if head == 3 else arr[0])  # band length
    if len(arr) != head + 3 * n:
        raise SchemaError(f"corrupt {what} dataset")
    bc = BC_PERIODIC if arr[1] == 1.0 else BC_DIRICHLET
    return (int(arr[0]), bc, arr[head:head + n], arr[head + n:head + 2 * n],
            arr[head + 2 * n:])


def apply_operator(cells: int, bc: str, x: np.ndarray) -> np.ndarray:
    """Dense-free A @ x for residual checks (includes periodic corners)."""
    sub, diag, sup = map(_array, _operator(cells, bc))
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

def _thomas_factor(sub, diag, sup) -> tuple[list, list]:
    """LU-style forward elimination of a tridiagonal system: (den, cp),
    the pivot denominators and the normalized super-diagonal.  Raises
    SingularSystem on a zero pivot."""
    n = len(diag)
    den = [0.0] * n
    cp = [0.0] * n
    for i in range(n):
        d = diag[i] - sub[i] * cp[i - 1] if i else diag[0]
        if d == 0.0 or not math.isfinite(d):
            raise SingularSystem(f"zero pivot in row {i}")
        den[i] = d
        cp[i] = sup[i] / d
    return den, cp


def _thomas_solve(sub, den, cp, rhs) -> list:
    """Forward/backward substitution against a _thomas_factor result."""
    n = len(den)
    x = [0.0] * n  # forward pass into x, then back substitution in place
    x[0] = rhs[0] / den[0]
    for i in range(1, n):
        x[i] = (rhs[i] - sub[i] * x[i - 1]) / den[i]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] - cp[i] * x[i + 1]
    return x


def factor_operator_bytes(matrix_data: bytes) -> bytes:
    """Factor the assembled operator; periodic systems are reduced by
    pinning cell 0 to zero (rank deficiency of the periodic Laplacian)."""
    cells, bc, sub, diag, sup = _read_bands(matrix_data, "operator", 2)
    if bc == BC_PERIODIC:
        sub, diag, sup = [0.0] + sub[2:], diag[1:], sup[1:cells - 1] + [0.0]
    den, cp = _thomas_factor(sub, diag, sup)
    header = [float(cells), _BC_CODES[bc], float(len(den))]
    return encode_dataset(header + sub + den + cp)


def _solve(factor_data: bytes, q) -> list:
    """Solve A x = q given a factor_operator_bytes() result.  Periodic
    systems require sum(q) == 0 (within 1e-9 of the source magnitude);
    the pinned cell 0 stays exactly zero."""
    cells, bc, sub, den, cp = _read_bands(factor_data, "factor", 3)
    if len(q) != cells:
        raise SchemaError(f"rhs must have length {cells}")
    if bc == BC_PERIODIC:
        try:
            total = math.fsum(q)
        except (OverflowError, ValueError):  # np.sum: inf, or nan (inf - inf)
            total = math.inf
        if abs(total) > 1e-9 * max(1.0, max(map(abs, q))):
            raise SingularSystem(
                "periodic operator needs a zero-sum source")
        return [0.0] + _thomas_solve(sub, den, cp, q[1:])
    return _thomas_solve(sub, den, cp, q)


def solve_field(cells: int, bc: str, q: np.ndarray) -> np.ndarray:
    """matrix -> factor -> solve, exactly as the distributed kernels do."""
    return _array(_solve(
        factor_operator_bytes(operator_matrix_bytes(cells, bc)), q))


# -------------------------------------------------------------- stepping

def _initial(cells: int, lo: int, hi: int) -> list[float]:
    h = 1.0 / cells
    return [math.sin(2.0 * math.pi * (i + 0.5) * h)
            for i in map(float, range(lo, hi))]


def initial_field(cells: int, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """W_i = sin(2 pi (i + 0.5) h) over global cell indices [lo, hi)."""
    return _array(_initial(cells, lo, cells if hi is None else hi))


def _step(w_ext, pfield, dt: float, advection: float, diffusion: float,
          h: float) -> list:
    """One explicit update of the interior of w_ext (one halo per end): the
    single per-cell expression every path uses.  Do not clone it, or
    bitwise equivalence between partitionings breaks."""
    if len(pfield) != len(w_ext) - 2:
        raise ValueError("source and interior differ in length")
    na = -advection  # exact, so hoisting it out of the loop moves no bit
    h2 = h * h
    return [w + dt * (na * (w - left) / h
                      + diffusion * (right - 2.0 * w + left) / h2 + source)
            for left, w, right, source
            in zip(w_ext, w_ext[1:], w_ext[2:], pfield)]


def _extend(w, bc: str) -> list:
    """Whole-domain halo: wrap for periodic, zero ghosts for dirichlet0."""
    if bc == BC_PERIODIC:
        return [w[-1], *w, w[0]]
    return [0.0, *w, 0.0]


def sequential_oracle(cells: int, params: SimParams) -> np.ndarray:
    """Single-process reference run: matrix -> solve -> init -> N steps.

    Uses the identical per-cell helpers as the workflow kernels, so a
    distributed run must reproduce this array exactly (not just within a
    tolerance).
    """
    if cells < 2:
        raise InvalidGeometry(f"need at least 2 cells, got {cells}")
    params.check_cfl(cells)
    pfield = _solve(factor_operator_bytes(
        operator_matrix_bytes(cells, params.bc)), params._source(cells))
    w = _initial(cells, 0, cells)
    h = 1.0 / cells
    for _ in range(params.steps):
        w = _step(_extend(w, params.bc), pfield, params.dt,
                  params.advection, params.diffusion, h)
    return _array(w)


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


def _partition(spec: KernelSpec, ws: Workspace) -> tuple[int, int, list[int]]:
    """The spec's partition index, in range, and the table's cells, bounds."""
    p = int(_require(spec, "partition"))
    cells, parts, bounds = _read_partition_table(ws.get("partitions"))
    if not 0 <= p < parts:
        raise SchemaError(f"partition index {p} out of range")
    return p, cells, bounds


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


def _pfield(spec: KernelSpec, factor: bytes) -> Mapping[str, bytes]:
    """Solve against the spec's source (zeros when it has none)."""
    source = spec.params.get("source")
    q = ([0.0] * int(read_item(factor, 0)) if source is None
         else [float(x) for x in source])
    return {"pfield": encode_dataset(_solve(factor, q))}


@_kernel("mumps")
def kernel_mumps(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    return _pfield(spec, factor_operator_bytes(ws.get("matrix")))


@_kernel("mumps_factorize")
def kernel_mumps_factorize(spec: KernelSpec,
                           ws: Workspace) -> Mapping[str, bytes]:
    return {"pfactor": factor_operator_bytes(ws.get("matrix"))}


@_kernel("mumps_solve")
def kernel_mumps_solve(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    return _pfield(spec, ws.get("pfactor"))


@_kernel("init")
def kernel_init(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    p, cells, bounds = _partition(spec, ws)
    return {f"w0_{p}": encode_dataset(_initial(cells, bounds[p],
                                               bounds[p + 1]))}


def _halo(ws: Workspace, step: int, parts: int, p: int, bc: str,
          side: int) -> float:
    """Edge value of the neighbouring partition, or the zero ghost."""
    q = p + side
    if bc == BC_PERIODIC:
        q %= parts
    elif q < 0 or q >= parts:
        return 0.0
    return read_item(ws.get(f"w{step}_{q}"), -1 if side < 0 else 0)


@_kernel("iter")
def kernel_iter(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    step = int(_require(spec, "step"))
    dt = float(_require(spec, "dt"))
    advection = float(_require(spec, "advection"))
    diffusion = float(_require(spec, "diffusion"))
    bc = str(_require(spec, "bc"))
    p, cells, bounds = _partition(spec, ws)
    _check_stable(dt, advection, diffusion, bc, cells)
    parts = len(bounds) - 1
    w_ext = [_halo(ws, step, parts, p, bc, -1),
             *read_dataset(ws.get(f"w{step}_{p}")),
             _halo(ws, step, parts, p, bc, +1)]
    pfield = read_dataset(ws.get("pfield"))
    if len(pfield) != cells:
        raise SchemaError(f"pfield has {len(pfield)} cells, not {cells}")
    out = _step(w_ext, pfield[bounds[p]:bounds[p + 1]], dt, advection,
                diffusion, 1.0 / cells)
    return {f"w{step + 1}_{p}": encode_dataset(out)}


@_kernel("save")
def kernel_save(spec: KernelSpec, ws: Workspace) -> Mapping[str, bytes]:
    step = int(_require(spec, "step"))
    cells, parts, bounds = _read_partition_table(ws.get("partitions"))
    full = []
    for p in range(parts):
        full += read_dataset(ws.get(f"w{step + 1}_{p}"))
    if len(full) != cells:
        raise SchemaError(
            f"assembled snapshot has {len(full)} cells, expected {cells}")
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
