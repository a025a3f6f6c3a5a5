"""Structural operations on workflow batches.

validate_structure: acyclicity (with a cycle witness) and a series-parallel
verdict computed by iterated series/parallel reduction of the two-terminal
closure.  General DAGs are accepted; the verdict is informational.  Only
generate_adapt_workflow mirrors it into batch metadata (general_dag); the
workflow parser does not.

ready_tasks: the release frontier given a finished set.

unfold: splice a rule body in place of one node, rewiring incoming edges to
the entry nodes and outgoing edges from the exit nodes.  Body ids are
namespaced "<parent>/<child>" so spliced tasks can never collide with or be
mistaken for broker-submitted ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .errors import GuardFailed, HeadMismatch, SchemaError, StateError, UnknownId
from .model import (
    GuardPredicate,
    ResourceSnapshot,
    Task,
    TaskState,
    UnfoldRule,
    WorkflowBatch,
)


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    cycle: Optional[list[str]]
    series_parallel: bool

    def __str__(self) -> str:
        if not self.ok:
            return "cyclic: " + " -> ".join(self.cycle or [])
        sp = "yes" if self.series_parallel else "no"
        return f"acyclic, series-parallel: {sp}"


def find_cycle(adjacency: dict[str, Iterable[str]]) -> Optional[list[str]]:
    """Return one cycle as an ordered node list, or None if acyclic.

    Deterministic: nodes and successors are visited in sorted order, so the
    same graph always yields the same witness.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in adjacency}
    parent: dict[str, str] = {}

    for start in sorted(adjacency):
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, Iterable[str]]] = [
            (start, iter(sorted(adjacency[start])))]
        color[start] = GREY
        while stack:
            node, succs = stack[-1]
            advanced = False
            for nxt in succs:
                if nxt not in color:
                    continue  # dangling refs are a schema matter, not ours
                if color[nxt] == GREY:
                    # walk parents back from node to nxt
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    # rotate so the list starts at the repeated node
                    return cycle[cycle.index(nxt):]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(adjacency[nxt]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def _is_series_parallel(nodes: set[str], edges: list[tuple[str, str]]) -> bool:
    """Two-terminal SP recognition by greedy reduction.

    A virtual source feeds every root and a virtual sink collects every
    leaf; the graph is SP iff repeated series reductions (bypass a node
    with total in- and out-multiplicity one) and parallel reductions
    (merge duplicate edges) shrink it to the single source->sink edge.
    The reduction system is confluent, so greedy order suffices.
    """
    if not nodes:
        return True
    src, snk = object(), object()
    # multiplicity-aware adjacency; closure never duplicates edges itself
    out: dict[object, dict[object, int]] = {src: {}, snk: {}}
    inc: dict[object, dict[object, int]] = {src: {}, snk: {}}
    for n in nodes:
        out[n] = {}
        inc[n] = {}

    def add_edge(u: object, v: object) -> None:
        out[u][v] = out[u].get(v, 0) + 1
        inc[v][u] = inc[v].get(u, 0) + 1

    for u, v in edges:
        add_edge(u, v)
    for n in nodes:
        if not inc[n]:
            add_edge(src, n)
        if not out[n]:
            add_edge(n, snk)

    changed = True
    while changed:
        changed = False
        # parallel reductions: collapse multiplicities
        for u in list(out):
            for v, mult in list(out[u].items()):
                if mult > 1:
                    out[u][v] = 1
                    inc[v][u] = 1
                    changed = True
        # series reductions
        for w in list(out):
            if w is src or w is snk or w not in out:
                continue
            if sum(inc[w].values()) != 1 or sum(out[w].values()) != 1:
                continue
            (u,) = inc[w]
            (v,) = out[w]
            del out[u][w]
            del inc[v][w]
            del out[w], inc[w]
            add_edge(u, v)
            changed = True

    only_edge = out[src] == {snk: 1}
    return len(out) == 2 and only_edge


def validate_structure(batch: WorkflowBatch) -> StructureReport:
    """Check acyclicity and compute the series-parallel verdict.

    Dangling dependency ids are a parse-time error and are ignored here.
    """
    adjacency: dict[str, list[str]] = {tid: [] for tid in batch.tasks}
    for dep, tid in batch.edges():
        if dep in adjacency:
            adjacency[dep].append(tid)
    cycle = find_cycle(adjacency)
    if cycle is not None:
        return StructureReport(ok=False, cycle=cycle, series_parallel=False)
    edges = [(u, v) for u, v in batch.edges() if u in batch.tasks]
    sp = _is_series_parallel(set(batch.tasks), edges)
    return StructureReport(ok=True, cycle=None, series_parallel=sp)


def ready_tasks(batch: WorkflowBatch, finished: Iterable[str],
                released: Iterable[str] = ()) -> list[str]:
    """Tasks whose whole dependency set is finished, in lexicographic order.

    Tasks already finished or already released are excluded.  Unknown ids
    in `finished` raise UnknownId: feeding back a verdict for a task the
    batch does not contain is a protocol corruption we refuse to mask.
    """
    finished_set = set(finished)
    for fid in finished_set:
        if fid not in batch.tasks:
            raise UnknownId(f"finished id {fid!r} not in batch")
    released_set = set(released)
    out = []
    for tid in sorted(batch.tasks):
        if tid in finished_set or tid in released_set:
            continue
        if batch.tasks[tid].deps <= finished_set:
            out.append(tid)
    return out


def unfold(batch: WorkflowBatch, task_id: str, rule: UnfoldRule,
           snapshot: ResourceSnapshot,
           state: Optional[TaskState] = None) -> WorkflowBatch:
    """Replace `task_id` by the rule body; returns a new batch.

    The original batch is left untouched.  Incoming edges of the parent go
    to every entry node, outgoing edges leave from every exit node, and
    body-internal edges are kept.  Body ids become "<task_id>/<local id>".
    Spliced tasks never carry an unfold rule themselves (no nesting).

    Raises UnknownId / HeadMismatch / GuardFailed / StateError; on
    GuardFailed the caller falls back to running the node as-is.
    """
    if task_id not in batch.tasks:
        raise UnknownId(f"no task {task_id!r} in batch {batch.batch_id!r}")
    target = batch.tasks[task_id]
    if rule.head != target.kernel.name:
        raise HeadMismatch(
            f"rule {rule.rule_id!r} head {rule.head!r} does not match "
            f"kernel {target.kernel.name!r} of task {task_id!r}")
    if state is not None and state not in (TaskState.WAITING, TaskState.TODO):
        raise StateError(
            f"task {task_id!r} is {state.name}; unfold requires Waiting or ToDo")
    if not rule.guard.evaluate(snapshot):
        raise GuardFailed(
            f"guard of rule {rule.rule_id!r} failed for task {task_id!r}")

    namespaced = {local.id: f"{task_id}/{local.id}" for local in rule.body}
    for new_id in namespaced.values():
        if new_id in batch.tasks:
            raise SchemaError(f"unfold would duplicate task id {new_id!r}")

    new_tasks: dict[str, Task] = {}
    exits = {namespaced[x] for x in rule.exits}
    for tid in sorted(batch.tasks):
        if tid == task_id:
            continue
        task = batch.tasks[tid]
        if task_id in task.deps:
            deps = frozenset(task.deps - {task_id}) | exits
            task = replace(task, deps=frozenset(deps))
        new_tasks[tid] = task

    for local in rule.body:
        deps = {namespaced[d] for d in local.deps}
        if local.id in rule.entries:
            deps |= target.deps
        new_tasks[namespaced[local.id]] = replace(
            local, id=namespaced[local.id], deps=frozenset(deps),
            unfold_rule=None)

    return WorkflowBatch(
        batch_id=batch.batch_id,
        tasks=new_tasks,
        rules=dict(batch.rules),
        metadata=dict(batch.metadata),
    )


def transitive_closure(batch: WorkflowBatch) -> set[tuple[str, str]]:
    """All ordered pairs (u, v) with a dependency path u -> v."""
    succ: dict[str, set[str]] = {tid: set() for tid in batch.tasks}
    for dep, tid in batch.edges():
        if dep in succ:
            succ[dep].add(tid)
    closure: set[tuple[str, str]] = set()
    for start in batch.tasks:
        seen: set[str] = set()
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            stack.extend(succ[node])
    return closure
