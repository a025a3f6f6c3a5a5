"""Structure checks: cycles, series-parallel recognition, readiness,
dynamic unfolding.

The series-parallel recognizer is verified against an independent
backtracking oracle over every labeled DAG on up to 5 nodes.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubflow import (
    GuardFailed,
    GuardPredicate,
    HeadMismatch,
    KernelSpec,
    ResourceSnapshot,
    SchemaError,
    Task,
    UnfoldRule,
    UnknownId,
    WorkflowBatch,
    find_cycle,
    ready_tasks,
    transitive_closure,
    unfold,
    validate_structure,
)


def make_task(tid, deps=(), kernel="noop", unfold_rule=None):
    return Task(id=tid, kernel=KernelSpec(name=kernel),
                deps=frozenset(deps), unfold_rule=unfold_rule)


def make_batch(edges, nodes=None, rules=None):
    """Batch from a list of (dep, task) pairs."""
    ids = set(nodes or [])
    deps = {}
    for u, v in edges:
        ids.add(u)
        ids.add(v)
        deps.setdefault(v, set()).add(u)
    tasks = {i: make_task(i, deps.get(i, ())) for i in sorted(ids)}
    return WorkflowBatch(batch_id="b", tasks=tasks, rules=rules or {})


# ------------------------------------------------- series-parallel oracle

def oracle_series_parallel(nodes, edges):
    """Backtracking two-terminal reduction; tries every reduction order.

    Independent of the production recognizer: represents the graph as an
    edge multiset, augments it with a virtual source above all sources
    and a virtual sink below all sinks, then searches for ANY sequence
    of parallel merges and series bypasses that reaches the single
    source-sink edge.
    """
    if not nodes:
        return True
    src, snk = "__SRC__", "__SNK__"
    has_in = {v for _, v in edges}
    has_out = {u for u, _ in edges}
    full = list(edges)
    for n in sorted(nodes):
        if n not in has_in:
            full.append((src, n))
        if n not in has_out:
            full.append((n, snk))

    def counter(pairs):
        d = {}
        for e in pairs:
            d[e] = d.get(e, 0) + 1
        return d

    seen = set()

    def search(multiset):
        key = tuple(sorted(multiset.items()))
        if key in seen:
            return False
        seen.add(key)
        if multiset == {(src, snk): 1}:
            return True
        # parallel merge anywhere
        for edge, mult in multiset.items():
            if mult >= 2:
                nxt = dict(multiset)
                nxt[edge] = mult - 1
                if search(nxt):
                    return True
        # series bypass of any interior degree-1/1 node
        indeg, outdeg = {}, {}
        for (u, v), mult in multiset.items():
            outdeg[u] = outdeg.get(u, 0) + mult
            indeg[v] = indeg.get(v, 0) + mult
        interior = set(indeg) | set(outdeg)
        interior -= {src, snk}
        for w in interior:
            if indeg.get(w) != 1 or outdeg.get(w) != 1:
                continue
            u = next(a for (a, b) in multiset if b == w)
            v = next(b for (a, b) in multiset if a == w)
            nxt = {e: m for e, m in multiset.items()
                   if e not in ((u, w), (w, v))}
            if (u, w) != (w, v):
                pass
            nxt[(u, v)] = nxt.get((u, v), 0) + 1
            if search(nxt):
                return True
        return False

    return search(counter(full))


def all_dags(n):
    """Every labeled DAG on n nodes, via upper-triangular edge masks."""
    names = [f"n{i}" for i in range(n)]
    slots = [(names[i], names[j])
             for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(slots)):
        yield names, [slots[k] for k in range(len(slots)) if mask >> k & 1]


class TestSeriesParallel:
    def test_single_task(self):
        assert validate_structure(make_batch([], nodes=["a"])).series_parallel

    def test_chain(self):
        r = validate_structure(make_batch([("a", "b"), ("b", "c")]))
        assert r.ok and r.series_parallel

    def test_diamond_is_sp(self):
        r = validate_structure(make_batch(
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]))
        assert r.ok and r.series_parallel

    def test_n_graph_is_not_sp(self):
        # a->c, a->d, b->d: the "N" shape, the forbidden pattern
        r = validate_structure(make_batch([("a", "c"), ("a", "d"),
                                           ("b", "d")]))
        assert r.ok and not r.series_parallel

    def test_crossed_layers_not_sp(self):
        r = validate_structure(make_batch(
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
             ("b", "e"), ("d", "f"), ("e", "f")]))
        assert r.ok and not r.series_parallel

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_oracle_exhaustively_small(self, n):
        for names, edges in all_dags(n):
            got = validate_structure(
                make_batch(edges, nodes=names)).series_parallel
            want = oracle_series_parallel(set(names), edges)
            assert got == want, f"disagreement on edges {edges}"

    def test_matches_oracle_exhaustively_five_nodes(self):
        for names, edges in all_dags(5):
            got = validate_structure(
                make_batch(edges, nodes=names)).series_parallel
            want = oracle_series_parallel(set(names), edges)
            assert got == want, f"disagreement on edges {edges}"


class TestCycles:
    def test_acyclic_has_no_cycle(self):
        assert find_cycle({"a": ["b"], "b": ["c"], "c": []}) is None

    def test_self_loop(self):
        cycle = find_cycle({"a": ["a"]})
        assert cycle == ["a", "a"]

    def test_two_cycle_witness(self):
        cycle = find_cycle({"a": ["b"], "b": ["a"]})
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert len(cycle) == 3

    def test_cycle_deep_in_graph(self):
        adj = {"a": ["b"], "b": ["c"], "c": ["d"], "d": ["b"], "e": []}
        cycle = find_cycle(adj)
        assert cycle is not None and cycle[0] == cycle[-1]
        body = cycle[:-1]
        assert set(body) == {"b", "c", "d"}

    def test_validate_structure_reports_cycle(self):
        t = {
            "a": make_task("a", deps=["b"]),
            "b": make_task("b", deps=["a"]),
        }
        report = validate_structure(WorkflowBatch(batch_id="b", tasks=t))
        assert not report.ok
        assert report.cycle is not None
        assert not report.series_parallel


class TestReadyTasks:
    def test_initial_frontier(self):
        batch = make_batch([("a", "b"), ("a", "c"), ("b", "d"),
                            ("c", "d")])
        assert ready_tasks(batch, finished=[]) == ["a"]

    def test_after_first_finish(self):
        batch = make_batch([("a", "b"), ("a", "c"), ("b", "d"),
                            ("c", "d")])
        assert ready_tasks(batch, finished=["a"],
                           released=["a"]) == ["b", "c"]

    def test_released_tasks_excluded(self):
        batch = make_batch([("a", "b")])
        assert ready_tasks(batch, finished=["a"],
                           released=["a", "b"]) == []

    def test_unknown_finished_id_raises(self):
        batch = make_batch([("a", "b")])
        with pytest.raises(UnknownId):
            ready_tasks(batch, finished=["ghost"])

    def test_result_is_sorted(self):
        batch = make_batch([], nodes=["z", "m", "a"])
        assert ready_tasks(batch, finished=[]) == ["a", "m", "z"]


# ------------------------------------------------------------- unfolding

def solver_rule(guard=None):
    body = (
        Task(id="factor", kernel=KernelSpec(name="noop")),
        Task(id="solve", kernel=KernelSpec(name="noop"),
             deps=frozenset({"factor"})),
    )
    return UnfoldRule(rule_id="split", head="solver", body=body,
                      entries=frozenset({"factor"}),
                      exits=frozenset({"solve"}),
                      guard=guard or GuardPredicate())


def solver_batch(rule):
    tasks = {
        "prep": make_task("prep"),
        "big": Task(id="big", kernel=KernelSpec(name="solver"),
                    deps=frozenset({"prep"}), unfold_rule="split"),
        "post": make_task("post", deps=["big"]),
    }
    return WorkflowBatch(batch_id="b", tasks=tasks,
                         rules={"split": rule})


SNAPSHOT = ResourceSnapshot(available_workers=2,
                            capabilities=frozenset({"gpu"}),
                            dataset_sizes={})


class TestUnfold:
    def test_basic_splice(self):
        batch = solver_batch(solver_rule())
        out = unfold(batch, "big", batch.rules["split"], SNAPSHOT)
        assert sorted(out.tasks) == ["big/factor", "big/solve", "post",
                                     "prep"]
        assert out.tasks["big/factor"].deps == frozenset({"prep"})
        assert out.tasks["big/solve"].deps == frozenset({"big/factor"})
        assert out.tasks["post"].deps == frozenset({"big/solve"})

    def test_original_batch_untouched(self):
        batch = solver_batch(solver_rule())
        unfold(batch, "big", batch.rules["split"], SNAPSHOT)
        assert "big" in batch.tasks
        assert batch.tasks["post"].deps == frozenset({"big"})

    def test_spliced_tasks_lose_their_rule(self):
        batch = solver_batch(solver_rule())
        out = unfold(batch, "big", batch.rules["split"], SNAPSHOT)
        assert all(t.unfold_rule is None for t in out.tasks.values()
                   if t.id.startswith("big/"))

    def test_unknown_task(self):
        batch = solver_batch(solver_rule())
        with pytest.raises(UnknownId):
            unfold(batch, "ghost", batch.rules["split"], SNAPSHOT)

    def test_head_mismatch(self):
        batch = solver_batch(solver_rule())
        with pytest.raises(HeadMismatch):
            unfold(batch, "prep", batch.rules["split"], SNAPSHOT)

    def test_guard_failure(self):
        rule = solver_rule(GuardPredicate(min_workers=5))
        batch = solver_batch(rule)
        with pytest.raises(GuardFailed):
            unfold(batch, "big", rule, SNAPSHOT)

    def test_guard_on_capability(self):
        rule = solver_rule(GuardPredicate(required_cap="fpga"))
        batch = solver_batch(rule)
        with pytest.raises(GuardFailed):
            unfold(batch, "big", rule, SNAPSHOT)

    def test_id_collision(self):
        rule = solver_rule()
        tasks = {
            "prep": make_task("prep"),
            "big": Task(id="big", kernel=KernelSpec(name="solver"),
                        deps=frozenset({"prep"}), unfold_rule="split"),
            "big/factor": make_task("big/factor"),
        }
        batch = WorkflowBatch(batch_id="b", tasks=tasks,
                              rules={"split": rule})
        with pytest.raises(SchemaError):
            unfold(batch, "big", rule, SNAPSHOT)

    def test_result_stays_acyclic(self):
        batch = solver_batch(solver_rule())
        out = unfold(batch, "big", batch.rules["split"], SNAPSHOT)
        assert validate_structure(out).ok

    def test_closure_preserved_for_survivors(self):
        """Any reachability between surviving tasks must survive the
        splice (the sub-graph only refines the replaced node)."""
        batch = solver_batch(solver_rule())
        before = {(u, v) for u, v in transitive_closure(batch)
                  if "big" not in (u, v)}
        out = unfold(batch, "big", batch.rules["split"], SNAPSHOT)
        after = transitive_closure(out)
        assert before <= after
        assert ("prep", "big/factor") in after
        assert ("big/solve", "post") in after
        assert ("prep", "post") in after


# ------------------------------------------ randomized unfold properties

def random_dag_batch(rng, max_nodes=8):
    n = rng.randint(1, max_nodes)
    names = [f"t{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.append((names[i], names[j]))
    victim = rng.choice(names)
    deps = {}
    for u, v in edges:
        deps.setdefault(v, set()).add(u)
    body_n = rng.randint(1, 3)
    body_names = [f"b{i}" for i in range(body_n)]
    body = []
    for i, bname in enumerate(body_names):
        bdeps = {body_names[j] for j in range(i) if rng.random() < 0.5}
        body.append(Task(id=bname, kernel=KernelSpec(name="noop"),
                         deps=frozenset(bdeps)))
    entries = {body_names[0]}
    exits = {body_names[-1]}
    rule = UnfoldRule(rule_id="r", head="unfoldable", body=tuple(body),
                      entries=frozenset(entries), exits=frozenset(exits))
    tasks = {}
    for name in names:
        kernel = "unfoldable" if name == victim else "noop"
        tasks[name] = Task(
            id=name, kernel=KernelSpec(name=kernel),
            deps=frozenset(deps.get(name, set())),
            unfold_rule="r" if name == victim else None)
    batch = WorkflowBatch(batch_id="b", tasks=tasks, rules={"r": rule})
    return batch, victim, rule


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_unfolds_keep_structure_valid(seed):
    rng = random.Random(seed)
    batch, victim, rule = random_dag_batch(rng)
    out = unfold(batch, victim, rule, SNAPSHOT)
    assert validate_structure(out).ok
    assert victim not in out.tasks
    spliced = {t for t in out.tasks if t.startswith(victim + "/")}
    assert len(spliced) == len(rule.body)
    expected = len(batch.tasks) - 1 + len(rule.body)
    assert len(out.tasks) == expected
    inverse = {tid: [] for tid in sorted(out.tasks)}
    for tid in sorted(out.tasks):
        for dep in sorted(out.tasks[tid].deps):
            inverse[dep].append(tid)
    assert out.dependents == inverse
    exits = {f"{victim}/{x}" for x in rule.exits}
    for tid, task in batch.tasks.items():
        if tid == victim:
            continue
        if victim in task.deps:
            assert out.tasks[tid].deps == (task.deps - {victim}) | exits
        else:
            assert out.tasks[tid].deps == task.deps
