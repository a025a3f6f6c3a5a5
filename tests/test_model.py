"""Value-object invariants and the task state machine."""

import pytest

from pubflow import (
    GuardPredicate,
    KernelSpec,
    ResourceSnapshot,
    StateError,
    Task,
    TaskState,
    UnfoldRule,
    WorkerProfile,
    WorkflowBatch,
    check_transition,
)
from pubflow.model import dump, load


def make_task(tid="t", deps=(), **kw):
    return Task(id=tid, kernel=KernelSpec(name="noop"),
                deps=frozenset(deps), **kw)


class TestStateMachine:
    def test_forward_transitions_allowed(self):
        order = [TaskState.WAITING, TaskState.TODO, TaskState.IN_PROGRESS,
                 TaskState.TO_CHECK, TaskState.FINISHED]
        for a, b in zip(order, order[1:]):
            check_transition(a, b, 1, 1)

    def test_skipping_forward_is_allowed(self):
        check_transition(TaskState.TODO, TaskState.TO_CHECK, 1, 1)

    def test_backward_same_attempt_rejected(self):
        with pytest.raises(StateError):
            check_transition(TaskState.IN_PROGRESS, TaskState.TODO, 1, 1)

    def test_attempt_bump_resets_to_todo(self):
        check_transition(TaskState.IN_PROGRESS, TaskState.TODO, 1, 2)

    def test_attempt_bump_to_other_state_rejected(self):
        with pytest.raises(StateError):
            check_transition(TaskState.IN_PROGRESS, TaskState.FINISHED, 1, 2)

    def test_attempt_cannot_decrease(self):
        with pytest.raises(StateError):
            check_transition(TaskState.TODO, TaskState.TODO, 2, 1)

    def test_finished_is_terminal(self):
        for state in TaskState:
            if state is TaskState.FINISHED:
                continue
            with pytest.raises(StateError):
                check_transition(TaskState.FINISHED, state, 1, 2)


class TestValues:
    def test_kernel_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelSpec(name="noop", declared_duration=0.0)

    def test_task_rejects_self_dependency(self):
        with pytest.raises(ValueError):
            make_task("a", deps=["a"])

    def test_task_max_attempts_at_least_one(self):
        with pytest.raises(ValueError):
            Task(id="a", kernel=KernelSpec(name="noop"), max_attempts=0)

    def test_worker_reliability_range(self):
        with pytest.raises(ValueError):
            WorkerProfile(worker_id="w", reliability=1.5)
        with pytest.raises(ValueError):
            WorkerProfile(worker_id="w", speed=0.0)

    def test_worker_profile_payload_round_trip(self):
        """A volunteer's profile is `dump` without the worker id, and the
        coordinator reads it back with `load` and the sender's id."""
        w = WorkerProfile(worker_id="w1",
                          capabilities=frozenset({"gpu", "big-mem"}),
                          speed=2.5, reliability=0.875)
        payload = dump(w)
        assert list(payload) == ["worker_id", "capabilities", "speed",
                                 "reliability"]
        assert payload["capabilities"] == ["big-mem", "gpu"]  # sorted
        assert load(WorkerProfile, payload, "profile") == w

    def test_batch_edges_sorted_and_complete(self):
        batch = WorkflowBatch(batch_id="b", tasks={
            "a": make_task("a"),
            "b": make_task("b", deps=["a"]),
            "c": make_task("c", deps=["a", "b"]),
        })
        assert batch.edges() == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_batch_rejects_unknown_dep(self):
        with pytest.raises(ValueError):
            WorkflowBatch(batch_id="b",
                          tasks={"a": make_task("a", deps=["ghost"])})


class TestGuards:
    snapshot = ResourceSnapshot(
        available_workers=3,
        capabilities=frozenset({"gpu"}),
        dataset_sizes={"d1": 1000},
    )

    def test_default_guard_passes(self):
        assert GuardPredicate().evaluate(self.snapshot)

    def test_min_workers(self):
        assert GuardPredicate(min_workers=3).evaluate(self.snapshot)
        assert not GuardPredicate(min_workers=4).evaluate(self.snapshot)

    def test_required_cap(self):
        assert GuardPredicate(required_cap="gpu").evaluate(self.snapshot)
        assert not GuardPredicate(required_cap="fpga").evaluate(self.snapshot)

    def test_dataset_size(self):
        ok = GuardPredicate(dataset_id="d1", min_dataset_size=1000)
        assert ok.evaluate(self.snapshot)
        too_big = GuardPredicate(dataset_id="d1", min_dataset_size=1001)
        assert not too_big.evaluate(self.snapshot)
        missing = GuardPredicate(dataset_id="ghost", min_dataset_size=1)
        assert not missing.evaluate(self.snapshot)


class TestUnfoldRuleShape:
    def body(self):
        return (
            Task(id="x", kernel=KernelSpec(name="noop")),
            Task(id="y", kernel=KernelSpec(name="noop"),
                 deps=frozenset({"x"})),
        )

    def test_valid_rule(self):
        rule = UnfoldRule(rule_id="r", head="noop", body=self.body(),
                          entries=frozenset({"x"}),
                          exits=frozenset({"y"}))
        assert rule.rule_id == "r"

    def test_entries_must_name_body_tasks(self):
        with pytest.raises(ValueError):
            UnfoldRule(rule_id="r", head="noop", body=self.body(),
                       entries=frozenset({"ghost"}),
                       exits=frozenset({"y"}))

    def test_body_deps_must_stay_internal(self):
        body = (Task(id="x", kernel=KernelSpec(name="noop"),
                     deps=frozenset({"outside"})),)
        with pytest.raises(ValueError):
            UnfoldRule(rule_id="r", head="noop", body=body,
                       entries=frozenset({"x"}), exits=frozenset({"x"}))

    def test_duplicate_body_ids_rejected(self):
        body = (Task(id="x", kernel=KernelSpec(name="noop")),
                Task(id="x", kernel=KernelSpec(name="noop")))
        with pytest.raises(ValueError):
            UnfoldRule(rule_id="r", head="noop", body=body,
                       entries=frozenset({"x"}), exits=frozenset({"x"}))
