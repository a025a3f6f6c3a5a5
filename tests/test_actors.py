"""Actor behavior, driven by hand on a bare bus (no simulator loop)."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubflow import (
    Broker,
    Channel,
    Checker,
    Coordinator,
    GuardPredicate,
    InProcessBus,
    KernelSpec,
    Monitor,
    SlaPolicy,
    StateError,
    Task,
    TaskState,
    UnfoldRule,
    ValidationError,
    WorkerActor,
    WorkerProfile,
    WorkflowBatch,
    Workspace,
    select_worker,
    sla_score,
)
from pubflow import actors
from pubflow.model import dump


def noop_task(tid, deps=(), outputs=(), duration=1.0, **kw):
    values = {o: [1.0] for o in outputs}
    return Task(id=tid,
                kernel=KernelSpec(name="noop", params={"values": values},
                                  outputs=tuple(outputs),
                                  declared_duration=duration),
                deps=frozenset(deps), **kw)


def batch_of(*tasks):
    return WorkflowBatch(batch_id="b", tasks={t.id: t for t in tasks})


def profile(wid, caps=(), speed=1.0, reliability=1.0):
    return WorkerProfile(worker_id=wid, capabilities=frozenset(caps),
                         speed=speed, reliability=reliability)


def log_kinds(bus):
    return [(json.loads(line)["kind"], json.loads(line)["channel"])
            for line in bus.log.dumps().splitlines()]


# --------------------------------------------------------------- selection

class TestSelectWorker:
    task = noop_task("t")
    gpu_task = Task(id="g", kernel=KernelSpec(name="noop"),
                    required_caps=frozenset({"gpu"}))

    def test_empty_list(self):
        assert select_worker(self.task, []) is None

    def test_single_eligible(self):
        assert select_worker(self.task, [profile("w1")]) == "w1"

    def test_capability_filter(self):
        assert select_worker(self.gpu_task, [profile("w1")]) is None
        assert select_worker(self.gpu_task,
                             [profile("w1"), profile("w2", caps=("gpu",))]
                             ) == "w2"

    def test_reliability_beats_slow_speed(self):
        # 0.7*1.0 + 0.3*0.25 = 0.775  vs  0.7*0.8 + 0.3*1.0 = 0.86
        a = profile("aa", speed=1.0, reliability=1.0)
        b = profile("bb", speed=4.0, reliability=0.8)
        assert select_worker(self.task, [a, b]) == "bb"

    def test_speed_saturates_at_cap(self):
        fast = profile("fast", speed=40.0, reliability=0.9)
        capped = profile("capped", speed=4.0, reliability=0.9)
        assert sla_score(fast) == sla_score(capped)
        # identical scores, so the id decides
        assert select_worker(self.task, [fast, capped]) == "capped"

    def test_tie_breaks_to_smallest_id(self):
        ws = [profile("w3"), profile("w1"), profile("w2")]
        assert select_worker(self.task, ws) == "w1"
        assert select_worker(self.task, list(reversed(ws))) == "w1"

    def test_custom_policy_weights(self):
        policy = SlaPolicy(w_r=0.0, w_s=1.0, s_cap=2.0)
        slow = profile("slow", speed=1.0, reliability=1.0)
        fast = profile("fast", speed=2.0, reliability=0.0)
        assert select_worker(self.task, [slow, fast], policy) == "fast"

    def test_matches_brute_force_oracle(self):
        rng = random.Random(2024)
        pool_caps = ["gpu", "fpga", "bigmem"]
        policy = SlaPolicy()
        for case in range(300):
            n = rng.randint(0, 8)
            vols = []
            for i in range(n):
                vols.append(profile(
                    f"w{rng.randrange(50):02d}",
                    caps=[c for c in pool_caps if rng.random() < 0.4],
                    speed=rng.uniform(0.1, 8.0),
                    reliability=rng.random()))
            need = frozenset(c for c in pool_caps if rng.random() < 0.25)
            task = Task(id="t", kernel=KernelSpec(name="noop"),
                        required_caps=need)
            # independent restatement of the rule
            eligible = [w for w in vols if need <= w.capabilities]
            expect = None
            if eligible:
                scores = {}
                for w in eligible:
                    s = (policy.w_r * w.reliability
                         + policy.w_s * min(w.speed, policy.s_cap)
                         / policy.s_cap)
                    prev = scores.get(w.worker_id)
                    if prev is None or s > prev:
                        scores[w.worker_id] = s
                top = max(scores.values())
                expect = min(w for w, s in scores.items() if s == top)
            assert select_worker(task, vols, policy) == expect


# ------------------------------------------------------------------ broker

class TestBroker:
    def test_publishes_in_lexicographic_order(self):
        bus = InProcessBus()
        broker = Broker(bus)
        batch = batch_of(noop_task("zeta"), noop_task("alpha"),
                         noop_task("mid"))
        broker.submit(batch)
        ids = [json.loads(line)["payload"]["task_id"]
               for line in bus.log.dumps().splitlines()]
        assert ids == ["alpha", "mid", "zeta"]
        channels = {json.loads(line)["channel"]
                    for line in bus.log.dumps().splitlines()}
        assert channels == {"WaitingTasks"}

    def test_cyclic_batch_refused_with_no_publishes(self):
        bus = InProcessBus()
        broker = Broker(bus)
        tasks = {
            "a": Task(id="a", kernel=KernelSpec(name="noop"),
                      deps=frozenset({"b"})),
            "b": Task(id="b", kernel=KernelSpec(name="noop"),
                      deps=frozenset({"a"})),
        }
        with pytest.raises(ValidationError):
            broker.submit(WorkflowBatch(batch_id="b", tasks=tasks))
        assert bus.log.tally.messages_total == 0


# -------------------------------------------------------------- coordinator

def wire(batch):
    """Bus with coordinator, the batch on WaitingTasks and adopted."""
    bus = InProcessBus()
    coord = Coordinator(bus)
    Broker(bus).submit(batch)
    coord.adopt(batch)
    return bus, coord


def volunteer(bus, wid, tid, attempt=1, **prof):
    payload = dump(profile(wid, **prof))
    del payload["worker_id"]
    bus.publish(wid, Channel.VOLUNTEER_WORKERS, "volunteer",
                {"task_id": tid, "worker_id": wid, "attempt": attempt,
                 "profile": payload})


def verdict(bus, tid, attempt=1, ok=True):
    bus.publish("checker", Channel.FINISHED_TASKS, "verdict",
                {"task_id": tid, "attempt": attempt, "ok": ok,
                 "outputs": {}})


def result(bus, wid, tid, attempt=1):
    bus.publish(wid, Channel.TASKS_TO_CHECK, "result",
                {"task_id": tid, "worker_id": wid, "attempt": attempt,
                 "exit_status": 0, "outputs": {}})


def assignments_in(bus):
    return [json.loads(line)["payload"]
            for line in bus.log.dumps().splitlines()
            if json.loads(line)["kind"] == "assignment"]


def pooled(coord):
    """The workers the Coordinator's sweep may pick: the fold's idle ones
    that it has ranked, as each volunteered."""
    return {wid for wid in coord.bus.log.tally.idle if wid in coord.ranks}


class TestCoordinator:
    def test_adopt_releases_the_roots_right_after_the_broker(self):
        """Every task gets a Waiting row in the fold, the roots go to
        TasksToDo in id order right after the WaitingTasks announcements,
        and the coordinator is not on WaitingTasks."""
        batch = batch_of(noop_task("c"), noop_task("a"),
                         noop_task("b", deps=["a"]))
        bus, coord = wire(batch)
        records = [json.loads(line) for line in bus.log.dumps().splitlines()]
        assert [(r["channel"], r["payload"]["task_id"]) for r in records] \
            == [("WaitingTasks", "a"), ("WaitingTasks", "b"),
                ("WaitingTasks", "c"), ("TasksToDo", "a"),
                ("TasksToDo", "c")]
        assert bus.log.tally.rows == {"a": (TaskState.TODO, 1),
                                      "b": (TaskState.WAITING, 1),
                                      "c": (TaskState.TODO, 1)}
        # b still waits, so announcing it again is a legal move
        bus.publish("broker", Channel.WAITING_TASKS, "task",
                    records[1]["payload"])
        assert coord.id not in bus.mail

    def test_releases_only_dependency_free_tasks(self):
        batch = batch_of(noop_task("a"), noop_task("b", deps=["a"]))
        bus, coord = wire(batch)
        coord.step(0)
        todo = [json.loads(line)["payload"]["task_id"]
                for line in bus.log.dumps().splitlines()
                if json.loads(line)["channel"] == "TasksToDo"]
        assert todo == ["a"]
        assert bus.log.tally.rows["a"] == (TaskState.TODO, 1)
        assert bus.log.tally.rows["b"] == (TaskState.WAITING, 1)

    def test_assignment_after_volunteer(self):
        batch = batch_of(noop_task("a"))
        bus, coord = wire(batch)
        coord.step(0)
        volunteer(bus, "w1", "a")
        coord.step(1)
        assert assignments_in(bus) == [
            {"task_id": "a", "worker_id": "w1", "attempt": 1}]
        assert bus.log.tally.rows["a"] == (TaskState.IN_PROGRESS, 1)

    def test_same_winner_for_both_volunteer_orderings(self):
        for order in (("w1", "w2"), ("w2", "w1")):
            batch = batch_of(noop_task("a"))
            bus, coord = wire(batch)
            coord.step(0)
            for wid in order:
                volunteer(bus, wid, "a")
            coord.step(1)
            assert assignments_in(bus)[0]["worker_id"] == "w1"

    def test_volunteer_dedupe_single_assignment(self):
        batch = batch_of(noop_task("a"))
        bus, coord = wire(batch)
        coord.step(0)
        volunteer(bus, "w1", "a")
        volunteer(bus, "w1", "a")
        coord.step(1)
        coord.step(2)
        assert len(assignments_in(bus)) == 1

    def test_assigned_worker_waits_for_its_result(self):
        """An assignment takes the worker out of the pool; its verdict does
        not put it back, its result does."""
        batch = batch_of(noop_task("a"), noop_task("b"))
        bus, coord = wire(batch)
        coord.step(0)
        volunteer(bus, "w1", "a")
        volunteer(bus, "w1", "b")
        coord.step(1)
        got = assignments_in(bus)
        assert len(got) == 1 and got[0]["task_id"] == "a"
        assert pooled(coord) == set()
        verdict(bus, "a")
        coord.step(2)
        assert len(assignments_in(bus)) == 1
        result(bus, "w1", "a")
        coord.step(3)
        got = assignments_in(bus)
        assert len(got) == 2 and got[1]["task_id"] == "b"
        assert got[1]["worker_id"] == "w1"

    def test_one_offer_serves_many_tasks(self):
        """A single volunteer keeps the worker in the pool across tasks:
        every result refills it, in id order of the ToDo tasks."""
        batch = batch_of(noop_task("a"), noop_task("b"), noop_task("c"))
        bus, coord = wire(batch)
        coord.step(0)
        volunteer(bus, "w1", "b")
        coord.step(1)
        for now, tid in enumerate(("a", "b"), start=2):
            result(bus, "w1", tid)
            coord.step(now)
        assert [(a["task_id"], a["worker_id"]) for a in assignments_in(bus)] \
            == [("a", "w1"), ("b", "w1"), ("c", "w1")]

    def test_result_from_a_worker_that_never_offered_is_ignored(self):
        batch = batch_of(noop_task("a"))
        bus, coord = wire(batch)
        coord.step(0)
        result(bus, "ghost", "a")
        coord.step(1)
        assert bus.log.tally.idle == {"ghost"}  # the fold records it
        assert pooled(coord) == set() and assignments_in(bus) == []

    def test_verdict_releases_dependents(self):
        batch = batch_of(noop_task("a"), noop_task("b", deps=["a"]))
        bus, coord = wire(batch)
        coord.step(0)
        verdict(bus, "a")
        coord.step(1)
        todo = [json.loads(line)["payload"]["task_id"]
                for line in bus.log.dumps().splitlines()
                if json.loads(line)["channel"] == "TasksToDo"
                and json.loads(line)["kind"] == "task"]
        assert todo == ["a", "b"]

    def test_verdicts_in_one_drain_release_in_the_order_handled(self):
        """a's and b's verdicts come in one drain.  A dependency counts as
        finished only once its verdict is handled, though the fold already
        holds both: a's verdict releases d, and b's then releases c."""
        batch = batch_of(noop_task("a"), noop_task("b"),
                         noop_task("c", deps=["a", "b"]),
                         noop_task("d", deps=["a"]))
        bus, coord = wire(batch)
        coord.step(0)
        verdict(bus, "a")
        verdict(bus, "b")
        coord.step(1)
        todo = [record["payload"]["task_id"]
                for record in map(json.loads, bus.log.lines)
                if record["channel"] == "TasksToDo"]
        assert todo == ["a", "b", "d", "c"]

    def test_emergency_exactly_once_when_all_finished(self):
        batch = batch_of(noop_task("a"), noop_task("b"))
        bus, coord = wire(batch)
        coord.step(0)
        verdict(bus, "a")
        coord.step(1)
        verdict(bus, "b")
        coord.step(2)
        coord.step(3)
        found = [json.loads(line)["payload"]
                 for line in bus.log.dumps().splitlines()
                 if json.loads(line)["kind"] == "emergency"]
        assert found == [{"reason": "complete", "batch_id": "b"}]
        assert bus.log.tally.reason == "complete"

    def test_failed_verdict_aborts_batch(self):
        batch = batch_of(noop_task("a"), noop_task("b"))
        bus, coord = wire(batch)
        coord.step(0)
        verdict(bus, "a", ok=False)
        coord.step(1)
        found = [json.loads(line)["payload"]
                 for line in bus.log.dumps().splitlines()
                 if json.loads(line)["kind"] == "emergency"]
        assert found == [{"reason": "failed", "batch_id": "b"}]

    def test_republication_bumps_attempt_and_keeps_worker_out(self):
        """The silent worker of a republished task stays out of the pool
        (it may be stalled or dead) until it sends again."""
        batch = batch_of(noop_task("a"))
        bus, coord = wire(batch)
        coord.step(0)
        volunteer(bus, "w1", "a")
        coord.step(1)
        assert pooled(coord) == set()
        spec = json.loads(bus.log.dumps().splitlines()[0]
                          )["payload"]["spec"]
        bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                    {"task_id": "a", "attempt": 2, "spec": spec})
        coord.step(2)
        assert bus.log.tally.rows["a"] == (TaskState.TODO, 2)
        assert pooled(coord) == set()
        assert len(assignments_in(bus)) == 1
        # another worker joining the pool gets attempt 2
        volunteer(bus, "w2", "a", attempt=1)
        coord.step(3)
        got = assignments_in(bus)
        assert got[-1] == {"task_id": "a", "worker_id": "w2", "attempt": 2}

    def test_stale_republication_ignored(self):
        """A republication of the ToDo attempt leaves the row as it was,
        and the task is assigned once."""
        batch = batch_of(noop_task("a"))
        bus, coord = wire(batch)
        coord.step(0)
        spec = json.loads(bus.log.dumps().splitlines()[0]
                          )["payload"]["spec"]
        bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                    {"task_id": "a", "attempt": 1, "spec": spec})
        coord.step(1)
        assert bus.log.tally.rows["a"] == (TaskState.TODO, 1)
        volunteer(bus, "w1", "a")
        volunteer(bus, "w2", "a")
        coord.step(2)
        assert assignments_in(bus) == [
            {"task_id": "a", "worker_id": "w1", "attempt": 1}]

    def test_republication_after_finish_ignored(self):
        """A Finished task never moves again: the bus refuses its
        republication, so no actor hears it and nobody is assigned it."""
        batch = batch_of(noop_task("a"), noop_task("b"))
        bus, coord = wire(batch)
        coord.step(0)
        spec = json.loads(bus.log.dumps().splitlines()[0]
                          )["payload"]["spec"]
        verdict(bus, "a")
        coord.step(1)
        with pytest.raises(StateError, match="already finished"):
            bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                        {"task_id": "a", "attempt": 5, "spec": spec})
        assert coord.id not in bus.mail
        coord.step(2)
        assert bus.log.tally.rows["a"] == (TaskState.FINISHED, 1)
        volunteer(bus, "w9", "a", attempt=5)
        coord.step(3)
        assert [(a["task_id"], a["attempt"]) for a in assignments_in(bus)] \
            == [("b", 1)]

    def test_republication_of_unknown_task_ignored(self):
        """A task the batch does not hold gets a row in the fold, but the
        Coordinator assigns only its batch's tasks."""
        batch = batch_of(noop_task("a"))
        bus, coord = wire(batch)
        coord.step(0)
        spec = json.loads(bus.log.dumps().splitlines()[0]
                          )["payload"]["spec"]
        bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                    {"task_id": "ghost", "attempt": 2, "spec": spec})
        coord.step(1)
        assert bus.log.tally.todo == {"a", "ghost"}
        volunteer(bus, "w1", "a")
        volunteer(bus, "w2", "a")
        coord.step(2)
        assert [a["task_id"] for a in assignments_in(bus)] == ["a"]

    def test_verdict_for_unknown_task_ignored(self):
        """An ok verdict for a task the batch does not hold releases
        nothing; the fold's verified table holds it, but the batch is not
        complete without its own tasks."""
        batch = batch_of(noop_task("a"), noop_task("b", deps=["a"]))
        bus, coord = wire(batch)
        coord.step(0)
        verdict(bus, "ghost")
        coord.step(1)
        assert "ghost" in bus.log.tally.verified
        assert bus.log.tally.todo == {"a"}
        assert bus.log.tally.rows["b"] == (TaskState.WAITING, 1)
        assert bus.log.tally.reason is None

    def test_volunteer_naming_an_old_attempt_still_joins_the_pool(self):
        """An offer joins the pool whatever task it names; the assignment
        carries the task's current attempt."""
        batch = batch_of(noop_task("a"))
        bus, coord = wire(batch)
        coord.step(0)
        spec = json.loads(bus.log.dumps().splitlines()[0]
                          )["payload"]["spec"]
        bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                    {"task_id": "a", "attempt": 2, "spec": spec})
        coord.step(1)
        volunteer(bus, "w1", "a", attempt=1)  # sent before the republish
        coord.step(2)
        assert assignments_in(bus) == [
            {"task_id": "a", "worker_id": "w1", "attempt": 2}]


class TestCoordinatorSweep:
    """The sweep visits unassigned ToDo tasks in id order from a heap and
    gives each the first capable worker of the ranked idle pool."""

    def test_task_nobody_can_run_waits_for_a_capable_volunteer(self):
        batch = batch_of(noop_task("a", required_caps=frozenset({"gpu"})),
                         noop_task("b"))
        bus, coord = wire(batch)
        coord.step(0)
        volunteer(bus, "w1", "b")
        coord.step(1)
        result(bus, "w1", "b")  # back in the pool, still without a gpu
        coord.step(2)
        assert [(a["task_id"], a["worker_id"]) for a in assignments_in(bus)] \
            == [("b", "w1")]
        assert bus.log.tally.todo == {"a"} and pooled(coord) == {"w1"}
        volunteer(bus, "g1", "a", caps=("gpu",), reliability=0.1)
        coord.step(3)
        assert assignments_in(bus)[-1] == \
            {"task_id": "a", "worker_id": "g1", "attempt": 1}
        assert bus.log.tally.todo == set() and pooled(coord) == {"w1"}

    def test_reentered_task_is_assigned_once_per_sweep(self):
        """Two republications while the task waits leave three heap
        entries for it; one sweep assigns it once, at its latest attempt,
        and the next task still gets the next worker."""
        batch = batch_of(noop_task("a"), noop_task("b"))
        bus, coord = wire(batch)
        coord.step(0)
        for attempt in (2, 3):
            bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                        {"task_id": "a", "attempt": attempt})
        coord.step(1)
        assert coord.queue.count("a") == 3
        for wid in ("w1", "w2", "w3"):
            volunteer(bus, wid, "a")
        coord.step(2)
        assert assignments_in(bus) == [
            {"task_id": "a", "worker_id": "w1", "attempt": 3},
            {"task_id": "b", "worker_id": "w2", "attempt": 1}]
        assert pooled(coord) == {"w3"} and coord.queue == []

    def test_unplaced_task_goes_back_on_the_queue_once(self):
        batch = batch_of(noop_task("g", required_caps=frozenset({"gpu"})))
        bus, coord = wire(batch)
        coord.step(0)
        for attempt in (2, 3):
            bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                        {"task_id": "g", "attempt": attempt})
        volunteer(bus, "w1", "g")
        coord.step(1)
        assert assignments_in(bus) == [] and coord.queue == ["g"]
        volunteer(bus, "g1", "g", caps=("gpu",))
        coord.step(2)
        assert assignments_in(bus) == [
            {"task_id": "g", "worker_id": "g1", "attempt": 3}]

    def test_changed_profile_reranks_a_pooled_worker(self):
        batch = batch_of(noop_task("a"))
        bus, coord = wire(batch)
        coord.step(0)
        volunteer(bus, "w0", "a")
        coord.step(1)  # a goes to w0; nothing is left to assign
        volunteer(bus, "w1", "a", reliability=0.9)
        volunteer(bus, "w2", "a", reliability=0.5)
        coord.step(2)
        volunteer(bus, "w1", "a", reliability=0.1)  # w1 now ranks last
        bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                    {"task_id": "a", "attempt": 2})
        coord.step(3)
        assert assignments_in(bus)[-1] == \
            {"task_id": "a", "worker_id": "w2", "attempt": 2}
        assert pooled(coord) == {"w1"}


# Pool moves against the naive rule: tied scores (two reliabilities, two
# speeds) and capability-restricted tasks.
POOL_TASKS = (noop_task("t0"),
              noop_task("t1", required_caps=frozenset({"gpu"})),
              noop_task("t2", required_caps=frozenset({"mpi"})),
              noop_task("t3"),
              noop_task("t4", required_caps=frozenset({"gpu", "mpi"})))
POOL_OPS = st.one_of(
    st.tuples(st.just("volunteer"), st.sampled_from(["w1", "w2", "w3", "w4"]),
              st.sampled_from([0.5, 1.0]), st.sampled_from([1.0, 2.0]),
              st.sampled_from([(), ("gpu",), ("gpu", "mpi")])),
    st.tuples(st.just("result"), st.sampled_from(["w1", "w2", "w3", "w4"])),
    st.tuples(st.just("republish"), st.sampled_from(["t0", "t1", "t2",
                                                     "t3", "t4"])))


class TestRankedPoolProperty:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(POOL_OPS, max_size=30))
    def test_pool_matches_select_worker_over_the_idle_profiles(self, ops):
        """After each step, every assignment is select_worker's pick among
        the idle workers' latest profiles, ToDo tasks in id order; the
        fold's idle table holds the naive model's idle workers, a result
        from one that never volunteered included, and the Coordinator
        ranks each by its latest profile."""
        bus, coord = wire(batch_of(*POOL_TASKS))
        coord.step(0)
        tasks = {t.id: t for t in POOL_TASKS}
        profiles, idle = {}, set()
        attempts = dict.fromkeys(tasks, 1)
        todo = dict(attempts)  # unassigned task -> its attempt
        for now, op in enumerate(ops, start=1):
            logged = len(bus.log.lines)
            if op[0] == "volunteer":
                _, wid, reliability, speed, caps = op
                volunteer(bus, wid, "t0", caps=caps, speed=speed,
                          reliability=reliability)
                profiles[wid] = profile(wid, caps, speed, reliability)
                idle.add(wid)
            elif op[0] == "result":
                result(bus, op[1], "t0")
                idle.add(op[1])
            else:
                attempts[op[1]] += 1
                todo[op[1]] = attempts[op[1]]
                bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                            {"task_id": op[1], "attempt": attempts[op[1]]})
            coord.step(now)
            expected = []
            for tid in sorted(todo):
                ranked = [profiles[w] for w in idle if w in profiles]
                if not ranked:
                    break
                winner = select_worker(tasks[tid], ranked)
                if winner is not None:
                    idle.remove(winner)
                    expected.append({"task_id": tid, "worker_id": winner,
                                     "attempt": todo.pop(tid)})
            made = [record["payload"] for record in
                    map(json.loads, bus.log.lines[logged:])
                    if record["kind"] == "assignment"]
            assert made == expected
            assert bus.log.tally.idle == idle
            assert pooled(coord) == idle & profiles.keys()
            assert coord.ranks == {wid: actors.rank(got)
                                   for wid, got in profiles.items()}
            assert bus.log.tally.todo == todo.keys()


class TestCoordinatorUnfold:
    def build(self, guard):
        rule = UnfoldRule(
            rule_id="split", head="solver",
            body=(Task(id="factor", kernel=KernelSpec(name="noop",
                                                      params={"values": {}})),
                  Task(id="solve", kernel=KernelSpec(name="noop",
                                                     params={"values": {}}),
                       deps=frozenset({"factor"}))),
            entries=frozenset({"factor"}), exits=frozenset({"solve"}),
            guard=guard)
        tasks = {
            "prep": noop_task("prep"),
            "big": Task(id="big", kernel=KernelSpec(name="solver"),
                        deps=frozenset({"prep"}), unfold_rule="split"),
        }
        batch = WorkflowBatch(batch_id="b", tasks=tasks,
                              rules={"split": rule})
        return wire(batch)

    def test_unfold_on_release(self):
        bus, coord = self.build(GuardPredicate(min_workers=1))
        coord.step(0)
        volunteer(bus, "w1", "prep")
        coord.step(1)
        verdict(bus, "prep")
        coord.step(2)
        assert "big" not in coord.batch.tasks
        assert "big/factor" in coord.batch.tasks
        todo = [json.loads(line)["payload"]["task_id"]
                for line in bus.log.dumps().splitlines()
                if json.loads(line)["channel"] == "TasksToDo"
                and json.loads(line)["kind"] == "task"]
        assert "big/factor" in todo
        assert "big/solve" not in todo  # depends on big/factor
        assert "big" not in todo

    def test_guard_failure_falls_back_to_plain_task(self):
        bus, coord = self.build(GuardPredicate(min_workers=5))
        coord.step(0)
        verdict(bus, "prep")
        coord.step(1)
        assert "big" in coord.batch.tasks
        todo = [json.loads(line)["payload"]["task_id"]
                for line in bus.log.dumps().splitlines()
                if json.loads(line)["channel"] == "TasksToDo"
                and json.loads(line)["kind"] == "task"]
        assert "big" in todo

    def test_a_bug_in_unfold_is_not_a_guard_failure(self, monkeypatch):
        """Only an EngineError (GuardFailed or a bad rule) runs the task
        as-is: any other exception from unfold raises out of the step."""
        bus, coord = self.build(GuardPredicate())
        coord.step(0)

        def broken(*args, **kwargs):
            raise RuntimeError("unfold bug")

        monkeypatch.setattr(actors, "unfold", broken)
        verdict(bus, "prep")
        with pytest.raises(RuntimeError, match="unfold bug"):
            coord.step(1)

    def test_unfolded_children_complete_the_batch(self):
        bus, coord = self.build(GuardPredicate())
        coord.step(0)
        verdict(bus, "prep")
        coord.step(1)
        verdict(bus, "big/factor")
        coord.step(2)
        verdict(bus, "big/solve")
        coord.step(3)
        kinds = [k for k, _ in log_kinds(bus)]
        assert kinds.count("emergency") == 1
        assert bus.log.tally.reason == "complete"


# ------------------------------------------------------------------ worker

def worker_rig(tmp_path, prof=None, heartbeat=5):
    bus = InProcessBus()
    ws = Workspace(tmp_path)
    actor = WorkerActor(bus, prof or profile("w1"), ws,
                        heartbeat_period=heartbeat)
    return bus, actor


def publish_task(bus, task, attempt=1, sender="coordinator"):
    from pubflow.workflow_io import task_to_obj
    bus.publish(sender, Channel.TASKS_TO_DO, "task",
                {"task_id": task.id, "attempt": attempt,
                 "spec": task_to_obj(task)})


def assign(bus, tid, wid, attempt=1):
    """Publish an assignment addressed to its worker, as the coordinator
    does."""
    bus.publish("coordinator", Channel.TASKS_TO_DO, "assignment",
                {"task_id": tid, "worker_id": wid, "attempt": attempt},
                to=(wid,))


class TestWorker:
    def test_volunteers_for_open_task(self, tmp_path):
        bus, actor = worker_rig(tmp_path)
        publish_task(bus, noop_task("a"))
        actor.step(0)
        kinds = [k for k, _ in log_kinds(bus)]
        assert kinds == ["task", "volunteer"]

    def test_does_not_volunteer_without_capability(self, tmp_path):
        bus, actor = worker_rig(tmp_path)
        task = Task(id="g", kernel=KernelSpec(name="noop"),
                    required_caps=frozenset({"gpu"}))
        publish_task(bus, task)
        actor.step(0)
        assert [k for k, _ in log_kinds(bus)] == ["task"]

    def test_execution_timeline_duration3_h1(self, tmp_path):
        """started@t, heartbeat@t+1, heartbeat@t+2, result@t+3."""
        bus, actor = worker_rig(tmp_path, heartbeat=1)
        task = noop_task("a", outputs=("d",), duration=3.0)
        publish_task(bus, task)
        actor.step(0)          # volunteers
        assign(bus, "a", "w1")
        for now in range(1, 5):
            bus.now = now
            actor.step(now)
        events = [(json.loads(line)["kind"], json.loads(line)["ts"])
                  for line in bus.log.dumps().splitlines()]
        assert events == [
            ("task", 0), ("volunteer", 0), ("assignment", 0),
            ("started", 1), ("heartbeat", 2), ("heartbeat", 3),
            ("result", 4),
        ]

    def test_no_heartbeats_when_faster_than_period(self, tmp_path):
        bus, actor = worker_rig(tmp_path, heartbeat=5)
        publish_task(bus, noop_task("a", outputs=("d",), duration=1.0))
        actor.step(0)
        assign(bus, "a", "w1")
        actor.step(1)
        actor.step(2)
        kinds = [k for k, _ in log_kinds(bus)]
        assert "heartbeat" not in kinds
        assert kinds[-1] == "result"

    def test_result_payload_checksums_match_workspace(self, tmp_path):
        bus, actor = worker_rig(tmp_path)
        publish_task(bus, noop_task("a", outputs=("d",)))
        actor.step(0)
        assign(bus, "a", "w1")
        actor.step(1)
        actor.step(2)
        result = [json.loads(line)["payload"]
                  for line in bus.log.dumps().splitlines()
                  if json.loads(line)["kind"] == "result"][0]
        assert result["exit_status"] == 0
        assert result["outputs"]["d"] == actor.workspace.checksum("d")
        assert "spec" not in result and "elapsed" not in result

    def test_missing_input_reports_dlc_and_exit_2(self, tmp_path):
        bus, actor = worker_rig(tmp_path)
        task = Task(id="a", kernel=KernelSpec(name="noop",
                                              inputs=("ghost",)))
        publish_task(bus, task)
        actor.step(0)
        assign(bus, "a", "w1")
        actor.step(1)
        actor.step(2)
        kinds = [k for k, _ in log_kinds(bus)]
        assert "dlc" in kinds
        result = [json.loads(line)["payload"]
                  for line in bus.log.dumps().splitlines()
                  if json.loads(line)["kind"] == "result"][0]
        assert result["exit_status"] == 2
        assert "ghost" in result["error"]

    def test_a_bug_while_completing_is_not_a_missing_input(
            self, tmp_path, monkeypatch):
        """Only MissingInput asks the data policy for help: a workspace
        that fails while storing the outputs raises out of the step
        instead of turning into a transmission failure and exit 2."""
        bus, actor = worker_rig(tmp_path)
        publish_task(bus, noop_task("a", outputs=("d",)))
        actor.step(0)
        assign(bus, "a", "w1")
        actor.step(1)

        def broken(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(Workspace, "put", broken)
        with pytest.raises(RuntimeError, match="disk on fire"):
            actor.step(2)
        assert "dlc" not in [k for k, _ in log_kinds(bus)]

    def test_result_is_the_only_offer_after_a_job(self, tmp_path):
        """b arrives while the worker runs a; finishing a sends the
        result and no volunteer, as the result refills the pool."""
        bus, actor = worker_rig(tmp_path)
        publish_task(bus, noop_task("a", outputs=("d",), duration=3.0))
        actor.step(0)
        assign(bus, "a", "w1")
        actor.step(1)
        publish_task(bus, noop_task("b"))
        for now in range(2, 6):
            actor.step(now)
        kinds = [k for k, _ in log_kinds(bus)]
        assert kinds.count("volunteer") == 1 and kinds.count("result") == 1
        assert actor.wake == float("inf")

    def test_offers_once_whatever_tasks_follow(self, tmp_path):
        """The first open task prompts the one offer; later tasks and a
        republished attempt prompt none, and the republished attempt,
        once assigned, runs."""
        bus, actor = worker_rig(tmp_path)
        publish_task(bus, noop_task("a", outputs=("d",), duration=2.0))
        publish_task(bus, noop_task("b"))
        actor.step(0)
        assign(bus, "a", "w1")
        actor.step(1)
        actor.step(2)
        actor.step(3)  # completes a
        publish_task(bus, noop_task("c", outputs=("e",), duration=2.0))
        actor.step(4)
        assign(bus, "c", "w1")
        actor.step(5)
        publish_task(bus, noop_task("b"), attempt=2, sender="monitor")
        actor.step(6)
        actor.step(7)  # completes c
        assign(bus, "b", "w1", attempt=2)
        actor.step(8)
        records = [json.loads(line) for line in bus.log.dumps().splitlines()]
        vols = [(r["payload"]["task_id"], r["payload"]["attempt"])
                for r in records if r["kind"] == "volunteer"]
        assert vols == [("a", 1)]
        assert records[-1]["kind"] == "started"
        assert records[-1]["payload"]["attempt"] == 2
        assert actor.running.task_id == "b"

    def test_offer_waits_for_latency_and_jitter(self, tmp_path):
        bus = InProcessBus()
        actor = WorkerActor(bus, profile("w1"), Workspace(tmp_path),
                            heartbeat_period=5, volunteer_latency=3,
                            volunteer_jitter=2, rng=random.Random(4))
        due = 3 + random.Random(4).randint(0, 2)
        publish_task(bus, noop_task("a"))
        publish_task(bus, noop_task("b"))
        actor.step(0)
        assert actor.wake == due
        for now in range(1, due + 1):
            bus.now = now
            actor.step(now)
        records = [json.loads(line) for line in bus.log.dumps().splitlines()]
        vols = [(r["ts"], r["payload"]["task_id"])
                for r in records if r["kind"] == "volunteer"]
        assert vols == [(due, "a")]

    def test_ignored_assignment_sends_a_fresh_offer(self, tmp_path):
        """An assignment the worker holds no spec for is ignored, and the
        worker volunteers again, naming it, so it stays in the pool."""
        bus, actor = worker_rig(tmp_path)
        publish_task(bus, noop_task("a"))
        actor.step(0)
        assign(bus, "ghost", "w1", attempt=2)
        actor.step(1)
        records = [json.loads(line) for line in bus.log.dumps().splitlines()]
        vols = [(r["payload"]["task_id"], r["payload"]["attempt"])
                for r in records if r["kind"] == "volunteer"]
        assert vols == [("a", 1), ("ghost", 2)]
        assert actor.running is None

    def test_assignment_to_other_worker_clears_interest(self, tmp_path):
        """An assignment addressed to another worker does not reach a
        worker that has offered itself, and nothing runs."""
        bus, actor = worker_rig(tmp_path)
        publish_task(bus, noop_task("a", duration=2.0))
        actor.step(0)
        assign(bus, "a", "other")
        assert actor.id not in bus.mail
        actor.step(1)
        actor.step(2)
        assert actor.running is None
        kinds = [k for k, _ in log_kinds(bus)]
        assert "started" not in kinds

    def test_speed_shortens_execution(self, tmp_path):
        bus, actor = worker_rig(tmp_path, prof=profile("w1", speed=2.0))
        publish_task(bus, noop_task("a", outputs=("d",), duration=4.0))
        actor.step(0)
        assign(bus, "a", "w1")
        for now in range(1, 4):
            bus.now = now
            actor.step(now)
        results = [json.loads(line)["ts"]
                   for line in bus.log.dumps().splitlines()
                   if json.loads(line)["kind"] == "result"]
        assert results == [3]  # ceil(4 / 2) ticks after start at 1


def per_tick_job(duration, speed, heartbeat, stall, arrival, assigned,
                 emergency, end):
    """A job's (kind, ts) events and run ticks, worked out tick by tick:
    the task waits in the queue from tick 0 and its assignment from tick
    `assigned`, and the worker is frozen before `arrival` and in its
    stall."""
    def frozen(t):
        return t < arrival or (
            stall is not None and stall[0] <= t < stall[0] + stall[1])
    started = next(t for t in itertools.count(assigned) if not frozen(t))
    events = [("started", started)] if started <= end and (
        emergency is None or started < emergency) else []
    remaining, executed = duration, 0
    for t in range(started + 1, end + 1):
        if frozen(t):
            continue
        if emergency is not None and t >= emergency:
            break
        remaining -= speed
        executed += 1
        if remaining <= 1e-9:
            events.append(("result", t))
            break
        if (t - started) % heartbeat == 0:
            events.append(("heartbeat", t))
    return events, executed


class TestNextEventWorker:
    @settings(max_examples=300, deadline=None)
    @given(duration=st.floats(min_value=0.1, max_value=40.0),
           speed=st.one_of(st.sampled_from([0.5, 0.7, 1.0, 2.0]),
                           st.floats(min_value=0.1, max_value=3.0)),
           heartbeat=st.integers(min_value=1, max_value=6),
           stall=st.none() | st.tuples(st.integers(0, 40),
                                       st.integers(1, 30)),
           arrival=st.integers(0, 40),
           assigned=st.integers(0, 40),
           emergency=st.none() | st.integers(1, 120),
           end=st.integers(0, 120))
    def test_waking_for_events_matches_stepping_every_tick(
            self, tmp_path_factory, duration, speed, heartbeat, stall,
            arrival, assigned, emergency, end):
        """Stepped only at the ticks the simulator visits (mail for the
        worker, its wake, the assignment, the end) and stopped at the
        tick before the Emergency, where the run ends without stepping
        it, the worker sends what the per-tick model sends, counts its
        run ticks alike, and never wakes without sending something.  The
        mail that reaches it while frozen, before its arrival or in its
        stall, keeps no tick busy: its wake is the tick it thaws."""
        bus = InProcessBus()
        actor = WorkerActor(bus, profile("w1", speed=speed),
                            Workspace(tmp_path_factory.mktemp("ws")),
                            heartbeat_period=heartbeat, stall=stall,
                            arrival=arrival)
        publish_task(bus, noop_task("a", duration=duration))
        now, idle_wakes = 0, 0
        while True:
            bus.now = now
            if now == emergency:
                actor.stop(now - 1)
                break
            if now == assigned:
                assign(bus, "a", "w1")
            mail = actor.id in bus.mail
            if mail or actor.wake <= now:
                sent = len(bus.log.lines)
                actor.step(now)
                idle_wakes += not mail and len(bus.log.lines) == sent
            if now == end:
                actor.stop(end)
                break
            later = [end, actor.wake] + [tick for tick in (emergency, assigned)
                                         if tick is not None and tick > now]
            now = max(now + 1, min(later))
        records = [json.loads(line) for line in bus.log.lines]
        events = [(r["kind"], r["ts"]) for r in records
                  if r["kind"] in ("started", "heartbeat", "result")]
        assert (events, actor.executed_ticks) == per_tick_job(
            duration, speed, heartbeat, stall, arrival, assigned, emergency,
            end)
        assert idle_wakes == 0

    def test_running_worker_wakes_for_heartbeats_and_its_result(
            self, tmp_path):
        """H=5, a 12-tick job from tick 1 and a stall over ticks 4-8:
        the beat due at 6 is skipped, the next comes on its phase at 11,
        and the result slips by the 5 stalled ticks to 18."""
        bus = InProcessBus()
        actor = WorkerActor(bus, profile("w1"), Workspace(tmp_path),
                            heartbeat_period=5, stall=(4, 5))
        publish_task(bus, noop_task("a", duration=12.0))
        actor.step(0)
        assign(bus, "a", "w1")
        bus.now = 1
        actor.step(1)
        wakes = []
        while actor.wake < float("inf"):
            wakes.append(actor.wake)
            bus.now = actor.wake
            actor.step(actor.wake)
        assert wakes == [11, 16, 18]
        assert actor.executed_ticks == 12

    def test_job_longer_than_the_horizon_never_falls_due(self, tmp_path):
        """Counting a job's ticks at assignment stops at the horizon: a
        1e8-tick job on a 50-tick horizon gets no result tick, and its
        heartbeats still fall due."""
        bus = InProcessBus()
        actor = WorkerActor(bus, profile("w1"), Workspace(tmp_path),
                            heartbeat_period=5, horizon=50)
        publish_task(bus, noop_task("a", duration=1e8))
        assign(bus, "a", "w1")
        actor.step(0)
        assert actor.running.done == float("inf")
        assert actor.wake == 5


# ----------------------------------------------------------------- monitor

def monitor_rig(heartbeat=5, k=3, **kw):
    bus = InProcessBus()
    mon = Monitor(bus, heartbeat_period=heartbeat, timeout_multiplier=k,
                  **kw)
    return bus, mon


def feed_assignment(bus, tid="a", wid="w1", attempt=1, ts=0, duration=1.0):
    bus.now = ts
    from pubflow.workflow_io import task_to_obj
    bus.publish("coordinator", Channel.TASKS_TO_DO, "task",
                {"task_id": tid, "attempt": attempt,
                 "spec": task_to_obj(noop_task(tid, duration=duration))})
    assign(bus, tid, wid, attempt)


class TestMonitor:
    def test_republishes_after_silence(self):
        bus, mon = monitor_rig(heartbeat=3, k=2)
        feed_assignment(bus, ts=0)
        mon.step(0)
        for now in range(1, 7):
            bus.now = now
            mon.step(now)
        assert [k for k, _ in log_kinds(bus)][2:] == []  # quiet until 6
        bus.now = 7
        mon.step(7)  # 7 - 0 > 6: stale
        kinds = [k for k, _ in log_kinds(bus)]
        assert kinds[2:] == ["task", "dlc"]
        republished = json.loads(bus.log.dumps().splitlines()[2])
        assert republished["payload"]["attempt"] == 2
        assert republished["channel"] == "TasksToDo"
        dlc = json.loads(bus.log.dumps().splitlines()[3])
        assert dlc["payload"] == {"task_id": "a",
                                  "event": "transmission_failure"}
        assert mon.timeouts == 1

    def test_heartbeat_defers_timeout(self):
        bus, mon = monitor_rig(heartbeat=3, k=2)
        feed_assignment(bus, ts=0)
        mon.step(0)
        bus.now = 5
        bus.publish("w1", Channel.TASKS_IN_PROGRESS, "heartbeat",
                    {"task_id": "a", "worker_id": "w1", "attempt": 1})
        for now in range(5, 12):
            bus.now = now
            mon.step(now)
        assert mon.timeouts == 0  # 11 - 5 = 6, not yet > 6
        bus.now = 12
        mon.step(12)
        assert mon.timeouts == 1

    def test_result_ends_watch(self):
        bus, mon = monitor_rig(heartbeat=3, k=2)
        feed_assignment(bus, ts=0)
        bus.publish("w1", Channel.TASKS_TO_CHECK, "result",
                    {"task_id": "a", "worker_id": "w1", "attempt": 1,
                     "exit_status": 0, "outputs": {}})
        mon.step(0)
        for now in range(1, 50):
            bus.now = now
            mon.step(now)
        assert mon.timeouts == 0

    def test_watch_covers_assigned_but_never_started(self):
        # no started, no heartbeat at all: still recovered
        bus, mon = monitor_rig(heartbeat=5, k=3)
        feed_assignment(bus, ts=2)
        mon.step(2)
        bus.now = 18
        mon.step(18)  # 18 - 2 > 15
        assert mon.timeouts == 1

    def test_stale_attempt_messages_do_not_refresh(self):
        bus, mon = monitor_rig(heartbeat=3, k=2)
        feed_assignment(bus, ts=0, attempt=2)
        mon.step(0)
        bus.now = 5
        # heartbeat from the PREVIOUS attempt must not refresh
        bus.publish("w0", Channel.TASKS_IN_PROGRESS, "heartbeat",
                    {"task_id": "a", "worker_id": "w0", "attempt": 1})
        mon.step(5)
        bus.now = 7
        mon.step(7)
        assert mon.timeouts == 1
        republished = [json.loads(line) for line in
                       bus.log.dumps().splitlines()
                       if json.loads(line)["kind"] == "task"][-1]
        assert republished["payload"]["attempt"] == 3

    def test_liveness_is_read_from_the_bus_not_mailed(self):
        """started and heartbeat leave no mail for the monitor; its wake
        reads their tick from the fold's in-flight row."""
        bus, mon = monitor_rig(heartbeat=5, k=3)
        feed_assignment(bus, ts=0)
        mon.step(0)
        assert mon.wake == 16
        bus.now = 4
        for kind in ("started", "heartbeat"):
            bus.publish("w1", Channel.TASKS_IN_PROGRESS, kind,
                        {"task_id": "a", "worker_id": "w1", "attempt": 1})
            assert "monitor" not in bus.mail
        assert mon.wake == 20

    def test_publishes_nothing_after_the_emergency(self):
        """An overdue attempt in flight is not republished once the run
        has an Emergency."""
        bus, mon = monitor_rig(heartbeat=3, k=2)
        feed_assignment(bus, ts=0)
        bus.now = 7
        assert mon.wake <= 7
        bus.publish("coordinator", Channel.EMERGENCY, "emergency",
                    {"reason": "complete", "batch_id": "b"})
        sent = len(bus.log.lines)
        mon.step(7)
        assert len(bus.log.lines) == sent and mon.timeouts == 0


def tables(bus):
    """The fold's idle and to-do tables."""
    return bus.log.tally.idle, bus.log.tally.todo


def spare_rig(heartbeat, k, pool=("w1", "w2"), waiting=False,
              duration=1.0, speed=1.0, at=0, **kw):
    """w1 runs a's attempt 1, of `duration`, from tick `at`; the workers
    in `pool` offered themselves at `speed`, and all but w1 idle.  With
    `waiting`, task b is released too and no worker has it."""
    bus, mon = monitor_rig(heartbeat=heartbeat, k=k, **kw)
    for wid in pool:
        volunteer(bus, wid, "a", speed=speed)
    feed_assignment(bus, ts=at, duration=duration)
    if waiting:
        publish_task(bus, noop_task("b"))
    return bus, mon


# longer than k*H in every rig below, so the result is due only after
# the heartbeat deadline has passed
LONG = 20.0


def first_timeout(bus, mon, until=100):
    """The first tick at which stepping the monitor republishes a task,
    stepping it at every tick; None if none does by `until`."""
    for now in range(bus.now, until):
        bus.now = now
        mon.step(now)
        if mon.timeouts:
            return now
    return None


class TestFailureDetector:
    """The monitor's deadline follows the fold's idle and to-do tables:
    while a worker idles and no task waits, one missed heartbeat or the
    tick after the attempt's result was due, whichever comes first; k*H
    ticks otherwise, and never later than k*H."""

    def test_spare_capacity_gives_one_missed_heartbeat(self):
        bus, mon = spare_rig(heartbeat=5, k=3, duration=LONG)
        assert tables(bus) == ({"w2"}, set())
        assert mon.deadline == 6
        assert mon.wake == 7
        assert first_timeout(bus, mon) == 7

    def test_a_waiting_task_gives_k_times_h(self):
        bus, mon = spare_rig(heartbeat=5, k=3, waiting=True)
        assert tables(bus) == ({"w2"}, {"b"})
        assert mon.deadline == 15
        assert mon.wake == 16
        assert first_timeout(bus, mon) == 16

    def test_an_empty_pool_gives_k_times_h(self):
        bus, mon = spare_rig(heartbeat=5, k=3, pool=("w1",))
        assert tables(bus) == (set(), set())
        assert mon.deadline == 15
        assert first_timeout(bus, mon) == 16

    def test_k_of_one_gives_k_times_h(self):
        """H + 1 would be later than k*H = H: the deadline stays H."""
        bus, mon = spare_rig(heartbeat=5, k=1, duration=LONG)
        assert tables(bus) == ({"w2"}, set())
        assert mon.deadline == 5
        assert first_timeout(bus, mon) == 6

    def test_the_deadline_moves_with_the_tables(self):
        """An attempt silent for 10 ticks is fine while b waits; once b
        is assigned to w2 at tick 10 and w3 offers itself, nothing waits
        and a worker idles, so the attempt is overdue in that tick."""
        bus, mon = spare_rig(heartbeat=5, k=3, waiting=True, duration=LONG)
        assert first_timeout(bus, mon, until=11) is None
        assign(bus, "b", "w2")
        assert tables(bus) == (set(), set())
        volunteer(bus, "w3", "b")
        assert mon.deadline == 6 and mon.wake == 7
        assert first_timeout(bus, mon) == 10

    @pytest.mark.parametrize("duration, speed, at, due", [
        (3.0, 1.0, 0, 3), (3.0, 2.0, 0, 2), (0.3, 0.1, 0, 3),
        (2.0, 0.5, 0, 4), (3.0, 1.0, 4, 7)])
    def test_spare_capacity_backs_up_the_tick_after_the_result_was_due(
            self, duration, speed, at, due):
        """The result is due at the assignment tick plus the job's ticks
        as WorkerActor counts them, float rounding included (0.3 at 0.1
        takes 3 ticks), at the speed the assignee advertised; the backup
        goes out the tick after."""
        bus, mon = spare_rig(heartbeat=5, k=3, duration=duration,
                             speed=speed, at=at)
        assert actors._result_tick(at, duration, speed, math.inf) == due
        assert mon.deadline == 6
        assert mon.wake == due + 1
        assert first_timeout(bus, mon) == due + 1

    def test_a_waiting_task_still_gives_k_times_h(self):
        bus, mon = spare_rig(heartbeat=5, k=3, waiting=True, duration=3.0)
        assert mon.wake == 16
        assert first_timeout(bus, mon) == 16

    def test_an_assignee_without_a_known_speed_misses_a_heartbeat(self):
        """w1 never volunteered, so its speed is unknown: the deadline is
        the one missed heartbeat."""
        bus, mon = spare_rig(heartbeat=5, k=3, pool=("w2",), duration=3.0)
        assert tables(bus) == ({"w2"}, set())
        assert "w1" not in bus.log.tally.speeds
        assert mon.wake == 7
        assert first_timeout(bus, mon) == 7

    def test_a_result_due_past_the_horizon_misses_a_heartbeat(self):
        """A job that runs past the horizon has no due result:
        _result_tick stops counting at the horizon and returns inf, at
        once even for a duration of 1e12 ticks."""
        assert actors._result_tick(0, 1e12, 1.0, 50) == math.inf
        bus, mon = spare_rig(heartbeat=5, k=3, duration=1e12, horizon=50)
        assert mon.wake == 7
        assert first_timeout(bus, mon) == 7

    def test_the_due_table_keeps_only_attempts_in_flight(self):
        """The monitor works out once per attempt the tick after its
        result is due, and drops it once the attempt has left the
        in-flight table."""
        bus, mon = spare_rig(heartbeat=5, k=3, duration=3.0)
        assert mon.wake == 4 and mon._dues == {"a": (1, 0, 4)}
        bus.now = 3
        result(bus, "w1", "a")
        feed_assignment(bus, tid="c", wid="w2", ts=3, duration=3.0)
        assert bus.log.tally.inflight == {"c": (1, 3, "w2", 3)}
        assert mon.wake == 7 and mon._dues == {"c": (1, 3, 7)}

    def test_a_heartbeat_does_not_work_out_the_due_tick_again(
            self, monkeypatch):
        """A heartbeat replaces the attempt's row in the fold, but the
        due tick belongs to the assignment: it is worked out once."""
        bus, mon = spare_rig(heartbeat=5, k=3, duration=LONG)
        calls = []
        result_due = actors.Monitor._result_due
        monkeypatch.setattr(actors.Monitor, "_result_due",
                            lambda self, *args: calls.append(args)
                            or result_due(self, *args))
        assert mon.wake == 7 and len(calls) == 1
        for now in range(1, 15):
            bus.now = now
            bus.publish("w1", Channel.TASKS_IN_PROGRESS, "heartbeat",
                        {"task_id": "a", "worker_id": "w1", "attempt": 1})
            assert mon.wake == now + 7
            mon.step(now)
        assert len(calls) == 1 and mon.timeouts == 0


# ----------------------------------------------------------------- checker

def checker_rig(tmp_path, validators=None):
    bus = InProcessBus()
    ws = Workspace(tmp_path)
    chk = Checker(bus, ws, validators)
    return bus, ws, chk


def push_result(bus, ws, task, attempt=1, exit_status=0, produce=True):
    """Publish the task, as the coordinator would, then a result for it."""
    publish_task(bus, task, attempt)
    outputs = {}
    if produce:
        for out in task.kernel.outputs:
            record = ws.put(out, b"\x00" * 8)
            outputs[out] = record.checksum
    bus.publish("w1", Channel.TASKS_TO_CHECK, "result",
                {"task_id": task.id, "worker_id": "w1",
                 "attempt": attempt, "exit_status": exit_status,
                 "outputs": outputs})


def payloads_of(bus, kind):
    """Payloads of the logged envelopes of one kind, in log order."""
    return [record["payload"] for record in map(
        json.loads, bus.log.dumps().splitlines()) if record["kind"] == kind]


def checker_tasks(bus):
    """Payloads of the tasks the checker re-published."""
    return [record["payload"] for record in map(
        json.loads, bus.log.dumps().splitlines())
        if record["kind"] == "task" and record["sender"] == "checker"]


class TestChecker:
    def test_ok_result_gets_ok_verdict(self, tmp_path):
        bus, ws, chk = checker_rig(tmp_path)
        task = noop_task("a", outputs=("d",))
        push_result(bus, ws, task)
        chk.step(0)
        verdicts = payloads_of(bus, "verdict")
        assert verdicts == [{"task_id": "a", "attempt": 1, "ok": True}]
        # the verified result, not the verdict, carries the outputs
        assert [r["outputs"] for r in payloads_of(bus, "result")] == \
            [{"d": ws.checksum("d")}]

    def test_nonzero_exit_fails_validation(self, tmp_path):
        bus, ws, chk = checker_rig(tmp_path)
        task = noop_task("a", outputs=("d",))
        push_result(bus, ws, task, exit_status=1)
        chk.step(0)
        kinds = [k for k, _ in log_kinds(bus)]
        assert "verdict" not in kinds
        assert checker_tasks(bus)[0]["attempt"] == 2

    def test_missing_output_fails_validation(self, tmp_path):
        bus, ws, chk = checker_rig(tmp_path)
        task = noop_task("a", outputs=("d",))
        push_result(bus, ws, task, produce=False)
        chk.step(0)
        assert chk.fails["a"] == 1

    def test_checksum_mismatch_fails_validation(self, tmp_path):
        bus, ws, chk = checker_rig(tmp_path)
        task = noop_task("a", outputs=("d",))
        publish_task(bus, task)
        ws.put("d", b"\x01" * 8)
        bus.publish("w1", Channel.TASKS_TO_CHECK, "result",
                    {"task_id": "a", "worker_id": "w1", "attempt": 1,
                     "exit_status": 0,
                     "outputs": {"d": "0" * 16}})  # wrong checksum
        chk.step(0)
        assert chk.fails["a"] == 1

    def test_result_for_an_unseen_task_is_discarded(self, tmp_path):
        bus, ws, chk = checker_rig(tmp_path)
        bus.publish("w1", Channel.TASKS_TO_CHECK, "result",
                    {"task_id": "a", "worker_id": "w1", "attempt": 1,
                     "exit_status": 0, "outputs": {}})
        chk.step(0)
        assert [k for k, _ in log_kinds(bus)] == ["result"]
        assert chk.fails == {} and bus.log.tally.verified == {}

    def test_validates_against_the_spec_seen_on_tasks_to_do(self,
                                                            tmp_path):
        """A result names no spec; the checker validates it against the
        latest spec published for its task."""
        bus, ws, chk = checker_rig(
            tmp_path, validators={"never": lambda s, r, w: False})
        publish_task(bus, noop_task("a", outputs=("d",)))
        push_result(bus, ws, noop_task("a", outputs=("d",),
                                       validator="never"), attempt=2)
        chk.step(0)
        assert chk.fails["a"] == 1

    def test_attempt_budget_exhaustion_gives_failed_verdict(self, tmp_path):
        bus, ws, chk = checker_rig(tmp_path)
        task = noop_task("a", outputs=("d",), max_attempts=2)
        push_result(bus, ws, task, attempt=1, exit_status=1)
        chk.step(0)
        push_result(bus, ws, task, attempt=2, exit_status=1)
        chk.step(1)
        verdicts = payloads_of(bus, "verdict")
        assert verdicts == [{"task_id": "a", "attempt": 2, "ok": False}]
        assert len(checker_tasks(bus)) == 1  # only the first failure re-queues

    def test_failure_of_a_replaced_attempt_is_not_republished(self,
                                                              tmp_path):
        """The monitor already published attempt 2 when attempt 1 fails:
        the checker publishes no second attempt 2, but the failure still
        counts against the budget."""
        bus, ws, chk = checker_rig(tmp_path)
        task = noop_task("a", max_attempts=3)
        publish_task(bus, task)
        bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                    {"task_id": "a", "attempt": 2})
        bus.publish("w1", Channel.TASKS_TO_CHECK, "result",
                    {"task_id": "a", "worker_id": "w1", "attempt": 1,
                     "exit_status": 1, "outputs": {}})
        chk.step(0)
        assert checker_tasks(bus) == [] and chk.fails["a"] == 1
        push_result(bus, ws, task, attempt=2, exit_status=1)
        chk.step(1)
        assert checker_tasks(bus) == [{"task_id": "a", "attempt": 3}]
        push_result(bus, ws, task, attempt=3, exit_status=1)
        chk.step(2)
        assert payloads_of(bus, "verdict") == [
            {"task_id": "a", "attempt": 3, "ok": False}]

    def test_duplicate_result_for_finished_task_discarded(self, tmp_path):
        bus, ws, chk = checker_rig(tmp_path)
        task = noop_task("a", outputs=("d",))
        publish_task(bus, task)
        push_result(bus, ws, task, attempt=2)
        chk.step(0)
        # the late first attempt's result; its task is not published
        # again, as a finished task never moves
        bus.publish("w1", Channel.TASKS_TO_CHECK, "result",
                    {"task_id": "a", "worker_id": "w1", "attempt": 1,
                     "exit_status": 0, "outputs": {}})
        chk.step(1)
        verdicts = payloads_of(bus, "verdict")
        assert len(verdicts) == 1
        assert chk.duplicates == 1

    @staticmethod
    def after_the_emergency(bus, *results):
        """Publish an Emergency, then a result per (task, exit status)."""
        bus.publish("coordinator", Channel.EMERGENCY, "emergency",
                    {"reason": "failed", "batch_id": "b"})
        for tid, status in results:
            bus.publish("w1", Channel.TASKS_TO_CHECK, "result",
                        {"task_id": tid, "worker_id": "w1", "attempt": 1,
                         "exit_status": status, "outputs": {}})

    def test_publishes_nothing_after_the_emergency(self, tmp_path):
        """Results for unverified tasks, one that passes and one that
        fails, get neither a verdict nor a republication once the run has
        an Emergency."""
        bus, ws, chk = checker_rig(tmp_path)
        publish_task(bus, noop_task("a"))
        publish_task(bus, noop_task("b"))
        self.after_the_emergency(bus, ("a", 0), ("b", 1))
        sent = len(bus.log.lines)
        chk.step(0)
        assert len(bus.log.lines) == sent and chk.fails == {}

    def test_counts_duplicates_after_the_emergency(self, tmp_path):
        bus, ws, chk = checker_rig(tmp_path)
        push_result(bus, ws, noop_task("a"))
        chk.step(0)
        self.after_the_emergency(bus, ("a", 0))
        sent = len(bus.log.lines)
        chk.step(1)
        assert len(bus.log.lines) == sent and chk.duplicates == 1

    def test_custom_validator_wins(self, tmp_path):
        bus, ws, chk = checker_rig(
            tmp_path, validators={"never": lambda s, r, w: False})
        task = Task(id="a", kernel=KernelSpec(
            name="noop", params={"values": {}}), validator="never")
        push_result(bus, ws, task)
        chk.step(0)
        assert chk.fails["a"] == 1

    def test_unknown_validator_fails_closed(self, tmp_path):
        bus, ws, chk = checker_rig(tmp_path)
        task = Task(id="a", kernel=KernelSpec(name="noop"),
                    validator="nonexistent")
        push_result(bus, ws, task)
        chk.step(0)
        assert chk.fails["a"] == 1

    def test_validator_exception_fails_closed(self, tmp_path):
        def boom(spec, result, ws):
            raise RuntimeError("bad day")
        bus, ws, chk = checker_rig(tmp_path, validators={"boom": boom})
        task = Task(id="a", kernel=KernelSpec(name="noop"),
                    validator="boom")
        push_result(bus, ws, task)
        chk.step(0)
        assert chk.fails["a"] == 1
