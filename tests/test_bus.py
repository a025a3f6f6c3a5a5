"""Message bus semantics: numbering, fan-out, no echo to the sender,
addressing, no replay, the published specs and in-flight rows, log
format, the envelope's contract."""

import copy
import dataclasses
import inspect
import itertools
import json
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pubflow.bus
from pubflow import (
    CHANNEL_CATALOG,
    Channel,
    Envelope,
    EventLog,
    InProcessBus,
    KernelSpec,
    LogTally,
    Scenario,
    SchemaError,
    StateError,
    Task,
    TaskState,
    UnknownActor,
    UnknownChannel,
    WorkerSpec,
    WorkflowBatch,
    parse_log,
    run_simulation,
)


def fresh():
    bus = InProcessBus()
    bus.register("a")
    bus.register("b")
    return bus


def task_payload(tid="t1", attempt=1):
    return {"task_id": tid, "attempt": attempt,
            "spec": {"id": tid, "kernel": {"name": "noop"}}}


class TestCatalog:
    def test_exactly_eight_channels(self):
        assert len(CHANNEL_CATALOG) == 8
        assert CHANNEL_CATALOG == (
            "WaitingTasks", "TasksToDo", "TasksInProgress", "TasksToCheck",
            "FinishedTasks", "VolunteerWorkers", "Emergency", "DLC")

    def test_unknown_channel_rejected(self):
        bus = fresh()
        with pytest.raises(UnknownChannel):
            bus.subscribe("a", "SideChannel")
        with pytest.raises(UnknownChannel):
            bus.publish("a", "SideChannel", "task", task_payload())


    def test_member_and_name_are_one_channel(self):
        """A Channel member and its name subscribe and publish alike, and
        the envelope carries the plain name, compactly logged."""
        bus = fresh()
        bus.subscribe("a", Channel.TASKS_TO_DO)
        bus.subscribe("a", "TasksToDo")
        bus.publish("b", Channel.TASKS_TO_DO, "task", task_payload())
        bus.publish("b", "TasksToDo", "task", task_payload())
        envelopes = bus.drain("a")
        assert [type(env.channel) for env in envelopes] == [str, str]
        first, second = bus.log.lines
        assert first.replace('"seq":1', '"seq":2') == second
        assert first == json.dumps(json.loads(first), separators=(",", ":"))


class TestEnvelope:
    def test_fields_in_log_order_by_position_and_name(self):
        assert tuple(inspect.signature(Envelope).parameters) == (
            "channel", "kind", "seq", "sender", "ts", "payload")
        env = Envelope("DLC", "dlc", 3, "monitor", 9, {"task_id": "t"})
        assert (env.channel, env.kind, env.seq, env.sender, env.ts,
                env.payload) == ("DLC", "dlc", 3, "monitor", 9,
                                 {"task_id": "t"})

    @pytest.mark.parametrize("name", ["channel", "kind", "seq", "sender",
                                      "ts", "payload"])
    def test_immutable(self, name):
        env = Envelope("DLC", "dlc", 3, "monitor", 9, {})
        with pytest.raises(AttributeError):
            setattr(env, name, None)

    @pytest.mark.parametrize("channel", list(Channel))
    def test_a_drained_envelope_names_its_channel_by_plain_str(self, channel):
        bus = fresh()
        bus.subscribe("a", channel)
        bus.publish("b", channel, "emergency",
                    {"reason": "complete", "batch_id": "b"})
        [env] = bus.drain("a")
        assert type(env.channel) is str
        assert env.channel == channel.value


class TestRegistration:
    def test_duplicate_actor_rejected(self):
        bus = fresh()
        with pytest.raises(SchemaError):
            bus.register("a")

    def test_unknown_subscriber_rejected(self):
        bus = fresh()
        with pytest.raises(UnknownActor):
            bus.subscribe("ghost", Channel.TASKS_TO_DO)

    def test_unknown_drain_rejected(self):
        bus = fresh()
        with pytest.raises(UnknownActor):
            bus.drain("ghost")


class TestDelivery:
    def test_seq_starts_at_one_and_is_global(self):
        bus = fresh()
        s1 = bus.publish("a", Channel.WAITING_TASKS, "task", task_payload())
        s2 = bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload())
        s3 = bus.publish("b", Channel.DLC, "dlc",
                         {"task_id": "t1", "event": "transmission_failure"})
        assert (s1, s2, s3) == (1, 2, 3)

    def test_fan_out_to_all_subscribers(self):
        bus = fresh()
        bus.subscribe("a", Channel.TASKS_TO_DO)
        bus.subscribe("b", Channel.TASKS_TO_DO)
        bus.publish("c", Channel.TASKS_TO_DO, "task", task_payload())
        got_a = bus.drain("a")
        got_b = bus.drain("b")
        assert len(got_a) == len(got_b) == 1
        assert got_a[0].seq == got_b[0].seq == 1

    def test_publisher_never_receives_its_own_envelope(self):
        bus = fresh()
        bus.subscribe("a", Channel.TASKS_TO_DO)
        bus.subscribe("b", Channel.TASKS_TO_DO)
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload())
        assert bus.mail == {"b"}
        bus.publish("a", Channel.TASKS_TO_DO, "assignment",
                    {"task_id": "t1", "worker_id": "a", "attempt": 1},
                    to=("a",))
        assert bus.mail == {"b"}
        assert bus.drain("a") == []

    def test_drain_clears_queue(self):
        bus = fresh()
        bus.subscribe("a", Channel.TASKS_TO_DO)
        bus.publish("b", Channel.TASKS_TO_DO, "task", task_payload())
        assert len(bus.drain("a")) == 1
        assert bus.drain("a") == []

    def test_no_replay_for_late_subscribers(self):
        bus = fresh()
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload())
        bus.subscribe("b", Channel.TASKS_TO_DO)
        assert bus.drain("b") == []

    def test_fifo_order_within_subscriber(self):
        bus = fresh()
        bus.subscribe("b", Channel.TASKS_TO_DO)
        bus.subscribe("b", Channel.WAITING_TASKS)
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload("t1"))
        bus.publish("a", Channel.WAITING_TASKS, "task", task_payload("t2"))
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload("t3"))
        seqs = [env.seq for env in bus.drain("b")]
        assert seqs == [1, 2, 3]

    def test_unsubscribed_channel_not_delivered(self):
        bus = fresh()
        bus.subscribe("a", Channel.TASKS_TO_DO)
        bus.publish("b", Channel.WAITING_TASKS, "task", task_payload())
        assert bus.drain("a") == []

    def test_mail_names_the_actors_with_undrained_envelopes(self):
        bus = fresh()
        bus.subscribe("a", Channel.TASKS_TO_DO)
        bus.subscribe("b", Channel.WAITING_TASKS)
        assert bus.mail == set()
        bus.publish("c", Channel.TASKS_TO_DO, "task", task_payload())
        assert bus.mail == {"a"}
        bus.drain("a")
        assert bus.mail == set()

    def test_an_actor_that_leaves_gets_nothing_more(self):
        bus = fresh()
        for actor in ("a", "b"):
            bus.subscribe(actor, Channel.TASKS_TO_DO)
        bus.publish("c", Channel.TASKS_TO_DO, "task", task_payload("t1"))
        bus.leave("a")
        assert bus.mail == {"b"}
        bus.publish("c", Channel.TASKS_TO_DO, "task", task_payload("t2"))
        assert bus.mail == {"b"}
        assert [env.seq for env in bus.drain("b")] == [1, 2]
        with pytest.raises(UnknownActor):
            bus.drain("a")

    def test_unsubscribe_stops_delivery(self):
        bus = fresh()
        bus.subscribe("a", Channel.TASKS_TO_DO)
        bus.publish("b", Channel.TASKS_TO_DO, "task", task_payload("t1"))
        bus.unsubscribe("a", Channel.TASKS_TO_DO)
        bus.publish("b", Channel.TASKS_TO_DO, "task", task_payload("t2"))
        assert [env.seq for env in bus.drain("a")] == [1]  # queued stays
        bus.publish("b", Channel.TASKS_TO_DO, "task", task_payload("t3"))
        assert bus.mail == set() and bus.drain("a") == []


ASSIGNMENT = {"task_id": "t1", "worker_id": "b", "attempt": 1}


class TestAddressedDelivery:
    def test_addressed_envelope_reaches_only_its_addressees(self):
        """Not the channel's subscribers it does not name, nor an actor
        on the bus that is neither."""
        bus = fresh()
        bus.register("c")
        bus.register("e")
        bus.subscribe("a", Channel.TASKS_TO_DO)
        bus.subscribe("c", Channel.TASKS_TO_DO)
        bus.publish("d", Channel.TASKS_TO_DO, "assignment", ASSIGNMENT,
                    to=("b", "c"))
        assert bus.mail == {"b", "c"}
        assert [env.payload for env in bus.drain("b")] == [ASSIGNMENT]
        assert [env.seq for env in bus.drain("c")] == [1]
        assert bus.drain("a") == [] and bus.drain("e") == []

    def test_a_subscribed_addressee_gets_it_once(self):
        bus = fresh()
        bus.subscribe("b", Channel.TASKS_TO_DO)
        bus.publish("a", Channel.TASKS_TO_DO, "assignment", ASSIGNMENT,
                    to=("b",))
        assert [env.seq for env in bus.drain("b")] == [1]

    def test_addressed_to_an_actor_that_left_is_logged_and_dropped(self):
        bus = fresh()
        bus.leave("b")
        assert bus.publish("a", Channel.TASKS_TO_DO, "assignment",
                           ASSIGNMENT, to=("b",)) == 1
        assert len(bus.log.lines) == 1
        assert bus.mail == set() and bus.drain("a") == []

    def test_a_bare_string_address_is_refused(self):
        """"w1" is no tuple of ids: iterated, it would name "w" and "1"."""
        bus = InProcessBus()
        for actor_id in ("w1", "w", "1"):
            bus.register(actor_id)
        with pytest.raises(SchemaError, match="tuple"):
            bus.publish("a", Channel.TASKS_TO_DO, "assignment", ASSIGNMENT,
                        to="w1")
        assert bus.log.lines == [] and bus.mail == set()
        bus.publish("a", Channel.TASKS_TO_DO, "assignment", ASSIGNMENT,
                    to=("w1",))
        assert bus.mail == {"w1"}

    def test_the_address_is_not_logged(self):
        addressed, plain = fresh(), fresh()
        addressed.publish("a", Channel.TASKS_TO_DO, "assignment",
                          ASSIGNMENT, to=("b",))
        plain.publish("a", Channel.TASKS_TO_DO, "assignment", ASSIGNMENT)
        assert addressed.log.dumps() == plain.log.dumps()


class TestSpecTable:
    """The fold keeps the (task, attempt) keys published on TasksToDo and
    one spec per task: a released task's spec never changes."""

    def test_keyed_by_task_and_attempt(self):
        bus = fresh()
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload("t1", 1))
        bus.publish("a", Channel.TASKS_TO_DO, "task",
                    {"task_id": "t1", "attempt": 2})  # as republished
        tally = bus.log.tally
        assert tally.spec("t1", 1) == tally.spec("t1", 2) \
            == task_payload("t1")["spec"]
        assert tally.spec("t1", 3) is None and tally.spec("t2", 1) is None
        assert tally.published == {("t1", 1), ("t1", 2)}

    def test_the_latest_publication_wins(self):
        bus = fresh()
        first, second = task_payload("t1", 2), task_payload("t1", 2)
        second["spec"] = dict(second["spec"], max_attempts=1)
        bus.publish("a", Channel.TASKS_TO_DO, "task", first)
        bus.publish("b", Channel.TASKS_TO_DO, "task", second)
        assert bus.log.tally.spec("t1", 2)["max_attempts"] == 1

    def test_only_tasks_to_do_fills_it(self):
        bus = fresh()
        bus.publish("a", Channel.WAITING_TASKS, "task", task_payload("t1"))
        tally = bus.log.tally
        assert tally.spec("t1", 1) is None and tally.published == set()


def flying(attempt=2):
    """A bus whose t1 attempt `attempt` was published and then assigned
    to w1 at tick 4."""
    bus = fresh()
    bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload("t1", attempt))
    bus.now = 4
    bus.publish("coordinator", Channel.TASKS_TO_DO, "assignment",
                {"task_id": "t1", "worker_id": "w1", "attempt": attempt},
                to=("w1",))
    return bus


def send(bus, sender, channel, kind, attempt, **fields):
    bus.publish(sender, channel, kind,
                {"task_id": "t1", "worker_id": sender, "attempt": attempt,
                 **fields})


class TestLastHeardTable:
    def test_keeps_the_latest_tick_per_task_and_attempt(self):
        """The row's last heard tick starts at its assignment, and only
        its own attempt's started or heartbeat moves it."""
        bus = flying()
        for now, kind, attempt in ((5, "started", 2), (8, "heartbeat", 2),
                                   (10, "heartbeat", 1), (11, "started", 3)):
            bus.now = now
            send(bus, "w1", Channel.TASKS_IN_PROGRESS, kind, attempt)
            if now == 5:
                assert bus.log.tally.inflight == {"t1": (2, 4, "w1", 5)}
        # the other attempts' records leave attempt 2's row alone
        assert bus.log.tally.inflight == {"t1": (2, 4, "w1", 8)}

    def test_a_closed_row_hears_nothing(self):
        bus = flying()
        send(bus, "w1", Channel.TASKS_TO_CHECK, "result", 2, exit_status=0,
             outputs={})
        bus.now = 9
        send(bus, "w1", Channel.TASKS_IN_PROGRESS, "heartbeat", 2)
        assert bus.log.tally.inflight == {}


class TestInFlightTable:
    def test_an_assignment_of_a_published_attempt_opens_it(self):
        assert flying().log.tally.inflight == {"t1": (2, 4, "w1", 4)}
        bus = fresh()  # no spec for t1: nothing to watch
        bus.publish("coordinator", Channel.TASKS_TO_DO, "assignment",
                    {"task_id": "t1", "worker_id": "w1", "attempt": 1},
                    to=("w1",))
        assert bus.log.tally.inflight == {}
        assert "assignment for t1 attempt 1 (seq 1) without a task " \
            "publication" in bus.log.tally.lifecycle

    def test_an_assignment_of_an_unpublished_attempt_opens_nothing(self):
        """Attempt 3 was never released: its assignment skips the ToDo
        state of attempt 3, so the audit flags that move, and no row
        watches it.  A bus refuses such an assignment, so this is a logged
        record, folded."""
        tally = LogTally()
        for seq, (kind, payload) in enumerate(
                [("task", task_payload("t1", 2)),
                 ("assignment", {"task_id": "t1", "worker_id": "w2",
                                 "attempt": 3})], start=1):
            tally.add({"seq": seq, "ts": 0, "channel": "TasksToDo",
                       "kind": kind, "sender": "coordinator",
                       "payload": payload})
        assert tally.inflight == {}
        assert tally.lifecycle[1:] == [
            "task t1 cannot move to IN_PROGRESS at attempt 3 (seq 2): "
            "attempt bump must reset to TODO, got IN_PROGRESS"]

    def test_the_attempts_result_closes_it(self):
        bus = flying()
        send(bus, "w1", Channel.TASKS_TO_CHECK, "result", 2, exit_status=0,
             outputs={})
        assert bus.log.tally.inflight == {}

    def test_an_ok_verdict_closes_it(self):
        bus = flying()
        bus.publish("checker", Channel.FINISHED_TASKS, "verdict",
                    {"task_id": "t1", "attempt": 1, "ok": False,
                     "outputs": {}})
        # a failed one does not
        assert bus.log.tally.inflight == {"t1": (2, 4, "w1", 4)}
        bus.publish("checker", Channel.FINISHED_TASKS, "verdict",
                    {"task_id": "t1", "attempt": 1, "ok": True,
                     "outputs": {}})
        assert bus.log.tally.inflight == {}

    def test_the_monitors_republication_closes_it(self):
        bus = flying()
        bus.publish("checker", Channel.TASKS_TO_DO, "task",
                    task_payload("t1", 3))
        # the checker's does not
        assert bus.log.tally.inflight == {"t1": (2, 4, "w1", 4)}
        bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                    task_payload("t1", 3))
        assert bus.log.tally.inflight == {}

    def test_a_stale_attempts_result_or_heartbeat_leaves_it_open(self):
        bus = flying()
        bus.now = 9
        send(bus, "w0", Channel.TASKS_IN_PROGRESS, "heartbeat", 1)
        send(bus, "w0", Channel.TASKS_TO_CHECK, "result", 1, exit_status=0,
             outputs={})
        assert bus.log.tally.inflight == {"t1": (2, 4, "w1", 4)}

    def test_a_later_assignment_replaces_it(self):
        """The checker's republication leaves attempt 2's row open, and
        attempt 3's assignment replaces it."""
        bus = flying()
        bus.now = 6
        bus.publish("checker", Channel.TASKS_TO_DO, "task",
                    {"task_id": "t1", "attempt": 3})
        bus.publish("coordinator", Channel.TASKS_TO_DO, "assignment",
                    {"task_id": "t1", "worker_id": "w2", "attempt": 3},
                    to=("w2",))
        assert bus.log.tally.inflight == {"t1": (3, 6, "w2", 6)}


# Moves check_transition refuses: t1's moves before (see `moved`), the
# record and a word of the refusal.
ILLEGAL_MOVES = [
    ([("wait", 1), ("todo", 1), ("assign", 1), ("verify", 1)],
     "TasksToDo", "task", {"task_id": "t1", "attempt": 2},
     "already finished"),
    ([("wait", 1), ("todo", 1), ("verify", 1)],
     "TasksToDo", "assignment",
     {"task_id": "t1", "worker_id": "w1", "attempt": 1},
     "already finished"),
    ([("wait", 1), ("todo", 1), ("assign", 1)],
     "TasksToDo", "task", {"task_id": "t1", "attempt": 1},
     "backward"),
    ([("wait", 1), ("todo", 1), ("verify", 1)],
     "FinishedTasks", "verdict",
     {"task_id": "t1", "attempt": 1, "ok": True},
     "second ok verdict"),
    ([("wait", 1), ("todo", 2)],
     "TasksToDo", "task", {"task_id": "t1", "attempt": 1},
     "cannot decrease"),
    ([("wait", 1), ("todo", 1)],
     "WaitingTasks", "task", task_payload("t1"), "backward"),
]


def moved(*moves):
    """A bus on which t1 made each move, a kind with its attempt: "wait"
    (the Broker's announcement), "todo" (a release or a republication),
    "assign" (to w1, after its volunteer) or "verify" (an ok
    verdict)."""
    bus = fresh()
    for kind, attempt in moves:
        if kind == "wait":
            bus.publish("broker", Channel.WAITING_TASKS, "task",
                        task_payload("t1", attempt))
        elif kind == "todo":
            bus.publish("coordinator", Channel.TASKS_TO_DO, "task",
                        {"task_id": "t1", "attempt": attempt})
        elif kind == "assign":
            bus.publish("w1", Channel.VOLUNTEER_WORKERS, "volunteer",
                        {"task_id": "t1", "worker_id": "w1", "attempt": 1,
                         "profile": {}})
            bus.publish("coordinator", Channel.TASKS_TO_DO, "assignment",
                        {"task_id": "t1", "worker_id": "w1",
                         "attempt": attempt}, to=("w1",))
        else:
            bus.publish("checker", Channel.FINISHED_TASKS, "verdict",
                        {"task_id": "t1", "attempt": attempt, "ok": True})
    return bus


class TestTaskTable:
    def test_each_move_sets_the_tasks_row(self):
        """The row follows WaitingTasks, TasksToDo, the assignment and a
        republication; an ok verdict finishes it at the row's attempt, and
        the to-do table holds the task exactly while its row is ToDo."""
        steps = [(("wait", 1), (TaskState.WAITING, 1)),
                 (("todo", 1), (TaskState.TODO, 1)),
                 (("assign", 1), (TaskState.IN_PROGRESS, 1)),
                 (("todo", 2), (TaskState.TODO, 2)),
                 (("verify", 1), (TaskState.FINISHED, 2))]
        for i, (_, row) in enumerate(steps, start=1):
            tally = moved(*[move for move, _ in steps[:i]]).log.tally
            assert tally.rows == {"t1": row}
            assert tally.todo == ({"t1"} if row[0] is TaskState.TODO
                                  else set())
            assert tally.lifecycle == []

    def test_a_spliced_task_goes_to_todo_without_a_waiting_row(self):
        bus = fresh()
        bus.publish("coordinator", Channel.TASKS_TO_DO, "task",
                    task_payload("p/x"))
        assert bus.log.tally.rows == {"p/x": (TaskState.TODO, 1)}
        assert bus.log.tally.todo == {"p/x"}
        assert bus.log.tally.lifecycle == []

    @pytest.mark.parametrize("moves, channel, kind, payload, why",
                             ILLEGAL_MOVES)
    def test_an_illegal_move_is_refused_and_changes_nothing(
            self, moves, channel, kind, payload, why):
        """check_transition refuses the move, so the publish raises
        StateError, takes no seq, logs no line, leaves the fold as it was
        and delivers nothing; the next publish takes the next seq."""
        bus = moved(*moves)
        bus.subscribe("b", channel)
        seq, lines = bus._seq, list(bus.log.lines)
        tally = copy.deepcopy(bus.log.tally)
        with pytest.raises(StateError, match=why):
            bus.publish("a", channel, kind, payload, to=("b",)
                        if kind == "assignment" else None)
        assert bus._seq == seq and bus.log.lines == lines
        assert bus.log.tally == tally and "b" not in bus.mail
        assert bus.publish("a", Channel.DLC, "dlc",
                           {"task_id": "t1", "event": "e"}) == seq + 1

    @pytest.mark.parametrize("moves, channel, kind, payload, why",
                             ILLEGAL_MOVES)
    def test_an_illegal_logged_move_is_one_violation_and_changes_no_table(
            self, moves, channel, kind, payload, why):
        """Folded from a log file, the same record is one lifecycle
        violation and counts as a message, but changes no other table:
        the report counts no re-execution or timeout the audit refuses."""
        tally = copy.deepcopy(moved(*moves).log.tally)
        before = copy.deepcopy(tally)
        seq = sum(before.pairs.values()) + 1
        tally.add({"seq": seq, "ts": 9, "channel": channel, "kind": kind,
                   "sender": "monitor", "payload": payload})
        assert len(tally.lifecycle) == len(before.lifecycle) + 1
        assert why in tally.lifecycle[-1] and f"(seq {seq})" \
            in tally.lifecycle[-1]
        assert tally.messages_total == before.messages_total + 1
        assert tally.makespan == 9
        assert dataclasses.replace(
            tally, pairs=before.pairs, makespan=before.makespan,
            lifecycle=before.lifecycle) == before


class TestPayloadSchemas:
    def test_unknown_kind_rejected(self):
        bus = fresh()
        with pytest.raises(SchemaError):
            bus.publish("a", Channel.TASKS_TO_DO, "gossip", {"x": 1})

    def test_missing_required_field_rejected(self):
        bus = fresh()
        with pytest.raises(SchemaError) as err:
            bus.publish("a", Channel.TASKS_TO_DO, "task",
                        {"task_id": "t1"})  # no attempt, no spec
        assert "attempt" in str(err.value)

    def test_every_kind_has_a_field_contract(self):
        bus = fresh()
        cases = {
            "task": (Channel.TASKS_TO_DO, task_payload()),
            "assignment": (Channel.TASKS_TO_DO,
                           {"task_id": "t", "worker_id": "w",
                            "attempt": 1}),
            "volunteer": (Channel.VOLUNTEER_WORKERS,
                          {"task_id": "t", "worker_id": "w", "attempt": 1,
                           "profile": {}}),
            "started": (Channel.TASKS_IN_PROGRESS,
                        {"task_id": "t", "worker_id": "w", "attempt": 1}),
            "heartbeat": (Channel.TASKS_IN_PROGRESS,
                          {"task_id": "t", "worker_id": "w",
                           "attempt": 1}),
            "result": (Channel.TASKS_TO_CHECK,
                       {"task_id": "t", "worker_id": "w", "attempt": 1,
                        "exit_status": 0, "outputs": {}}),
            "verdict": (Channel.FINISHED_TASKS,
                        {"task_id": "t", "attempt": 1, "ok": True,
                         "outputs": {}}),
            "emergency": (Channel.EMERGENCY,
                          {"reason": "complete", "batch_id": "b"}),
            "dlc": (Channel.DLC,
                    {"task_id": "t", "event": "transmission_failure"}),
        }
        for kind, (channel, payload) in cases.items():
            bus.publish("a", channel, kind, payload)
        assert bus.log.tally.messages_total == len(cases)


class TestEventLog:
    def test_jsonl_key_order_and_separators(self):
        bus = fresh()
        bus.now = 4
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload())
        line = bus.log.dumps().splitlines()[0]
        assert line.startswith('{"seq":1,"ts":4,"channel":"TasksToDo",'
                               '"kind":"task","sender":"a",')
        assert ", " not in line and ": " not in line
        assert json.loads(line)["payload"]["task_id"] == "t1"

    def test_log_records_every_publish(self):
        bus = fresh()
        for i in range(5):
            bus.publish("a", Channel.WAITING_TASKS, "task",
                        task_payload(f"t{i}"))
        assert bus.log.tally.messages_total == 5
        assert len(bus.log.dumps().splitlines()) == 5

    def test_messages_by_channel(self):
        bus = fresh()
        bus.publish("a", Channel.WAITING_TASKS, "task", task_payload())
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload())
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload())
        counts = bus.messages_by_channel()
        assert counts["WaitingTasks"] == 1
        assert counts["TasksToDo"] == 2

    def test_tally_folds_each_record_as_it_is_written(self):
        bus = fresh()
        bus.publish("a", Channel.WAITING_TASKS, "task", task_payload())
        bus.now = 7
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload(attempt=2))
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload(attempt=3))
        bus.publish("a", Channel.EMERGENCY, "emergency",
                    {"reason": "failed", "batch_id": "b"})
        tally = bus.log.tally
        assert tally.by_channel == {"WaitingTasks": 1, "TasksToDo": 2,
                                    "Emergency": 1}
        assert tally.by_kind == {"task": 3, "emergency": 1}
        assert tally.messages_total == len(bus.log.lines) == 4
        assert tally.attempts == {"t1": 3}  # the highest attempt counts
        assert tally.re_executions == 2
        assert tally.makespan == 7
        assert tally.reason == "failed" and not tally.completed

    def test_tally_keeps_the_highest_attempt_of_a_logged_log(self):
        """Folded from a log file, attempt 3 then attempt 2: the decrease
        is one violation, counts as a message and leaves attempt 3, so
        the report counts two re-executions, not one."""
        tally = LogTally()
        for seq, (channel, attempt) in enumerate(
                [("WaitingTasks", 1), ("TasksToDo", 3), ("TasksToDo", 2)],
                start=1):
            tally.add({"seq": seq, "ts": seq, "channel": channel,
                       "kind": "task", "sender": "coordinator",
                       "payload": task_payload(attempt=attempt)})
        assert tally.attempts == {"t1": 3}
        assert tally.re_executions == 2
        assert tally.rows == {"t1": (TaskState.TODO, 3)}
        assert tally.lifecycle == [
            "task t1 cannot move to TODO at attempt 2 (seq 3): "
            "attempt cannot decrease: 3 -> 2"]
        assert tally.by_kind == {"task": 3} and tally.makespan == 3

    def test_tally_counts_the_results_the_checker_discards(self):
        """As Checker.duplicates: every result of a task after the one it
        verified (even one logged before that verdict), up to the
        Emergency.  Folded from records: a bus refuses the second ok
        verdict below."""
        tally, seqs = LogTally(), itertools.count(1)

        def add(sender, channel, kind, payload):
            tally.add({"seq": next(seqs), "ts": 0, "channel": channel,
                       "kind": kind, "sender": sender, "payload": payload})

        def result(tid, attempt, wid="w1"):
            add(wid, "TasksToCheck", "result",
                {"task_id": tid, "worker_id": wid, "attempt": attempt,
                 "exit_status": 0, "outputs": {}})

        def verdict(tid, attempt, ok=True):
            add("checker", "FinishedTasks", "verdict",
                {"task_id": tid, "attempt": attempt, "ok": ok})

        result("a", 1)            # failed its check
        result("a", 2)            # verified below
        result("a", 1, "w2")      # read after the verified one: discarded
        verdict("a", 1, ok=False)
        verdict("a", 2)
        result("a", 3)            # discarded
        result("b", 1)            # never verified
        verdict("a", 3)           # a second ok verdict changes nothing
        add("coordinator", "Emergency", "emergency",
            {"reason": "complete", "batch_id": "b"})
        result("a", 4)            # the checker has stopped
        assert tally.duplicates == 2

    def test_write_trailing_newline(self, tmp_path):
        bus = fresh()
        bus.publish("a", Channel.WAITING_TASKS, "task", task_payload())
        path = tmp_path / "events.jsonl"
        bus.log.write(path)
        assert path.read_text("utf-8").endswith("\n")


@given(st.lists(st.sampled_from(CHANNEL_CATALOG), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_seq_always_dense_and_ordered(channels):
    bus = InProcessBus()
    bus.register("w")
    for channel in CHANNEL_CATALOG:
        bus.subscribe("w", channel)
    for channel in channels:
        bus.publish("x", channel, "emergency",
                    {"reason": "complete", "batch_id": "b"})
    seqs = [env.seq for env in bus.drain("w")]
    assert seqs == list(range(1, len(channels) + 1))
    records = [json.loads(line) for line in bus.log.dumps().splitlines()]
    assert [r["seq"] for r in records] == seqs


# Strings that stress the escaper: any code point, lone surrogates
# included, plus quotes, backslashes and control characters.
_chars = st.one_of(st.characters(exclude_categories=()),
                   st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\ud800\udfff'))
_text = st.text(_chars, max_size=12)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _text
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12)


class Level(IntEnum):
    LOW = 1
    HIGH = 2


# A payload's top-level values, which EventLog writes by hand when their
# type is exactly str, int or bool or they are None: subclasses, big ints
# and a negative zero beside any JSON value.
_top = (_json | st.sampled_from(list(Channel)) | st.sampled_from(list(Level))
        | st.integers(-10 ** 40, 10 ** 40) | st.just(-0.0))
# Keys json coerces to strings; a payload with one is encoded whole.
_key = (_text | st.integers() | st.booleans() | st.none()
        | st.floats(allow_nan=True, allow_infinity=True))
_payload = (st.dictionaries(_text, _top, max_size=5)
            | st.dictionaries(_key, _top, max_size=5))


@given(channel=_text, kind=_text, sender=_text, seq=st.integers(),
       ts=st.integers(), payload=_payload)
@settings(max_examples=300, deadline=None)
def test_each_line_is_what_json_dumps_writes(channel, kind, sender, seq, ts,
                                             payload):
    """EventLog frames the header and the payload's top level by hand;
    the line must be byte for byte the compact json.dumps of the record."""
    log = EventLog()
    log.append(Envelope(channel, kind, seq, sender, ts, payload))
    record = {"seq": seq, "ts": ts, "channel": channel, "kind": kind,
              "sender": sender, "payload": payload}
    assert log.lines == [json.dumps(record, separators=(",", ":"))]


def dlc(**extra):
    return {"task_id": "t", "event": "e", **extra}


def cyclic(wrap):
    payload = dlc()
    payload["x"] = wrap(payload)
    return payload


@pytest.mark.parametrize("field,value", [
    ("channel", 5), ("kind", None), ("sender", b"w1"), ("sender", 1.5),
    ("payload", dlc(x=object())), ("payload", dlc(x={1, 2})),
    ("payload", dlc(x=[1, {"y": object()}])),
    ("payload", dlc(x={"y": {"z": {1}}}, after="a")),
    ("payload", {"task_id": "t", 1: object(), "event": "e"}),
    ("payload", cyclic(lambda payload: payload)),
    ("payload", cyclic(lambda payload: [1, {"y": payload}]))])
def test_an_envelope_that_does_not_encode_changes_nothing(field, value):
    """A header field that is not a str or int raises TypeError; a payload
    that does not encode raises the exception json.dumps of it raises,
    with its message.  Either leaves the lines and the fold as they were,
    and a publish of the payload takes no seq."""
    bus = fresh()
    bus.publish("a", Channel.WAITING_TASKS, "task", task_payload())
    log = bus.log
    lines, tally = list(log.lines), copy.deepcopy(log.tally)
    env = Envelope(**{"channel": "DLC", "kind": "dlc", "seq": 2,
                      "sender": "monitor", "ts": 0, "payload": dlc(),
                      field: value})
    with pytest.raises((TypeError, ValueError)) as raised:
        log.append(env)
    if field == "payload":
        with pytest.raises((TypeError, ValueError)) as dumped:
            json.dumps(value, separators=(",", ":"))
        assert raised.type is dumped.type
        assert str(raised.value) == str(dumped.value)
        with pytest.raises(dumped.type):
            bus.publish("monitor", Channel.DLC, "dlc", value)
    else:
        assert raised.type is TypeError
    assert log.lines == lines and log.tally == tally
    assert bus.publish("a", Channel.DLC, "dlc", dlc()) == 2


def test_a_flat_payload_makes_no_encoder_call(monkeypatch):
    """Only a payload's nested values go through the JSON encoder: a
    heartbeat, started, assignment or verdict makes no call, a volunteer
    one (its profile), a result one (its outputs) and a task record one
    when it carries its spec."""
    calls = []
    encode = pubflow.bus._ENCODE
    append = EventLog.append

    def counted(value):
        calls.append(value)
        return encode(value)

    def logged(self, env):
        before = len(calls)
        append(self, env)
        made.append((env.kind, "spec" in env.payload, len(calls) - before))

    made = []
    monkeypatch.setattr(pubflow.bus, "_ENCODE", counted)
    monkeypatch.setattr(EventLog, "append", logged)
    kernel = KernelSpec(name="noop", params={"values": {"d": [1.0]}},
                        outputs=("d",), declared_duration=6.0)
    batch = WorkflowBatch(batch_id="b", tasks={
        "a": Task(id="a", kernel=kernel),
        "b": Task(id="b", kernel=kernel, deps=frozenset({"a"}))})
    scenario = Scenario(seed=1, horizon=100, heartbeat_period=2,
                        workers=(WorkerSpec(worker_id="w1"),
                                 WorkerSpec(worker_id="w2")))
    report, _log = run_simulation(batch, scenario)
    assert report.completed
    want = {"heartbeat": 0, "started": 0, "assignment": 0, "verdict": 0,
            "volunteer": 1, "result": 1, "emergency": 0}
    assert {kind for kind, _, _ in made} == {"task", *want}
    for kind, spec, n in made:
        assert n == (spec if kind == "task" else want[kind]), kind


@pytest.mark.parametrize("sender,payload", [
    (7, {"reason": "complete", "batch_id": "b"}),
    ("a", {"reason": "complete", "batch_id": object()}),
    ("a", {"reason": "complete", "batch_id": "b", "extra": {1}})])
def test_a_refused_publish_takes_no_seq(sender, payload):
    """A publish that raises while logging keeps no line, no fold record,
    no delivery and no sequence number: the next envelope is logged
    with the number the refused one would have had."""
    bus = fresh()
    bus.subscribe("b", Channel.EMERGENCY)
    bus.publish("a", Channel.WAITING_TASKS, "task", task_payload())
    lines, tally = list(bus.log.lines), copy.deepcopy(bus.log.tally)
    with pytest.raises(TypeError):
        bus.publish(sender, Channel.EMERGENCY, "emergency", payload)
    assert bus.log.lines == lines and bus.log.tally == tally
    assert "b" not in bus.mail
    assert bus.publish("a", Channel.EMERGENCY, "emergency",
                       {"reason": "complete", "batch_id": "b"}) == 2
    assert [r["seq"] for r in parse_log(bus.log.dumps())] == [1, 2]
