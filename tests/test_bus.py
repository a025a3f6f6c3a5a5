"""Message bus semantics: numbering, fan-out, no echo to the sender,
addressing, no replay, the spec, last-heard and in-flight tables, log
format."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubflow import (
    CHANNEL_CATALOG,
    Channel,
    InProcessBus,
    SchemaError,
    UnknownActor,
    UnknownChannel,
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
    def test_keyed_by_task_and_attempt(self):
        bus = fresh()
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload("t1", 1))
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload("t1", 2))
        assert bus.spec("t1", 1) == bus.spec("t1", 2) \
            == task_payload("t1")["spec"]
        assert bus.spec("t1", 3) is None and bus.spec("t2", 1) is None
        assert bus.specs == {"t1": {1: task_payload("t1")["spec"],
                                    2: task_payload("t1")["spec"]}}

    def test_the_latest_publication_wins(self):
        bus = fresh()
        first, second = task_payload("t1", 2), task_payload("t1", 2)
        second["spec"] = dict(second["spec"], max_attempts=1)
        bus.publish("a", Channel.TASKS_TO_DO, "task", first)
        bus.publish("b", Channel.TASKS_TO_DO, "task", second)
        assert bus.spec("t1", 2)["max_attempts"] == 1

    def test_only_tasks_to_do_fills_it(self):
        bus = fresh()
        bus.publish("a", Channel.WAITING_TASKS, "task", task_payload("t1"))
        assert bus.spec("t1", 1) is None and bus.specs == {}


class TestLastHeardTable:
    def test_keeps_the_latest_tick_per_task_and_attempt(self):
        bus = fresh()
        for now, kind, attempt in ((3, "started", 2), (8, "heartbeat", 2),
                                   (10, "heartbeat", 1)):
            bus.now = now
            bus.publish("w1", Channel.TASKS_IN_PROGRESS, kind,
                        {"task_id": "t1", "worker_id": "w1",
                         "attempt": attempt})
        # the older attempt's heartbeat leaves attempt 2's entry alone
        assert bus.heard == {("t1", 2): 8, ("t1", 1): 10}


class TestInFlightTable:
    def flying(self, attempt=2):
        """A bus whose t1 attempt `attempt` was assigned at tick 4."""
        bus = fresh()
        bus.publish("a", Channel.TASKS_TO_DO, "task",
                    task_payload("t1", attempt))
        bus.now = 4
        bus.publish("coordinator", Channel.TASKS_TO_DO, "assignment",
                    {"task_id": "t1", "worker_id": "w1",
                     "attempt": attempt}, to=("w1",))
        return bus

    def send(self, bus, sender, channel, kind, attempt, **fields):
        bus.publish(sender, channel, kind,
                    {"task_id": "t1", "worker_id": sender,
                     "attempt": attempt, **fields})

    def test_an_assignment_of_a_published_task_opens_it(self):
        assert self.flying().inflight == {"t1": (2, 4)}
        bus = fresh()  # no spec for t1: nothing to watch
        bus.publish("coordinator", Channel.TASKS_TO_DO, "assignment",
                    {"task_id": "t1", "worker_id": "w1", "attempt": 1},
                    to=("w1",))
        assert bus.inflight == {}

    def test_the_attempts_result_closes_it(self):
        bus = self.flying()
        self.send(bus, "w1", Channel.TASKS_TO_CHECK, "result", 2,
                  exit_status=0, outputs={})
        assert bus.inflight == {}

    def test_an_ok_verdict_closes_it(self):
        bus = self.flying()
        bus.publish("checker", Channel.FINISHED_TASKS, "verdict",
                    {"task_id": "t1", "attempt": 1, "ok": False,
                     "outputs": {}})
        assert bus.inflight == {"t1": (2, 4)}  # a failed one does not
        bus.publish("checker", Channel.FINISHED_TASKS, "verdict",
                    {"task_id": "t1", "attempt": 1, "ok": True,
                     "outputs": {}})
        assert bus.inflight == {}

    def test_the_monitors_republication_closes_it(self):
        bus = self.flying()
        bus.publish("checker", Channel.TASKS_TO_DO, "task",
                    task_payload("t1", 3))
        assert bus.inflight == {"t1": (2, 4)}  # the checker's does not
        bus.publish("monitor", Channel.TASKS_TO_DO, "task",
                    task_payload("t1", 3))
        assert bus.inflight == {}

    def test_a_stale_attempts_result_or_heartbeat_leaves_it_open(self):
        bus = self.flying()
        bus.now = 9
        self.send(bus, "w0", Channel.TASKS_IN_PROGRESS, "heartbeat", 1)
        self.send(bus, "w0", Channel.TASKS_TO_CHECK, "result", 1,
                  exit_status=0, outputs={})
        assert bus.inflight == {"t1": (2, 4)}

    def test_a_later_assignment_replaces_it(self):
        bus = self.flying()
        bus.now = 6
        bus.publish("coordinator", Channel.TASKS_TO_DO, "assignment",
                    {"task_id": "t1", "worker_id": "w2", "attempt": 3},
                    to=("w2",))
        assert bus.inflight == {"t1": (3, 6)}


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
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload(attempt=3))
        bus.publish("a", Channel.TASKS_TO_DO, "task", task_payload(attempt=2))
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

    def test_tally_counts_the_results_the_checker_discards(self):
        """As Checker.duplicates: every result of a task after the one it
        verified (even one logged before that verdict), up to the
        Emergency."""
        bus = fresh()

        def result(tid, attempt, wid="w1"):
            bus.publish(wid, Channel.TASKS_TO_CHECK, "result",
                        {"task_id": tid, "worker_id": wid,
                         "attempt": attempt, "exit_status": 0,
                         "outputs": {}})

        def verdict(tid, attempt, ok=True):
            bus.publish("checker", Channel.FINISHED_TASKS, "verdict",
                        {"task_id": tid, "attempt": attempt, "ok": ok,
                         "outputs": {}})

        result("a", 1)            # failed its check
        result("a", 2)            # verified below
        result("a", 1, "w2")      # read after the verified one: discarded
        verdict("a", 1, ok=False)
        verdict("a", 2)
        result("a", 3)            # discarded
        result("b", 1)            # never verified
        verdict("a", 3)           # a second ok verdict changes nothing
        bus.publish("coordinator", Channel.EMERGENCY, "emergency",
                    {"reason": "complete", "batch_id": "b"})
        result("a", 4)            # the checker has stopped
        assert bus.log.tally.duplicates == 2

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
