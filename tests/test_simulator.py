"""Whole-protocol runs under the deterministic tick simulator."""

import collections
import dataclasses
import hashlib
import json
import math
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubflow import (
    DatasetStage,
    KernelSpec,
    LogTally,
    MalformedLog,
    Report,
    SchemaError,
    SimParams,
    Scenario,
    SlaPolicy,
    Task,
    TaskState,
    WorkerSpec,
    WorkflowBatch,
    Workspace,
    checksum_hex,
    dump,
    generate_adapt_workflow,
    load,
    lifecycle_audit,
    parse_log,
    precedence_audit,
    replay_check,
    run_simulation,
    scenario_from_dict,
    serialize_workflow,
)
from pubflow import actors, cli, simulator
from pubflow import bus as bus_module
from pubflow.bus import InProcessBus
from pubflow.simulator import load_scenario


def noop_task(tid, deps=(), outputs=None, duration=1.0, **kw):
    outs = tuple(outputs if outputs is not None else (f"d_{tid}",))
    values = {o: [float(len(tid))] for o in outs}
    return Task(id=tid,
                kernel=KernelSpec(name="noop", params={"values": values},
                                  outputs=outs, declared_duration=duration),
                deps=frozenset(deps), **kw)


def batch_of(*tasks, batch_id="b"):
    return WorkflowBatch(batch_id=batch_id,
                         tasks={t.id: t for t in tasks})


def records_of(log):
    return [json.loads(line) for line in log.dumps().splitlines()]


def verified_results(records):
    """Each verified task's result payload, by task id: the result of the
    attempt its ok verdict names, as a verdict carries no outputs."""
    ok = {r["payload"]["task_id"]: r["payload"]["attempt"] for r in records
          if r["kind"] == "verdict" and r["payload"]["ok"]}
    return {p["task_id"]: p for p in (r["payload"] for r in records
                                      if r["kind"] == "result")
            if ok.get(p["task_id"]) == p["attempt"]}


def kinds_of(log):
    return [r["kind"] for r in records_of(log)]


def keep(monkeypatch, *classes):
    """A dict mapping each of `classes` to the instance a run made last."""
    made = {}

    def wrap(cls):
        init = cls.__init__

        def kept(self, *args, **kwargs):
            made[cls] = self
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", kept)

    for cls in classes:
        wrap(cls)
    return made


def step_every_tick(run):
    """The reference loop: it steps every service and every live worker
    (frozen until it arrives) in every pass of every tick, runs a tick's
    passes until no service has mail, and always advances one tick.
    Returns the last tick and the (actor, tick) of each step that
    published although the actor had no mail and its wake had not come.
    Those are the steps that run_simulation skips, so the list must be
    empty."""
    bus, tally, horizon = run.bus, run.bus.log.tally, run.scenario.horizon
    woken = []

    def step(actor, now):
        idle = actor.id not in bus.mail and actor.wake > now
        sent = len(bus.log.lines)
        actor.step(now)
        if idle and len(bus.log.lines) != sent:
            woken.append((actor.id, now))

    services = {service.id for service in run.services}
    now = 0
    run.begin(now)
    while True:  # one pass
        for service in run.services:
            step(service, now)
        if tally.reason is not None:
            return now, woken
        for wid, (_, actor) in run.roster.items():
            if wid not in run.died:
                step(actor, now)
        if not bus.mail.isdisjoint(services):
            continue  # the tick runs another pass
        if now == horizon:
            return now, woken
        now += 1
        run.begin(now)


def reference_run(batch, scenario, validators=None):
    """run_simulation's report and log under step_every_tick, and its
    list of steps that published before their wake."""
    with tempfile.TemporaryDirectory(prefix="pubflow-") as tmp:
        run = simulator._Run(batch, scenario, SlaPolicy(), Workspace(tmp),
                             validators)
        now, woken = step_every_tick(run)
        return run.report(now), run.bus.log, woken


def monitor_wake_from_scratch(monitor, scenario):
    """Monitor.wake worked out in full from the fold: the least, over the
    in-flight rows, of the tick each attempt is overdue under this
    moment's deadline (the rule of Monitor._overdue), with each due
    result timed afresh instead of read from the Monitor's due table."""
    tally = monitor.bus.log.tally
    period, patience = scenario.heartbeat_period, \
        scenario.heartbeat_period * scenario.timeout_multiplier
    spare = bool(tally.idle) and not tally.todo
    deadline = min(patience, period + 1) if spare else patience
    ticks = [math.inf]
    for tid, (attempt, assigned, wid, heard) in tally.inflight.items():
        tick = heard + deadline + 1
        if spare and wid in tally.speeds:
            duration = float(tally.spec(tid, attempt)["kernel"]["duration"])
            tick = min(tick, 1 + actors._result_tick(
                assigned, duration, tally.speeds[wid], scenario.horizon))
        ticks.append(tick)
    return min(ticks)


def worker_wake_from_scratch(actor):
    """WorkerActor.wake worked out in full: the earliest of its due offer,
    its job's next heartbeat and result and, with mail waiting, the bus's
    tick, thawed past the frozen windows whether it has any or not."""
    ticks = [math.inf]
    if actor.offer is not None:
        ticks.append(actor.offer[0])
    if actor.running is not None:
        ticks += [actor.running.beat, actor.running.done]
    if actor.id in actor.bus.mail:
        ticks.append(actor.bus.now)
    return actor._thaw(min(ticks))


def wake_drift(batch, scenario, validators=None):
    """Play the run as run_simulation does and, once set up and then after
    every record it logs, compare the Monitor's wake and every worker's
    with monitor_wake_from_scratch and worker_wake_from_scratch.  Returns
    (records logged, actor id, wake, reference) for each that differs."""
    drift = []
    with tempfile.TemporaryDirectory(prefix="pubflow-") as tmp:
        run = simulator._Run(batch, scenario, SlaPolicy(), Workspace(tmp),
                             validators)
        monitor = next(service for service in run.services
                       if isinstance(service, actors.Monitor))
        log = run.bus.log
        append = log.append

        def check():
            wakes = [(monitor, monitor_wake_from_scratch(monitor, scenario))]
            wakes += [(actor, worker_wake_from_scratch(actor))
                      for _, actor in run.roster.values()]
            drift.extend((len(log.lines), actor.id, actor.wake, reference)
                         for actor, reference in wakes
                         if actor.wake != reference)

        def checked_append(env):
            append(env)
            check()

        check()
        log.append = checked_append  # what bus.publish calls
        simulator._step_due(run)
    return drift


def lags(records):
    """The release and end lags of a completed run's records that are not
    0.  A release lag is an attempt-1 TasksToDo task record's tick minus
    that of the latest ok verdict among the deps of its spec; the end lag
    is the Emergency's tick minus that of the last ok verdict."""
    spec, verified, lag = {}, {}, {}
    for record in records:
        kind, payload, ts = record["kind"], record["payload"], record["ts"]
        if kind == "task":
            tid = payload["task_id"]
            spec[tid] = payload.get("spec", spec.get(tid))
            deps = spec[tid].get("deps")
            if record["channel"] == "TasksToDo" and payload["attempt"] == 1 \
                    and deps:
                lag[tid] = ts - max(verified[dep] for dep in deps)
        elif kind == "verdict" and payload["ok"]:
            verified[payload["task_id"]] = ts
        elif kind == "emergency":
            lag["emergency"] = ts - max(verified.values())
    return {key: ticks for key, ticks in lag.items() if ticks}


def unanswered(records):
    """The seqs of the Checker's records, its verdicts and its
    republications, not logged in the tick of the result they answer:
    the result of their task and attempt (of the attempt before, for a
    republication)."""
    sent = {}
    for record in records:
        if record["kind"] == "result":
            payload = record["payload"]
            sent.setdefault((payload["task_id"], payload["attempt"]),
                            set()).add(record["ts"])
    return [record["seq"] for record in records
            if record["sender"] == "checker"
            and record["ts"] not in sent.get(
                (record["payload"]["task_id"], record["payload"]["attempt"]
                 - (record["kind"] == "task")), ())]


def record_passes(monkeypatch):
    """A list that gets the tick of each pass of the tick loop.  The loop
    asks the Checker, its first service, for its wake once before the
    first pass and once a pass, after the workers, but not in the pass
    of the Emergency, where it returns: passes_by_tick counts that one."""
    ticks = []

    def wake(self):
        ticks.append(self.bus.now)
        return math.inf

    monkeypatch.setattr(actors.Checker, "wake", property(wake))
    return ticks


def passes_by_tick(ticks, records):
    """Tick -> the count of passes the loop made in it, from the ticks
    record_passes got in a run that wrote `records`."""
    passes = collections.Counter(ticks[1:])  # the first: before a pass
    passes.update(r["ts"] for r in records if r["kind"] == "emergency")
    return passes


def extra_passes(passes, records):
    """The (tick, passes, records) of each tick that made more passes
    than one plus the records it logged: a pass after the first answers
    mail that a record of the pass before it left."""
    logged = collections.Counter(record["ts"] for record in records)
    return [(tick, count, logged[tick]) for tick, count in
            sorted(passes.items()) if count > 1 + logged[tick]]


def overruns(records, horizon):
    """The (task, attempt, tick) of each attempt still in flight after the
    Monitor's step in a tick past its due result while spare capacity
    exists.  That step follows the Checker's and the Coordinator's
    records of its tick; there the fold's idle table holds a worker and
    its to-do table no task, and the result is due at the assignment's
    tick plus the run ticks of the attempt's spec duration at the speed
    its assignee advertised, never past the horizon.  The Monitor must
    republish such a task in that tick."""
    by_tick = {}
    for record in records:
        by_tick.setdefault(record["ts"], []).append(record)
    ends = [r["ts"] for r in records if r["kind"] == "emergency"]
    tally, dues, late = LogTally(), {}, []
    for now in range(ends[0] if ends else horizon + 1):
        tick = by_tick.get(now, [])
        cut = next((i for i, r in enumerate(tick) if r["sender"] not in
                    ("broker", "checker", "coordinator")), len(tick))
        for record in tick[:cut]:
            tally.add(record)
        if tally.idle and not tally.todo:
            backed = {r["payload"]["task_id"] for r in tick[cut:]
                      if r["sender"] == "monitor" and r["kind"] == "task"}
            for tid, (attempt, assigned, wid, _) in tally.inflight.items():
                key = (tid, attempt, assigned)
                if key not in dues:
                    speed = tally.speeds.get(wid)
                    spec = tally.spec(tid, attempt)
                    dues[key] = math.inf if speed is None \
                        else actors._result_tick(
                            assigned, float(spec["kernel"]["duration"]),
                            speed, horizon)
                if now > dues[key] and tid not in backed:
                    late.append(key[:2] + (now,))
        for record in tick[cut:]:
            tally.add(record)
    return late


def effective_specs(records):
    """Each task record's spec, by seq: the one it carries, else its
    task's latest before it."""
    latest, out = {}, {}
    for record in records:
        if record["kind"] == "task":
            tid = record["payload"]["task_id"]
            spec = record["payload"].get("spec", latest.get(tid))
            latest[tid] = out[record["seq"]] = spec
    return out


def respecified(records):
    """The (seq, task) of each TasksToDo task record whose spec is not its
    task's first on TasksToDo: none in a log the engine wrote, so a
    published attempt's spec is its task's latest."""
    specs, first, changed = effective_specs(records), {}, []
    for record in records:
        if record["kind"] == "task" and record["channel"] == "TasksToDo":
            tid = record["payload"]["task_id"]
            if first.setdefault(tid, specs[record["seq"]]) \
                    != specs[record["seq"]]:
                changed.append((record["seq"], tid))
    return changed


def scanned_tables(records):
    """What the fold's in-flight rows, idle and to-do tables, spec
    answers and task rows hold after `records`, read off them by
    definition instead of folded: (in-flight, idle, to-do, the spec of
    each (task, attempt) that a record names, None for an unpublished
    one, task rows).  The scan does not apply check_transition: on a
    log with no illegal move, the fold's rows are these."""
    specs = effective_specs(records)
    published, first_published = {}, {}  # (task, attempt) -> spec, index
    # worker -> the kind of its latest volunteer, result or assignment
    last_kind = {}
    for i, record in enumerate(records):
        kind, payload = record["kind"], record["payload"]
        key = (payload.get("task_id"), payload.get("attempt"))
        if kind == "task" and record["channel"] == "TasksToDo" \
                and specs[record["seq"]] is not None:
            published[key] = specs[record["seq"]]
            first_published.setdefault(key, i)
        if kind in ("volunteer", "result", "assignment"):
            last_kind[payload["worker_id"]] = kind
    # a task's row: its latest assignment of an attempt published before
    # it, unless a later record closes it
    opened = {}
    for i, record in enumerate(records):
        payload = record["payload"]
        if record["kind"] == "assignment" and first_published.get(
                (payload["task_id"], payload["attempt"]), i) < i:
            opened[payload["task_id"]] = i
    inflight = {}
    for tid, i in opened.items():
        attempt, heard = records[i]["payload"]["attempt"], records[i]["ts"]
        for record in records[i + 1:]:
            kind, payload = record["kind"], record["payload"]
            if payload.get("task_id") != tid:
                continue
            mine = payload.get("attempt") == attempt
            if (kind == "result" and mine) or (kind == "verdict"
                                               and payload["ok"]) \
                    or (kind == "task" and record["sender"] == "monitor"):
                break
            if kind in ("started", "heartbeat") and mine:
                heard = record["ts"]
        else:
            inflight[tid] = (attempt, records[i]["ts"],
                             records[i]["payload"]["worker_id"], heard)
    idle = {wid for wid, kind in last_kind.items() if kind != "assignment"}
    # a task waits from a TasksToDo task record whose attempt is above
    # its last assigned one until its next assignment or ok verdict
    todo, assigned = set(), {}
    for record in records:
        kind, payload = record["kind"], record["payload"]
        tid = payload.get("task_id")
        if kind == "assignment":
            assigned[tid] = payload["attempt"]
            todo.discard(tid)
        elif kind == "verdict" and payload["ok"]:
            todo.discard(tid)
        elif kind == "task" and record["channel"] == "TasksToDo" \
                and payload["attempt"] > assigned.get(tid, 0):
            todo.add(tid)
    named = {(r["payload"]["task_id"], r["payload"]["attempt"])
             for r in records if "attempt" in r["payload"]}
    # a task's row: the state and attempt of its latest task record on
    # WaitingTasks or TasksToDo or assignment, until its first ok verdict
    # finishes it at that attempt
    rows, states = {}, {"WaitingTasks": TaskState.WAITING,
                        "TasksToDo": TaskState.TODO}
    for record in records:
        kind, payload = record["kind"], record["payload"]
        tid = payload.get("task_id")
        if rows.get(tid, (None,))[0] is TaskState.FINISHED:
            continue
        if kind == "task" and record["channel"] in states:
            rows[tid] = (states[record["channel"]], payload["attempt"])
        elif kind == "assignment":
            rows[tid] = (TaskState.IN_PROGRESS, payload["attempt"])
        elif kind == "verdict" and payload["ok"]:
            rows[tid] = (TaskState.FINISHED,
                         rows.get(tid, (None, payload["attempt"]))[1])
    return inflight, idle, todo, {key: published.get(key) for key in named}, \
        rows


def tick_ends(records):
    """The counts of records at which a tick's records end."""
    return {i for i in range(1, len(records) + 1) if i == len(records)
            or records[i]["ts"] != records[i - 1]["ts"]}


def fold_drift(records, cuts):
    """Fold the records one by one and, at each count of records in
    `cuts`, compare the fold's tables and spec answers with
    scanned_tables of the records so far, and its verified tasks with
    the scan's Finished rows; the counts where they differ."""
    tally, drift = LogTally(), []
    for i, record in enumerate(records, 1):
        tally.add(record)
        if i in cuts:
            scanned = scanned_tables(records[:i])
            folded = (tally.inflight, tally.idle, tally.todo,
                      {key: tally.spec(*key) for key in scanned[3]},
                      tally.rows)
            finished = {tid for tid, (state, _) in scanned[4].items()
                        if state is TaskState.FINISHED}
            if folded != scanned or tally.verified.keys() != finished:
                drift.append(i)
    return drift


ONE_WORKER = Scenario(seed=1, horizon=50,
                      workers=(WorkerSpec(worker_id="w1"),))


class TestSingleTaskProtocol:
    def test_exact_envelope_sequence(self):
        report, log = run_simulation(batch_of(noop_task("t1")), ONE_WORKER)
        assert report.completed
        expected = [
            ("task", "WaitingTasks", 0),
            ("task", "TasksToDo", 0),
            ("volunteer", "VolunteerWorkers", 0),
            ("assignment", "TasksToDo", 0),
            ("started", "TasksInProgress", 0),
            ("result", "TasksToCheck", 1),
            ("verdict", "FinishedTasks", 1),
            ("emergency", "Emergency", 1),
        ]
        got = [(r["kind"], r["channel"], r["ts"]) for r in records_of(log)]
        assert got == expected
        assert report.makespan == 1
        assert report.messages_total == 8
        assert report.re_executions == 0

    def test_seq_dense_from_one(self):
        _, log = run_simulation(batch_of(noop_task("t1")), ONE_WORKER)
        assert [r["seq"] for r in records_of(log)] == list(range(1, 9))

    def test_verified_result_carries_checksums(self):
        _, log = run_simulation(batch_of(noop_task("t1")), ONE_WORKER)
        records = records_of(log)
        verdict = [r for r in records if r["kind"] == "verdict"][0]
        assert verdict["payload"]["ok"] is True
        assert set(verified_results(records)["t1"]["outputs"]) == {"d_t1"}

    def test_heartbeats_appear_for_long_tasks(self):
        batch = batch_of(noop_task("slow", duration=12.0))
        scenario = Scenario(seed=1, horizon=60, heartbeat_period=5,
                            workers=(WorkerSpec(worker_id="w1"),))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        beats = [r["ts"] for r in records_of(log)
                 if r["kind"] == "heartbeat"]
        assert beats == [5, 10]  # started at 0; every 5 ticks; done at 12


class TestDeterminism:
    def scenario(self, seed):
        return Scenario(
            seed=seed, horizon=400, volunteer_jitter=3,
            workers=tuple(
                WorkerSpec(worker_id=f"w{i}", speed=1.0 + i % 2,
                           crash_prob=0.002 if i == 2 else 0.0)
                for i in range(4)))

    def batch(self):
        params = SimParams(dt=1e-4, advection=1.0, diffusion=0.05,
                           steps=3, bc="dirichlet0")
        return generate_adapt_workflow(4, 3, 32, params)

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a_report, a_log = run_simulation(self.batch(), self.scenario(9))
        b_report, b_log = run_simulation(self.batch(), self.scenario(9))
        assert replay_check(a_log, b_log)
        assert dump(a_report) == dump(b_report)

    def test_different_seed_changes_the_log(self):
        _, a_log = run_simulation(self.batch(), self.scenario(9))
        _, b_log = run_simulation(self.batch(), self.scenario(10))
        assert not replay_check(a_log, b_log)

    def test_log_file_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _, log = run_simulation(batch_of(noop_task("t")), ONE_WORKER,
                                log_path=path)
        assert path.read_text("utf-8") == log.dumps()


class TestCrashRecovery:
    def test_crash_after_two_heartbeats_recovered_by_backup(self):
        batch = batch_of(noop_task("t", duration=30.0))
        scenario = Scenario(
            seed=5, horizon=120, heartbeat_period=3, timeout_multiplier=2,
            workers=(WorkerSpec(worker_id="w1", crash=8),
                     WorkerSpec(worker_id="w2")))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        assert report.re_executions == 1
        records = records_of(log)
        beats = [r for r in records if r["kind"] == "heartbeat"
                 and r["payload"]["worker_id"] == "w1"]
        assert [b["ts"] for b in beats] == [3, 6]  # exactly two, then death
        republished = [r for r in records if r["kind"] == "task"
                       and r["channel"] == "TasksToDo"
                       and r["payload"]["attempt"] == 2]
        assert len(republished) == 1
        assert republished[0]["sender"] == "monitor"
        # w2 idles and no task waits, so the deadline is one missed
        # heartbeat, min(2*3, 3 + 1): silence noticed at 6 + 4 + 1
        assert republished[0]["ts"] == 11
        dlc = [r for r in records if r["kind"] == "dlc"]
        assert len(dlc) == 1
        verdicts = [r for r in records if r["kind"] == "verdict"]
        assert len(verdicts) == 1 and verdicts[0]["payload"]["ok"]
        assert verdicts[0]["payload"]["attempt"] == 2
        starters = [r["payload"]["worker_id"] for r in records
                    if r["kind"] == "started"]
        assert starters == ["w1", "w2"]
        assert report.makespan == 41
        assert precedence_audit(log, batch) == []
        assert lifecycle_audit(log) == []

    def test_departure_treated_like_crash(self):
        batch = batch_of(noop_task("t", duration=20.0))
        scenario = Scenario(
            seed=5, horizon=200, heartbeat_period=3, timeout_multiplier=2,
            workers=(WorkerSpec(worker_id="w1", departure=5),
                     WorkerSpec(worker_id="w2")))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        assert report.re_executions == 1

    def test_unrecoverable_without_backup(self):
        batch = batch_of(noop_task("t", duration=30.0))
        scenario = Scenario(
            seed=5, horizon=80, heartbeat_period=3, timeout_multiplier=2,
            workers=(WorkerSpec(worker_id="w1", crash=8),))
        report, log = run_simulation(batch, scenario)
        assert not report.completed
        assert report.horizon == 80  # no emergency
        assert report.makespan == log.tally.makespan

    def test_stalled_worker_duplicate_result_single_verdict(self):
        """A stalled (not dead) worker wakes and finishes attempt 1 in
        the same tick the backup finishes attempt 2; the checker takes
        the first verified result and discards the duplicate."""
        batch = batch_of(noop_task("t", duration=10.0))
        scenario = Scenario(
            seed=5, horizon=120, heartbeat_period=3, timeout_multiplier=2,
            workers=(WorkerSpec(worker_id="w1", stall=(2, 5)),
                     WorkerSpec(worker_id="w2")))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        records = records_of(log)
        results = [r for r in records if r["kind"] == "result"]
        assert len(results) == 2  # both attempts really finished
        assert {r["payload"]["worker_id"] for r in results} == {"w1", "w2"}
        assert results[0]["ts"] == results[1]["ts"]
        verdicts = [r for r in records if r["kind"] == "verdict"]
        assert len(verdicts) == 1 and verdicts[0]["payload"]["ok"]
        assert lifecycle_audit(log) == []
        assert precedence_audit(log, batch) == []

    def test_checker_failures_exhaust_attempt_budget(self):
        batch = batch_of(noop_task("t", max_attempts=2))
        scenario = Scenario(seed=1, horizon=60,
                            workers=(WorkerSpec(worker_id="w1"),))
        report, log = run_simulation(
            batch, scenario,
            validators={"default": lambda s, r, w: False})
        assert not report.completed
        records = records_of(log)
        verdicts = [r for r in records if r["kind"] == "verdict"]
        assert len(verdicts) == 1
        assert verdicts[0]["payload"] == {
            "task_id": "t", "attempt": 2, "ok": False}
        assert verified_results(records) == {}
        emergency = [r for r in records if r["kind"] == "emergency"]
        assert emergency[0]["payload"]["reason"] == "failed"
        assert report.re_executions == 1

    def test_nothing_is_logged_after_a_failed_emergency(self):
        """a's failed verdict and b's ok verdict reach the coordinator in
        one drain: it publishes the failed Emergency and reads no further,
        so c, b's dependent, is never released."""
        batch = batch_of(noop_task("a", max_attempts=1, validator="never"),
                         noop_task("b"), noop_task("c", deps=["b"]))
        scenario = Scenario(seed=1, horizon=60, workers=(
            WorkerSpec(worker_id="w1"), WorkerSpec(worker_id="w2")))
        report, log = run_simulation(
            batch, scenario, validators={"never": lambda s, r, w: False})
        records = records_of(log)
        assert [r["payload"]["ok"] for r in records
                if r["kind"] == "verdict"] == [False, True]
        assert records[-1]["kind"] == "emergency"
        assert records[-1]["payload"]["reason"] == "failed"
        assert "c" not in {r["payload"]["task_id"] for r in records
                           if r["channel"] == "TasksToDo"}

    def test_verified_task_is_not_republished_by_the_monitor(
            self, tmp_path, capsys):
        """w0 stalls on a's attempt 1, the monitor republishes it and the
        slow w1 takes attempt 2, w0 wakes and gets attempt 1 verified, then
        w1 dies mid-attempt 2.  The ok verdict closes attempt 2 in the
        in-flight table, so the monitor never republishes the verified
        task."""
        batch = batch_of(noop_task("a", duration=30.0),
                         noop_task("b", deps=["a"], duration=30.0))
        scenario = Scenario(seed=1, horizon=300, workers=(
            WorkerSpec(worker_id="w0", stall=(5, 40)),
            WorkerSpec(worker_id="w1", speed=0.4, crash=75)))
        path = tmp_path / "events.jsonl"
        report, log = run_simulation(batch, scenario, log_path=path)
        assert report.completed
        records = records_of(log)
        verdict_a = next(r for r in records if r["kind"] == "verdict"
                         and r["payload"]["task_id"] == "a")
        assert verdict_a["payload"]["attempt"] == 1
        ok_a = verdict_a["seq"]
        assert ("a", 2) in {(r["payload"]["task_id"], r["payload"]["attempt"])
                            for r in records if r["kind"] == "started"
                            and r["payload"]["worker_id"] == "w1"}
        assert not any(r["kind"] == "result"
                       and r["payload"]["worker_id"] == "w1"
                       for r in records)  # w1 died mid-attempt 2
        late = [r for r in records if r["seq"] > ok_a
                and r["sender"] == "monitor"
                and r["kind"] in ("task", "dlc")
                and r["payload"]["task_id"] == "a"]
        assert late == []
        assert report.re_executions == 1
        assert cli.main(["report", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["re_executions"] == 1
        assert lifecycle_audit(log) == []
        assert precedence_audit(log, batch) == []


class TestScheduling:
    def test_dependencies_run_in_order(self):
        batch = batch_of(
            noop_task("a"),
            noop_task("b", deps=["a"]),
            noop_task("c", deps=["a"]),
            noop_task("d", deps=["b", "c"]))
        scenario = Scenario(seed=3, horizon=100, workers=(
            WorkerSpec(worker_id="w1"), WorkerSpec(worker_id="w2")))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        assert precedence_audit(log, batch) == []
        assert lifecycle_audit(log) == []

    def test_parallel_tasks_spread_over_workers(self):
        batch = batch_of(*[noop_task(f"t{i}", duration=4.0)
                           for i in range(4)])
        scenario = Scenario(seed=3, horizon=100, workers=(
            WorkerSpec(worker_id="w1"), WorkerSpec(worker_id="w2")))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        starters = {r["payload"]["worker_id"]
                    for r in records_of(log) if r["kind"] == "started"}
        assert starters == {"w1", "w2"}

    def test_late_arrival_still_completes(self):
        batch = batch_of(noop_task("t"))
        scenario = Scenario(seed=1, horizon=60, workers=(
            WorkerSpec(worker_id="w1", arrival=10),))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        vol = [r for r in records_of(log) if r["kind"] == "volunteer"][0]
        assert vol["ts"] == 10

    def test_capability_gating(self):
        gpu_task = Task(id="g", kernel=KernelSpec(
            name="noop", params={"values": {"d": [1.0]}}, outputs=("d",)),
            required_caps=frozenset({"gpu"}))
        batch = batch_of(gpu_task)
        scenario = Scenario(seed=1, horizon=40, workers=(
            WorkerSpec(worker_id="cpu-only"),
            WorkerSpec(worker_id="gpu-box",
                       capabilities=frozenset({"gpu"})),))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        starters = [r["payload"]["worker_id"]
                    for r in records_of(log) if r["kind"] == "started"]
        assert starters == ["gpu-box"]

    def test_no_workers_exceeds_horizon(self):
        report, log = run_simulation(batch_of(noop_task("t")),
                                     Scenario(seed=1, horizon=25))
        assert not report.completed
        assert report.horizon == 25
        assert report.makespan == log.tally.makespan
        assert kinds_of(log) == ["task", "task"]  # waiting + todo only

    def test_faster_worker_wins_selection(self):
        batch = batch_of(noop_task("t", duration=8.0))
        scenario = Scenario(seed=1, horizon=60, workers=(
            WorkerSpec(worker_id="slow", speed=1.0),
            WorkerSpec(worker_id="turbo", speed=4.0),))
        report, log = run_simulation(batch, scenario)
        starters = [r["payload"]["worker_id"]
                    for r in records_of(log) if r["kind"] == "started"]
        assert starters == ["turbo"]


# Runs whose simulated report must count exactly what their log holds:
# a crash, a stall, a seeded random death, an unfolded ADAPT batch, a
# validator that fails until the batch aborts, and a horizon cut-off.

def _faulty_workers():
    batch = batch_of(noop_task("a", duration=12.0),
                     noop_task("b", deps=["a"], duration=12.0),
                     noop_task("c", deps=["a"], duration=6.0),
                     noop_task("d", deps=["b", "c"], duration=4.0))
    scenario = Scenario(seed=4, horizon=400, heartbeat_period=3,
                        timeout_multiplier=2, volunteer_jitter=2, workers=(
                            WorkerSpec(worker_id="w1", crash=5),
                            WorkerSpec(worker_id="w2", stall=(20, 15)),
                            WorkerSpec(worker_id="w3", crash_prob=0.05),
                            WorkerSpec(worker_id="w4", speed=0.5)))
    return batch, scenario, None


def _adapt_unfold():
    params = SimParams(dt=1e-4, advection=1.0, diffusion=0.05,
                       steps=2, bc="dirichlet0")
    batch = generate_adapt_workflow(2, 2, 16, params, unfold_solver=True)
    scenario = Scenario(seed=2, horizon=300, workers=(
        WorkerSpec(worker_id="w1", crash=6), WorkerSpec(worker_id="w2"),
        WorkerSpec(worker_id="w3", speed=2.0)))
    return batch, scenario, None


def _validator_aborts():
    batch = batch_of(noop_task("a"), noop_task("t", deps=["a"],
                                               max_attempts=3))
    scenario = Scenario(seed=1, horizon=100, workers=(
        WorkerSpec(worker_id="w1"), WorkerSpec(worker_id="w2")))
    return batch, scenario, {"default": lambda s, r, w: s["id"] == "a"}


def _horizon_cut():
    batch = batch_of(noop_task("a", duration=20.0),
                     noop_task("b", deps=["a"], duration=20.0))
    scenario = Scenario(seed=1, horizon=30, heartbeat_period=3,
                        timeout_multiplier=2, workers=(
                            WorkerSpec(worker_id="w1", crash=10),
                            WorkerSpec(worker_id="w2")))
    return batch, scenario, None


# case -> (inputs, the reason of the run's Emergency envelope)
FOLD_CORPUS = {
    "faulty-workers": (_faulty_workers, "complete"),
    "adapt-unfold": (_adapt_unfold, "complete"),
    "validator-aborts": (_validator_aborts, "failed"),
    "horizon-cut": (_horizon_cut, None),
}


class TestReportMetrics:
    def test_message_accounting(self):
        report, log = run_simulation(batch_of(noop_task("t")), ONE_WORKER)
        assert report.messages_total == len(records_of(log))
        assert sum(report.messages_by_channel.values()) == \
            report.messages_total
        assert report.messages_by_channel["Emergency"] == 1

    def test_tasks_total_counts_unfolded_children(self, tmp_path):
        params = SimParams(dt=1e-4, advection=1.0, diffusion=0.05,
                           steps=1, bc="dirichlet0")
        plain = generate_adapt_workflow(2, 1, 16, params)
        split = generate_adapt_workflow(2, 1, 16, params,
                                        unfold_solver=True)
        scenario = Scenario(seed=2, horizon=200, workers=(
            WorkerSpec(worker_id="w1"), WorkerSpec(worker_id="w2")))
        plain_report, _ = run_simulation(plain, scenario)
        split_report, _ = run_simulation(split, scenario)
        assert plain_report.completed and split_report.completed
        assert split_report.tasks_total == plain_report.tasks_total + 1

    def test_utilization_bounds_and_idle_worker(self):
        batch = batch_of(noop_task("t", duration=10.0))
        scenario = Scenario(seed=1, horizon=60, workers=(
            WorkerSpec(worker_id="w1", speed=2.0),
            WorkerSpec(worker_id="zz-idle", reliability=0.1),))
        report, _ = run_simulation(batch, scenario)
        use = report.per_worker_utilization
        assert set(use) == {"w1", "zz-idle"}
        assert 0.0 < use["w1"] <= 1.0
        assert use["zz-idle"] == 0.0

    @pytest.mark.parametrize("case", sorted(FOLD_CORPUS))
    def test_report_equals_the_fold_of_its_written_log(self, case,
                                                        monkeypatch):
        made = keep(monkeypatch, actors.Monitor, actors.Checker)
        inputs, reason = FOLD_CORPUS[case]
        batch, scenario, validators = inputs()
        report, log = run_simulation(batch, scenario, validators=validators)
        tally = LogTally()
        for record in parse_log(log.dumps()):
            tally.add(record)
        assert tally.reason == reason
        assert tally.re_executions > 0
        assert tally.timeouts == made[actors.Monitor].timeouts
        assert tally.duplicates == made[actors.Checker].duplicates
        doc = vars(Report.of(tally))
        assert {name: vars(report)[name] for name in doc} == doc
        # the horizon is set exactly when the log has no Emergency
        assert report.horizon == (scenario.horizon if tally.reason is None
                                  else None)



def test_simulate_and_report_print_the_discarded_results(tmp_path, capsys):
    """The faulty-workers run's stalled w2 sends a result for a task
    already verified; simulate and report both show it, text and JSON."""
    batch, scenario, _ = _faulty_workers()
    workflow, scenario_path, log = (tmp_path / name for name in (
        "wf.json", "scenario.json", "events.jsonl"))
    workflow.write_text(serialize_workflow(batch), "utf-8")
    scenario_path.write_text(json.dumps(dump(scenario)), "utf-8")
    files = [str(workflow), str(scenario_path)]
    assert cli.main(["simulate", *files, "--log", str(log)]) == 0
    assert "\nduplicates: 1\n" in capsys.readouterr().out
    assert cli.main(["simulate", "--json", *files]) == 0
    assert json.loads(capsys.readouterr().out)["duplicates"] == 1
    assert cli.main(["report", str(log)]) == 0
    assert "\nduplicates: 1\n" in capsys.readouterr().out
    assert cli.main(["report", str(log), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["duplicates"] == 1


def test_idle_workers_are_not_stepped(monkeypatch):
    """A worker is stepped for mail or for its own work: a running job's
    heartbeat or result (a due offer too, but latency 0 sends each one in
    the step that read the task).  So its steps are at most its steps
    that read mail plus its heartbeats and results; stepping a running
    worker on each tick would add about the makespan, and stepping every
    worker on every tick would make them 32 x ticks."""
    steps, mail_steps = [0], [0]
    step, drain = actors.WorkerActor.step, InProcessBus.drain

    def counting_step(self, now):
        steps[0] += 1
        step(self, now)

    def counting_drain(self, actor_id):
        out = drain(self, actor_id)
        if actor_id in workers and out:
            mail_steps[0] += 1
        return out

    monkeypatch.setattr(actors.WorkerActor, "step", counting_step)
    monkeypatch.setattr(InProcessBus, "drain", counting_drain)
    batch = batch_of(noop_task("a", duration=20.0),
                     noop_task("b", deps=["a"], duration=20.0),
                     noop_task("c", deps=["b"], duration=20.0))
    workers = {f"w{i:02d}" for i in range(32)}
    scenario = Scenario(seed=1, horizon=500, workers=tuple(
        WorkerSpec(worker_id=wid) for wid in sorted(workers)))
    report, log = run_simulation(batch, scenario)
    assert report.completed
    sent = kinds_of(log)
    assert steps[0] <= (mail_steps[0] + sent.count("heartbeat")
                        + sent.count("result"))


def test_heartbeats_do_not_step_the_monitor(monkeypatch):
    """A 600-tick job with H=5 sends 119 heartbeats, but the monitor
    reads them from the fold's in-flight row and has no mail: it
    never wakes for a timeout, so it steps only at tick 0, where every
    service steps once."""
    steps = []
    step = actors.Monitor.step

    def counting_step(self, now):
        steps.append(now)
        step(self, now)

    monkeypatch.setattr(actors.Monitor, "step", counting_step)
    batch = batch_of(noop_task("a", duration=600.0))
    scenario = Scenario(seed=1, horizon=1000, heartbeat_period=5,
                        timeout_multiplier=3,
                        workers=(WorkerSpec(worker_id="w0"),))
    report, log = run_simulation(batch, scenario)
    assert report.completed and report.timeouts == 0
    assert kinds_of(log).count("heartbeat") == 119
    assert steps == [0]


def test_long_chain_visits_ticks_by_envelope_not_by_makespan(monkeypatch):
    """Without a crash_prob worker the loop jumps from one due tick to
    the next, a tick where something is sent: its readers drain it in
    that tick.  A chain of three 300-tick tasks with H=20 takes 900
    ticks, each task's release and start in the tick of its
    predecessor's result, and visits only the ticks it logs in."""
    visited = []

    class CountingBus(InProcessBus):
        @property
        def now(self):
            return self._now

        @now.setter
        def now(self, tick):
            self._now = tick
            visited.append(tick)

    monkeypatch.setattr(simulator, "InProcessBus", CountingBus)
    batch = batch_of(noop_task("a", duration=300.0),
                     noop_task("b", deps=["a"], duration=300.0),
                     noop_task("c", deps=["b"], duration=300.0))
    scenario = Scenario(seed=1, horizon=2000, heartbeat_period=20,
                        workers=tuple(WorkerSpec(worker_id=f"w{i}")
                                      for i in range(8)))
    report, log = run_simulation(batch, scenario)
    assert report.completed and report.makespan == 900
    ticks = visited[1:]  # the first is the bus's own start at 0
    assert ticks == sorted(set(ticks)) and ticks[-1] == report.makespan
    assert set(ticks) <= {record["ts"] for record in records_of(log)}
    assert len(ticks) * 5 < report.makespan


GPU = frozenset({"gpu"})


@pytest.mark.parametrize("workers", [
    (WorkerSpec(worker_id="w1", capabilities=GPU, arrival=10_000),),
    (WorkerSpec(worker_id="w0"),
     WorkerSpec(worker_id="w1", capabilities=GPU, stall=(1, 10_000)))],
    ids=["late-arrival", "stall-over-assignment"])
def test_a_frozen_workers_mail_waits_without_visits(monkeypatch, workers):
    """Mail for a frozen worker, before its arrival or in its stall,
    keeps no tick busy: its wake is the tick it thaws.  A chain a -> b,
    b needing a gpu, whose one worker arrives at 10,000, or whose gpu
    worker w1 gets b at tick 1, when w0 finishes a, and stalls until
    10,001, ends at 10,002 after at most 10 loop visits, and writes the
    bytes of the reference loop."""
    batch = batch_of(noop_task("a"),
                     noop_task("b", deps=["a"], required_caps=GPU))
    scenario = Scenario(seed=1, horizon=20_000, workers=workers)
    ref_report, ref_log, woken = reference_run(batch, scenario)
    visits = []
    begin = simulator._Run.begin

    def counted(self, now):
        visits.append(now)
        begin(self, now)

    monkeypatch.setattr(simulator._Run, "begin", counted)
    report, log = run_simulation(batch, scenario)
    assert report.completed and report.makespan == 10_002
    assert len(visits) <= 10
    assert woken == []
    assert log.dumps() == ref_log.dumps()
    assert vars(report) == vars(ref_report)


def drained_by_workers(monkeypatch, workers):
    """Record, per envelope seq, the workers that drain it."""
    readers: dict[int, list[str]] = {}
    drain = InProcessBus.drain

    def recording_drain(self, actor_id):
        out = drain(self, actor_id)
        if actor_id in workers:
            for env in out:
                readers.setdefault(env.seq, []).append(actor_id)
        return out

    monkeypatch.setattr(InProcessBus, "drain", recording_drain)
    return readers


def test_each_assignment_reaches_only_the_worker_it_names(monkeypatch):
    """On a flat batch, every assignment is drained once, by its worker:
    the others left TasksToDo with their one offer."""
    workers = {f"w{i}" for i in range(6)}
    readers = drained_by_workers(monkeypatch, workers)
    batch = batch_of(*(noop_task(f"t{i:02d}", duration=3.0)
                       for i in range(24)))
    scenario = Scenario(seed=1, horizon=500, workers=tuple(
        WorkerSpec(worker_id=wid) for wid in sorted(workers)))
    report, log = run_simulation(batch, scenario)
    assert report.completed
    assignments = [r for r in records_of(log) if r["kind"] == "assignment"]
    assert len(assignments) == 24
    for record in assignments:
        assert readers.get(record["seq"]) == [record["payload"]["worker_id"]]


def test_worker_mail_on_a_chain_is_linear_in_tasks_plus_workers(
        monkeypatch):
    """A chain of T = 20 tasks on W = 64 workers: the workers drain at
    most 3 (T + W) envelopes, not every task and assignment each (about
    2 T W)."""
    workers = {f"w{i:02d}" for i in range(64)}
    readers = drained_by_workers(monkeypatch, workers)
    batch = batch_of(*(noop_task(f"t{i:02d}",
                                 deps=[f"t{i - 1:02d}"] if i else (),
                                 duration=4.0)
                       for i in range(20)))
    scenario = Scenario(seed=7, horizon=2000, workers=tuple(
        WorkerSpec(worker_id=wid) for wid in sorted(workers)))
    report, _ = run_simulation(batch, scenario)
    assert report.completed
    assert sum(map(len, readers.values())) <= 3 * (20 + 64)


unit =st.floats(min_value=0.0, max_value=1.0)


@st.composite
def scenarios(draw, max_tick=10_000, max_crash_prob=1.0, max_heartbeat=50,
              min_workers=0):
    """Valid scenarios of up to 4 workers, every tick and delay at most
    max_tick."""
    ticks = st.integers(min_value=0, max_value=max_tick)
    ids = draw(st.lists(st.text("wxyz0123", min_size=1, max_size=4),
                        min_size=min_workers, max_size=4, unique=True))
    workers = tuple(WorkerSpec(
        worker_id=wid,
        capabilities=draw(st.frozensets(st.sampled_from(["gpu", "ssd"]))),
        speed=draw(st.floats(min_value=0.01, max_value=64.0)),
        reliability=draw(unit), arrival=draw(ticks),
        departure=draw(st.none() | ticks), crash=draw(st.none() | ticks),
        crash_prob=draw(st.floats(min_value=0.0, max_value=max_crash_prob)),
        stall=draw(st.none() | st.tuples(ticks, ticks)),
    ) for wid in ids)
    return Scenario(
        seed=draw(st.integers(-2**63, 2**63)), horizon=draw(ticks),
        heartbeat_period=draw(st.integers(1, max_heartbeat)),
        timeout_multiplier=draw(st.integers(1, 9)),
        volunteer_latency=draw(ticks), volunteer_jitter=draw(ticks),
        workers=workers)


@st.composite
def noop_dags(draw, max_tasks=12):
    """Noop tasks t00, t01, ..., each depending on some earlier ones."""
    tasks = []
    for i in range(draw(st.integers(1, max_tasks))):
        earlier = [t.id for t in tasks]
        tasks.append(noop_task(
            f"t{i:02d}",
            deps=draw(st.sets(st.sampled_from(earlier))) if earlier else (),
            duration=float(draw(st.integers(1, 6))),
            required_caps=draw(st.frozensets(st.sampled_from(["gpu", "ssd"]),
                                             max_size=1)),
            max_attempts=draw(st.integers(1, 4))))
    return batch_of(*tasks)


def tamed(scenario):
    """The scenario with a pool that must finish any noop_dags batch of
    a (max_tick=50, min_workers=1) scenario by tick 400: no worker
    crashes, departs or stalls, each has every capability and a speed of
    at least 0.5.  The last offer then goes out by tick 150, and a chain
    of 12 six-tick tasks takes under 12 * (12 + 5) ticks after it."""
    return dataclasses.replace(
        scenario, horizon=400, workers=tuple(dataclasses.replace(
            ws, capabilities=frozenset({"gpu", "ssd"}),
            speed=max(ws.speed, 0.5), departure=None, crash=None,
            crash_prob=0.0, stall=None)
            for ws in scenario.workers))


class TestScenarioFiles:
    def sample(self):
        return Scenario(
            seed=11, horizon=300, heartbeat_period=4,
            timeout_multiplier=2, volunteer_latency=1,
            volunteer_jitter=2,
            workers=(
                WorkerSpec(worker_id="w1",
                           capabilities=frozenset({"gpu"}),
                           speed=2.0, reliability=0.9, arrival=3,
                           crash=50),
                WorkerSpec(worker_id="w2", crash_prob=0.01,
                           stall=(5, 4)),
                WorkerSpec(worker_id="w3", departure=100),
            ))

    def test_dict_round_trip(self):
        s = self.sample()
        assert scenario_from_dict(dump(s)) == s

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dump(self.sample())),
                        "utf-8")
        assert load_scenario(path) == self.sample()

    def test_bad_scenario_rejected(self):
        with pytest.raises(SchemaError):
            scenario_from_dict({"workers": [{"speed": 2.0}]})  # no id

    @pytest.mark.parametrize("doc, named", [
        ({"workers": [{"worker_id": "w1", "arrival": -5}]}, "arrival"),
        ({"workers": [{"worker_id": "w1", "stall": [0, -4]}]}, "stall"),
        ({"workers": [{"worker_id": "w1", "stall": [-3, 5]}]}, "stall"),
        ({"volunteer_latency": -1}, "volunteer_latency"),
        ({"volunteer_jitter": -1}, "volunteer_jitter")])
    def test_negative_ticks_and_delays_are_refused(self, doc, named):
        """A negative arrival would count ticks before 0 as run ticks, a
        negative stall length would mean no stall, a negative stall start
        would freeze ticks before its length ends, and a negative delay
        would read as 0: each is refused instead."""
        with pytest.raises(SchemaError, match=named):
            scenario_from_dict(doc)

    def test_a_departure_or_crash_before_arrival_loads(self):
        """Either takes effect at arrival, whatever tick it names."""
        doc = {"workers": [{"worker_id": "w1", "departure": -2},
                           {"worker_id": "w2", "crash": -1, "arrival": 3}]}
        assert [(w.departure, w.crash) for w in
                scenario_from_dict(doc).workers] == [(-2, None), (None, -1)]

    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_generated_scenarios_round_trip(self, scenario):
        doc = dump(scenario)
        assert json.loads(json.dumps(doc)) == doc  # plain JSON values
        assert load(Scenario, doc, "scenario") == scenario

    def test_missing_keys_take_defaults(self):
        assert scenario_from_dict({}) == Scenario()
        assert scenario_from_dict({"workers": [{"worker_id": "w1"}]}) \
            == Scenario(workers=(WorkerSpec(worker_id="w1"),))

    def test_sla_policy_from_dict(self):
        policy = SlaPolicy.from_dict(
            {"sla": {"w_r": 0.5, "w_s": 0.5, "s_cap": 2}})
        assert policy == SlaPolicy(w_r=0.5, w_s=0.5, s_cap=2.0)
        assert SlaPolicy.from_dict({"sla": {"w_s": 0.1}}) \
            == SlaPolicy(w_s=0.1)
        assert SlaPolicy.from_dict({}) == SlaPolicy()
        # heartbeat timing is the scenario's, the attempt budget the task's
        for doc, named in (({"heartbeat": {"H": 7, "k": 4}}, "heartbeat"),
                           ({"sla": {}, "retries": 9}, "retries"),
                           ({"sla": {"w_x": 1.0}}, "sla.w_x"),
                           ([], "must be"),
                           ({"sla": [0.5]}, "must be")):
            with pytest.raises(SchemaError, match=named):
                SlaPolicy.from_dict(doc)


# ------------------------------------------------------------- log audits

def renumbered(records):
    lines = []
    for i, record in enumerate(records, start=1):
        ordered = {"seq": i, "ts": record["ts"],
                   "channel": record["channel"], "kind": record["kind"],
                   "sender": record["sender"],
                   "payload": record["payload"]}
        lines.append(json.dumps(ordered, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def chain_run():
    batch = batch_of(noop_task("a"), noop_task("b", deps=["a"]))
    scenario = Scenario(seed=3, horizon=60, workers=(
        WorkerSpec(worker_id="w1"), WorkerSpec(worker_id="w2")))
    report, log = run_simulation(batch, scenario)
    assert report.completed
    return batch, records_of(log)


class TestAudits:
    def test_clean_run_passes_both_audits(self):
        batch, records = chain_run()
        text = renumbered(records)
        assert precedence_audit(text, batch) == []
        assert lifecycle_audit(text) == []

    def test_parsed_records_audit_like_their_text(self):
        batch, records = chain_run()
        text = renumbered([r for r in records if r["kind"] != "started"])
        parsed = parse_log(text)
        assert precedence_audit(parsed, batch) == \
            precedence_audit(text, batch)
        assert lifecycle_audit(parsed) == lifecycle_audit(text) != []

    def test_truncated_line_is_malformed(self):
        _, records = chain_run()
        text = renumbered(records)[:-20]
        with pytest.raises(MalformedLog):
            parse_log(text)

    def test_seq_gap_is_malformed(self):
        _, records = chain_run()
        del records[2]
        text = "\n".join(
            json.dumps(r, separators=(",", ":")) for r in records)
        with pytest.raises(MalformedLog):
            parse_log(text)

    def test_missing_key_is_malformed(self):
        _, records = chain_run()
        first = dict(records[0])
        del first["sender"]
        line = json.dumps(first, separators=(",", ":"))
        rest = renumbered(records).splitlines()[1:]
        text = "\n".join([line] + rest) + "\n"
        with pytest.raises(MalformedLog):
            parse_log(text)

    @pytest.mark.parametrize("channel", ["Gossip", "EM"])
    def test_unknown_channel_is_malformed(self, channel):
        _, records = chain_run()
        records[0]["channel"] = channel
        with pytest.raises(MalformedLog):
            parse_log(renumbered(records))

    def test_started_before_dependency_verdict_is_flagged(self):
        batch, records = chain_run()
        started_b = next(i for i, r in enumerate(records)
                         if r["kind"] == "started"
                         and r["payload"]["task_id"] == "b")
        verdict_a = next(i for i, r in enumerate(records)
                         if r["kind"] == "verdict"
                         and r["payload"]["task_id"] == "a")
        assert verdict_a < started_b
        record = records.pop(started_b)
        records.insert(verdict_a, record)  # now b starts before a is ok
        violations = precedence_audit(renumbered(records), batch)
        assert violations
        assert "b" in violations[0] and "a" in violations[0]

    def test_dependency_never_verified_is_flagged(self):
        batch, records = chain_run()
        records = [r for r in records
                   if not (r["kind"] == "verdict"
                           and r["payload"]["task_id"] == "a")]
        violations = precedence_audit(renumbered(records), batch)
        assert any("never verified" in v for v in violations)

    def test_task_missing_from_log_is_flagged(self):
        batch, records = chain_run()
        records = [r for r in records
                   if r["payload"].get("task_id") != "b"]
        violations = precedence_audit(renumbered(records), batch)
        assert any("never appeared" in v for v in violations)

    def test_result_without_started_is_flagged(self):
        _, records = chain_run()
        records = [r for r in records if r["kind"] != "started"]
        violations = lifecycle_audit(renumbered(records))
        assert any("without a started" in v for v in violations)

    def test_second_ok_verdict_is_flagged(self):
        _, records = chain_run()
        verdict = next(r for r in records if r["kind"] == "verdict")
        records.append(dict(verdict))
        violations = lifecycle_audit(renumbered(records))
        assert violations == [
            f"task a received a second ok verdict (seq {len(records)})"]

    @staticmethod
    def inserted(records, after, *added):
        """The records with `added` right after the first record for
        which after(record) holds, and the seq of the first one added."""
        at = next(i for i, r in enumerate(records) if after(r)) + 1
        return records[:at] + list(added) + records[at:], at + 1

    @staticmethod
    def of_a(kind):
        return lambda r: r["kind"] == kind and r["payload"]["task_id"] == "a"

    def test_republication_of_a_verified_task_is_flagged(self):
        _, records = chain_run()
        records, seq = self.inserted(records, self.of_a("verdict"), {
            "ts": 0, "channel": "TasksToDo", "kind": "task",
            "sender": "monitor", "payload": {"task_id": "a", "attempt": 2}})
        assert lifecycle_audit(renumbered(records)) == [
            f"task a cannot move to TODO at attempt 2 (seq {seq}): task "
            "already finished (attempt 1)"]

    def test_assignment_of_a_finished_task_is_flagged(self):
        """w9 volunteers, so the assignment goes to an idle worker: only
        the move of a's row is wrong."""
        _, records = chain_run()
        records, seq = self.inserted(records, self.of_a("verdict"), {
            "ts": 0, "channel": "VolunteerWorkers", "kind": "volunteer",
            "sender": "w9", "payload": {"task_id": "a", "worker_id": "w9",
                                        "attempt": 1, "profile": {}}}, {
            "ts": 0, "channel": "TasksToDo", "kind": "assignment",
            "sender": "coordinator",
            "payload": {"task_id": "a", "worker_id": "w9", "attempt": 1}})
        assert lifecycle_audit(renumbered(records)) == [
            f"task a cannot move to IN_PROGRESS at attempt 1 (seq "
            f"{seq + 1}): task already finished (attempt 1)"]

    def test_republication_that_keeps_the_running_attempt_is_flagged(self):
        _, records = chain_run()
        records, seq = self.inserted(records, self.of_a("assignment"), {
            "ts": 0, "channel": "TasksToDo", "kind": "task",
            "sender": "monitor", "payload": {"task_id": "a", "attempt": 1}})
        assert lifecycle_audit(renumbered(records)) == [
            f"task a cannot move to TODO at attempt 1 (seq {seq}): state "
            "cannot move backward within attempt 1: IN_PROGRESS -> TODO"]

    def test_assignment_to_a_worker_outside_the_pool_is_flagged(self):
        """w1 runs a, then b: without a's result, w1 is busy when b is
        assigned to it; without the offers, w1 had not joined the pool
        when a was assigned to it."""
        _, records = chain_run()
        assert [r["payload"]["worker_id"] for r in records
                if r["kind"] == "assignment"] == ["w1", "w1"]
        busy = [r for r in records if r["kind"] != "result"
                or r["payload"]["task_id"] != "a"]
        assert [v for v in lifecycle_audit(renumbered(busy))
                if "not idle" in v] == [
            f"assignment for b attempt 1 (seq {seq}) to w1, which is "
            "not idle"
            for seq, r in enumerate(busy, start=1)
            if r["kind"] == "assignment" and r["payload"]["task_id"] == "b"]
        unoffered = [r for r in records if r["kind"] != "volunteer"]
        assert [v.split(" (")[0] for v in
                lifecycle_audit(renumbered(unoffered))] == [
            "assignment for a attempt 1"]  # then w1's result pools it

    def test_todo_without_waiting_is_flagged(self):
        _, records = chain_run()
        records = [r for r in records
                   if not (r["channel"] == "WaitingTasks"
                           and r["payload"].get("task_id") == "a")]
        violations = lifecycle_audit(renumbered(records))
        assert any("WaitingTasks" in v for v in violations)

    def test_task_without_any_spec_is_flagged(self):
        """A task record may omit a spec the log already holds for its
        task; one whose task has none yet is a violation."""
        _, records = chain_run()
        records = [r for r in records if r["channel"] != "WaitingTasks"]
        release = next(r for r in records if r["kind"] == "task")
        assert "spec" not in release["payload"]
        violations = lifecycle_audit(renumbered(records))
        assert "task a (seq 1) without a spec" in violations

    def test_a_task_published_only_on_waiting_tasks_was_seen(self):
        """The batch check counts a task record on either channel: a
        horizon that cuts a chain before b is released audits clean,
        and only a b with no task record at all is reported."""
        batch, scenario, _ = _horizon_cut()
        report, log = run_simulation(batch, scenario)
        records = records_of(log)
        assert not report.completed
        assert {r["payload"]["task_id"] for r in records
                if r["kind"] == "task" and r["channel"] == "TasksToDo"} \
            == {"a"}
        assert precedence_audit(log, batch) == []
        records = [r for r in records
                   if not (r["kind"] == "task"
                           and r["payload"]["task_id"] == "b")]
        assert precedence_audit(renumbered(records), batch) == \
            ["task b never appeared on TasksToDo"]

    def test_unfolded_children_exempt_from_waiting_rule(self):
        params = SimParams(dt=1e-4, advection=1.0, diffusion=0.05,
                           steps=1, bc="dirichlet0")
        batch = generate_adapt_workflow(2, 1, 16, params,
                                        unfold_solver=True)
        scenario = Scenario(seed=2, horizon=200, workers=(
            WorkerSpec(worker_id="w1"), WorkerSpec(worker_id="w2")))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        assert lifecycle_audit(log) == []
        assert precedence_audit(log, batch) == []


# ------------------------------------------------------- volunteer traffic

# Jitter-0 runs whose assignment schedule is pinned: a flat batch with two
# stalls, a crash, a chain, and the small ADAPT unfold run above (which
# also crashes a worker).  The same runs also serve with jitter 2.

def _flat_two_stalls():
    batch = batch_of(*[noop_task(f"t{i:02d}", duration=4.0)
                       for i in range(12)])
    scenario = Scenario(seed=3, horizon=300, heartbeat_period=3,
                        timeout_multiplier=2,
                        workers=(WorkerSpec(worker_id="w1", stall=(2, 20)),
                                 WorkerSpec(worker_id="w2", stall=(9, 20)),
                                 WorkerSpec(worker_id="w3"),
                                 WorkerSpec(worker_id="w4")))
    return batch, scenario, None


def _flat_crash():
    batch = batch_of(noop_task("a", duration=12.0),
                     noop_task("b", duration=12.0),
                     noop_task("c", duration=6.0),
                     noop_task("d", duration=3.0))
    scenario = Scenario(seed=5, horizon=300, heartbeat_period=3,
                        timeout_multiplier=2,
                        workers=(WorkerSpec(worker_id="w1", crash=5),
                                 WorkerSpec(worker_id="w2"),
                                 WorkerSpec(worker_id="w3", speed=0.5)))
    return batch, scenario, None


def _chain():
    batch = batch_of(noop_task("a", duration=5.0),
                     noop_task("b", deps=["a"], duration=5.0),
                     noop_task("c", deps=["b"], duration=5.0),
                     noop_task("d", deps=["c"], duration=5.0))
    scenario = Scenario(seed=7, horizon=300,
                        workers=(WorkerSpec(worker_id="w1"),
                                 WorkerSpec(worker_id="w2", speed=2.0),
                                 WorkerSpec(worker_id="w3")))
    return batch, scenario, None


# case -> sha256 of the run's (task, worker, attempt, ts) assignments at
# jitter 0
ASSIGNMENT_GOLDEN = {
    "flat-two-stalls": (
        _flat_two_stalls,
        "4050f9c84572b3dfe355be676b7c59908de2a0ab18947c175c7c2f0adf8bf1c6"),
    "flat-crash": (
        _flat_crash,
        "861a7211ea4f967e2d06d85c22242c66566dfae2e783ff0780b27a9791eaa5d7"),
    "chain": (
        _chain,
        "3a0d8e9988dfffc0c39795d0d78e1eff55d10dad55950de52236c07307125ec7"),
    "adapt-unfold": (
        _adapt_unfold,
        "da82692f45b7b456cb1340a1264cb912ba38a0f2b7548dcaed265bea7e7e6ea0"),
}


def assignments_digest(records):
    rows = [[r["payload"]["task_id"], r["payload"]["worker_id"],
             r["payload"]["attempt"], r["ts"]]
            for r in records if r["kind"] == "assignment"]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def offers_of(records):
    return [(r["payload"]["task_id"], r["payload"]["attempt"],
             r["payload"]["worker_id"])
            for r in records if r["kind"] == "volunteer"]


# (case, jitter) -> sha256 of the run's log.dumps().  Any change to these
# bytes must say which bytes changed and why.
LOG_GOLDEN = {
    ("adapt-unfold", 0):
        "1067f03394e25a3127ad4802660ddd90da053a71f03e97e69367c7a66515323d",
    ("adapt-unfold", 2):
        "1067f03394e25a3127ad4802660ddd90da053a71f03e97e69367c7a66515323d",
    ("chain", 0):
        "2f0f2a609e47cf20ee2df6c61a648bde64d43443721f4f5cdc305e9eeb480bf0",
    ("chain", 2):
        "a8a0ff3a429cbf4b1bd9731c31bc3086bc63bfc51fcd660e37a55094e7c4cace",
    ("flat-crash", 0):
        "1c1eb3f692729e914aa66fc2ee23d503508a7504d169d66e90035736fd019af1",
    ("flat-crash", 2):
        "2e86147f9df8fae77db8aeb50f3281d7cdb61733305b269602f83f10d179b81e",
    ("flat-two-stalls", 0):
        "3a7355bf9344ff45ff8fbf75adcc3cde70d475da65c94241e3c00dd397cfd33a",
    ("flat-two-stalls", 2):
        "1af60f0ec2af8ae172ad3c54354a29328a4d9e4f592cc880d3d8f13cef723a8a",
}

# (case, jitter) -> sha256 of the run workspace's files, see
# workspace_digest
WORKSPACE_GOLDEN = {
    ("adapt-unfold", 0):
        "8e33989b5fc554c2aa0f732d6a3ba08f600b9434d02302861ed0a4badf041d40",
    ("adapt-unfold", 2):
        "8e33989b5fc554c2aa0f732d6a3ba08f600b9434d02302861ed0a4badf041d40",
}


def workspace_digest(root):
    """sha256 over the directory's files in name order: each file's
    [name, size] as JSON, then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.iterdir()):
        digest.update(json.dumps([path.name, path.stat().st_size]).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# (case, jitter) -> sha256 of the run workspace's contents, whatever its
# file layout, see content_digest
CONTENT_GOLDEN = {
    ("adapt-unfold", 0):
        "f2c4697c7237f4a8873802ec00a4f92c0adc982b0161406eb895483bd8bc02cf",
    ("adapt-unfold", 2):
        "f2c4697c7237f4a8873802ec00a4f92c0adc982b0161406eb895483bd8bc02cf",
}


def content_digest(root):
    """sha256 of the JSON list, in id order, of [dataset_id, stage,
    checksum, sha256 of the payload] for each ready dataset of a Workspace
    reopened on `root`."""
    ws = Workspace(root)
    rows = [[dataset_id, ws.record(dataset_id).stage.value,
             ws.checksum(dataset_id),
             hashlib.sha256(ws.get(dataset_id)).hexdigest()]
            for dataset_id in sorted(ws.sizes())]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestGoldenBytes:
    @pytest.mark.parametrize("case, jitter", sorted(LOG_GOLDEN))
    def test_log_and_workspace_match_the_golden_digests(self, tmp_path,
                                                        case, jitter):
        batch, scenario, _ = ASSIGNMENT_GOLDEN[case][0]()
        scenario = dataclasses.replace(scenario, volunteer_jitter=jitter)
        _, log = run_simulation(batch, scenario,
                                workspace=Workspace(tmp_path))
        text = log.dumps().encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == LOG_GOLDEN[case, jitter]
        if (case, jitter) in WORKSPACE_GOLDEN:
            assert workspace_digest(tmp_path) == \
                WORKSPACE_GOLDEN[case, jitter]
            assert content_digest(tmp_path) == CONTENT_GOLDEN[case, jitter]

    def test_coordinator_moves_pass_check_transition(self, tmp_path,
                                                     monkeypatch):
        """The crash run's task rows change only through check_transition,
        which the fold calls on every move, and which passes every move;
        the log bytes stay golden."""
        moves, check = [], bus_module.check_transition

        def spy(*args):
            moves.append(args)
            check(*args)

        monkeypatch.setattr(bus_module, "check_transition", spy)
        batch, scenario, _ = ASSIGNMENT_GOLDEN["flat-crash"][0]()
        scenario = dataclasses.replace(scenario, volunteer_jitter=0)
        _, log = run_simulation(batch, scenario,
                                workspace=Workspace(tmp_path))
        text = log.dumps().encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == LOG_GOLDEN["flat-crash", 0]
        states = {(old, new) for old, new, _, _ in moves}
        assert (TaskState.TODO, TaskState.IN_PROGRESS) in states
        assert (TaskState.IN_PROGRESS, TaskState.FINISHED) in states
        assert any(new_attempt > old_attempt
                   for _, _, old_attempt, new_attempt in moves)


class TestEachSpecLoggedOnce:
    def test_only_spliced_and_rewired_releases_carry_a_spec(self,
                                                            monkeypatch):
        """Every WaitingTasks record carries its spec.  On TasksToDo only
        the release of a task the unfold spliced in or of a dependent
        whose deps it rewired does; every other release and every
        republication names the task and attempt alone."""
        made = keep(monkeypatch, actors.Coordinator)
        batch, scenario, _ = _adapt_unfold()
        report, log = run_simulation(batch, scenario)
        assert report.completed
        final = made[actors.Coordinator].batch.tasks
        spliced = final.keys() - batch.tasks.keys()
        rewired = {tid for tid in final.keys() & batch.tasks.keys()
                   if final[tid].deps != batch.tasks[tid].deps}
        assert spliced and rewired
        records = [r for r in records_of(log) if r["kind"] == "task"]
        assert all("spec" in r["payload"] for r in records
                   if r["channel"] == "WaitingTasks")
        todo = [r for r in records if r["channel"] == "TasksToDo"]
        specs = [(r["sender"], r["payload"]["task_id"],
                  r["payload"]["attempt"])
                 for r in todo if "spec" in r["payload"]]
        assert sorted(specs) == sorted(("coordinator", tid, 1)
                                       for tid in spliced | rewired)
        assert any(r["sender"] != "coordinator" for r in todo)
        assert all(set(r["payload"]) == {"task_id", "attempt"}
                   for r in todo if "spec" not in r["payload"])


    def test_one_dump_per_waiting_spec_and_per_unfolded_task(self,
                                                             monkeypatch):
        """The Broker serialises each task once for WaitingTasks; the
        Coordinator serialises again only a task the unfold spliced in or
        rewired, and workers never rebuild a task from its spec."""
        dumped, rebuilt = [], []
        to_obj, from_obj = actors.task_to_obj, actors.task_from_obj
        monkeypatch.setattr(actors, "task_to_obj",
                            lambda task: dumped.append(task.id)
                            or to_obj(task))
        monkeypatch.setattr(actors, "task_from_obj",
                            lambda obj: rebuilt.append(obj) or from_obj(obj))
        made = keep(monkeypatch, actors.Coordinator)
        batch, scenario, _ = _adapt_unfold()
        report, _ = run_simulation(batch, scenario)
        assert report.completed
        final = made[actors.Coordinator].batch.tasks
        spliced = final.keys() - batch.tasks.keys()
        rewired = {tid for tid in final.keys() & batch.tasks.keys()
                   if final[tid] is not batch.tasks[tid]}
        assert sorted(dumped) == sorted([*batch.tasks, *spliced, *rewired])
        assert rebuilt == []


class TestSchedulingCost:
    def test_workers_are_scored_per_pool_join_not_per_assignment(
            self, monkeypatch):
        """A worker's score is computed when it joins the pool with a new
        profile, not for every task it competes for: 400 tasks on 16
        workers score each worker once."""
        scored = []
        score = actors.sla_score
        monkeypatch.setattr(actors, "sla_score",
                            lambda w, *policy: scored.append(w.worker_id)
                            or score(w, *policy))
        batch = batch_of(*[noop_task(f"t{i:03d}", outputs=())
                           for i in range(400)])
        scenario = Scenario(seed=1, horizon=10_000, workers=tuple(
            WorkerSpec(worker_id=f"w{i:02d}") for i in range(16)))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        joins = sum(r["kind"] == "volunteer" for r in records_of(log))
        assert sorted(scored) == [f"w{i:02d}" for i in range(16)]
        assert len(scored) <= joins


# Runs through the tick loop's edge paths: who is stepped, when a worker
# dies, and how long it counts as alive.

def _late_arrival():
    batch = batch_of(*[noop_task(f"t{i}", duration=6.0) for i in range(4)])
    scenario = Scenario(seed=2, horizon=200, workers=(
        WorkerSpec(worker_id="w1"),
        WorkerSpec(worker_id="w2", arrival=7),
        WorkerSpec(worker_id="w3", arrival=15, speed=2.0)))
    return batch, scenario, None


def _departure_not_after_arrival():
    batch = batch_of(*[noop_task(f"t{i}", duration=5.0) for i in range(3)])
    scenario = Scenario(seed=2, horizon=200, workers=(
        WorkerSpec(worker_id="w1", arrival=3, departure=3, speed=3.0),
        WorkerSpec(worker_id="w2", arrival=6, departure=2, speed=3.0),
        WorkerSpec(worker_id="w3"),
        WorkerSpec(worker_id="w4", arrival=4)))
    return batch, scenario, None


def _crash_mid_job():
    batch = batch_of(noop_task("a", duration=10.0),
                     noop_task("b", deps=["a"], duration=8.0))
    scenario = Scenario(seed=3, horizon=200, heartbeat_period=2,
                        timeout_multiplier=2, workers=(
                            WorkerSpec(worker_id="w1", speed=2.0, crash=4),
                            WorkerSpec(worker_id="w2"),
                            WorkerSpec(worker_id="w3", crash=30)))
    return batch, scenario, None


def _crash_prob_and_departure():
    batch = batch_of(*[noop_task(f"t{i}", duration=6.0) for i in range(6)])
    scenario = Scenario(seed=9, horizon=400, heartbeat_period=2,
                        timeout_multiplier=2, workers=(
                            WorkerSpec(worker_id="w1", crash_prob=0.04,
                                       departure=12),
                            WorkerSpec(worker_id="w2", crash_prob=0.03,
                                       arrival=3),
                            WorkerSpec(worker_id="w3", crash_prob=0.02,
                                       departure=10),
                            WorkerSpec(worker_id="w4")))
    return batch, scenario, None


def _stall_over_assignment():
    """w4 runs the root r; its dependents a and b need a gpu, which w4
    lacks, and go to w1 and w2 at tick 1, inside their stalls."""
    batch = batch_of(noop_task("r"),
                     *(noop_task(tid, deps=["r"], duration=4.0,
                                 required_caps=GPU) for tid in "ab"))
    scenario = Scenario(seed=1, horizon=200, workers=(
        WorkerSpec(worker_id="w1", capabilities=GPU, speed=2.0,
                   stall=(1, 6)),
        WorkerSpec(worker_id="w2", capabilities=GPU, stall=(1, 3)),
        WorkerSpec(worker_id="w3", capabilities=GPU, reliability=0.5),
        WorkerSpec(worker_id="w4", speed=4.0)))
    return batch, scenario, None


def _offers_due_while_running():
    """z is released while both workers run; each worker's one offer
    goes out at tick 2, after the volunteer latency, and later only
    results return the workers to the idle pool."""
    batch = batch_of(*[noop_task(f"t{i}", duration=5.0) for i in range(5)],
                     noop_task("z", deps=["t0"], duration=3.0))
    scenario = Scenario(seed=6, horizon=300, volunteer_latency=2, workers=(
        WorkerSpec(worker_id="w1"), WorkerSpec(worker_id="w2", speed=2.0)))
    return batch, scenario, None


def _cut_by_horizon():
    batch = batch_of(noop_task("a", duration=12.0),
                     noop_task("b", deps=["a"], duration=12.0))
    scenario = Scenario(seed=1, horizon=18, heartbeat_period=3,
                        timeout_multiplier=2, workers=(
                            WorkerSpec(worker_id="w1", crash=7),
                            WorkerSpec(worker_id="w2", arrival=2),
                            WorkerSpec(worker_id="w3", stall=(10, 20))))
    return batch, scenario, None


def _attempts_run_out():
    batch = batch_of(noop_task("a", duration=3.0),
                     noop_task("t", deps=["a"], duration=3.0,
                               max_attempts=2))
    scenario = Scenario(seed=4, horizon=200, workers=(
        WorkerSpec(worker_id="w1"), WorkerSpec(worker_id="w2", arrival=5),
        WorkerSpec(worker_id="w3", crash_prob=0.01)))
    return batch, scenario, {"default": lambda s, r, w: s["id"] == "a"}


def _stall_mid_job():
    """w1 runs a at speed 0.7 and freezes from tick 4 to 8, over the
    heartbeat ticks 4, 6 and 8; its heartbeats resume on their phase at
    10 and its result comes five ticks late.  w2 idles and no task
    waits, so the missed beats time a out at 6 and w2 runs a backup,
    which w1's result still beats."""
    batch = batch_of(noop_task("a", duration=8.0),
                     noop_task("b", deps=["a"], duration=4.0))
    scenario = Scenario(seed=5, horizon=200, heartbeat_period=2,
                        timeout_multiplier=4, workers=(
                            WorkerSpec(worker_id="w1", speed=0.7,
                                       stall=(4, 5)),
                            WorkerSpec(worker_id="w2", speed=0.7,
                                       reliability=0.5)))
    return batch, scenario, None


def _emergency_while_running():
    """w1 stalls past the timeout, so w2 runs attempt 2; w1 still
    finishes attempt 1 first, and the run ends at the Emergency with w2
    mid-job."""
    batch = batch_of(noop_task("a", duration=10.0))
    scenario = Scenario(seed=8, horizon=200, heartbeat_period=2,
                        timeout_multiplier=2, workers=(
                            WorkerSpec(worker_id="w1", stall=(3, 6)),
                            WorkerSpec(worker_id="w2", speed=0.5,
                                       reliability=0.5)))
    return batch, scenario, None


def _quiet_faults():
    """Faults on quiet ticks, between heartbeats 7 ticks apart: w1's
    crash_prob roll, w2's crash at 12 and w4's departure at 41 all
    land mid-job on ticks where nothing else is due."""
    batch = batch_of(noop_task("a", duration=30.0),
                     noop_task("b", duration=30.0),
                     noop_task("c", deps=["a"], duration=30.0))
    scenario = Scenario(seed=3, horizon=400, heartbeat_period=7,
                        timeout_multiplier=2, workers=(
                            WorkerSpec(worker_id="w1", crash_prob=0.02),
                            WorkerSpec(worker_id="w2", crash=12),
                            WorkerSpec(worker_id="w3", speed=0.9,
                                       reliability=0.8),
                            WorkerSpec(worker_id="w4", reliability=0.5,
                                       departure=41)))
    return batch, scenario, None


def _horizon_mid_job():
    """The horizon cuts w1's job at 20, before its next heartbeat at 27:
    its utilization counts every tick it ran up to the horizon."""
    batch = batch_of(noop_task("a", duration=50.0))
    scenario = Scenario(seed=1, horizon=20, heartbeat_period=9, workers=(
        WorkerSpec(worker_id="w1", speed=1.3),))
    return batch, scenario, None


EDGE_CASES = {
    "late-arrival": _late_arrival,
    "departure-not-after-arrival": _departure_not_after_arrival,
    "crash-mid-job": _crash_mid_job,
    "crash-prob-and-departure": _crash_prob_and_departure,
    "stall-over-assignment": _stall_over_assignment,
    "offers-due-while-running": _offers_due_while_running,
    "cut-by-horizon": _cut_by_horizon,
    "attempts-run-out": _attempts_run_out,
    "stall-mid-job": _stall_mid_job,
    "emergency-while-running": _emergency_while_running,
    "quiet-faults": _quiet_faults,
    "horizon-mid-job": _horizon_mid_job,
}

# (case, jitter) -> (sha256 of log.dumps(), sha256 of report_fields)
EDGE_GOLDEN = {
    ("attempts-run-out", 0): (
        "3a3e42ad0a7f985067dd51e8256c4e5cce56bcd4d7d2350b53f785ea737cafaf",
        "fae70606002deca4f56e48688f8717a43d8efce9ad32cf49b9491a8ed7304cb2"),
    ("attempts-run-out", 2): (
        "52e6c370529208a0592ff90ea22f9ed6f00709d97db422317a129d7a69c6806c",
        "fae70606002deca4f56e48688f8717a43d8efce9ad32cf49b9491a8ed7304cb2"),
    ("crash-mid-job", 0): (
        "3775d555b2200b3bd87cce9e268ef730fa47c2b741b4cab17698f41ea645b0ff",
        "d9e6c627c0a0fc1fab1654a34875619311e4f500f692f8ee5074febda6adc9a3"),
    ("crash-mid-job", 2): (
        "a25d6e54f586acb9c178b3b8ae4d21d721ab8369ac6c6e9ffb46d5933e2d0927",
        "d9e6c627c0a0fc1fab1654a34875619311e4f500f692f8ee5074febda6adc9a3"),
    ("crash-prob-and-departure", 0): (
        "794aa11129f632b5f6c6f17a4a4a819382c25bb229cd4f01ab53599a54e55419",
        "f2b98bee5cd535e6f051ddf856c3cc68a9f5c067d2cd080935908ede72ea826e"),
    ("crash-prob-and-departure", 2): (
        "e0f2904652ed46d96f8c8baf32bad82cc34dbba62198290a2618a7e864104e00",
        "d7982e1d51aa374f2a83f388e6ff07be76db016ebd737795a0bcb0ca12888bd0"),
    ("cut-by-horizon", 0): (
        "3689b6b336b7b5a2a2f3525ca2aff430afffdafc421f26b07e612a2b368ee47e",
        "c65215c91a2243bc5c28d68a90ae4cdff559ce94e1a12588e95fde5e87e6a467"),
    ("cut-by-horizon", 2): (
        "48e8b71276d274898d7393a75cbdb0db5865cc3c433690c587131ed44ec71db4",
        "c65215c91a2243bc5c28d68a90ae4cdff559ce94e1a12588e95fde5e87e6a467"),
    ("departure-not-after-arrival", 0): (
        "8cd9f450bbd3643b8f9f2b8733b5ba851d11ef2c8b73dea0f4ddb139308324e5",
        "76b4d1ff7bc24da510d21f52f0ae3587c64ac71fd553c55364d5595066dc1c8d"),
    ("departure-not-after-arrival", 2): (
        "8cd9f450bbd3643b8f9f2b8733b5ba851d11ef2c8b73dea0f4ddb139308324e5",
        "76b4d1ff7bc24da510d21f52f0ae3587c64ac71fd553c55364d5595066dc1c8d"),
    ("emergency-while-running", 0): (
        "dfd16d06f01bf8fa64b74fb3960be4139dff94c7e1f6a12d3a07b1757b6243da",
        "d925af007afc073e42d13ea6c7500a8decd89204b3667c4778e30219cb3b1b9b"),
    ("emergency-while-running", 2): (
        "cb38f4d139436740a3442b1afa7debcf7a2427b75d0d4e0fff2eef8b57f12401",
        "d925af007afc073e42d13ea6c7500a8decd89204b3667c4778e30219cb3b1b9b"),
    ("horizon-mid-job", 0): (
        "85b56761b329b3f1391eb8c7555abf233c4318d54729a3c4479a57cc9b4da01c",
        "bd8902a2913470b597962bffac24533436cc31ac2385162146406de31dc13e12"),
    ("horizon-mid-job", 2): (
        "85b56761b329b3f1391eb8c7555abf233c4318d54729a3c4479a57cc9b4da01c",
        "bd8902a2913470b597962bffac24533436cc31ac2385162146406de31dc13e12"),
    ("late-arrival", 0): (
        "6dcdcbe5453ce76078fdc4fff40d629b764dea4f67887692930b414b789b40ae",
        "fff267e9b0cf36bc71437c9dc652dd59de3ce81db2e2fa6b4416355c01e739d2"),
    ("late-arrival", 2): (
        "6dcdcbe5453ce76078fdc4fff40d629b764dea4f67887692930b414b789b40ae",
        "fff267e9b0cf36bc71437c9dc652dd59de3ce81db2e2fa6b4416355c01e739d2"),
    ("offers-due-while-running", 0): (
        "b6a04461c25de1261e6a5077a00d04f0239b5fa8f0fa9af8cda4bba65e24b8c3",
        "f9eed02bbfad90b0d1a458342e20d766845f6713184b70e4511f30a759fbefe2"),
    ("offers-due-while-running", 2): (
        "55addfd28bbd7a2c193dcbeef9839c165374d21eb1d6e16bb9b28fb5cd849c7b",
        "89a78493b22c59f88cffe37d2823bc523341d3cc326d59286e8f31244b67ec80"),
    ("quiet-faults", 0): (
        "035f6be92e9a67a13c0750f8c50d20c5964feeb344bebc1d3914d5822cc1e1d5",
        "2b96ff9464e65d38a20e2416212c5d268ea27793d63a0e6519021c9a9fb738e6"),
    ("quiet-faults", 2): (
        "16e179206aff40fd4e2d306d6b33e7e5a0610845c65616aabdff97ee94242a52",
        "2096fa3790de9e98c56da4cb1e3b9845517d0978ad5688aa676b0b12aa9ba7c7"),
    ("stall-mid-job", 0): (
        "5f1bb0b4f4a65e874a4fc332fa3c4c8eb7a2836e0bc544614fd9c13f813f328c",
        "e937f7b5666991c2e021f667e6e3667ee6b849629be6655ee61fbc94f5d11b4d"),
    ("stall-mid-job", 2): (
        "d45de50c9a747595a9ca5c0675ab80e81984bee8a90d2ea722f049fcf57e60c7",
        "3881004d56ae96206237285036625671660872cd55322a58449d846e8516e2f9"),
    ("stall-over-assignment", 0): (
        "4a5f2846466a40657edce3c5f009fb44a0e6e2140466af15c8a45ef8f0f3e20f",
        "564306403149073a50fdb3d6eb0feff37742143846342235b2c7ef5285468c6b"),
    ("stall-over-assignment", 2): (
        "3e1fab5d14dcb606353058374d67a1ba11be515ad8fc8a837dce449ed0f324a9",
        "564306403149073a50fdb3d6eb0feff37742143846342235b2c7ef5285468c6b"),
}


def report_fields(report):
    """The makespan and the report fields the engine computes outside
    the log, as JSON."""
    return json.dumps([report.makespan, report.tasks_total,
                       sorted(report.per_worker_utilization.items())])


class TestEdgeGolden:
    @pytest.mark.parametrize("case, jitter", sorted(EDGE_GOLDEN))
    def test_log_and_report_match_the_golden_digests(self, case, jitter):
        batch, scenario, validators = EDGE_CASES[case]()
        scenario = dataclasses.replace(scenario, volunteer_jitter=jitter)
        report, log = run_simulation(batch, scenario, validators=validators)
        digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                        for text in (log.dumps(), report_fields(report)))
        assert digests == EDGE_GOLDEN[case, jitter]
        assert precedence_audit(log, batch) == []
        assert lifecycle_audit(log) == []


# every golden run's inputs, each also with volunteer jitter 2
GOLDEN_BUILDS = {**{case: build for case, (build, _)
                    in {**ASSIGNMENT_GOLDEN, **FOLD_CORPUS}.items()},
                 **EDGE_CASES}


class TestReferenceLoop:
    @pytest.mark.parametrize("jitter", [0, 2])
    @pytest.mark.parametrize("case", sorted(GOLDEN_BUILDS))
    def test_goldens_match_the_reference_loop(self, case, jitter):
        """The loop's mail set, wake ticks and tick jumps are invisible in
        the log: stepping every actor on every tick (step_every_tick)
        gives the same bytes and report, and no step it adds publishes.
        And as the Checker steps before the Coordinator, a finished run
        releases each dependent, and publishes its Emergency, in the tick
        of the verdict that allows it."""
        batch, scenario, validators = GOLDEN_BUILDS[case]()
        scenario = dataclasses.replace(scenario, volunteer_jitter=jitter)
        report, log = run_simulation(batch, scenario, validators=validators)
        ref_report, ref_log, woken = reference_run(batch, scenario,
                                                   validators)
        assert woken == []
        assert ref_log.dumps() == log.dumps()
        assert vars(ref_report) == vars(report)
        assert overruns(records_of(log), scenario.horizon) == []
        if report.completed:
            assert lags(records_of(log)) == {}


class TestSettledTicks:
    """A tick runs passes until no service has mail, so a message takes
    no ticks; only work does."""

    @pytest.mark.parametrize("jitter", [0, 2])
    @pytest.mark.parametrize("case", sorted(GOLDEN_BUILDS))
    def test_a_result_is_answered_in_its_tick(self, case, jitter,
                                              monkeypatch):
        """Every verdict and every Checker republication comes in the
        tick of the result it answers, and no tick makes more passes than
        one plus the records it logs."""
        ticks = record_passes(monkeypatch)
        batch, scenario, validators = GOLDEN_BUILDS[case]()
        scenario = dataclasses.replace(scenario, volunteer_jitter=jitter)
        _, log = run_simulation(batch, scenario, validators=validators)
        records = records_of(log)
        assert unanswered(records) == []
        assert extra_passes(passes_by_tick(ticks, records), records) == []

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_a_chain_of_unit_tasks_takes_a_tick_a_task(self, n,
                                                       monkeypatch):
        """A chain of n unit tasks on one speed-1 worker ends at tick n.
        Each tick makes two passes: in the first the worker offers itself
        or sends a result, and in the second that message is answered,
        the next task released and assigned, and the worker starts it."""
        ticks = record_passes(monkeypatch)
        batch = batch_of(*(noop_task(f"t{i:02d}",
                                     deps=[f"t{i - 1:02d}"] if i else ())
                           for i in range(n)))
        report, log = run_simulation(batch, ONE_WORKER)
        assert report.completed and report.makespan == n
        assert passes_by_tick(ticks, records_of(log)) == \
            {tick: 2 for tick in range(n + 1)}


class TestWakes:
    """The wakes the loop reads, asked after every record, equal their
    from-scratch references (wake_drift)."""

    @pytest.mark.parametrize("jitter", [0, 2])
    @pytest.mark.parametrize("case", sorted(GOLDEN_BUILDS))
    def test_wakes_match_a_from_scratch_reference(self, case, jitter):
        batch, scenario, validators = GOLDEN_BUILDS[case]()
        scenario = dataclasses.replace(scenario, volunteer_jitter=jitter)
        assert wake_drift(batch, scenario, validators) == []

    def test_a_stale_monitor_wake_is_caught(self, monkeypatch):
        """A planted bug: a Monitor that works its wake out again only
        when an attempt opens or closes, so a heartbeat or a change of
        the idle and to-do tables leaves it stale."""
        fresh = actors.Monitor.wake.fget

        def stale(self):
            key = tuple(self.bus.log.tally.inflight)
            if getattr(self, "stale", (None,))[0] != key:
                self.stale = (key, fresh(self))
            return self.stale[1]

        monkeypatch.setattr(actors.Monitor, "wake", property(stale))
        batch, scenario, validators = GOLDEN_BUILDS["stall-mid-job"]()
        drift = wake_drift(batch, scenario, validators)
        assert drift and {wid for _, wid, _, _ in drift} == {"monitor"}


class TestFoldAgainstScan:
    """The fold's tables, folded record by record, equal a scan of the
    records so far after every record of each golden run; and as no
    record changes a released task's spec, one spec per task answers for
    every published attempt."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_BUILDS))
    def test_the_fold_equals_a_scan_after_every_record(self, case):
        batch, scenario, validators = GOLDEN_BUILDS[case]()
        _, log = run_simulation(batch, scenario, validators=validators)
        records = records_of(log)
        assert fold_drift(records, range(len(records) + 1)) == []

    @pytest.mark.parametrize("case", sorted(GOLDEN_BUILDS))
    def test_a_released_tasks_spec_never_changes(self, case):
        batch, scenario, validators = GOLDEN_BUILDS[case]()
        _, log = run_simulation(batch, scenario, validators=validators)
        assert respecified(records_of(log)) == []

    def test_an_unfold_rewires_its_dependents_before_their_release(self):
        """The ADAPT run unfolds its solver, so some TasksToDo records
        carry a spec the WaitingTasks record did not: those are the first
        on TasksToDo, and none after them differs."""
        batch, scenario, _ = _adapt_unfold()
        _, log = run_simulation(batch, scenario)
        records = records_of(log)
        specs = effective_specs(records)
        waiting = {r["payload"]["task_id"]: specs[r["seq"]] for r in records
                   if r["channel"] == "WaitingTasks"}
        rewired = {r["payload"]["task_id"] for r in records
                   if r["channel"] == "TasksToDo" and r["kind"] == "task"
                   and r["payload"]["task_id"] in waiting
                   and specs[r["seq"]] != waiting[r["payload"]["task_id"]]}
        assert rewired and respecified(records) == []


def test_reopened_workspace_answers_like_the_one_that_ran(tmp_path):
    batch, scenario, _ = _adapt_unfold()
    ran = Workspace(tmp_path)
    report, _ = run_simulation(batch, scenario, workspace=ran)
    assert report.completed
    reopened = Workspace(tmp_path)
    assert len(ran.sizes()) > 10
    assert reopened.sizes() == ran.sizes()
    for dataset_id in [*ran.sizes(), "ghost"]:
        assert reopened.record(dataset_id) == ran.record(dataset_id)
        assert reopened.has_ready(dataset_id) == ran.has_ready(dataset_id)
        assert reopened.checksum(dataset_id) == ran.checksum(dataset_id)


def test_run_leaves_one_manifest_and_one_pack(tmp_path):
    """A dataset costs no file creation: the directory holds the manifest
    and the data pack, and a reopened Workspace serves every verified
    dataset with the checksum its verified result logged."""
    batch, scenario, _ = _adapt_unfold()
    report, log = run_simulation(batch, scenario,
                                 workspace=Workspace(tmp_path))
    assert report.completed
    verified = {dataset_id: checksum
                for result in verified_results(records_of(log)).values()
                for dataset_id, checksum in result["outputs"].items()}
    assert len(verified) > 10
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        ["workspace.dat", "workspace.jsonl"]
    reopened = Workspace(tmp_path)
    for dataset_id, checksum in verified.items():
        assert reopened.record(dataset_id).stage is DatasetStage.READY
        assert reopened.checksum(dataset_id) == checksum
        assert checksum_hex(reopened.get(dataset_id)) == checksum


def test_run_without_outputs_leaves_only_the_manifest(tmp_path):
    batch = batch_of(noop_task("a", outputs=()),
                     noop_task("b", deps=["a"], outputs=()))
    scenario = Scenario(seed=1, horizon=50,
                        workers=(WorkerSpec(worker_id="w1"),))
    report, _ = run_simulation(batch, scenario,
                               workspace=Workspace(tmp_path))
    assert report.completed
    assert [path.name for path in tmp_path.iterdir()] == ["workspace.jsonl"]


class TestVolunteerTraffic:
    @pytest.mark.parametrize("case", sorted(ASSIGNMENT_GOLDEN))
    def test_assignments_match_the_golden_schedule(self, case):
        build, digest = ASSIGNMENT_GOLDEN[case]
        batch, scenario, _ = build()
        report, log = run_simulation(batch, scenario)
        assert report.completed
        assert assignments_digest(records_of(log)) == digest

    @pytest.mark.parametrize("jitter", [0, 2])
    @pytest.mark.parametrize("case", sorted(ASSIGNMENT_GOLDEN))
    def test_each_worker_offers_once(self, case, jitter):
        batch, scenario, _ = ASSIGNMENT_GOLDEN[case][0]()
        scenario = dataclasses.replace(scenario, volunteer_jitter=jitter)
        report, log = run_simulation(batch, scenario)
        assert report.completed
        records = records_of(log)
        offerers = [worker for _, _, worker in offers_of(records)]
        assert offerers
        assert len(offerers) == len(set(offerers))
        assert precedence_audit(log, batch) == []
        assert lifecycle_audit(log) == []

    @pytest.mark.parametrize("tasks,workers",
                             [(10, 4), (25, 3), (6, 8), (200, 64), (800, 16)])
    def test_flat_batch_envelopes_are_linear_in_tasks(self, tasks, workers,
                                                      monkeypatch):
        """Fault-free duration-1 noops: per task its WaitingTasks and
        TasksToDo publications, assignment, started, result and verdict;
        one offer per worker; one Emergency.  The coordinator drains only
        each offer, result and verdict: not the WaitingTasks, nor its own
        tasks and assignments."""
        drained = []
        drain = InProcessBus.drain

        def counting_drain(self, actor_id):
            out = drain(self, actor_id)
            if actor_id == "coordinator":
                drained.extend(out)
            return out

        monkeypatch.setattr(InProcessBus, "drain", counting_drain)
        batch = batch_of(*[noop_task(f"t{i:03d}") for i in range(tasks)])
        scenario = Scenario(seed=1, horizon=1000, workers=tuple(
            WorkerSpec(worker_id=f"w{i:02d}") for i in range(workers)))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        assert report.messages_total == 6 * tasks + workers + 1
        assert report.messages_by_channel["VolunteerWorkers"] == workers
        assert len(drained) == 2 * tasks + workers

    def test_republished_attempt_goes_to_the_pool(self):
        """w1 wins t and stalls past the horizon; the monitor republishes
        t as attempt 2, and w2, idle since its one offer, runs it without
        offering again."""
        batch = batch_of(noop_task("t", duration=10.0))
        scenario = Scenario(seed=1, horizon=120, heartbeat_period=3,
                            timeout_multiplier=2, workers=(
                                WorkerSpec(worker_id="w1", stall=(2, 200)),
                                WorkerSpec(worker_id="w2")))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        records = records_of(log)
        assert offers_of(records) == [("t", 1, "w1"), ("t", 1, "w2")]
        assigned = [(r["payload"]["worker_id"], r["payload"]["attempt"])
                    for r in records if r["kind"] == "assignment"]
        assert assigned == [("w1", 1), ("w2", 2)]
        verdicts = [r["payload"] for r in records if r["kind"] == "verdict"]
        assert [(v["attempt"], v["ok"]) for v in verdicts] == [(2, True)]
        assert precedence_audit(log, batch) == []
        assert lifecycle_audit(log) == []


def _flat_noop_seed_2():
    """The benchmark's flat-noop batch at seed 2, 200 duration-1 noops
    with random ids on 16 workers, with w03 stalled from tick 10 for 24
    ticks, inside the job it started at 9.  (The workload's own stalls,
    at ticks 20 and 31, come after its run ends at 13.)"""
    rng = random.Random(2)
    ids = sorted(f"t{n:08x}" for n in rng.sample(range(1 << 32), 200))
    batch = batch_of(*[noop_task(tid, outputs=()) for tid in ids])
    scenario = Scenario(seed=2, horizon=20000, heartbeat_period=5,
                        timeout_multiplier=3, workers=tuple(
                            WorkerSpec(worker_id=f"w{i:02d}",
                                       stall=(10, 24) if i == 3 else None)
                            for i in range(16)))
    return batch, scenario


class TestSilentWorkersStayOutOfThePool:
    """A monitor timeout once freed the silent worker, so the coordinator
    handed a stalled or dead worker a task it could not run, and only a
    second timeout recovered that task.  lifecycle_audit reports an
    assignment to a worker outside the fold's idle table."""

    def test_stalled_worker_is_not_assigned_until_its_result(self):
        batch, scenario = _flat_noop_seed_2()
        assert "tef232a32" in batch.tasks
        report, log = run_simulation(batch, scenario)
        assert report.completed
        records = records_of(log)
        assert lifecycle_audit(records) == []
        timed_out = {r["payload"]["task_id"] for r in records
                     if r["kind"] == "task" and r["sender"] == "monitor"}
        w03 = [r["payload"]["task_id"] for r in records
               if r["kind"] == "assignment"
               and r["payload"]["worker_id"] == "w03"]
        # w03 stalls from tick 10 to 34 inside its last job, which times
        # out; the batch finishes before w03 speaks again
        assert w03[-1] in timed_out
        assert report.makespan < 34

    @pytest.mark.parametrize("jitter", [0, 2])
    def test_dead_worker_wins_no_task(self, jitter):
        batch, scenario, validators = _crash_prob_and_departure()
        scenario = dataclasses.replace(scenario, volunteer_jitter=jitter)
        report, log = run_simulation(batch, scenario, validators=validators)
        assert report.completed
        records = records_of(log)
        assert any(r["kind"] == "task" and r["sender"] == "monitor"
                   for r in records)
        assert lifecycle_audit(records) == []


def test_the_fold_rows_follow_an_unfold():
    """The adapt-unfold golden splices tasks into the batch and crashes
    a worker.  The unfolded parent's row stays Waiting, as the parent is
    never released; the spliced tasks reach TasksToDo with no Waiting
    row; and every task of the final batch ends Finished."""
    batch, scenario, _ = _adapt_unfold()
    report, log = run_simulation(batch, scenario)
    assert report.completed and log.tally.lifecycle == []
    rows = log.tally.rows
    parents = {tid.split("/")[0] for tid in rows if "/" in tid}
    assert parents and all(rows[tid] == (TaskState.WAITING, 1)
                           for tid in parents)
    assert sum(state is TaskState.FINISHED for state, _ in rows.values()) \
        == len(rows) - len(parents) == report.tasks_total
    assert any("/" in r["payload"]["task_id"] for r in records_of(log)
               if r["kind"] == "assignment")


@given(batch=noop_dags(),
       scenario=scenarios(max_tick=50, max_heartbeat=4, min_workers=1))
@settings(max_examples=60, deadline=None)
def test_a_pool_without_faults_is_never_suspected(batch, scenario):
    """Without crashes, stalls or departures every job beats every H
    ticks, so even the one-missed-heartbeat deadline never fires: the
    monitor republishes nothing."""
    scenario = dataclasses.replace(scenario, horizon=2000, workers=tuple(
        dataclasses.replace(ws, departure=None, crash=None, crash_prob=0.0,
                            stall=None)
        for ws in scenario.workers))
    report, log = run_simulation(batch, scenario)
    assert report.timeouts == 0
    assert not any(r["sender"] == "monitor" for r in records_of(log))


@given(batch=noop_dags(),
       scenario=scenarios(max_tick=50, max_crash_prob=0.05,
                          max_heartbeat=4, min_workers=1),
       horizon=st.integers(100, 400), tame=st.booleans())
@settings(max_examples=50, deadline=None)
def test_random_runs_are_clean_deterministic_and_finish(batch, scenario,
                                                         horizon, tame):
    """Random noop DAGs under random scenarios whose faults fall in the
    first 100 ticks: both audits pass (so no silent worker re-enters
    the pool), the fold's tables equal a scan of the records after each
    tick (fold_drift), a second run and the reference loop give the
    same bytes, a pool without faults finishes the batch, and a finished
    batch shows no release or end lag."""
    scenario = tamed(scenario) if tame else \
        dataclasses.replace(scenario, horizon=horizon)
    report, log = run_simulation(batch, scenario)
    records = records_of(log)
    assert fold_drift(records, tick_ends(records)) == []
    _, again = run_simulation(batch, scenario)
    assert replay_check(log, again)
    ref_report, ref_log, woken = reference_run(batch, scenario)
    assert woken == []
    assert replay_check(log, ref_log)
    assert vars(ref_report) == vars(report)
    assert precedence_audit(records, batch) == []
    assert lifecycle_audit(records) == []
    assert overruns(records, scenario.horizon) == []
    if tame:
        assert report.completed
    if report.completed:
        assert lags(records) == {}
