"""Deterministic tick-level simulator for the actor protocol.

One call to run_simulation plays a whole batch against a scenario of
workers.  At tick 0, before its population events, the broker publishes
the batch on WaitingTasks and the coordinator, handed it by `adopt`,
releases its roots.  Then, per tick, in this exact order:

  1. population events: the departures and crashes scheduled for this
     tick (a departure at or before arrival takes effect at arrival),
     then seeded random crashes (one draw per arrived, alive at-risk
     worker, sorted by worker id)
  2. checker, coordinator, monitor (the broker has no mail).  A broker
     hands a message over as soon as it is published, so the checker
     goes first: the coordinator reads a verdict in the tick it is
     made, releases its dependents, which the workers see in that
     tick, and publishes the Emergency in the tick of the last one.
     The run ends here in the tick of the Emergency, which the loop
     reads from the log's fold, and nothing is logged after it
  3. workers, sorted by worker id (a worker before its arrival or in
     its stall window is frozen: its step does nothing, and its mail
     waits for the tick it thaws)

An actor is stepped only when the bus holds mail for it or its `wake`
tick (see actors.py) has come, as any other step would do nothing; a
dead worker leaves the bus.  So a tick costs the actors with work, not
the size of the pool.  Nor does the loop visit a tick where nothing is
due: after a tick that leaves a service mail it goes on to the next
tick, and otherwise it jumps to the earliest wake, scheduled departure
or crash, or the horizon.  A worker drains its mail in the tick it
comes, unless it is frozen; then its wake is the tick it thaws, so a
late arrival or a long stall costs no ticks.  A running job wakes its
worker only for a heartbeat or its result, so a long job costs its
heartbeats, not its ticks.  The monitor has no mail (it reads the
fold's in-flight, idle and to-do tables), and nobody subscribes to
TasksInProgress, so a heartbeat does not keep the loop on the next
tick.  The exception is a live worker with a crash_prob: its death roll
is one RNG draw per tick from its arrival on, so while it lives the loop
visits every tick.  None of this shows in the log: `_Run` sets up the
actors for any loop, and one that steps every service and every live
worker on every tick writes the same bytes.

All randomness flows through a single random.Random(seed), so identical
inputs produce byte-identical event logs; the loop ends in the tick of
the Emergency, stopping the live workers at the tick before (see 2.),
or at the horizon with completed=False.  A dead worker was stopped as
it died.

Workers join the bus at tick 0 regardless of their arrival tick; a
worker is frozen until it arrives.  The bus does not replay, so this is
what lets latecomers see tasks published before they arrive: their
queue just waits for them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Optional

from .actors import Broker, Checker, Coordinator, Monitor, SlaPolicy, \
    WorkerActor
from .bus import (CHANNEL_CATALOG, KIND_FIELDS, SERVICE_CATALOG, EventLog,
                  InProcessBus, LogTally)
from .errors import MalformedLog
from .execution import Workspace
from .model import _SCALARS, WorkerProfile, WorkflowBatch, _wrong, load


# ------------------------------------------------------------- scenarios

@dataclass(frozen=True)
class WorkerSpec:
    """One worker's lifecycle inside a scenario."""

    worker_id: str
    capabilities: frozenset[str] = frozenset()
    speed: float = 1.0
    reliability: float = 1.0
    arrival: int = 0
    departure: Optional[int] = None   # handled as a crash at this tick
    crash: Optional[int] = None       # dies at this tick
    crash_prob: float = 0.0           # per-tick seeded death chance
    stall: Optional[tuple[int, int]] = None  # frozen for (from, ticks)

    def __post_init__(self) -> None:
        self.profile()  # runs WorkerProfile's checks
        if not 0.0 <= self.crash_prob <= 1.0:
            raise ValueError("crash_prob must be in [0, 1]")
        # a departure or crash at or before arrival takes effect at
        # arrival, so those two may be any tick
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if self.stall is not None and min(self.stall) < 0:
            raise ValueError("stall's from and ticks must be >= 0")

    def profile(self) -> WorkerProfile:
        return WorkerProfile(self.worker_id, self.capabilities, self.speed,
                             self.reliability)


@dataclass(frozen=True)
class Scenario:
    seed: int = 0
    horizon: int = 1000
    heartbeat_period: int = 5
    timeout_multiplier: int = 3
    volunteer_latency: int = 0
    volunteer_jitter: int = 0
    workers: tuple[WorkerSpec, ...] = ()

    _doc_keys = {"heartbeat_period": "heartbeat.H",
                 "timeout_multiplier": "heartbeat.k"}

    def __post_init__(self) -> None:
        if min(self.heartbeat_period, self.timeout_multiplier) < 1:
            raise ValueError("heartbeat.H and heartbeat.k must be >= 1")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if min(self.volunteer_latency, self.volunteer_jitter) < 0:
            raise ValueError(
                "volunteer_latency and volunteer_jitter must be >= 0")
        seen: set[str] = set()
        for wid in (ws.worker_id for ws in self.workers):
            if wid in SERVICE_CATALOG:
                raise ValueError(f"reserved worker_id {wid!r}")
            if wid in seen:
                raise ValueError(f"duplicate worker_id {wid!r}")
            seen.add(wid)


def scenario_from_dict(doc: object) -> Scenario:
    """Read a scenario document through model.load (see README)."""
    return load(Scenario, doc, "scenario")


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text("utf-8")))


# --------------------------------------------------------------- report

@dataclass
class Report:
    """The document `pubflow report` prints: what one fold of a log
    shows, its keys in print order."""

    messages_total: int
    messages_by_channel: dict[str, int]  # sorted by channel
    messages_by_kind: dict[str, int]     # sorted by kind
    tasks_seen: int                      # task ids, an unfolded parent too
    re_executions: int
    timeouts: int
    duplicates: int
    makespan: int                        # the last logged tick
    completed: bool
    failed: bool

    @classmethod
    def of(cls, tally: LogTally) -> Report:
        return cls(tally.messages_total,
                   dict(sorted(tally.by_channel.items())),
                   dict(sorted(tally.by_kind.items())), len(tally.attempts),
                   tally.re_executions, tally.timeouts, tally.duplicates,
                   tally.makespan, tally.completed, tally.reason == "failed")


@dataclass
class SimReport(Report):
    """A run's Report plus what its log cannot carry."""

    tasks_total: int        # the final batch, unfolded sub-tasks included
    horizon: Optional[int]  # where the run was cut, else None
    per_worker_utilization: dict[str, float]


# ------------------------------------------------------------ simulation

class _Run:
    """One run's actors and population schedule, set up for a loop to
    step: the services in the one order every tick steps them, the
    workers by id, and the ticks at which workers leave or crash."""

    def __init__(self, batch: WorkflowBatch, scenario: Scenario,
                 sla: SlaPolicy, workspace: Workspace,
                 validators: Optional[dict]) -> None:
        self.scenario = scenario
        self.bus = bus = InProcessBus()
        self.rng = rng = Random(scenario.seed)
        broker = Broker(bus)
        self.coordinator = Coordinator(bus, sla,
                                       dataset_sizes=workspace.sizes)
        monitor = Monitor(bus, scenario.heartbeat_period,
                          scenario.timeout_multiplier,
                          horizon=scenario.horizon)
        checker = Checker(bus, workspace, validators)
        self.roster = {}  # worker id -> (spec, actor), in id order
        for ws in sorted(scenario.workers, key=lambda w: w.worker_id):
            self.roster[ws.worker_id] = (ws, WorkerActor(
                bus, ws.profile(), workspace,
                heartbeat_period=scenario.heartbeat_period,
                volunteer_latency=scenario.volunteer_latency,
                volunteer_jitter=scenario.volunteer_jitter,
                rng=rng, stall=ws.stall, horizon=scenario.horizon,
                arrival=ws.arrival))
        # the Checker first: the Coordinator acts on a verdict in its tick
        self.services = (checker, self.coordinator, monitor)

        broker.submit(batch)
        self.coordinator.adopt(batch)  # after every actor joined: no replay

        self.ends: dict[int, list[str]] = {}  # tick -> workers leaving
        for wid, (ws, _) in self.roster.items():
            edges = [t for t in (ws.departure, ws.crash) if t is not None]
            if edges:
                self.ends.setdefault(max(ws.arrival, min(edges)),
                                     []).append(wid)
        # worker id -> the tick its death rolls start, while it lives
        self.risky = {wid: ws.arrival for wid, (ws, _) in self.roster.items()
                      if ws.crash_prob > 0}
        self.wake: dict[str, float] = {}  # _step_due's finite worker wakes
        self.died: dict[str, int] = {}

    def begin(self, now: int) -> None:
        """Open tick `now` with its population events (step 1 above)."""
        self.bus.now = now
        for wid in self.ends.pop(now, ()):
            if wid not in self.died:
                self._kill(wid, now)
        for wid, first in list(self.risky.items()):
            if now >= first and \
                    self.rng.random() < self.roster[wid][0].crash_prob:
                self._kill(wid, now)

    def _kill(self, wid: str, now: int) -> None:
        self.died[wid] = now
        self.bus.leave(wid)
        self.wake.pop(wid, None)
        self.risky.pop(wid, None)
        self.roster[wid][1].stop(now - 1)

    def report(self, now: int) -> SimReport:
        """Stop the live workers at `now`, the loop's last tick (at the
        tick before, if it was the Emergency's), and report the run."""
        tally = self.bus.log.tally
        for wid, (_, actor) in self.roster.items():
            if wid not in self.died:  # _kill stopped the dead ones
                actor.stop(now if tally.reason is None else now - 1)
        utilization = {}
        for wid, (ws, actor) in self.roster.items():
            span = max(0, self.died.get(wid, now + 1) - ws.arrival)
            utilization[wid] = actor.executed_ticks / span if span else 0.0
        return SimReport(
            **vars(Report.of(tally)),
            tasks_total=len(self.coordinator.batch.tasks),
            horizon=self.scenario.horizon if tally.reason is None else None,
            per_worker_utilization=utilization)


def _step_due(run: _Run) -> int:
    """Play the run, stepping only the actors with mail or a due wake and
    skipping the ticks where nothing is due; returns the last tick."""
    bus, tally, horizon = run.bus, run.bus.log.tally, run.scenario.horizon
    roster, wake = run.roster, run.wake
    services, ends, risky = run.services, run.ends, run.risky
    service_ids = {service.id for service in services}
    now = 0
    while True:
        run.begin(now)
        for service in services:
            if service.id in bus.mail or service.wake <= now:
                service.step(now)
        if tally.reason is not None:  # the Emergency: no worker acts in it
            return now
        due = {wid for wid in bus.mail if wid in roster}
        due.update(wid for wid, tick in wake.items() if tick <= now)
        for wid in sorted(due):
            actor = roster[wid][1]
            actor.step(now)
            tick = actor.wake
            if tick < math.inf:
                wake[wid] = tick
            else:
                wake.pop(wid, None)
        if now == horizon:
            return now
        if not bus.mail.isdisjoint(service_ids):
            now += 1
            continue
        # no service mail: jump to the next wake (a frozen worker's mail
        # is in its wake), scheduled end or horizon, or to the next tick
        # while a crash_prob worker has arrived
        now = max(now + 1, min(
            horizon, *ends, *wake.values(),
            *(service.wake for service in services), *risky.values()))


def run_simulation(batch: WorkflowBatch, scenario: Scenario, *,
                   sla: SlaPolicy = SlaPolicy(),
                   workspace: Optional[Workspace] = None,
                   validators: Optional[dict] = None,
                   log_path: Optional[str | Path] = None,
                   ) -> tuple[SimReport, EventLog]:
    """Play the batch to completion, failure, or the horizon.

    Heartbeat timing comes from the scenario, the attempt budget from
    each task's max_attempts, and worker selection weighs by `sla`.
    """
    own_tmp = None
    if workspace is None:
        import tempfile
        own_tmp = tempfile.TemporaryDirectory(prefix="pubflow-")
        workspace = Workspace(own_tmp.name)
    try:
        run = _Run(batch, scenario, sla, workspace, validators)
        report = run.report(_step_due(run))
        if log_path is not None:
            run.bus.log.write(log_path)
        return report, run.bus.log
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def replay_check(log_a: EventLog, log_b: EventLog) -> bool:
    """True when two runs produced byte-identical logs."""
    return log_a.dumps().encode("utf-8") == log_b.dumps().encode("utf-8")


# ----------------------------------------------------------------- audits

# each record key's JSON type, as bus.KIND_FIELDS gives each payload's
_RECORD_KEYS = {"seq": int, "ts": int, "channel": str, "kind": str,
                "sender": str}
_DECODE = json.JSONDecoder().raw_decode


def _check(lineno: int, what: str, obj: dict, fields: dict) -> None:
    """Refuse `obj` unless each of `fields` is in it with exactly its type."""
    for name, want in fields.items():
        if type(obj.get(name)) is not want:
            if missing := sorted(fields.keys() - obj.keys()):
                raise MalformedLog(f"line {lineno}: {what} missing {missing}")
            raise MalformedLog(str(_wrong(f"line {lineno}: {what} {name}",
                                          _SCALARS[want][0], obj[name])))


def parse_log(text: str) -> list[dict]:
    """Parse a JSONL event log, checking the types of each record's keys,
    its payload's fields, a task's spec if given and that spec's deps (the
    spec key the audits read), and seq continuity.  Fields that no kind
    declares are ignored, so an older log that carries them still reads."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:  # json.loads without its two whitespace scans
            record, end = _DECODE(line)
            if end < len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except json.JSONDecodeError as exc:
            raise MalformedLog(f"line {lineno}: not JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise MalformedLog(f"line {lineno}: not an object")
        _check(lineno, "record", record, _RECORD_KEYS)
        if record["channel"] not in CHANNEL_CATALOG:
            raise MalformedLog(
                f"line {lineno}: unknown channel {record['channel']!r}")
        kind, payload = record["kind"], record.get("payload")
        required = KIND_FIELDS.get(kind)
        if required is None:
            raise MalformedLog(f"line {lineno}: unknown kind {kind!r}")
        if type(payload) is not dict:
            raise MalformedLog(
                f"line {lineno}: {kind} payload must be an object")
        _check(lineno, kind + " payload", payload, required)
        if kind == "task" and "spec" in payload:
            _check(lineno, "task payload", payload, {"spec": dict})
            deps = payload["spec"].get("deps", [])
            if type(deps) is not list or not set(map(type, deps)) <= {str}:
                raise MalformedLog(f"line {lineno}: task spec.deps must "
                                   "be a list of strings")
        records.append(record)
    for index, record in enumerate(records, start=1):
        if record["seq"] != index:
            raise MalformedLog(
                f"seq {record['seq']} at position {index}: "
                "log is not a gap-free seq run from 1")
    return records


def _fold(log: EventLog | LogTally | str | list[dict]) -> LogTally:
    """The fold that the audits and `report` read: a fold as given, a
    log's own, or that of its JSONL text or of parse_log's records."""
    if isinstance(log, LogTally):
        return log
    if isinstance(log, EventLog):
        return log.tally
    tally = LogTally()
    for record in parse_log(log) if isinstance(log, str) else log:
        tally.add(record)
    return tally


def precedence_audit(log: EventLog | LogTally | str | list[dict],
                     batch: Optional[WorkflowBatch] = None) -> list[str]:
    """Check that no task started before all its dependencies were
    verified.

    Dependencies are taken from the task specs carried in the log
    itself, each task's latest publication, so re-publications and
    unfolded sub-tasks are covered without knowing the rules that
    produced them.  With `batch`, also report each of its tasks that no
    task record names, nor any of its unfolded sub-tasks ('id/...').  A
    record on either channel counts: a task published on WaitingTasks
    but never released, as at a horizon cut, is not reported, though the
    violation's text names TasksToDo.  Returns a list of violation
    descriptions; an empty list means the order was clean.
    """
    tally = _fold(log)
    violations = []
    for seq, tid in tally.started:
        for dep in sorted(set(tally.latest.get(tid, {}).get("deps", ()))):
            verdict = tally.verified.get(dep)
            if verdict is None:
                violations.append(
                    f"task {tid} started (seq {seq}) but dependency "
                    f"{dep} was never verified")
            elif verdict >= seq:
                violations.append(
                    f"task {tid} started (seq {seq}) before dependency "
                    f"{dep} was verified (seq {verdict})")
    published = tally.latest
    for tid in sorted(batch.tasks if batch is not None else ()):
        if tid not in published and not any(
                other.startswith(tid + "/") for other in published):
            violations.append(f"task {tid} never appeared on TasksToDo")
    return violations


def lifecycle_audit(
        log: EventLog | LogTally | str | list[dict]) -> list[str]:
    """Check per-(task, attempt) message ordering and verdict uniqueness.

    Rules enforced:
      * a task reaches TasksToDo only after WaitingTasks, unless its id
        is namespaced (contains '/'), meaning it was spliced in later
      * a task record without a spec follows one of its task with a spec
      * per (task, attempt): assignment after task publication, started
        after assignment, results after started
      * an assignment goes to an idle worker: one that sent a volunteer
        or a result since its last assignment (the fold's idle table)
      * each move of a task's row (a task record on WaitingTasks or
        TasksToDo, an assignment, an ok verdict) passes
        model.check_transition: a Finished task is never republished,
        assigned or verified again, and a republication raises the
        attempt of a task in progress; a refused move is one violation,
        and its record changes no table but the message counts
    """
    return list(_fold(log).lifecycle)
