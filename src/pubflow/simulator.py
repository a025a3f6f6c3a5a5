"""Deterministic tick-level simulator for the actor protocol.

One call to run_simulation plays a whole batch against a scenario of
workers.  Per tick, in this exact order:

  1. population events: scheduled arrivals, departures, crashes, and
     seeded random crashes (one draw per alive at-risk worker, sorted
     by worker id)
  2. broker, coordinator, monitor, checker
  3. workers, sorted by worker id (skipped while not yet arrived or
     inside a stall window)

All randomness flows through a single random.Random(seed), so identical
inputs produce byte-identical event logs; the loop ends after the tick
in which the coordinator publishes its Emergency envelope, or at the
horizon with completed=False.

Workers join the bus at tick 0 regardless of their arrival tick; the
arrival only gates when they start acting.  The bus does not replay, so
this is what lets latecomers see tasks published before they arrive:
their queue just waits for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Optional

from .actors import Broker, Checker, Coordinator, Monitor, SlaPolicy, \
    WorkerActor
from .bus import CHANNEL_CATALOG, EventLog, InProcessBus
from .errors import MalformedLog
from .execution import Workspace
from .model import WorkerProfile, WorkflowBatch, load


# ------------------------------------------------------------- scenarios

@dataclass(frozen=True)
class WorkerSpec:
    """One worker's lifecycle inside a scenario."""

    worker_id: str
    capabilities: frozenset[str] = frozenset()
    speed: float = 1.0
    reliability: float = 1.0
    arrival: int = 0
    departure: Optional[int] = None   # leaves cleanly at this tick
    crash: Optional[int] = None       # dies at this tick
    crash_prob: float = 0.0           # per-tick seeded death chance
    stall: Optional[tuple[int, int]] = None  # frozen for (from, ticks)

    def __post_init__(self) -> None:
        self.profile()  # runs WorkerProfile's checks
        if not 0.0 <= self.crash_prob <= 1.0:
            raise ValueError("crash_prob must be in [0, 1]")

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
        ids = [ws.worker_id for ws in self.workers]
        for wid in ids:
            if ids.count(wid) > 1:
                raise ValueError(f"duplicate worker_id {wid!r}")


def scenario_from_dict(doc: object) -> Scenario:
    """Read a scenario document through model.load (see README)."""
    return load(Scenario, doc, "scenario")


def scenario_to_dict(scenario: Scenario) -> dict:
    workers = []
    for ws in scenario.workers:
        item: dict = {
            "worker_id": ws.worker_id,
            "capabilities": sorted(ws.capabilities),
            "speed": ws.speed,
            "reliability": ws.reliability,
            "arrival": ws.arrival,
        }
        if ws.departure is not None:
            item["departure"] = ws.departure
        if ws.crash is not None:
            item["crash"] = ws.crash
        if ws.crash_prob:
            item["crash_prob"] = ws.crash_prob
        if ws.stall is not None:
            item["stall"] = list(ws.stall)
        workers.append(item)
    return {
        "seed": scenario.seed,
        "horizon": scenario.horizon,
        "heartbeat": {"H": scenario.heartbeat_period,
                      "k": scenario.timeout_multiplier},
        "volunteer_latency": scenario.volunteer_latency,
        "volunteer_jitter": scenario.volunteer_jitter,
        "workers": workers,
    }


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text("utf-8")))


# --------------------------------------------------------------- report

@dataclass
class SimReport:
    completed: bool
    makespan: int
    tasks_total: int
    re_executions: int
    messages_total: int
    messages_by_channel: dict[str, int] = field(default_factory=dict)
    per_worker_utilization: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "completed": self.completed,
            "makespan": self.makespan,
            "tasks_total": self.tasks_total,
            "re_executions": self.re_executions,
            "messages_total": self.messages_total,
            "messages_by_channel": dict(sorted(
                self.messages_by_channel.items())),
            "per_worker_utilization": dict(sorted(
                self.per_worker_utilization.items())),
        }


# ------------------------------------------------------------ simulation

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
        bus = InProcessBus()
        rng = Random(scenario.seed)
        broker = Broker(bus)
        coordinator = Coordinator(bus, sla, dataset_sizes=workspace.sizes)
        monitor = Monitor(bus, scenario.heartbeat_period,
                          scenario.timeout_multiplier)
        checker = Checker(bus, workspace, validators)
        roster = []
        for ws in sorted(scenario.workers, key=lambda w: w.worker_id):
            actor = WorkerActor(
                bus, ws.profile(), workspace,
                heartbeat_period=scenario.heartbeat_period,
                volunteer_latency=scenario.volunteer_latency,
                volunteer_jitter=scenario.volunteer_jitter,
                rng=rng)
            roster.append((ws, actor))

        coordinator.adopt(batch)
        broker.queue(batch)

        alive_ticks: dict[str, int] = {ws.worker_id: 0 for ws, _ in roster}

        for now in range(scenario.horizon + 1):
            bus.now = now
            for ws, actor in roster:
                if now < ws.arrival or not actor.alive:
                    continue
                if ws.departure is not None and now >= ws.departure:
                    actor.alive = False
                elif ws.crash is not None and now >= ws.crash:
                    actor.alive = False
                elif ws.crash_prob > 0.0 and rng.random() < ws.crash_prob:
                    actor.alive = False
            broker.step(now)
            coordinator.step(now)
            monitor.step(now)
            checker.step(now)
            for ws, actor in roster:
                if now < ws.arrival or not actor.alive:
                    continue
                alive_ticks[ws.worker_id] += 1
                if ws.stall is not None \
                        and ws.stall[0] <= now < ws.stall[0] + ws.stall[1]:
                    continue
                actor.step(now)
            if coordinator.emergency_seq is not None:
                break

        # Counts come from the log; the engine adds only what the log cannot
        # carry: the final batch, utilization, an unfinished run's horizon.
        tally = bus.log.tally
        utilization = {}
        for ws, actor in roster:
            span = alive_ticks[ws.worker_id]
            utilization[ws.worker_id] = (
                actor.executed_ticks / span if span else 0.0)
        report = SimReport(
            completed=tally.completed,
            makespan=tally.makespan if tally.reason is not None
            else scenario.horizon,
            tasks_total=len((coordinator.batch or batch).tasks),
            re_executions=tally.re_executions,
            messages_total=tally.messages_total,
            messages_by_channel=bus.messages_by_channel(),
            per_worker_utilization=utilization,
        )
        if log_path is not None:
            bus.log.write(log_path)
        return report, bus.log
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def replay_check(log_a: EventLog, log_b: EventLog) -> bool:
    """True when two runs produced byte-identical logs."""
    return log_a.dumps().encode("utf-8") == log_b.dumps().encode("utf-8")


# ----------------------------------------------------------------- audits

_RECORD_KEYS = ("seq", "ts", "channel", "kind", "sender", "payload")


def parse_log(text: str) -> list[dict]:
    """Parse a JSONL event log, checking shape and seq continuity."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLog(f"line {lineno}: not JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise MalformedLog(f"line {lineno}: not an object")
        for key in _RECORD_KEYS:
            if key not in record:
                raise MalformedLog(f"line {lineno}: missing key {key!r}")
        if record["channel"] not in CHANNEL_CATALOG:
            raise MalformedLog(
                f"line {lineno}: unknown channel {record['channel']!r}")
        records.append(record)
    for index, record in enumerate(records, start=1):
        if record["seq"] != index:
            raise MalformedLog(
                f"seq {record['seq']} at position {index}: "
                "log is not a gap-free seq run from 1")
    return records


def _records(log: EventLog | str | list[dict]) -> list[dict]:
    """The audits take a log, its JSONL text, or parse_log's records."""
    if isinstance(log, list):
        return log
    return parse_log(log.dumps() if isinstance(log, EventLog) else log)


def precedence_audit(log: EventLog | str | list[dict],
                     batch: Optional[WorkflowBatch] = None) -> list[str]:
    """Check that no task started before all its dependencies were
    verified.

    Dependencies are taken from the task specs carried in the log
    itself, so re-publications and unfolded sub-tasks are covered
    without knowing the rules that produced them.  Returns a list of
    violation descriptions; an empty list means the order was clean.
    """
    records = _records(log)
    deps: dict[str, frozenset] = {}
    ok_seq: dict[str, int] = {}
    started: list[tuple[int, str]] = []
    for record in records:
        kind = record["kind"]
        payload = record["payload"]
        if kind == "task":
            deps[payload["task_id"]] = frozenset(
                payload["spec"].get("deps", ()))
        elif kind == "started":
            started.append((record["seq"], payload["task_id"]))
        elif kind == "verdict" and payload.get("ok") \
                and payload["task_id"] not in ok_seq:
            ok_seq[payload["task_id"]] = record["seq"]
    violations = []
    for seq, tid in started:
        for dep in sorted(deps.get(tid, ())):
            verdict = ok_seq.get(dep)
            if verdict is None:
                violations.append(
                    f"task {tid} started (seq {seq}) but dependency "
                    f"{dep} was never verified")
            elif verdict >= seq:
                violations.append(
                    f"task {tid} started (seq {seq}) before dependency "
                    f"{dep} was verified (seq {verdict})")
    if batch is not None:
        logged = set(deps)
        for tid in sorted(batch.tasks):
            if tid in logged:
                continue
            if any(other.startswith(tid + "/") for other in logged):
                continue  # replaced by its unfolded sub-tasks
            violations.append(f"task {tid} never appeared on TasksToDo")
    return violations


def lifecycle_audit(log: EventLog | str | list[dict]) -> list[str]:
    """Check per-(task, attempt) message ordering and verdict uniqueness.

    Rules enforced:
      * a task reaches TasksToDo only after WaitingTasks, unless its id
        is namespaced (contains '/'), meaning it was spliced in later
      * per (task, attempt): assignment after task publication, started
        after assignment, results after started
      * at most one ok verdict per task id
    """
    records = _records(log)
    waiting: set[str] = set()
    todo: dict[tuple[str, int], int] = {}
    assigned: dict[tuple[str, int], int] = {}
    started: dict[tuple[str, int], int] = {}
    ok_count: dict[str, int] = {}
    violations = []
    for record in records:
        kind = record["kind"]
        payload = record["payload"]
        channel = record["channel"]
        seq = record["seq"]
        if kind == "task":
            tid = payload["task_id"]
            if channel == "WaitingTasks":
                waiting.add(tid)
            elif channel == "TasksToDo":
                if tid not in waiting and "/" not in tid:
                    violations.append(
                        f"task {tid} on TasksToDo (seq {seq}) without a "
                        "WaitingTasks publication")
                todo.setdefault((tid, payload["attempt"]), seq)
        elif kind == "assignment":
            key = (payload["task_id"], payload["attempt"])
            if key not in todo:
                violations.append(
                    f"assignment for {key[0]} attempt {key[1]} "
                    f"(seq {seq}) without a task publication")
            assigned.setdefault(key, seq)
        elif kind == "started":
            key = (payload["task_id"], payload["attempt"])
            if key not in assigned:
                violations.append(
                    f"started for {key[0]} attempt {key[1]} "
                    f"(seq {seq}) without an assignment")
            started.setdefault(key, seq)
        elif kind == "result":
            key = (payload["task_id"], payload["attempt"])
            if key not in started:
                violations.append(
                    f"result for {key[0]} attempt {key[1]} "
                    f"(seq {seq}) without a started message")
        elif kind == "verdict" and payload.get("ok"):
            tid = payload["task_id"]
            ok_count[tid] = ok_count.get(tid, 0) + 1
            if ok_count[tid] > 1:
                violations.append(
                    f"task {tid} received a second ok verdict (seq {seq})")
    return violations
