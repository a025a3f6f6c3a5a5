"""In-process publish-subscribe bus.

The channel catalog is closed: eight channels carry the whole protocol,
and four services (SERVICE_CATALOG) speak on them beside the workers.
Every publish gets a bus-global monotonically increasing sequence number,
so the event log is a total order of everything any actor said.  Delivery
is pull-based: an actor calls drain() and receives, in seq order, every
envelope addressed to it (`to=`, which the log does not record) and every
unaddressed one published to its channels while it subscribed; never
its own.  An addressed envelope goes to the actors it names alone, not
to its channel's subscribers.  There is no replay for late subscribers.
The bus's `mail` set names the actors with undrained envelopes, so a
scheduler need not ask every actor.

Counts, tables and audit violations all come from one fold of the log,
LogTally, made as each envelope is logged or from a parsed log file.
Its tables keep state as a compacted topic would, the latest
publication winning: the spec table (the bus's `specs`) holds the spec
of each TasksToDo `task`, and the last-heard table (`heard`) the tick
of the latest `started` or `heartbeat`, each by task id and attempt;
the in-flight table (`inflight`) holds a task's latest assignment
until that attempt's result, an ok verdict or the monitor's
republication.  The idle table (`idle`) holds each worker that sent a
`volunteer` or a `result` since its last assignment, and the to-do
table (`todo`) each task released on TasksToDo with an attempt above
its last assigned one, until its assignment or ok verdict.  These two
mirror, from the log alone, the workers in the coordinator's pool and
the ToDo rows of its task table; the coordinator keeps its own records
and reads neither, so the two can be checked against each other.  A
reader of the tables needs no mail.

The log is line-oriented JSON, one object per envelope, framed exactly
as json.dumps(record, separators=(",", ":")) frames it:
{"seq":...,"ts":...,"channel":...,"kind":...,"sender":...,"payload":...}
The keys come in this order, with no whitespace; seq and ts are ints,
and every string is pure ASCII, any other character written as its
JSON escape.  EventLog writes the header by hand around one encode of
the payload, so this framing is a contract of the code, not of the
encoder.  A publish that is refused, by a check or because its payload
is not JSON, takes no sequence number and leaves the log and its fold
as they were.
Each fact is logged once.  A `task` record carries its spec only when
the spec differs from the task's latest one in the log: on WaitingTasks,
and on TasksToDo for a spliced task or a dependent whose deps an unfold
rewired.  The fold fills an omitted spec from its `latest` table.  A
`verdict` carries no outputs, which its verified result logged, and a
`result` no elapsed time.  An older log, whose every task
record carries its spec, still reads: its extra fields are ignored.
Identical runs produce byte-identical logs; nothing non-deterministic is
ever written.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import SchemaError, UnknownActor, UnknownChannel


class Channel(str, Enum):
    WAITING_TASKS = "WaitingTasks"
    TASKS_TO_DO = "TasksToDo"
    TASKS_IN_PROGRESS = "TasksInProgress"
    TASKS_TO_CHECK = "TasksToCheck"
    FINISHED_TASKS = "FinishedTasks"
    VOLUNTEER_WORKERS = "VolunteerWorkers"
    EMERGENCY = "Emergency"
    DLC = "DLC"


CHANNEL_CATALOG = tuple(c.value for c in Channel)
# The channel names as plain strings for the hot paths, where reading a
# member's .value is a descriptor call.  A member hashes and compares as
# its string, so _CHANNEL_NAMES maps a member and its string alike.
WAITING_TASKS, TASKS_TO_DO, TASKS_IN_PROGRESS, TASKS_TO_CHECK, \
    FINISHED_TASKS, VOLUNTEER_WORKERS, EMERGENCY, DLC = CHANNEL_CATALOG
_CHANNEL_NAMES = {c: c.value for c in Channel}

# The services' actor ids; a worker may take none of them.
SERVICE_CATALOG = ("broker", "coordinator", "monitor", "checker")
BROKER, COORDINATOR, MONITOR, CHECKER = SERVICE_CATALOG

# Each kind's required payload fields and their exact JSON types (true is
# no int): publish checks that they are there, simulator.parse_log their
# types too.  A task's `spec` is optional: a record carries it only when
# it differs from the task's latest spec in the log, which the fold fills
# in.  parse_log ignores any other field, so a log whose every task
# carries its spec, or whose verdicts and results carry more, still reads.
KIND_FIELDS: dict[str, dict[str, type]] = {
    "task": {"task_id": str, "attempt": int},
    "assignment": {"task_id": str, "worker_id": str, "attempt": int},
    "volunteer": {"task_id": str, "worker_id": str, "attempt": int,
                  "profile": dict},
    "started": {"task_id": str, "worker_id": str, "attempt": int},
    "heartbeat": {"task_id": str, "worker_id": str, "attempt": int},
    "result": {"task_id": str, "worker_id": str, "attempt": int,
               "exit_status": int, "outputs": dict},
    "verdict": {"task_id": str, "attempt": int, "ok": bool},
    "emergency": {"reason": str, "batch_id": str},
    "dlc": {"task_id": str, "event": str},
}


class Envelope(NamedTuple):
    """Immutable: setting a field raises AttributeError."""

    channel: str
    kind: str
    seq: int
    sender: str
    ts: int
    payload: dict


@dataclass
class LogTally:
    """The one fold of the log, one record at a time: from EventLog.append
    as a run writes them, or from a parsed log file.  It holds every
    count a report shows, by (channel, kind) pair, the spec, last-heard,
    in-flight, idle and to-do tables the actors read, and the state of
    both audits: lifecycle_audit's violations in log order, and the
    started records and first ok verdicts that precedence_audit
    compares."""

    pairs: dict[tuple[str, str], int] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)  # highest per task
    makespan: int = 0                # highest ts seen
    reason: Optional[str] = None     # of the Emergency envelope, if any
    timeouts: int = 0                # tasks the monitor republished
    # results sent for a task after its verified result, up to the
    # Emergency; at a horizon cut this includes the last tick's results,
    # which the checker never reads
    duplicates: int = 0
    # task -> the attempts of its results, in log order, until its ok
    # verdict; the checker discards each one after the result it verified
    unverified: dict[str, list[int]] = field(default_factory=dict)
    verified: dict[str, int] = field(default_factory=dict)  # first ok seq
    # task -> attempt -> the spec last published for it on TasksToDo
    specs: dict[str, dict[int, dict]] = field(default_factory=dict)
    # (task, attempt) -> the tick of its last started or heartbeat
    heard: dict[tuple[str, int], int] = field(default_factory=dict)
    # task -> (attempt, tick) of its latest assignment, while in flight
    inflight: dict[str, tuple[int, int]] = field(default_factory=dict)
    # workers that sent a volunteer or a result since their last assignment
    idle: set[str] = field(default_factory=set)
    # tasks waiting for a worker: a TasksToDo task record whose attempt is
    # above the task's last assigned one (dispatched) adds its task, and
    # an assignment or ok verdict removes it
    todo: set[str] = field(default_factory=set)
    dispatched: dict[str, int] = field(default_factory=dict)
    # task -> the spec of its latest task record, on either channel
    latest: dict[str, dict] = field(default_factory=dict)
    waiting: set[str] = field(default_factory=set)  # tasks on WaitingTasks
    # the (task, attempt) keys of the assignments, and of the started records
    assigned: set[tuple[str, int]] = field(default_factory=set)
    began: set[tuple[str, int]] = field(default_factory=set)
    started: list[tuple[int, str]] = field(default_factory=list)  # seq, task
    lifecycle: list[str] = field(default_factory=list)  # its violations

    def add(self, record: dict) -> None:
        channel, kind, ts = record["channel"], record["kind"], record["ts"]
        pair = (channel, kind)
        self.pairs[pair] = self.pairs.get(pair, 0) + 1
        if ts > self.makespan:
            self.makespan = ts
        payload = record["payload"]
        if kind == "heartbeat":
            self.heard[(payload["task_id"], payload["attempt"])] = ts
        elif kind == "task":
            tid, attempt = payload["task_id"], payload["attempt"]
            self.attempts[tid] = max(self.attempts.get(tid, 1), attempt)
            if record["sender"] == MONITOR:  # a silence timeout
                self.timeouts += 1
                self.inflight.pop(tid, None)
            spec = payload.get("spec")
            if spec is None:  # omitted: unchanged since the latest record
                spec = self.latest.get(tid)
            if spec is None:
                self.lifecycle.append(
                    f"task {tid} (seq {record['seq']}) without a spec")
            else:
                self.latest[tid] = spec
            if channel == WAITING_TASKS:
                self.waiting.add(tid)
            elif channel == TASKS_TO_DO:
                if tid not in self.waiting and "/" not in tid:
                    self.lifecycle.append(
                        f"task {tid} on TasksToDo (seq {record['seq']}) "
                        "without a WaitingTasks publication")
                if spec is not None:
                    self.specs.setdefault(tid, {})[attempt] = spec
                if attempt > self.dispatched.get(tid, 0):
                    self.todo.add(tid)
        elif kind == "assignment":
            tid, attempt = payload["task_id"], payload["attempt"]
            wid = payload["worker_id"]
            if tid in self.specs:
                self.inflight[tid] = (attempt, ts)
            if attempt not in self.specs.get(tid, ()):
                self.lifecycle.append(
                    f"assignment for {tid} attempt {attempt} "
                    f"(seq {record['seq']}) without a task publication")
            if wid in self.idle:
                self.idle.remove(wid)
            else:
                self.lifecycle.append(
                    f"assignment for {tid} attempt {attempt} "
                    f"(seq {record['seq']}) to {wid}, which is not idle")
            self.assigned.add((tid, attempt))
            self.dispatched[tid] = attempt
            self.todo.discard(tid)
        elif kind == "started":
            key = (payload["task_id"], payload["attempt"])
            if key not in self.assigned:
                self.lifecycle.append(
                    f"started for {key[0]} attempt {key[1]} "
                    f"(seq {record['seq']}) without an assignment")
            self.began.add(key)
            self.started.append((record["seq"], key[0]))
            self.heard[key] = ts
        elif kind == "result":
            tid, attempt = payload["task_id"], payload["attempt"]
            if (tid, attempt) not in self.began:
                self.lifecycle.append(
                    f"result for {tid} attempt {attempt} "
                    f"(seq {record['seq']}) without a started message")
            if self.inflight.get(tid, (None,))[0] == attempt:
                del self.inflight[tid]
            self.idle.add(payload["worker_id"])
            if self.reason is None:  # none is read after the Emergency
                if tid in self.verified:
                    self.duplicates += 1
                else:
                    self.unverified.setdefault(tid, []).append(attempt)
        elif kind == "volunteer":
            self.idle.add(payload["worker_id"])
        elif kind == "verdict" and payload["ok"]:
            tid = payload["task_id"]
            self.inflight.pop(tid, None)
            self.todo.discard(tid)
            if tid in self.verified:
                self.lifecycle.append(
                    f"task {tid} received a second ok verdict "
                    f"(seq {record['seq']})")
            else:
                self.verified[tid] = record["seq"]
                seen = self.unverified.pop(tid, [])
                if payload["attempt"] in seen:
                    self.duplicates += \
                        len(seen) - 1 - seen.index(payload["attempt"])
        elif kind == "emergency":
            self.reason = payload["reason"]

    def _sum_by(self, index: int) -> dict[str, int]:
        counts: dict[str, int] = {}
        for pair, n in self.pairs.items():
            counts[pair[index]] = counts.get(pair[index], 0) + n
        return counts

    @property
    def by_channel(self) -> dict[str, int]:
        return self._sum_by(0)

    @property
    def by_kind(self) -> dict[str, int]:
        return self._sum_by(1)

    @property
    def messages_total(self) -> int:
        return sum(self.pairs.values())

    @property
    def re_executions(self) -> int:
        return sum(a - 1 for a in self.attempts.values())

    @property
    def completed(self) -> bool:
        return self.reason == "complete"


# json.dumps builds a JSONEncoder per call; the log needs one, compact.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


@dataclass
class EventLog:
    """Accumulates serialized envelopes, one JSON line each, and their
    fold."""

    lines: list[str] = field(default_factory=list)
    tally: LogTally = field(default_factory=LogTally)

    def append(self, env: Envelope) -> None:
        """Encode the envelope, then keep its line and fold it; an
        envelope that does not encode raises TypeError (or ValueError)
        and changes nothing."""
        channel, kind, seq, sender, ts, payload = env
        self.lines.append(
            f'{{"seq":{seq},"ts":{ts},'
            f'"channel":{encode_basestring_ascii(channel)},'
            f'"kind":{encode_basestring_ascii(kind)},'
            f'"sender":{encode_basestring_ascii(sender)},'
            f'"payload":{_ENCODE(payload)}}}')
        self.tally.add({"seq": seq, "ts": ts, "channel": channel,
                        "kind": kind, "sender": sender, "payload": payload})

    def dumps(self) -> str:
        return "".join(line + "\n" for line in self.lines)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps(), encoding="utf-8")


def _normalize_channel(channel: str | Channel) -> str:
    value = _CHANNEL_NAMES.get(channel)
    if value is None:
        raise UnknownChannel(f"no channel {channel!r} in the catalog")
    return value


class InProcessBus:
    """Single-process bus; the simulator advances `now` for timestamps."""

    def __init__(self) -> None:
        self.now: int = 0
        self._seq = 0
        self._queues: dict[str, deque[Envelope]] = {}
        self._subs: dict[str, list[str]] = {c: [] for c in CHANNEL_CATALOG}
        self.mail: set[str] = set()  # actors with undrained envelopes
        self.log = EventLog()
        # the fold's tables, which the actors read
        self.specs = self.log.tally.specs
        self.heard = self.log.tally.heard
        self.inflight = self.log.tally.inflight
        self.idle = self.log.tally.idle
        self.todo = self.log.tally.todo

    # -- registry ---------------------------------------------------------

    def register(self, actor_id: str) -> None:
        if actor_id in self._queues:
            raise SchemaError(f"actor {actor_id!r} already registered")
        self._queues[actor_id] = deque()

    def subscribe(self, actor_id: str, channel: str | Channel) -> None:
        if actor_id not in self._queues:
            raise UnknownActor(f"actor {actor_id!r} is not registered")
        value = _normalize_channel(channel)
        if actor_id not in self._subs[value]:
            self._subs[value].append(actor_id)

    def unsubscribe(self, actor_id: str, channel: str | Channel) -> None:
        """Deliver the channel no more; envelopes already queued stay."""
        subs = self._subs[_normalize_channel(channel)]
        if actor_id in subs:
            subs.remove(actor_id)

    def leave(self, actor_id: str) -> None:
        """Unsubscribe everywhere and drop the queue, unread."""
        for subs in self._subs.values():
            subs[:] = [a for a in subs if a != actor_id]
        del self._queues[actor_id]
        self.mail.discard(actor_id)

    # -- traffic ----------------------------------------------------------

    def publish(self, sender: str, channel: str | Channel, kind: str,
                payload: dict, to: Optional[tuple[str, ...]] = None) -> int:
        """Log the envelope and queue it for each actor in `to` still on
        the bus or, without `to`, for the channel's subscribers; never for
        `sender`."""
        value = _CHANNEL_NAMES.get(channel)
        if value is None:
            raise UnknownChannel(f"no channel {channel!r} in the catalog")
        required = KIND_FIELDS.get(kind)
        if required is None:
            raise SchemaError(f"unknown message kind {kind!r}")
        if not required.keys() <= payload.keys():
            missing = sorted(required.keys() - payload.keys())
            raise SchemaError(f"payload for kind {kind!r} missing {missing}")
        if isinstance(to, str):  # a tuple of one id is ("w1",)
            raise SchemaError(f"to= takes a tuple of actor ids, not {to!r}")
        seq = self._seq + 1
        env = Envelope(value, kind, seq, sender, self.now, payload)
        self.log.append(env)  # raises, keeping nothing, if not JSON
        self._seq = seq
        for actor_id in self._subs[value] if to is None else to:
            if actor_id != sender and actor_id in self._queues:
                self._queues[actor_id].append(env)
                self.mail.add(actor_id)
        return seq

    def spec(self, task_id: str, attempt: int) -> Optional[dict]:
        """The spec last published on TasksToDo for this attempt, if any."""
        return self.specs.get(task_id, {}).get(attempt)

    def drain(self, actor_id: str) -> list[Envelope]:
        if actor_id not in self._queues:
            raise UnknownActor(f"actor {actor_id!r} is not registered")
        queue = self._queues[actor_id]
        out = list(queue)
        queue.clear()
        self.mail.discard(actor_id)
        return out

    # -- accounting -------------------------------------------------------

    def messages_by_channel(self) -> dict[str, int]:
        """The fold's counts.  Kept as perfbench's tracer wraps it."""
        return self.log.tally.by_channel
