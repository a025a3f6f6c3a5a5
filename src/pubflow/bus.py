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
LogTally, made as each envelope is logged or from a parsed log file; the
actors read its tables as `bus.log.tally`.  The tables keep state as a
compacted topic would, the latest publication winning.  The task table
(`rows`) holds one row per task, its lifecycle state and attempt: a task
record on WaitingTasks makes it Waiting, one on TasksToDo ToDo, an
assignment InProgress and an ok verdict Finished, at the row's attempt.
Each move passes model.check_transition against the row; a publish whose
move it refuses raises StateError, and in a log file that record is a
lifecycle violation and changes no table, though it counts as a message.
The to-do table (`todo`) indexes the ToDo rows: the tasks waiting for a
worker.  The in-flight table (`inflight`) holds one row per attempt in
flight: a task's latest assignment of an attempt published on TasksToDo,
as its attempt, tick, worker and the tick its worker was last heard
from, which that attempt's `started` and `heartbeat` records move.  The
attempt's result, an ok verdict or the monitor's republication closes
the row.  `spec(task, attempt)` gives a published attempt its task's
latest spec, which no record changes once the task is released.  The
speed table (`speeds`) holds the speed of each worker's latest
`volunteer` profile; with a row's worker it tells the monitor when an
attempt in flight owes its result.  The idle table (`idle`) holds each
worker that sent a `volunteer` or a `result` since its last assignment.
The verified table (`verified`) holds the seq of each task's first ok
verdict.  The coordinator keeps no task rows: it assigns the to-do
table's tasks to the idle table's workers and reads the task and
verified tables to release dependents and to end a complete batch.  A
reader of the tables needs no mail.

The log is line-oriented JSON, one object per envelope, framed exactly
as json.dumps(record, separators=(",", ":")) frames it:
{"seq":...,"ts":...,"channel":...,"kind":...,"sender":...,"payload":...}
The keys come in this order, with no whitespace; seq and ts are ints,
and every string is pure ASCII, any other character written as its
JSON escape.  EventLog writes the header and the payload's top level by
hand, so this framing is a contract of the code, not of the encoder;
only a nested value (a spec, a profile, outputs) or a float goes
through the encoder.  A publish that is refused, by a check, by
check_transition or because its payload is not JSON, takes no sequence
number and leaves the log and its fold as they were.
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

from .errors import SchemaError, StateError, UnknownActor, UnknownChannel
from .model import _FINISHED, _IN_PROGRESS, _TODO, TaskState, check_transition


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


# The state a task record moves its row to, by its channel.
_TASK_STATES = {WAITING_TASKS: TaskState.WAITING, TASKS_TO_DO: _TODO}


@dataclass
class LogTally:
    """The one fold of the log, one record at a time: from EventLog.append
    as a run writes them, or from a parsed log file.  It holds every
    count a report shows, by (channel, kind) pair, the task, in-flight,
    speed, idle, to-do and verified tables and the published attempts'
    specs that the actors read, and the state of both audits:
    lifecycle_audit's violations in log order, and the started records
    that precedence_audit compares with the first ok verdicts.  It keeps
    one row per task, one row per attempt in flight and one spec per
    task, so a closed attempt leaves only its (task, attempt) keys
    behind."""

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
    # task -> (state, attempt): its row, which a task record on
    # WaitingTasks or TasksToDo, an assignment or an ok verdict moves
    # once check_transition passes the move
    rows: dict[str, tuple[TaskState, int]] = field(default_factory=dict)
    todo: set[str] = field(default_factory=set)  # the tasks of ToDo rows
    # the (task, attempt) keys of the TasksToDo task records whose spec
    # is known: `spec` answers for these alone
    published: set[tuple[str, int]] = field(default_factory=set)
    # task -> (attempt, tick, worker, last heard) of its latest assignment
    # of a published attempt, while that attempt is in flight; last heard
    # is the tick of the attempt's latest started or heartbeat, else the
    # assignment's
    inflight: dict[str, tuple[int, int, str, int]] = \
        field(default_factory=dict)
    # worker -> the speed of its latest volunteer profile, as logged
    speeds: dict[str, object] = field(default_factory=dict)
    # workers that sent a volunteer or a result since their last assignment
    idle: set[str] = field(default_factory=set)
    # task -> the spec of its latest task record, on either channel
    latest: dict[str, dict] = field(default_factory=dict)
    # the (task, attempt) keys of the assignments, and of the started records
    assigned: set[tuple[str, int]] = field(default_factory=set)
    began: set[tuple[str, int]] = field(default_factory=set)
    started: list[tuple[int, str]] = field(default_factory=list)  # seq, task
    lifecycle: list[str] = field(default_factory=list)  # its violations

    def add(self, record: dict, live: bool = False) -> None:
        """Fold one record.  A move of its task's row that check_transition
        refuses raises StateError, before anything changes, if the record
        is `live` (being published).  In a logged record it is a lifecycle
        violation and changes no table: the record counts only in `pairs`
        and `makespan`, so the report counts no re-execution or timeout
        that the audit calls illegal.  So a branch that moves a row does
        so in its condition, and a refused move falls through them all."""
        channel, kind, ts = record["channel"], record["kind"], record["ts"]
        payload = record["payload"]
        if kind == "heartbeat":
            self._hear(payload["task_id"], payload["attempt"], ts)
        elif kind == "task" and (channel not in _TASK_STATES or self._move(
                _TASK_STATES[channel], record, live)):
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
            if channel == TASKS_TO_DO and spec is not None:
                self.published.add((tid, attempt))
        elif kind == "assignment" and self._move(_IN_PROGRESS, record, live):
            tid, attempt = payload["task_id"], payload["attempt"]
            wid = payload["worker_id"]
            if (tid, attempt) in self.published:
                self.inflight[tid] = (attempt, ts, wid, ts)
            else:
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
        elif kind == "started":
            key = (payload["task_id"], payload["attempt"])
            if key not in self.assigned:
                self.lifecycle.append(
                    f"started for {key[0]} attempt {key[1]} "
                    f"(seq {record['seq']}) without an assignment")
            self.began.add(key)
            self.started.append((record["seq"], key[0]))
            self._hear(*key, ts)
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
            wid = payload["worker_id"]
            self.idle.add(wid)
            self.speeds[wid] = payload["profile"].get("speed")
        elif kind == "verdict" and payload["ok"] and self._move(
                _FINISHED, record, live):  # a Finished row refuses the rest
            tid = payload["task_id"]
            self.inflight.pop(tid, None)
            self.verified[tid] = record["seq"]
            seen = self.unverified.pop(tid, [])
            if payload["attempt"] in seen:
                self.duplicates += \
                    len(seen) - 1 - seen.index(payload["attempt"])
        elif kind == "emergency":
            self.reason = payload["reason"]
        pair = (channel, kind)
        self.pairs[pair] = self.pairs.get(pair, 0) + 1
        if ts > self.makespan:
            self.makespan = ts

    def _move(self, state: TaskState, record: dict, live: bool) -> bool:
        """Move the row of the record's task to `state` at the record's
        attempt, or at the row's for Finished, and say whether it moved.
        A row, once there, moves only as check_transition allows; add's
        docstring says what a refused move does.  A task with no row
        reaches TasksToDo only if spliced."""
        payload = record["payload"]
        tid, attempt = payload["task_id"], payload["attempt"]
        row = self.rows.get(tid)
        if row is None:
            if state is _TODO and "/" not in tid:
                self.lifecycle.append(
                    f"task {tid} on TasksToDo (seq {record['seq']}) "
                    "without a WaitingTasks publication")
        else:
            if state is _FINISHED:
                attempt = row[1]
            try:
                check_transition(row[0], state, row[1], attempt)
            except StateError as exc:
                seq = record["seq"]  # only a Finished row refuses a verdict
                why = (f"task {tid} received a second ok verdict (seq {seq})"
                       if state is _FINISHED else
                       f"task {tid} cannot move to {state.name} at attempt "
                       f"{attempt} (seq {seq}): {exc}")
                if live:
                    raise StateError(why) from exc
                self.lifecycle.append(why)
                return False
        self.rows[tid] = (state, attempt)
        if state is _TODO:
            self.todo.add(tid)
        else:
            self.todo.discard(tid)
        return True

    def _hear(self, tid: str, attempt: int, ts: int) -> None:
        """A started or heartbeat moves the last heard tick of its task's
        row, if the row is its attempt's."""
        row = self.inflight.get(tid)
        if row is not None and row[0] == attempt:
            self.inflight[tid] = (attempt, row[1], row[2], ts)

    def spec(self, task_id: str, attempt: int) -> Optional[dict]:
        """The spec of the attempt if it was published on TasksToDo, else
        None.  That is its task's latest: no record changes the spec of a
        released task, as an unfold rewires only waiting dependents and a
        republication carries no spec."""
        return self.latest[task_id] if (task_id, attempt) in self.published \
            else None

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


def _encode_payload(payload: dict) -> str:
    """_ENCODE(payload), with its top level written by hand: each encode
    builds a C encoder, which costs more than a flat payload's fields.
    A str key or value, an int, true, false and null are written as json
    writes them, any other value (a subclass too) by _ENCODE.  A payload
    with a key that is not a str goes to _ENCODE whole, which coerces or
    refuses it.  A value that does not encode raises what json.dumps of
    the payload raises, a cycle through the payload included."""
    parts = []
    for key, value in payload.items():
        if type(key) is not str:
            return _ENCODE(payload)
        cls = type(value)
        parts.append(encode_basestring_ascii(key) + ":" + (
            encode_basestring_ascii(value) if cls is str
            else int.__repr__(value) if cls is int
            else "true" if value is True
            else "false" if value is False
            else "null" if value is None
            else _ENCODE(value)))
    return "{" + ",".join(parts) + "}"


@dataclass
class EventLog:
    """Accumulates serialized envelopes, one JSON line each, and their
    fold."""

    lines: list[str] = field(default_factory=list)
    tally: LogTally = field(default_factory=LogTally)

    def append(self, env: Envelope) -> None:
        """Encode the envelope, then fold it and keep its line; an
        envelope that does not encode raises TypeError (or ValueError),
        and one whose move check_transition refuses StateError, and
        either changes nothing."""
        channel, kind, seq, sender, ts, payload = env
        line = (f'{{"seq":{seq},"ts":{ts},'
                f'"channel":{encode_basestring_ascii(channel)},'
                f'"kind":{encode_basestring_ascii(kind)},'
                f'"sender":{encode_basestring_ascii(sender)},'
                f'"payload":{_encode_payload(payload)}}}')
        self.tally.add({"seq": seq, "ts": ts, "channel": channel,
                        "kind": kind, "sender": sender, "payload": payload},
                       live=True)
        self.lines.append(line)

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
        self.log = EventLog()  # its fold's tables are what the actors read

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
        # raises, keeping nothing, if not JSON or if its move is illegal
        self.log.append(env)
        self._seq = seq
        for actor_id in self._subs[value] if to is None else to:
            if actor_id != sender and actor_id in self._queues:
                self._queues[actor_id].append(env)
                self.mail.add(actor_id)
        return seq

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
