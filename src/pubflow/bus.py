"""In-process publish-subscribe bus.

The channel catalog is closed: nine channels carry the whole protocol.
Every publish gets a bus-global monotonically increasing sequence number,
so the event log is a total order of everything any actor said.  Delivery
is pull-based: an actor calls drain() and receives, in seq order, every
envelope another actor published to its channels while it subscribed,
plus each one addressed to it (`to=`, which the log does not record);
never its own.  There is no replay for late subscribers.  The bus's
`mail` set names the actors with undrained envelopes, so a scheduler
need not ask every actor.  Two
tables keep state as a compacted topic would, the latest publication
winning: the spec table holds the spec of each TasksToDo `task`, and
the last-heard table the tick of the latest `started` or `heartbeat`,
each by task id and attempt.  A reader of the tables needs no mail.

The log is line-oriented JSON, one object per envelope:
{"seq": ..., "ts": ..., "channel": ..., "kind": ..., "sender": ..., "payload": ...}
Identical runs produce byte-identical logs; nothing non-deterministic is
ever written.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

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
    EM = "EM"


CHANNEL_CATALOG = tuple(c.value for c in Channel)
# The channel names as plain strings for the hot paths, where reading a
# member's .value is a descriptor call.  A member hashes and compares as
# its string, so _CHANNEL_NAMES maps a member and its string alike.
WAITING_TASKS, TASKS_TO_DO, TASKS_IN_PROGRESS, TASKS_TO_CHECK, \
    FINISHED_TASKS, VOLUNTEER_WORKERS, EMERGENCY, DLC, EM = CHANNEL_CATALOG
_CHANNEL_NAMES = {c: c.value for c in Channel}

# Each kind's payload fields and their exact JSON types (true is no int):
# publish checks that they are there, simulator.parse_log their types too.
KIND_FIELDS: dict[str, dict[str, type]] = {
    "task": {"task_id": str, "attempt": int, "spec": dict},
    "assignment": {"task_id": str, "worker_id": str, "attempt": int},
    "volunteer": {"task_id": str, "worker_id": str, "attempt": int,
                  "profile": dict},
    "started": {"task_id": str, "worker_id": str, "attempt": int},
    "heartbeat": {"task_id": str, "worker_id": str, "attempt": int},
    "result": {"task_id": str, "worker_id": str, "attempt": int,
               "exit_status": int, "outputs": dict},
    "verdict": {"task_id": str, "attempt": int, "ok": bool, "outputs": dict},
    "emergency": {"reason": str, "batch_id": str},
    "dlc": {"task_id": str, "event": str},
    "em": {"logical_gpus": int, "physical_gpus": int,
           "scheduling_policy": str, "performance_model_available": bool},
}


@dataclass(frozen=True)
class Envelope:
    channel: str
    kind: str
    seq: int
    sender: str
    ts: int
    payload: dict


@dataclass
class LogTally:
    """Every count a report shows, folded one log record at a time: from
    EventLog.append as a run writes them, or from a parsed log file."""

    by_channel: dict[str, int] = field(default_factory=dict)
    by_kind: dict[str, int] = field(default_factory=dict)
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
    unverified: dict[str, list[int]] = field(default_factory=dict,
                                             repr=False)
    verified: set[str] = field(default_factory=set, repr=False)

    def add(self, record: dict) -> None:
        channel, kind = record["channel"], record["kind"]
        self.by_channel[channel] = self.by_channel.get(channel, 0) + 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.makespan = max(self.makespan, record["ts"])
        payload = record["payload"]
        if kind == "task":
            tid = payload["task_id"]
            self.attempts[tid] = max(self.attempts.get(tid, 1),
                                     payload["attempt"])
            if record["sender"] == "monitor":  # a k*H timeout
                self.timeouts += 1
        elif kind == "result" and self.reason is None:
            # the checker reads no result after the Emergency
            tid = payload["task_id"]
            if tid in self.verified:
                self.duplicates += 1
            else:
                self.unverified.setdefault(tid, []).append(
                    payload["attempt"])
        elif kind == "verdict" and payload["ok"] \
                and payload["task_id"] not in self.verified:
            tid = payload["task_id"]
            self.verified.add(tid)
            seen = self.unverified.pop(tid, [])
            if payload["attempt"] in seen:
                self.duplicates += \
                    len(seen) - 1 - seen.index(payload["attempt"])
        elif kind == "emergency":
            self.reason = payload.get("reason")

    @property
    def messages_total(self) -> int:
        return sum(self.by_kind.values())

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
    tally."""

    lines: list[str] = field(default_factory=list)
    tally: LogTally = field(default_factory=LogTally)

    def append(self, env: Envelope) -> None:
        record = {
            "seq": env.seq,
            "ts": env.ts,
            "channel": env.channel,
            "kind": env.kind,
            "sender": env.sender,
            "payload": env.payload,
        }
        self.lines.append(_ENCODE(record))
        self.tally.add(record)

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
        # task id -> attempt -> the spec last published for it on TasksToDo
        self.specs: dict[str, dict[int, dict]] = {}
        # (task id, attempt) -> the tick of its last started or heartbeat
        self.heard: dict[tuple[str, int], int] = {}

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
                payload: dict, to: Optional[str] = None) -> int:
        """Log the envelope and queue it for the channel's subscribers and
        for `to`, if that actor is still on the bus; never for `sender`."""
        value = _normalize_channel(channel)
        required = KIND_FIELDS.get(kind)
        if required is None:
            raise SchemaError(f"unknown message kind {kind!r}")
        missing = required.keys() - payload.keys()
        if missing:
            raise SchemaError(
                f"payload for kind {kind!r} missing {sorted(missing)}")
        self._seq += 1
        env = Envelope(channel=value, kind=kind, seq=self._seq,
                       sender=sender, ts=self.now, payload=payload)
        self.log.append(env)  # also validates JSON-serializability
        if kind == "task" and value == TASKS_TO_DO:
            self.specs.setdefault(payload["task_id"], {})[
                payload["attempt"]] = payload["spec"]
        elif kind == "started" or kind == "heartbeat":
            self.heard[(payload["task_id"], payload["attempt"])] = self.now
        subs = self._subs[value]
        for actor_id in subs:
            if actor_id != sender:
                self._queues[actor_id].append(env)
                self.mail.add(actor_id)
        if to in self._queues and to not in subs and to != sender:
            self._queues[to].append(env)
            self.mail.add(to)
        return self._seq

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

    @property
    def messages_total(self) -> int:
        return self._seq

    def messages_by_channel(self) -> dict[str, int]:
        return dict(self.log.tally.by_channel)
