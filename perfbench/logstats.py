"""Counters read from a JSONL event log, with no help from the program.

The log is the one observable state every run leaves behind, so these
counters also show what the actors count internally but never report
(Monitor.timeouts, Checker.duplicates) and what no actor counts at all
(volunteer waste, idle ticks, failed attempts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# The bus's message kinds, in the order bus.KIND_FIELDS declares them.
KINDS = ("task", "assignment", "volunteer", "started", "heartbeat",
         "result", "verdict", "emergency", "dlc", "em")


@dataclass
class LogCounters:
    messages_total: int = 0
    log_bytes: int = 0
    by_channel: dict[str, int] = field(default_factory=dict)
    by_kind: dict[str, int] = field(default_factory=dict)
    completed: bool = False
    makespan: int = 0          # ts of the final Emergency envelope
    busy_ticks: int = 0        # ticks in which at least one envelope went out
    tasks_released: int = 0    # distinct task ids published on TasksToDo
    volunteers: int = 0
    volunteer_repeats: int = 0  # repeated (task, attempt, worker) offers
    assignments: int = 0
    attempts_started: int = 0
    attempts_failed: int = 0   # started, but no ok verdict for that attempt
    monitor_timeouts: int = 0
    checker_duplicates: int = 0

    @property
    def ticks(self) -> int:
        """Loop iterations: the simulator runs ticks 0..makespan."""
        return self.makespan + 1

    @property
    def idle_tick_share(self) -> float:
        return (self.ticks - self.busy_ticks) / self.ticks

    @property
    def failed_attempt_share(self) -> float:
        return self.attempts_failed / max(1, self.attempts_started)

    @property
    def volunteer_yield(self) -> float:
        return self.assignments / max(1, self.volunteers)

    @property
    def volunteer_dup_share(self) -> float:
        return self.volunteer_repeats / max(1, self.volunteers)

    @property
    def volunteers_per_task(self) -> float:
        return self.volunteers / max(1, self.tasks_released)


def count_log(text: str) -> LogCounters:
    """One pass over the log text; raises ValueError on a non-JSON line."""
    c = LogCounters(log_bytes=len(text.encode("utf-8")))
    ts_seen: set[int] = set()
    released: set[str] = set()
    offers: set[tuple] = set()
    started: set[tuple] = set()
    ok_attempt: dict[str, int] = {}
    results: dict[str, list[tuple[int, int]]] = {}  # task -> (seq, attempt)
    emergency_seq = None
    for line in text.splitlines():
        if not line:
            continue
        record = json.loads(line)
        kind = record["kind"]
        payload = record["payload"]
        c.messages_total += 1
        c.by_channel[record["channel"]] = \
            c.by_channel.get(record["channel"], 0) + 1
        c.by_kind[kind] = c.by_kind.get(kind, 0) + 1
        ts_seen.add(record["ts"])
        if kind == "task" and record["channel"] == "TasksToDo":
            released.add(payload["task_id"])
        elif kind == "volunteer":
            c.volunteers += 1
            offer = (payload["task_id"], payload["attempt"],
                     payload["worker_id"])
            if offer in offers:
                c.volunteer_repeats += 1
            offers.add(offer)
        elif kind == "assignment":
            c.assignments += 1
        elif kind == "started":
            started.add((payload["task_id"], payload["attempt"]))
        elif kind == "result":
            results.setdefault(payload["task_id"], []).append(
                (record["seq"], payload["attempt"]))
        elif kind == "verdict" and payload["ok"]:
            ok_attempt.setdefault(payload["task_id"], payload["attempt"])
        elif kind == "dlc" and record["sender"] == "monitor":
            c.monitor_timeouts += 1
        elif kind == "emergency" and emergency_seq is None:
            emergency_seq = record["seq"]
            c.makespan = record["ts"]
            c.completed = payload["reason"] == "complete"
    c.busy_ticks = len(ts_seen)
    c.tasks_released = len(released)
    c.attempts_started = len(started)
    c.attempts_failed = sum(
        1 for tid, attempt in started if ok_attempt.get(tid) != attempt)
    # The checker reads results in seq order and discards every result of
    # a task after the one it verified; it stops at the Emergency envelope.
    last = emergency_seq if emergency_seq is not None else float("inf")
    for tid, seen in results.items():
        attempt = ok_attempt.get(tid)
        ok_seqs = [seq for seq, a in seen if a == attempt]
        if ok_seqs:
            c.checker_duplicates += sum(
                1 for seq, _ in seen if ok_seqs[0] < seq < last)
    return c
