"""The five protocol actors and the worker-selection policy.

Everything coordinates through bus messages, and the bus hands no actor
its own, nor one addressed to others; no actor touches another actor's
state.  Mail carries only work; facts (task rows, specs, liveness,
attempts in flight, verified tasks, the run's end) come from the log's
fold, which every actor reads as `bus.log.tally`.  The bus refuses a
publish whose move of a task row model.check_transition refuses, so
every actor's moves pass it.  Nothing is logged after the Emergency.
One batch flows like this:

  broker       publishes every task on WaitingTasks, in id order, and
               listens to nothing
  coordinator  takes the batch from `adopt`, not from WaitingTasks, and
               releases its roots to TasksToDo; keeps no task rows, but
               reads the fold's, and ranks each volunteer as
               select_worker ranks it; assigns each task of the fold's
               to-do table, in id order, the first of the fold's idle
               workers, by rank, capable of it, addressing the
               assignment to that worker alone; ends the batch on
               Emergency, reading no further mail once the fold has it;
               an ok verdict releases only the finished task's waiting
               dependents whose deps the fold shows verified by that
               verdict
  workers      volunteer once, when they first see an open task they are
               capable of, and then hear only the assignments addressed
               to them; execute each with the spec of its attempt,
               heartbeat while running, and push results to TasksToCheck
  monitor      has no mail; when the fold's row of an attempt in flight
               shows it past its deadline without a started or heartbeat,
               re-publishes the task with the attempt bumped and emits a
               data-policy event on DLC; the deadline is k*H ticks, but
               while the fold's idle table holds a worker and its to-do
               table no task, one missed heartbeat (H + 1, if sooner)
               or the tick after the attempt's result was due
  checker      validates each result against the spec published on
               TasksToDo for its task and attempt (a result carries no
               spec) and publishes verdicts on FinishedTasks,
               re-publishing a failed task until its spec's max_attempts
               runs out, unless a later attempt of it is already out;
               like the monitor, it reads the run's end from the fold
               and publishes nothing after it, and it reads which tasks
               are verified there too

A worker offers itself to the pool once, not once per task: its first
volunteer puts it in the fold's idle table, each assignment takes it
out, and each result it sends puts it back, as a BOINC client's
report of a finished job also asks for the next one.  A worker that
went silent (stalled or dead) therefore stays out of the pool until it
speaks again.  A worker that ignores an assignment, because that
attempt was never published on TasksToDo, volunteers again so it does
not drop out of the pool.

No worker is scored per task and no ToDo row is sorted per step: a
worker is ranked once, when it volunteers (again only if it
re-volunteers with another profile); a sweep that has both a queued
task and an idle worker sorts the idle workers' ranks once, and it pops
task ids from a heap, so a coordinator step costs the assignments it
makes and that sort, not T.
A worker rebuilds only its job's kernel from the spec, not the whole
task.

Each actor's `wake` is the earliest tick at which its step does
something without new mail (math.inf: never).  For a running worker
that is its job's next heartbeat or its result, not the next tick: both
are fixed when the job is assigned, past the ticks the worker is frozen
(before its arrival and in its stall), and a job's run ticks are
counted once, when it ends or the worker stops.  A frozen worker's mail
waits for the tick it thaws, which is then its wake.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from random import Random
from typing import Callable, Mapping, Optional, Sequence

from .bus import (BROKER, CHECKER, COORDINATOR, DLC, EMERGENCY,
                  FINISHED_TASKS, MONITOR, TASKS_IN_PROGRESS, TASKS_TO_CHECK,
                  TASKS_TO_DO, VOLUNTEER_WORKERS, WAITING_TASKS, Envelope,
                  InProcessBus)
from .errors import EngineError, MissingInput, ValidationError
from .execution import Workspace, execute_kernel
# ready_tasks is not called here; perfbench's tracer patches it by name
from .graph import find_cycle, ready_tasks, unfold
from .model import (
    KernelSpec,
    ResourceSnapshot,
    Task,
    TaskState,
    WorkerProfile,
    WorkflowBatch,
    dump,
    load,
)
# task_from_obj is not called here; perfbench's tracer patches it by name
from .workflow_io import task_from_obj, task_to_obj  # noqa: F401


# ------------------------------------------------------------- selection

@dataclass(frozen=True)
class SlaPolicy:
    """Weights of the volunteer score; speed saturates at s_cap."""

    w_r: float = 0.7
    w_s: float = 0.3
    s_cap: float = 4.0

    _doc_keys = {"w_r": "sla.w_r", "w_s": "sla.w_s", "s_cap": "sla.s_cap"}

    def __post_init__(self) -> None:
        if self.s_cap <= 0:
            raise ValueError("sla.s_cap must be positive")

    @classmethod
    def from_dict(cls, doc: object) -> "SlaPolicy":
        """Read an engine config, {"sla": {"w_r": .., "w_s": .., "s_cap": ..}}.

        Any other key is refused rather than ignored: heartbeat timing
        belongs to the scenario and the attempt budget to each task.
        """
        return load(cls, doc, "engine config")


def sla_score(profile: WorkerProfile, policy: SlaPolicy = SlaPolicy()) -> float:
    return (policy.w_r * profile.reliability
            + policy.w_s * min(profile.speed, policy.s_cap) / policy.s_cap)


def rank(profile: WorkerProfile,
         policy: SlaPolicy = SlaPolicy()) -> tuple[float, str]:
    """The key select_worker minimises: the best score first, ties to the
    lexicographically smallest worker id."""
    return -sla_score(profile, policy), profile.worker_id


def select_worker(task: Task, volunteers: Sequence[WorkerProfile],
                  policy: SlaPolicy = SlaPolicy()) -> Optional[str]:
    """Best eligible volunteer by `rank`, or None when nobody qualifies.

    Eligible means advertising every required capability.
    """
    best = min((rank(w, policy) for w in volunteers
                if task.required_caps <= w.capabilities), default=None)
    return None if best is None else best[1]


# ---------------------------------------------------------------- broker

class Broker:
    """Submits one batch on WaitingTasks; subscribes to nothing."""

    id = BROKER

    def __init__(self, bus: InProcessBus) -> None:
        self.bus = bus
        bus.register(self.id)  # claims the id

    def submit(self, batch: WorkflowBatch) -> list[int]:
        """Publish every task on WaitingTasks, lexicographic id order.

        A cyclic batch is refused outright (ValidationError, nothing
        published).
        """
        cycle = find_cycle(batch.dependents)
        if cycle is not None:
            raise ValidationError("cyclic batch: " + " -> ".join(cycle))
        return [
            self.bus.publish(self.id, WAITING_TASKS, "task",
                             {"task_id": tid, "attempt": 1,
                              "spec": task_to_obj(batch.tasks[tid])})
            for tid in sorted(batch.tasks)
        ]

    def step(self, now: int) -> None:
        """Nothing: no mail.  Kept as perfbench's tracer wraps it."""


# ------------------------------------------------------------ coordinator

class Coordinator:
    """Releases one batch's tasks and selects their workers; the task
    rows it reads are the fold's."""

    id = COORDINATOR

    def __init__(self, bus: InProcessBus, sla: SlaPolicy = SlaPolicy(),
                 dataset_sizes: Optional[Callable[[], dict[str, int]]] = None,
                 ) -> None:
        self.bus = bus
        self.sla = sla
        self.dataset_sizes = dataset_sizes
        bus.register(self.id)
        # a result carries nothing it reads, but its mail wakes it to sweep
        # once the fold has the result's worker idle
        for channel in (TASKS_TO_DO, TASKS_TO_CHECK, VOLUNTEER_WORKERS,
                        FINISHED_TASKS):
            bus.subscribe(self.id, channel)
        self.batch: Optional[WorkflowBatch] = None
        self.submitted: Mapping[str, Task] = {}  # the tasks `adopt` received
        self.profiles: dict[str, WorkerProfile] = {}
        self.ranks: dict[str, tuple[float, str]] = {}  # rank of each profile
        # the ids of tasks released or republished, as a heap; an id may
        # also appear after its row left ToDo (stale) or more than once
        # (re-entered): the sweep skips it
        self.queue: list[str] = []

    # The sweep and the completion check change only through mail, and a
    # second sweep without new mail assigns nothing.
    wake = math.inf

    # -- snapshots ---------------------------------------------------------

    def _snapshot(self) -> ResourceSnapshot:
        caps: set[str] = set()
        for profile in self.profiles.values():
            caps |= profile.capabilities
        sizes = self.dataset_sizes() if self.dataset_sizes else {}
        return ResourceSnapshot(
            available_workers=len(self.profiles),
            capabilities=frozenset(caps),
            dataset_sizes=sizes,
        )

    # -- event handling ----------------------------------------------------

    def step(self, now: int) -> None:
        tally = self.bus.log.tally
        for env in self.bus.drain(self.id):
            if tally.reason is not None:  # the run ends in this tick
                return
            if env.channel == TASKS_TO_DO and env.kind == "task":
                heappush(self.queue, env.payload["task_id"])  # republished
            elif env.kind == "volunteer":
                self._on_volunteer(env.payload["worker_id"],
                                   env.payload["profile"])
            elif env.channel == FINISHED_TASKS \
                    and env.kind == "verdict":
                self._on_verdict(env)
        if tally.reason is None:
            self._sweep_assignments()
            self._check_complete()

    def adopt(self, batch: WorkflowBatch) -> None:
        """Take the batch just submitted and release its roots in id
        order.  The bus does not replay, so every actor must be on it
        first."""
        self.batch = batch
        self.submitted = batch.tasks
        for tid in sorted(batch.tasks):
            if not batch.tasks[tid].deps:
                self._release(tid, 0)

    def _release(self, tid: str, upto: int) -> None:
        """First publication of a task: unfold it if its rule says so, and
        then release each spliced task whose deps finished by seq `upto`."""
        assert self.batch is not None
        rule = self.batch.rules.get(self.batch.tasks[tid].unfold_rule)
        if rule is not None:
            try:
                unfolded = unfold(self.batch, tid, rule, self._snapshot())
            except EngineError:  # GuardFailed or a bad rule: run it as-is
                pass
            else:
                spliced = sorted(unfolded.tasks.keys()
                                 - self.batch.tasks.keys())
                self.batch = unfolded
                for nid in spliced:
                    if self._finished(unfolded.tasks[nid].deps, upto):
                        self._publish_todo(nid)
                return
        self._publish_todo(tid)

    def _publish_todo(self, tid: str) -> None:
        """Release attempt 1, with the spec only if the log's latest for
        the task differs: a spliced task or a dependent an unfold rewired.
        A task `adopt` received unchanged still has the spec the Broker
        logged, so only a task an unfold made is serialised and compared."""
        assert self.batch is not None
        task = self.batch.tasks[tid]
        payload: dict = {"task_id": tid, "attempt": 1}
        if task is not self.submitted.get(tid):
            spec = task_to_obj(task)
            if self.bus.log.tally.latest.get(tid) != spec:
                payload["spec"] = spec
        self.bus.publish(self.id, TASKS_TO_DO, "task", payload)
        heappush(self.queue, tid)

    def _finished(self, deps: frozenset[str], upto: int) -> bool:
        """Whether each of `deps` got its first ok verdict at or before seq
        `upto`: a verdict later in the drain is not handled yet, and the
        releases come out in the order the verdicts are handled."""
        verified = self.bus.log.tally.verified
        return all(verified.get(dep, math.inf) <= upto for dep in deps)

    def _on_volunteer(self, wid: str, payload: dict) -> None:
        """Rank the worker again only if its profile changed; the fold
        records it as idle."""
        profile = load(WorkerProfile, {**payload, "worker_id": wid},
                       f"volunteer profile of {wid!r}")
        if profile != self.profiles.get(wid):
            self.profiles[wid] = profile
            self.ranks[wid] = rank(profile, self.sla)

    def _on_verdict(self, env: Envelope) -> None:
        """A task's first ok verdict releases, in id order, each waiting
        dependent whose deps are all finished by its seq (Kahn): one whose
        row is Waiting, or a spliced one with no row yet.  A failed
        verdict ends the batch."""
        if not env.payload["ok"]:
            self._emergency("failed")
            return
        tid = env.payload["task_id"]
        tally = self.bus.log.tally
        if tally.verified.get(tid) != env.seq:
            return
        assert self.batch is not None
        rows = tally.rows
        ready = [nid for nid in self.batch.dependents.get(tid, ())
                 if (nid not in rows or rows[nid][0] is TaskState.WAITING)
                 and self._finished(self.batch.tasks[nid].deps, env.seq)]
        for nid in ready:
            self._release(nid, env.seq)

    def _emergency(self, reason: str) -> None:
        assert self.batch is not None
        self.bus.publish(self.id, EMERGENCY, "emergency",
                         {"reason": reason, "batch_id": self.batch.batch_id})

    # -- per-step passes ----------------------------------------------------

    def _sweep_assignments(self) -> None:
        """Match the queued tasks of the fold's to-do table, the
        unassigned ones, in id order, against the fold's idle workers
        sorted by `ranks`; each winner, the first of them capable of the
        task (select_worker's choice), leaves the sorted list.  A worker
        with no rank never volunteered and wins nothing.  Stops once the
        list is empty; each task that found no worker goes back on the
        queue once."""
        tally = self.bus.log.tally
        if not (tally.idle and self.queue):
            return
        assert self.batch is not None
        tasks = self.batch.tasks
        pool = sorted(self.ranks[wid] for wid in tally.idle
                      if wid in self.ranks)
        unplaced: list[str] = []
        while pool and self.queue:
            tid = heappop(self.queue)
            # stale, a duplicate (a task's entries pop one after another)
            # or no task of the batch
            if tid not in tally.todo or unplaced[-1:] == [tid] \
                    or tid not in tasks:
                continue
            caps = tasks[tid].required_caps
            at = next((at for at, (_, wid) in enumerate(pool)
                       if caps <= self.profiles[wid].capabilities), None)
            if at is None:
                unplaced.append(tid)
                continue
            _, winner = pool.pop(at)
            self.bus.publish(self.id, TASKS_TO_DO, "assignment",
                             {"task_id": tid, "worker_id": winner,
                              "attempt": tally.rows[tid][1]}, to=(winner,))
        for tid in unplaced:
            heappush(self.queue, tid)

    def _check_complete(self) -> None:
        if self.batch is not None and self.batch.tasks \
                and self.bus.log.tally.verified.keys() \
                >= self.batch.tasks.keys():
            self._emergency("complete")


# ---------------------------------------------------------------- worker

def _result_tick(start: int, duration: float, speed: float,
                 horizon: float) -> float:
    """The tick at which a job of `duration` started at `start` sends its
    result at `speed`, were it never frozen: `start` plus the count of
    `remaining -= speed` steps until remaining <= 1e-9, so float rounding
    decides the last tick as it would tick by tick; math.inf once that
    passes `horizon`.  The worker times its job with it and the monitor
    the tick that job's result is due, so the two agree."""
    remaining, tick = duration - speed, start + 1
    while remaining > 1e-9:
        if tick > horizon:
            return math.inf
        remaining -= speed
        tick += 1
    return tick


@dataclass
class _Job:
    task_id: str
    attempt: int
    spec: dict
    started: int
    done: float  # the tick of its result; math.inf: past the horizon
    beat: int    # the tick of its next heartbeat


class WorkerActor:
    """A volunteer node: sees tasks, offers itself, runs what it wins.

    The worker is frozen before its arrival and in its stall window: it
    reads no mail and runs nothing.  A job runs one tick of work on each
    tick after it started on which the worker is not frozen, so the
    ticks of its result and of each heartbeat are fixed at assignment,
    and the worker wakes only for those, for a due offer, or, once it
    thaws, for mail that came while it was frozen.
    """

    def __init__(self, bus: InProcessBus, profile: WorkerProfile,
                 workspace: Workspace,
                 heartbeat_period: int,
                 volunteer_latency: int = 0,
                 volunteer_jitter: int = 0,
                 rng: Optional[Random] = None,
                 stall: Optional[tuple[int, int]] = None,
                 horizon: float = math.inf,
                 arrival: int = 0) -> None:
        self.bus = bus
        self.profile = profile
        self.id = profile.worker_id
        self.workspace = workspace
        self.heartbeat_period = heartbeat_period
        self.volunteer_latency = volunteer_latency
        self.volunteer_jitter = volunteer_jitter
        self.rng = rng or Random(0)
        # the ticks [lo, hi) at which the worker is frozen, by lo: those
        # before its arrival and, for a stall (from, ticks), those in
        # [from, from + ticks); an empty window is left out
        windows = [(0, arrival)]
        if stall is not None:
            windows.append((stall[0], stall[0] + stall[1]))
        self.frozen = sorted(w for w in windows if w[0] < w[1])
        self.horizon = horizon  # no job needs counting past it
        bus.register(self.id)
        bus.subscribe(self.id, TASKS_TO_DO)
        self.joined = False   # has offered itself to the pool
        self.offer: Optional[tuple[int, str, int]] = None  # due, task, attempt
        self.running: Optional[_Job] = None
        self.executed_ticks = 0

    def _due(self, now: int) -> int:
        """When an offer made now goes out: latency plus seeded jitter."""
        jitter = self.rng.randint(0, self.volunteer_jitter) \
            if self.volunteer_jitter > 0 else 0
        return now + self.volunteer_latency + jitter

    def _thaw(self, tick: float) -> float:
        """The first tick from `tick` on at which the worker may act."""
        for lo, hi in self.frozen:
            if lo <= tick < hi:
                tick = hi
        return tick

    def _beat(self, started: int, last: int) -> int:
        """The heartbeat after the one at `last` (or the start) of a job
        started at `started`: a period on, or if the worker is frozen
        then, the first tick on that phase after it thaws."""
        tick = self._thaw(last + self.heartbeat_period)
        return tick + (started - tick) % self.heartbeat_period

    def _ran(self, job: _Job, upto: int) -> None:
        """Count the job's run ticks up to `upto`: every tick after its
        start on which the worker was not frozen."""
        self.executed_ticks += upto - job.started - sum(
            max(0, min(hi, upto + 1) - max(lo, job.started + 1))
            for lo, hi in self.frozen)

    @property
    def wake(self) -> float:  # a due offer, the job's next event or mail
        tick = math.inf if self.offer is None else self.offer[0]
        if self.running is not None:
            tick = min(tick, self.running.beat, self.running.done)
        if self.id in self.bus.mail:  # only while frozen, after a step
            tick = min(tick, self.bus.now)
        return self._thaw(tick)

    def step(self, now: int) -> None:
        if self._thaw(now) > now:
            return
        # most steps are heartbeat wakes, with no mail to drain
        mail = self.bus.drain(self.id) if self.id in self.bus.mail else ()
        for env in mail:
            if env.kind == "task":
                self._on_task(env, now)
            elif env.kind == "assignment":
                self._on_assignment(env, now)
        job = self.running
        if job is not None and job.done <= now:
            self._complete()
        elif job is not None and job.beat <= now:
            job.beat = self._beat(job.started, now)
            self.bus.publish(self.id, TASKS_IN_PROGRESS, "heartbeat",
                             {"task_id": job.task_id, "worker_id": self.id,
                              "attempt": job.attempt})
        if self.offer is not None and self.offer[0] <= now:
            _due, tid, attempt = self.offer
            self.offer = None
            profile = dump(self.profile)
            del profile["worker_id"]
            self.bus.publish(self.id, VOLUNTEER_WORKERS, "volunteer",
                             {"task_id": tid, "worker_id": self.id,
                              "attempt": attempt, "profile": profile})

    def stop(self, tick: int) -> None:
        """Count the running job's run ticks up to `tick`, the worker's
        last; the run stops each worker once, when it dies or at the end."""
        if self.running is not None:
            self._ran(self.running, tick)

    def _on_task(self, env: Envelope, now: int) -> None:
        """The one offer names the first task the worker can run; then the
        worker leaves TasksToDo and hears only its own assignments."""
        if self.joined:
            return
        spec = self.bus.log.tally.spec(env.payload["task_id"],
                                       env.payload["attempt"])
        caps = frozenset(spec.get("required_caps", ()))
        if not caps <= self.profile.capabilities:
            return
        self.joined = True
        self.offer = (self._due(now), env.payload["task_id"],
                      env.payload["attempt"])
        self.bus.unsubscribe(self.id, TASKS_TO_DO)

    def _on_assignment(self, env: Envelope, now: int) -> None:
        tid, attempt = env.payload["task_id"], env.payload["attempt"]
        if self.running is not None:
            return
        spec = self.bus.log.tally.spec(tid, attempt)
        if spec is None:
            self.offer = (self._due(now), tid, attempt)
            return
        done = _result_tick(now, float(spec["kernel"]["duration"]),
                            self.profile.speed, self.horizon)
        for lo, hi in self.frozen:  # the frozen ticks before it delay it
            if lo <= done:
                done += max(0, hi - max(lo, now + 1))
        self.running = _Job(tid, attempt, spec, now, done,
                            self._beat(now, now))
        self.bus.publish(self.id, TASKS_IN_PROGRESS, "started",
                         {"task_id": tid, "worker_id": self.id,
                          "attempt": attempt})

    def _complete(self) -> None:
        job = self.running
        assert job is not None
        self.running = None
        self._ran(job, job.done)
        kernel = load(KernelSpec, job.spec["kernel"],
                      f"task {job.task_id!r}.kernel")
        payload = {
            "task_id": job.task_id,
            "worker_id": self.id,
            "attempt": job.attempt,
        }
        try:
            result = execute_kernel(kernel, self.workspace)
        except MissingInput as exc:  # ask the data policy for help
            self.bus.publish(self.id, DLC, "dlc",
                             {"task_id": job.task_id,
                              "event": "transmission_failure"})
            payload.update(exit_status=2, outputs={},
                           error=f"{type(exc).__name__}: {exc}")
        else:
            payload.update(exit_status=result.exit_status,
                           outputs=result.outputs)
            if result.error is not None:
                payload["error"] = result.error
        self.bus.publish(self.id, TASKS_TO_CHECK, "result", payload)


# ---------------------------------------------------------------- monitor

class Monitor:
    """Re-publishes tasks whose executor went silent or is overdue.

    It has no mail.  The fold's in-flight table holds a row per attempt
    from its assignment, so a worker that dies before its first message
    is still covered; the row's last heard tick is that of the
    attempt's latest started or heartbeat, else of its assignment.  An
    attempt longer than `deadline` without news gets its task
    re-published with the attempt bumped, plus a transmission-failure
    event for the data policy; after an Emergency, nothing does.

    The deadline follows the pool's spare capacity.  It is k*H ticks,
    but while a worker idles and no task waits for one (the fold's idle
    and to-do tables) a backup costs nothing another task needs, so the
    attempt is overdue at the earlier of one missed heartbeat, H + 1
    ticks of silence (if sooner than k*H), and the tick after its result
    was due.  That is the assignment tick plus the run ticks of its
    spec's duration at the speed its assignee advertised (the row's
    worker in the fold's speed table), by `_result_tick` as the worker
    times its job, up to the horizon.  A healthy job beats every H ticks
    and sends its result on the tick it is due, so only a stalled or
    dead worker misses either.
    """

    id = MONITOR

    def __init__(self, bus: InProcessBus, heartbeat_period: int,
                 timeout_multiplier: int, horizon: float = math.inf) -> None:
        self.bus = bus
        self.heartbeat_period = heartbeat_period
        self.timeout_multiplier = timeout_multiplier
        self.horizon = horizon  # no result is due past it
        bus.register(self.id)  # claims the id
        self.timeouts = 0
        # task -> (attempt, assignment tick, the tick after its result is
        # due) of its row, worked out once per assignment, not per
        # heartbeat, and never kept past the attempt
        self._dues: dict[str, tuple[int, int, float]] = {}
        self._woken: tuple[int, float] = (-1, math.inf)  # records, wake

    @property
    def spare(self) -> bool:
        """A worker idles and no task waits for one."""
        tally = self.bus.log.tally
        return bool(tally.idle) and not tally.todo

    @property
    def deadline(self) -> int:
        """The ticks of silence an attempt in flight is allowed."""
        patience = self.timeout_multiplier * self.heartbeat_period
        if self.spare:
            return min(patience, self.heartbeat_period + 1)
        return patience

    def _result_due(self, tid: str, row: tuple[int, int, str, int]) -> float:
        """The tick at which the row's worker, if healthy, sends the
        attempt's result; math.inf if the worker's speed is unknown, or
        the job runs past the horizon.  A row opens only for a published
        attempt, so its spec is known."""
        tally = self.bus.log.tally
        attempt, assigned, wid, _ = row
        speed = tally.speeds.get(wid)
        if speed is None:
            return math.inf
        spec = tally.spec(tid, attempt)
        return _result_tick(assigned, float(spec["kernel"]["duration"]),
                            speed, self.horizon)

    def _overdue(self, tid: str, row: tuple[int, int, str, int],
                 deadline: int, spare: bool) -> float:
        """The first tick at which the task's attempt in flight, its
        in-flight `row`, is overdue under this tick's limits."""
        tick = row[3] + deadline + 1
        if not spare:
            return tick
        # a heartbeat replaces the row: its attempt and tick name it
        cached = self._dues.get(tid)
        if cached is None or cached[0] != row[0] or cached[1] != row[1]:
            inflight = self.bus.log.tally.inflight
            if len(self._dues) >= len(inflight):  # some have closed
                self._dues = {key: got for key, got in self._dues.items()
                              if inflight.get(key, ())[:2] == got[:2]}
            cached = self._dues[tid] = (row[0], row[1],
                                        self._result_due(tid, row) + 1)
        return min(tick, cached[2])

    @property
    def wake(self) -> float:  # when the first attempt in flight is overdue
        # a function of the fold alone: it holds until the next record
        logged = len(self.bus.log.lines)
        if logged != self._woken[0]:
            deadline, spare = self.deadline, self.spare
            self._woken = (logged, min(
                [self._overdue(tid, row, deadline, spare)
                 for tid, row in self.bus.log.tally.inflight.items()],
                default=math.inf))
        return self._woken[1]

    def step(self, now: int) -> None:
        tally = self.bus.log.tally
        if tally.reason is not None:  # the run has ended
            return
        # read once: a republication puts its task on the to-do table
        deadline, spare = self.deadline, self.spare
        for tid, row in sorted(tally.inflight.items()):
            if now < self._overdue(tid, row, deadline, spare):
                continue
            # the republication closes the attempt's row; its spec is the
            # task's latest, which the fold fills in
            self.bus.publish(self.id, TASKS_TO_DO, "task",
                             {"task_id": tid,
                              "attempt": tally.attempts[tid] + 1})
            self.bus.publish(self.id, DLC, "dlc",
                             {"task_id": tid,
                              "event": "transmission_failure"})
            self.timeouts += 1


# ---------------------------------------------------------------- checker

ValidatorFn = Callable[[Mapping, Mapping, Optional[Workspace]], bool]


def default_validator(spec: Mapping, result: Mapping,
                      workspace: Optional[Workspace]) -> bool:
    """Exit status zero, every declared output present, checksums match."""
    if result.get("exit_status") != 0:
        return False
    outputs = result.get("outputs", {})
    for dataset_id in spec["kernel"].get("outputs", ()):
        if dataset_id not in outputs:
            return False
        if workspace is not None:
            if not workspace.has_ready(dataset_id):
                return False
            if workspace.checksum(dataset_id) != outputs[dataset_id]:
                return False
    return True


class Checker:
    """Validates results; first verified result per task wins."""

    id = CHECKER

    def __init__(self, bus: InProcessBus,
                 workspace: Optional[Workspace] = None,
                 validators: Optional[dict[str, ValidatorFn]] = None) -> None:
        self.bus = bus
        self.workspace = workspace
        self.registry: dict[str, ValidatorFn] = {"default": default_validator}
        if validators:
            self.registry.update(validators)
        bus.register(self.id)
        bus.subscribe(self.id, TASKS_TO_CHECK)
        self.fails: dict[str, int] = {}
        self.duplicates = 0

    wake = math.inf  # acts only on mail

    def step(self, now: int) -> None:
        for env in self.bus.drain(self.id):
            self._on_result(env)  # TasksToCheck carries only results

    def _on_result(self, env: Envelope) -> None:
        payload = env.payload
        tid = payload["task_id"]
        tally = self.bus.log.tally
        if tid in tally.verified:
            self.duplicates += 1
            return
        spec = tally.spec(tid, payload["attempt"])
        if spec is None or tally.reason is not None:  # or the run ended
            return
        try:  # an unknown validator (KeyError) or one that raises fails
            fn = self.registry[spec.get("validator") or "default"]
            ok = bool(fn(spec, payload, self.workspace))
        except Exception:
            ok = False
        if ok:
            self.bus.publish(self.id, FINISHED_TASKS, "verdict",
                             {"task_id": tid, "attempt": payload["attempt"],
                              "ok": True})
            return
        self.fails[tid] = self.fails.get(tid, 0) + 1
        if self.fails[tid] < spec["max_attempts"]:
            if payload["attempt"] < tally.attempts[tid]:
                return  # a later attempt already replaced this one
            # the spec is the task's latest, which the fold fills in
            self.bus.publish(self.id, TASKS_TO_DO, "task",
                             {"task_id": tid,
                              "attempt": payload["attempt"] + 1})
        else:
            self.bus.publish(self.id, FINISHED_TASKS, "verdict",
                             {"task_id": tid, "attempt": payload["attempt"],
                              "ok": False})
