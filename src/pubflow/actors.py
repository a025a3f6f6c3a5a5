"""The five protocol actors and the worker-selection policy.

Everything coordinates through bus messages, and the bus hands no actor
its own, nor one addressed to others; no actor touches another actor's
state.  Mail carries only work; facts (specs, liveness, attempts in
flight, verified tasks, the run's end) come from the log's fold, which
the bus shows.  Nothing is logged after the Emergency.  One batch flows
like this:

  broker       publishes every task on WaitingTasks, in id order, and
               listens to nothing
  coordinator  takes the batch from `adopt`, not from WaitingTasks, and
               releases its roots to TasksToDo; keeps one row per task
               and one pool of idle workers, ranked as select_worker
               ranks them; assigns each ToDo task, in id order, the first
               pooled worker capable of it, addressing the assignment to
               that worker alone; ends the batch on Emergency, reading no
               further mail once the fold has it; an ok verdict releases
               only the finished task's dependents, and every task row
               change passes model.check_transition
  workers      volunteer once, when they first see an open task they are
               capable of, and then hear only the assignments addressed
               to them; execute each with the spec of its attempt,
               heartbeat while running, and push results to TasksToCheck
  monitor      has no mail; when the fold shows an attempt in flight
               past its deadline without a started or heartbeat,
               re-publishes the task with the attempt bumped and emits a
               data-policy event on DLC; the deadline is k*H ticks, or
               one missed heartbeat (H + 1, if sooner) while the fold's
               idle table holds a worker and its to-do table no task
  checker      validates each result against the spec published on
               TasksToDo for its task and attempt (a result carries no
               spec) and publishes verdicts on FinishedTasks,
               re-publishing a failed task until its spec's max_attempts
               runs out; like the monitor, it reads the run's end from
               the fold and publishes nothing after it, and it reads
               which tasks are verified there too

A worker offers itself to the pool once, not once per task: its first
volunteer puts it in the coordinator's idle pool, each assignment takes
it out, and each result it sends puts it back, as a BOINC client's
report of a finished job also asks for the next one.  A worker that
went silent (stalled or dead) therefore stays out of the pool until it
speaks again.  A worker that ignores an assignment, because that
attempt was never published on TasksToDo, volunteers again so it does
not drop out of the pool.

No worker is scored per task and no ToDo row is sorted per step: a
worker is ranked once, when it joins the pool (again only if it
re-volunteers with another profile), and the sweep pops ToDo ids from a
heap, so a coordinator step costs the assignments it makes, not T or W.
A worker rebuilds only its job's kernel from the spec, not the whole
task.

Each actor's `wake` is the earliest tick at which its step does
something without new mail (math.inf: never).  For a running worker
that is its job's next heartbeat or its result, not the next tick: the
step then counts the quiet ticks in between, skipping its stall window.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from random import Random
from typing import Callable, Mapping, Optional, Sequence

from .bus import (BROKER, CHECKER, COORDINATOR, DLC, EMERGENCY,
                  FINISHED_TASKS, MONITOR, TASKS_IN_PROGRESS, TASKS_TO_CHECK,
                  TASKS_TO_DO, VOLUNTEER_WORKERS, WAITING_TASKS, Envelope,
                  InProcessBus)
from .errors import ValidationError
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
    check_transition,
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
    """Owns task lifecycle state and worker selection for one batch."""

    id = COORDINATOR

    def __init__(self, bus: InProcessBus, sla: SlaPolicy = SlaPolicy(),
                 dataset_sizes: Optional[Callable[[], dict[str, int]]] = None,
                 ) -> None:
        self.bus = bus
        self.sla = sla
        self.dataset_sizes = dataset_sizes
        bus.register(self.id)
        for channel in (TASKS_TO_DO, TASKS_TO_CHECK, VOLUNTEER_WORKERS,
                        FINISHED_TASKS):
            bus.subscribe(self.id, channel)
        self.batch: Optional[WorkflowBatch] = None
        self.submitted: Mapping[str, Task] = {}  # the tasks `adopt` received
        self.status: dict[str, tuple[TaskState, int]] = {}
        self.profiles: dict[str, WorkerProfile] = {}
        self.ranks: dict[str, tuple[float, str]] = {}  # rank of each profile
        self.pool: list[tuple[float, str]] = []  # idle workers' ranks, sorted
        # the ids of ToDo rows as a heap; an id may also appear after its row
        # left ToDo (stale) or more than once (re-entered): the sweep skips it
        self.queue: list[str] = []
        self.finished: set[str] = set()

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
                self._on_republished(env)
            elif env.kind == "volunteer":
                self._on_volunteer(env.payload["worker_id"],
                                   env.payload["profile"])
            elif env.kind == "result" and \
                    env.payload["worker_id"] in self.profiles:
                self._join(env.payload["worker_id"])
            elif env.channel == FINISHED_TASKS \
                    and env.kind == "verdict":
                self._on_verdict(env)
        if tally.reason is None:
            self._sweep_assignments()
            self._check_complete()

    def adopt(self, batch: WorkflowBatch) -> None:
        """Take the batch just submitted: every task waits, then the roots
        are released in id order.  The bus does not replay, so every actor
        must be on it first."""
        self.batch = batch
        self.submitted = batch.tasks
        for tid in sorted(batch.tasks):
            self._move(tid, TaskState.WAITING, 1)
        for tid in sorted(batch.tasks):
            if not batch.tasks[tid].deps:
                self._release(tid)

    def _release(self, tid: str) -> None:
        """First publication of a task: unfold it if its rule says so."""
        assert self.batch is not None
        rule = self.batch.rules.get(self.batch.tasks[tid].unfold_rule)
        if rule is not None:
            try:
                unfolded = unfold(self.batch, tid, rule, self._snapshot())
            except Exception:  # GuardFailed or a bad rule: run it as-is
                pass
            else:
                spliced = sorted(unfolded.tasks.keys()
                                 - self.batch.tasks.keys())
                self.batch = unfolded
                self.status.pop(tid, None)
                for nid in spliced:
                    self._move(nid, TaskState.WAITING, 1)
                for nid in spliced:
                    if unfolded.tasks[nid].deps <= self.finished:
                        self._publish_todo(nid)
                return
        self._publish_todo(tid)

    def _publish_todo(self, tid: str) -> None:
        """Release attempt 1, with the spec only if the log's latest for
        the task differs: a spliced task or a dependent an unfold rewired.
        A task `adopt` received unchanged still has the spec the Broker
        logged, so only a task an unfold made is serialised and compared."""
        assert self.batch is not None
        self._move(tid, TaskState.TODO, 1)
        task = self.batch.tasks[tid]
        payload: dict = {"task_id": tid, "attempt": 1}
        if task is not self.submitted.get(tid):
            spec = task_to_obj(task)
            if self.bus.log.tally.latest.get(tid) != spec:
                payload["spec"] = spec
        self.bus.publish(self.id, TASKS_TO_DO, "task", payload)

    def _move(self, tid: str, state: TaskState, attempt: int) -> None:
        """The one writer of a task's row, through check_transition once it
        exists; queues a ToDo row for the sweep and fills `finished`."""
        if tid in self.status:
            current, current_attempt = self.status[tid]
            check_transition(current, state, current_attempt, attempt)
        self.status[tid] = (state, attempt)
        if state is TaskState.TODO:
            heappush(self.queue, tid)
        elif state is TaskState.FINISHED:
            self.finished.add(tid)

    def _on_volunteer(self, wid: str, payload: dict) -> None:
        """Pool the worker; rank it again only if its profile changed."""
        profile = WorkerProfile.from_payload(wid, payload)
        if profile != self.profiles.get(wid):
            self._leave(wid)
            self.profiles[wid] = profile
            self.ranks[wid] = rank(profile, self.sla)
        self._join(wid)

    # A worker is idle when its `ranks` key, unique as it ends in its id,
    # is in `pool`: the one record of who is idle.
    def _join(self, wid: str) -> None:
        key = self.ranks[wid]
        at = bisect_left(self.pool, key)
        if self.pool[at:at + 1] != [key]:
            self.pool.insert(at, key)

    def _leave(self, wid: str) -> None:
        key = self.ranks.get(wid, ())  # an unranked worker: sorts first
        at = bisect_left(self.pool, key)
        if self.pool[at:at + 1] == [key]:
            del self.pool[at]

    def _on_republished(self, env: Envelope) -> None:
        """Monitor or checker pushed a task back to ToDo with attempt+1."""
        tid = env.payload["task_id"]
        attempt = env.payload["attempt"]
        current = self.status.get(tid)
        if current is None or current[0] is TaskState.FINISHED \
                or attempt <= current[1]:
            return
        self._move(tid, TaskState.TODO, attempt)

    def _on_verdict(self, env: Envelope) -> None:
        """An ok verdict releases, in id order, each Waiting dependent whose
        deps are all finished (Kahn); a failed one ends the batch."""
        if not env.payload["ok"]:
            self._emergency("failed")
            return
        tid = env.payload["task_id"]
        row = self.status.get(tid)
        if row is None or row[0] is TaskState.FINISHED:
            return
        self._move(tid, TaskState.FINISHED, row[1])
        assert self.batch is not None
        ready = [nid for nid in self.batch.dependents[tid]
                 if self.status[nid][0] is TaskState.WAITING
                 and self.batch.tasks[nid].deps <= self.finished]
        for nid in ready:
            self._release(nid)

    def _emergency(self, reason: str) -> None:
        assert self.batch is not None
        self.bus.publish(self.id, EMERGENCY, "emergency",
                         {"reason": reason, "batch_id": self.batch.batch_id})

    # -- per-step passes ----------------------------------------------------

    def _sweep_assignments(self) -> None:
        """Match the ToDo rows of `status`, the unassigned tasks, in id
        order, against the idle pool; each winner, the first pooled worker
        capable of the task (select_worker's choice), leaves the pool.
        Stops once the pool is empty; each task that found no worker goes
        back on the queue once."""
        unplaced: list[str] = []
        while self.pool and self.queue:
            tid = heappop(self.queue)
            state, attempt = self.status[tid]
            # stale, or a duplicate: a task's entries pop one after another
            if state is not TaskState.TODO or unplaced[-1:] == [tid]:
                continue
            assert self.batch is not None
            caps = self.batch.tasks[tid].required_caps
            winner = next((wid for _, wid in self.pool
                           if caps <= self.profiles[wid].capabilities), None)
            if winner is None:
                unplaced.append(tid)
                continue
            self._leave(winner)
            self._move(tid, TaskState.IN_PROGRESS, attempt)
            self.bus.publish(self.id, TASKS_TO_DO, "assignment",
                             {"task_id": tid, "worker_id": winner,
                              "attempt": attempt}, to=(winner,))
        for tid in unplaced:
            heappush(self.queue, tid)

    def _check_complete(self) -> None:
        if self.batch is not None and self.batch.tasks \
                and self.finished >= self.batch.tasks.keys():
            self._emergency("complete")


# ---------------------------------------------------------------- worker

def _run_ticks(duration: float, speed: float, limit: float) -> float:
    """Ticks a job of `duration` runs at `speed`: the count of
    `remaining -= speed` steps until remaining <= 1e-9, so float rounding
    decides the last tick as it would tick by tick; math.inf once the
    count passes `limit`."""
    remaining, ticks = duration - speed, 1
    while remaining > 1e-9:
        if ticks > limit:
            return math.inf
        remaining -= speed
        ticks += 1
    return ticks


@dataclass
class _Job:
    task_id: str
    attempt: int
    spec: dict
    started: int
    left: float    # run ticks until the result; math.inf: past the horizon
    settled: int   # the last tick counted into `left` and executed_ticks


class WorkerActor:
    """A volunteer node: sees tasks, offers itself, runs what it wins.

    A job runs one tick of work on each tick after it started, except in
    the worker's stall window, when the worker is frozen: it reads no
    mail and runs nothing.  The worker wakes only for a job's heartbeat
    or result; a step counts the quiet ticks in between.
    """

    def __init__(self, bus: InProcessBus, profile: WorkerProfile,
                 workspace: Workspace,
                 heartbeat_period: int,
                 volunteer_latency: int = 0,
                 volunteer_jitter: int = 0,
                 rng: Optional[Random] = None,
                 stall: Optional[tuple[int, int]] = None,
                 horizon: float = math.inf) -> None:
        self.bus = bus
        self.profile = profile
        self.id = profile.worker_id
        self.workspace = workspace
        self.heartbeat_period = heartbeat_period
        self.volunteer_latency = volunteer_latency
        self.volunteer_jitter = volunteer_jitter
        self.rng = rng or Random(0)
        # frozen for (from, ticks): the ticks [from, from + ticks)
        self.stall_window = None if stall is None \
            else (stall[0], stall[0] + stall[1])
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

    def _stalled(self, tick: float) -> bool:
        return self.stall_window is not None \
            and self.stall_window[0] <= tick < self.stall_window[1]

    def _next_event(self, job: _Job) -> float:
        """The job's next heartbeat tick, on its phase outside the stall,
        or the tick of its result, whichever comes first."""
        period, after = self.heartbeat_period, job.settled
        beat = after + period - (after - job.started) % period
        done = after + job.left
        if self.stall_window is not None:
            lo, hi = self.stall_window
            if lo <= beat < hi:
                beat = hi + (job.started - hi) % period
            if done >= lo:
                done += max(0, hi - max(lo, after + 1))
        return min(beat, done)

    @property
    def wake(self) -> float:  # a due offer or the job's next event
        tick = math.inf if self.offer is None else self.offer[0]
        if self.running is not None:
            tick = min(tick, self._next_event(self.running))
        return self.stall_window[1] if self._stalled(tick) else tick

    def step(self, now: int) -> None:
        if self._stalled(now):
            return
        for env in self.bus.drain(self.id):
            if env.kind == "task":
                self._on_task(env, now)
            elif env.kind == "assignment":
                self._on_assignment(env, now)
        job = self.running
        if job is not None and job.settled < now:
            self._settle(now)
            if job.left <= 0:
                self._complete()
            elif (now - job.started) % self.heartbeat_period == 0:
                self.bus.publish(self.id, TASKS_IN_PROGRESS, "heartbeat",
                                 {"task_id": job.task_id,
                                  "worker_id": self.id,
                                  "attempt": job.attempt})
        if self.offer is not None and self.offer[0] <= now:
            _due, tid, attempt = self.offer
            self.offer = None
            self.bus.publish(self.id, VOLUNTEER_WORKERS, "volunteer",
                             {"task_id": tid, "worker_id": self.id,
                              "attempt": attempt,
                              "profile": self.profile.to_payload()})

    def _settle(self, upto: int) -> None:
        """Count the job's run ticks up to `upto`: every tick after the
        last one counted, outside the stall window."""
        job = self.running
        assert job is not None
        ran = upto - job.settled
        if self.stall_window is not None:
            lo, hi = self.stall_window
            ran -= max(0, min(hi, upto + 1) - max(lo, job.settled + 1))
        job.left -= ran
        job.settled = upto
        self.executed_ticks += ran

    def stop(self, tick: int) -> None:
        """Count the running job's run ticks up to `tick`, the worker's
        last; the run stops each worker once, when it dies or at the end."""
        if self.running is not None and self.running.settled < tick:
            self._settle(tick)

    def _on_task(self, env: Envelope, now: int) -> None:
        """The one offer names the first task the worker can run; then the
        worker leaves TasksToDo and hears only its own assignments."""
        if self.joined:
            return
        spec = self.bus.spec(env.payload["task_id"], env.payload["attempt"])
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
        spec = self.bus.spec(tid, attempt)
        if spec is None:
            self.offer = (self._due(now), tid, attempt)
            return
        self.running = _Job(
            task_id=tid, attempt=attempt, spec=spec, started=now,
            left=_run_ticks(float(spec["kernel"]["duration"]),
                            self.profile.speed, self.horizon - now),
            settled=now)
        self.bus.publish(self.id, TASKS_IN_PROGRESS, "started",
                         {"task_id": tid, "worker_id": self.id,
                          "attempt": attempt})

    def _complete(self) -> None:
        job = self.running
        assert job is not None
        self.running = None
        kernel = load(KernelSpec, job.spec["kernel"],
                      f"task {job.task_id!r}.kernel")
        payload = {
            "task_id": job.task_id,
            "worker_id": self.id,
            "attempt": job.attempt,
        }
        try:
            result = execute_kernel(kernel, self.workspace)
        except Exception as exc:  # MissingInput: ask the data policy for help
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
    """Re-publishes tasks whose executor went silent.

    It has no mail.  The fold's in-flight table (bus.inflight) holds an
    attempt from its assignment, so a worker that dies before its first
    message is still covered, and its last-heard table the attempt's
    latest started or heartbeat.  An attempt longer than `deadline`
    without news gets its task re-published with the attempt bumped,
    plus a transmission-failure event for the data policy; after an
    Emergency, nothing does.

    The deadline follows the pool's spare capacity.  It is k*H ticks,
    but while a worker idles and no task waits for one (the fold's idle
    and to-do tables) a backup costs nothing another task needs, so one
    missed heartbeat, H + 1 ticks, is enough if that is sooner.  A
    healthy job beats every H ticks, so only a stalled or dead worker
    misses it.
    """

    id = MONITOR

    def __init__(self, bus: InProcessBus, heartbeat_period: int,
                 timeout_multiplier: int) -> None:
        self.bus = bus
        self.heartbeat_period = heartbeat_period
        self.timeout_multiplier = timeout_multiplier
        bus.register(self.id)  # claims the id
        self.timeouts = 0

    def _last_seen(self, tid: str) -> int:
        attempt, assigned = self.bus.inflight[tid]
        return self.bus.heard.get((tid, attempt), assigned)

    @property
    def deadline(self) -> int:
        """The ticks of silence an attempt in flight is allowed."""
        patience = self.timeout_multiplier * self.heartbeat_period
        if self.bus.idle and not self.bus.todo:
            return min(patience, self.heartbeat_period + 1)
        return patience

    @property
    def wake(self) -> float:  # when the oldest attempt passes the deadline
        oldest = min(map(self._last_seen, self.bus.inflight),
                     default=math.inf)
        return oldest + self.deadline + 1

    def step(self, now: int) -> None:
        tally = self.bus.log.tally
        if tally.reason is not None:  # the run has ended
            return
        deadline = self.deadline
        for tid in sorted(self.bus.inflight):
            if now - self._last_seen(tid) <= deadline:
                continue
            # the republication closes the attempt in the in-flight table;
            # its spec is the task's latest, which the fold fills in
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
        spec = self.bus.spec(tid, payload["attempt"])
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
            # the spec is the task's latest, which the fold fills in
            self.bus.publish(self.id, TASKS_TO_DO, "task",
                             {"task_id": tid,
                              "attempt": payload["attempt"] + 1})
        else:
            self.bus.publish(self.id, FINISHED_TASKS, "verdict",
                             {"task_id": tid, "attempt": payload["attempt"],
                              "ok": False})
