"""The five protocol actors and the worker-selection policy.

Everything coordinates through bus messages, and the bus hands no actor
its own; no actor touches another actor's state.  One batch flows like
this:

  broker       publishes every task on WaitingTasks, in id order, and
               listens to nothing
  coordinator  takes the batch from `adopt`, not from WaitingTasks, and
               releases its roots to TasksToDo; keeps a pool of idle
               workers, assigns each ToDo task the best-scoring idle one,
               and declares the batch finished on Emergency; an ok
               verdict releases only the finished task's dependents, and
               every task row change passes model.check_transition
  workers      volunteer once, when they first see an open task they are
               capable of, and then hear only the assignments addressed
               to them; execute each with the spec of its attempt,
               heartbeat while running, and push results to TasksToCheck
  monitor      watches assigned tasks until their result or ok verdict;
               when the bus has heard no started or heartbeat for k*H
               ticks it re-publishes the task with the attempt bumped
               and emits a data-policy event on DLC
  checker      validates each result against the spec published on
               TasksToDo for its task and attempt (a result carries no
               spec) and publishes verdicts on FinishedTasks,
               re-publishing a failed task until its spec's max_attempts
               runs out

A worker offers itself to the pool once, not once per task: its first
volunteer puts it in the coordinator's idle pool, each assignment takes
it out, and each result it sends puts it back, as a BOINC client's
report of a finished job also asks for the next one.  A worker that
went silent (stalled or dead) therefore stays out of the pool until it
speaks again.  A worker that ignores an assignment, because that
attempt was never published on TasksToDo, volunteers again so it does
not drop out of the pool.

Each actor's `wake` is the earliest tick at which its step does
something without new mail (math.inf: never).  For a running worker
that is its job's next heartbeat or its result, not the next tick: the
step then counts the quiet ticks in between, skipping its stall window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Mapping, Optional, Sequence

from .bus import (DLC, EMERGENCY, FINISHED_TASKS, TASKS_IN_PROGRESS,
                  TASKS_TO_CHECK, TASKS_TO_DO, VOLUNTEER_WORKERS,
                  WAITING_TASKS, Envelope, InProcessBus)
from .errors import ValidationError
from .execution import Workspace, execute_kernel
# ready_tasks is not called here; perfbench's tracer patches it by name
from .graph import ready_tasks, unfold, validate_structure
from .model import (
    ResourceSnapshot,
    Task,
    TaskState,
    WorkerProfile,
    WorkflowBatch,
    check_transition,
    load,
)
from .workflow_io import task_from_obj, task_to_obj


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


def select_worker(task: Task, volunteers: Sequence[WorkerProfile],
                  policy: SlaPolicy = SlaPolicy()) -> Optional[str]:
    """Best eligible volunteer, or None when nobody qualifies.

    Eligible means advertising every required capability.
    Ties on the score go to the lexicographically smallest worker id.
    """
    eligible = [w for w in volunteers
                if task.required_caps <= w.capabilities]
    if not eligible:
        return None
    best = min(eligible,
               key=lambda w: (-sla_score(w, policy), w.worker_id))
    return best.worker_id


def _task_payload(task: Task, attempt: int) -> dict:
    return {"task_id": task.id, "attempt": attempt, "spec": task_to_obj(task)}


# ---------------------------------------------------------------- broker

class Broker:
    """Submits one batch on WaitingTasks; subscribes to nothing."""

    def __init__(self, bus: InProcessBus, actor_id: str = "broker") -> None:
        self.bus = bus
        self.id = actor_id
        bus.register(actor_id)  # claims the id

    def submit(self, batch: WorkflowBatch) -> list[int]:
        """Publish every task on WaitingTasks, lexicographic id order.

        A cyclic batch is refused outright (ValidationError, nothing
        published).
        """
        report = validate_structure(batch)
        if not report.ok:
            raise ValidationError(
                "cyclic batch: " + " -> ".join(report.cycle or []))
        return [
            self.bus.publish(self.id, WAITING_TASKS, "task",
                             _task_payload(batch.tasks[tid], 1))
            for tid in sorted(batch.tasks)
        ]

    def step(self, now: int) -> None:
        """Nothing: no mail.  Kept as perfbench's tracer wraps it."""


# ------------------------------------------------------------ coordinator

class Coordinator:
    """Owns task lifecycle state and worker selection for one batch."""

    def __init__(self, bus: InProcessBus, sla: SlaPolicy = SlaPolicy(),
                 actor_id: str = "coordinator",
                 dataset_sizes: Optional[Callable[[], dict[str, int]]] = None,
                 ) -> None:
        self.bus = bus
        self.id = actor_id
        self.sla = sla
        self.dataset_sizes = dataset_sizes
        bus.register(actor_id)
        for channel in (TASKS_TO_DO, TASKS_TO_CHECK, VOLUNTEER_WORKERS,
                        FINISHED_TASKS):
            bus.subscribe(actor_id, channel)
        self.batch: Optional[WorkflowBatch] = None
        self.status: dict[str, tuple[TaskState, int]] = {}
        self.profiles: dict[str, WorkerProfile] = {}
        self.idle: set[str] = set()             # workers free for a task
        self.todo: set[str] = set()             # unassigned ToDo tasks
        self.finished: set[str] = set()
        self.halted = False

    # The sweep and the completion check change only through mail, and a
    # second sweep without new mail assigns nothing.
    wake = math.inf

    # -- snapshots ---------------------------------------------------------

    def _snapshot(self) -> ResourceSnapshot:
        caps: set[str] = set()
        for wid in sorted(self.profiles):
            caps |= self.profiles[wid].capabilities
        sizes = self.dataset_sizes() if self.dataset_sizes else {}
        return ResourceSnapshot(
            available_workers=len(self.profiles),
            capabilities=frozenset(caps),
            dataset_sizes=sizes,
        )

    # -- event handling ----------------------------------------------------

    def step(self, now: int) -> None:
        if self.halted:
            return
        for env in self.bus.drain(self.id):
            if env.channel == TASKS_TO_DO and env.kind == "task":
                self._on_republished(env)
            elif env.kind == "volunteer":
                wid = env.payload["worker_id"]
                self.profiles[wid] = WorkerProfile.from_payload(
                    wid, env.payload["profile"])
                self.idle.add(wid)
            elif env.kind == "result" and \
                    env.payload["worker_id"] in self.profiles:
                self.idle.add(env.payload["worker_id"])
            elif env.channel == FINISHED_TASKS \
                    and env.kind == "verdict":
                self._on_verdict(env)
        if self.halted:
            return
        self._sweep_assignments()
        self._check_complete()

    def adopt(self, batch: WorkflowBatch) -> None:
        """Take the batch just submitted: every task waits, then the roots
        are released in id order.  The bus does not replay, so every actor
        must be on it first."""
        self.batch = batch
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
        assert self.batch is not None
        self._move(tid, TaskState.TODO, 1)
        self.bus.publish(self.id, TASKS_TO_DO, "task",
                         _task_payload(self.batch.tasks[tid], 1))

    def _move(self, tid: str, state: TaskState, attempt: int) -> None:
        """The one writer of a task's row, through check_transition once it
        exists; keeps `todo` and `finished` in step."""
        if tid in self.status:
            current, current_attempt = self.status[tid]
            check_transition(current, state, current_attempt, attempt)
        self.status[tid] = (state, attempt)
        if state is TaskState.TODO:
            self.todo.add(tid)
        else:
            self.todo.discard(tid)
        if state is TaskState.FINISHED:
            self.finished.add(tid)

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
        tid = env.payload["task_id"]
        if not env.payload["ok"]:
            if not self.halted:
                self._emergency("failed")
            return
        if tid in self.finished:
            return
        self._move(tid, TaskState.FINISHED,
                   self.status.get(tid, (None, 1))[1])
        if self.batch is None or tid not in self.batch.tasks:
            return
        ready = [nid for nid in self.batch.dependents[tid]
                 if self.status[nid][0] is TaskState.WAITING
                 and self.batch.tasks[nid].deps <= self.finished]
        for nid in ready:
            self._release(nid)

    def _emergency(self, reason: str) -> None:
        assert self.batch is not None
        self.bus.publish(self.id, EMERGENCY, "emergency",
                         {"reason": reason, "batch_id": self.batch.batch_id})
        self.halted = True

    # -- per-step passes ----------------------------------------------------

    def _sweep_assignments(self) -> None:
        """Match every task in `todo`, the unassigned ToDo tasks, in id
        order, against the idle pool; each winner leaves the pool.  Stops
        once the pool is empty."""
        for tid in sorted(self.todo):
            if not self.idle:
                return
            assert self.batch is not None
            attempt = self.status[tid][1]
            winner = select_worker(self.batch.tasks[tid],
                                   [self.profiles[w] for w in self.idle],
                                   self.sla)
            if winner is None:
                continue
            self.idle.remove(winner)
            self._move(tid, TaskState.IN_PROGRESS, attempt)
            self.bus.publish(self.id, TASKS_TO_DO, "assignment",
                             {"task_id": tid, "worker_id": winner,
                              "attempt": attempt}, to=winner)

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
        bus.subscribe(self.id, EMERGENCY)
        self.halted = False
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
        if self.halted:
            return math.inf
        tick = math.inf if self.offer is None else self.offer[0]
        if self.running is not None:
            tick = min(tick, self._next_event(self.running))
        return self.stall_window[1] if self._stalled(tick) else tick

    def step(self, now: int) -> None:
        if self.halted or self._stalled(now):
            return
        for env in self.bus.drain(self.id):
            if env.channel == EMERGENCY:
                self.stop(now - 1)
                return
            if env.kind == "task":
                self._on_task(env, now)
            elif env.kind == "assignment":
                self._on_assignment(env, now)
        job = self.running
        if job is not None and job.settled < now:
            self._settle(now)
            if job.left <= 0:
                self._complete(now)
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
        """Halt for good, the running job having run up to `tick`: on the
        Emergency, at death, and at the end of a run."""
        if self.halted:
            return
        if self.running is not None and self.running.settled < tick:
            self._settle(tick)
        self.halted = True

    def _on_task(self, env: Envelope, now: int) -> None:
        """The one offer names the first task the worker can run; then the
        worker leaves TasksToDo and hears only its own assignments."""
        caps = frozenset(env.payload["spec"].get("required_caps", ()))
        if self.joined or not caps <= self.profile.capabilities:
            return
        self.joined = True
        self.offer = (self._due(now), env.payload["task_id"],
                      env.payload["attempt"])
        self.bus.unsubscribe(self.id, TASKS_TO_DO)

    def _on_assignment(self, env: Envelope, now: int) -> None:
        tid, attempt = env.payload["task_id"], env.payload["attempt"]
        if env.payload["worker_id"] != self.id:  # heard before it joined
            return
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

    def _complete(self, now: int) -> None:
        job = self.running
        assert job is not None
        self.running = None
        task = task_from_obj(job.spec)
        payload = {
            "task_id": job.task_id,
            "worker_id": self.id,
            "attempt": job.attempt,
        }
        try:
            result = execute_kernel(task.kernel, self.workspace,
                                    speed=self.profile.speed)
        except Exception as exc:  # MissingInput: ask the data policy for help
            self.bus.publish(self.id, DLC, "dlc",
                             {"task_id": job.task_id,
                              "event": "transmission_failure"})
            payload.update(exit_status=2, outputs={},
                           elapsed=float(now - job.started),
                           error=f"{type(exc).__name__}: {exc}")
        else:
            payload.update(exit_status=result.exit_status,
                           outputs=result.outputs, elapsed=result.elapsed)
            if result.error is not None:
                payload["error"] = result.error
        self.bus.publish(self.id, TASKS_TO_CHECK, "result", payload)


# ---------------------------------------------------------------- monitor

class Monitor:
    """Re-publishes tasks whose executor went silent.

    A watch starts at the assignment (so a worker that dies before its
    first message is still covered); the bus's last-heard table, not the
    monitor's mail, gives its attempt's latest started or heartbeat.  It
    ends with the watched attempt's result, or with an ok verdict for
    any attempt of the task.  A watch whose task went k*H ticks without
    news triggers a re-publication with the attempt bumped, plus a
    transmission-failure event for the data policy.
    """

    def __init__(self, bus: InProcessBus, heartbeat_period: int,
                 timeout_multiplier: int,
                 actor_id: str = "monitor") -> None:
        self.bus = bus
        self.id = actor_id
        self.heartbeat_period = heartbeat_period
        self.timeout_multiplier = timeout_multiplier
        bus.register(actor_id)
        for channel in (TASKS_TO_DO, TASKS_TO_CHECK, FINISHED_TASKS,
                        EMERGENCY):
            bus.subscribe(actor_id, channel)
        self.watch: dict[str, tuple[int, int]] = {}  # task -> (attempt, tick)
        self.timeouts = 0
        self.halted = False

    def _last_seen(self, tid: str) -> int:
        attempt, assigned = self.watch[tid]
        return self.bus.heard.get((tid, attempt), assigned)

    @property
    def wake(self) -> float:  # when the oldest watch passes k*H ticks
        oldest = min(map(self._last_seen, self.watch), default=math.inf)
        return oldest + self.timeout_multiplier * self.heartbeat_period + 1

    def step(self, now: int) -> None:
        if self.halted:
            return
        for env in self.bus.drain(self.id):
            if env.channel == EMERGENCY:
                self.halted = True
                return
            kind = env.kind
            payload = env.payload
            tid = payload.get("task_id")
            if kind == "assignment":
                if tid not in self.bus.specs:
                    continue
                self.watch[tid] = (payload["attempt"], env.ts)
            elif kind == "result":
                watch = self.watch.get(tid)
                if watch is not None and watch[0] == payload["attempt"]:
                    del self.watch[tid]
            elif kind == "verdict" and payload["ok"]:
                self.watch.pop(tid, None)
        deadline = self.timeout_multiplier * self.heartbeat_period
        for tid in sorted(self.watch):
            if now - self._last_seen(tid) <= deadline:
                continue
            published = self.bus.specs[tid]
            latest = max(published)
            self.bus.publish(self.id, TASKS_TO_DO, "task",
                             {"task_id": tid,
                              "attempt": max(latest, self.watch[tid][0]) + 1,
                              "spec": published[latest]})
            self.bus.publish(self.id, DLC, "dlc",
                             {"task_id": tid,
                              "event": "transmission_failure"})
            del self.watch[tid]
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

    def __init__(self, bus: InProcessBus,
                 workspace: Optional[Workspace] = None,
                 validators: Optional[dict[str, ValidatorFn]] = None,
                 actor_id: str = "checker") -> None:
        self.bus = bus
        self.id = actor_id
        self.workspace = workspace
        self.registry: dict[str, ValidatorFn] = {"default": default_validator}
        if validators:
            self.registry.update(validators)
        bus.register(actor_id)
        for channel in (TASKS_TO_CHECK, EMERGENCY):
            bus.subscribe(actor_id, channel)
        self.finished: set[str] = set()
        self.fails: dict[str, int] = {}
        self.duplicates = 0
        self.halted = False

    wake = math.inf  # acts only on mail

    def step(self, now: int) -> None:
        if self.halted:
            return
        for env in self.bus.drain(self.id):
            if env.channel == EMERGENCY:
                self.halted = True
                return
            self._on_result(env)  # TasksToCheck carries only results

    def _on_result(self, env: Envelope) -> None:
        payload = env.payload
        tid = payload["task_id"]
        if tid in self.finished:
            self.duplicates += 1
            return
        spec = self.bus.spec(tid, payload["attempt"])
        if spec is None:
            return
        try:  # an unknown validator (KeyError) or one that raises fails
            fn = self.registry[spec.get("validator") or "default"]
            ok = bool(fn(spec, payload, self.workspace))
        except Exception:
            ok = False
        if ok:
            self.finished.add(tid)
            self.bus.publish(self.id, FINISHED_TASKS, "verdict",
                             {"task_id": tid, "attempt": payload["attempt"],
                              "ok": True, "outputs": payload["outputs"]})
            return
        self.fails[tid] = self.fails.get(tid, 0) + 1
        if self.fails[tid] < spec["max_attempts"]:
            self.bus.publish(self.id, TASKS_TO_DO, "task",
                             {"task_id": tid,
                              "attempt": payload["attempt"] + 1,
                              "spec": spec})
        else:
            self.bus.publish(self.id, FINISHED_TASKS, "verdict",
                             {"task_id": tid, "attempt": payload["attempt"],
                              "ok": False, "outputs": {}})
