"""Whole-protocol runs under the deterministic tick simulator."""

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubflow import (
    DatasetStage,
    KernelSpec,
    LogTally,
    MalformedLog,
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
            ("assignment", "TasksToDo", 1),
            ("started", "TasksInProgress", 1),
            ("result", "TasksToCheck", 2),
            ("verdict", "FinishedTasks", 3),
            ("emergency", "Emergency", 4),
        ]
        got = [(r["kind"], r["channel"], r["ts"]) for r in records_of(log)]
        assert got == expected
        assert report.makespan == 4
        assert report.messages_total == 8
        assert report.re_executions == 0

    def test_seq_dense_from_one(self):
        _, log = run_simulation(batch_of(noop_task("t1")), ONE_WORKER)
        assert [r["seq"] for r in records_of(log)] == list(range(1, 9))

    def test_verdict_carries_checksums(self):
        _, log = run_simulation(batch_of(noop_task("t1")), ONE_WORKER)
        verdict = [r for r in records_of(log) if r["kind"] == "verdict"][0]
        assert verdict["payload"]["ok"] is True
        assert set(verdict["payload"]["outputs"]) == {"d_t1"}

    def test_heartbeats_appear_for_long_tasks(self):
        batch = batch_of(noop_task("slow", duration=12.0))
        scenario = Scenario(seed=1, horizon=60, heartbeat_period=5,
                            workers=(WorkerSpec(worker_id="w1"),))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        beats = [r["ts"] for r in records_of(log)
                 if r["kind"] == "heartbeat"]
        assert beats == [6, 11]  # started at 1; every 5 ticks; done at 13


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
        assert [b["ts"] for b in beats] == [4, 7]  # exactly two, then death
        republished = [r for r in records if r["kind"] == "task"
                       and r["channel"] == "TasksToDo"
                       and r["payload"]["attempt"] == 2]
        assert len(republished) == 1
        assert republished[0]["sender"] == "monitor"
        assert republished[0]["ts"] == 14  # silence noticed at 7 + 2*3 + 1
        dlc = [r for r in records if r["kind"] == "dlc"]
        assert len(dlc) == 1
        verdicts = [r for r in records if r["kind"] == "verdict"]
        assert len(verdicts) == 1 and verdicts[0]["payload"]["ok"]
        assert verdicts[0]["payload"]["attempt"] == 2
        starters = [r["payload"]["worker_id"] for r in records
                    if r["kind"] == "started"]
        assert starters == ["w1", "w2"]
        assert report.makespan == 47
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
        assert report.makespan == 80  # horizon, no emergency

    def test_stalled_worker_duplicate_result_single_verdict(self):
        """A stalled (not dead) worker wakes and finishes attempt 1 in
        the same tick the backup finishes attempt 2; the checker takes
        the first verified result and discards the duplicate."""
        batch = batch_of(noop_task("t", duration=10.0))
        scenario = Scenario(
            seed=5, horizon=120, heartbeat_period=3, timeout_multiplier=2,
            workers=(WorkerSpec(worker_id="w1", stall=(2, 8)),
                     WorkerSpec(worker_id="w2")))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        records = records_of(log)
        results = [r for r in records if r["kind"] == "result"]
        assert len(results) == 2  # both attempts really finished
        assert {r["payload"]["worker_id"] for r in results} == {"w1", "w2"}
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
            "task_id": "t", "attempt": 2, "ok": False, "outputs": {}}
        emergency = [r for r in records if r["kind"] == "emergency"]
        assert emergency[0]["payload"]["reason"] == "failed"
        assert report.re_executions == 1

    def test_verified_task_is_not_republished_by_the_monitor(
            self, tmp_path, capsys):
        """w0 stalls on a's attempt 1, the monitor republishes it and the
        slow w1 takes attempt 2, w0 wakes and gets attempt 1 verified, then
        w1 dies mid-attempt 2.  The watch on attempt 2 ends with the ok verdict,
        so the monitor never republishes the verified task."""
        batch = batch_of(noop_task("a", duration=30.0),
                         noop_task("b", deps=["a"], duration=30.0))
        scenario = Scenario(seed=1, horizon=300, workers=(
            WorkerSpec(worker_id="w0", stall=(5, 40)),
            WorkerSpec(worker_id="w1", speed=0.5, crash=75)))
        path = tmp_path / "events.jsonl"
        report, log = run_simulation(batch, scenario, log_path=path)
        assert report.completed
        records = records_of(log)
        ok_a = next(r["seq"] for r in records if r["kind"] == "verdict"
                    and r["payload"]["task_id"] == "a")
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
        assert report.makespan == 25
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
        assert report.completed == tally.completed
        assert report.re_executions == tally.re_executions
        assert report.timeouts == tally.timeouts \
            == made[actors.Monitor].timeouts
        assert report.duplicates == tally.duplicates \
            == made[actors.Checker].duplicates
        assert report.messages_total == tally.messages_total
        assert report.messages_by_channel == tally.by_channel
        if tally.reason is not None:
            assert report.makespan == tally.makespan
        else:
            assert report.makespan == scenario.horizon



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
    reads them from the bus's last-heard table: it is stepped for its
    mail (assignment, result, verdict, Emergency) and never wakes for a
    timeout, so a handful of times, not once per heartbeat."""
    steps = [0]
    step = actors.Monitor.step

    def counting_step(self, now):
        steps[0] += 1
        step(self, now)

    monkeypatch.setattr(actors.Monitor, "step", counting_step)
    batch = batch_of(noop_task("a", duration=600.0))
    scenario = Scenario(seed=1, horizon=1000, heartbeat_period=5,
                        timeout_multiplier=3,
                        workers=(WorkerSpec(worker_id="w0"),))
    report, log = run_simulation(batch, scenario)
    assert report.completed and report.timeouts == 0
    assert kinds_of(log).count("heartbeat") == 119
    assert steps[0] <= 5


def test_long_chain_visits_ticks_by_envelope_not_by_makespan(monkeypatch):
    """Without a crash_prob worker the loop jumps from one due tick to
    the next: a tick where something is sent, and the tick after, when
    its readers drain it.  A chain of three 300-tick tasks with H=20
    takes over 900 ticks but visits about two per envelope."""
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
    report, _ = run_simulation(batch, scenario)
    assert report.completed and report.makespan > 900
    ticks = visited[1:]  # the first is the bus's own start at 0
    assert ticks == sorted(set(ticks)) and ticks[-1] == report.makespan
    assert len(ticks) <= 2 * report.messages_total
    assert len(ticks) * 5 < report.makespan


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

    def test_unknown_channel_is_malformed(self):
        _, records = chain_run()
        records[0]["channel"] = "Gossip"
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
        assert any("second ok verdict" in v for v in violations)

    def test_todo_without_waiting_is_flagged(self):
        _, records = chain_run()
        records = [r for r in records
                   if not (r["channel"] == "WaitingTasks"
                           and r["payload"].get("task_id") == "a")]
        violations = lifecycle_audit(renumbered(records))
        assert any("WaitingTasks" in v for v in violations)

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
        "eb1a9ad77bde921e4e40fb4b5e0f0ef39bc80598bd1b71fbbabc5cca46b95f45"),
    "flat-crash": (
        _flat_crash,
        "c26b3d1fc6b01efa857c8660dee0c422c8fb3e97be0797d897dcc53f90113c77"),
    "chain": (
        _chain,
        "d09894c6269b407fb9cd72a23df3b93b4cb7dcf3a5b3a4999e83dfc36501eb1b"),
    "adapt-unfold": (
        _adapt_unfold,
        "d9a4254cb263859b486562345af20a2c5d67d213682b28f9149264e05c47bd56"),
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
        "55485d85d6ab3efdefa63b14a6a16dd9a66521303c1a1f908c8071e39a9b1bc7",
    ("adapt-unfold", 2):
        "55485d85d6ab3efdefa63b14a6a16dd9a66521303c1a1f908c8071e39a9b1bc7",
    ("chain", 0):
        "4d2750a4da888e565a02fc2f061d0f2e0f3167b4a66995b5721746d9a60f1067",
    ("chain", 2):
        "10fd6f9c7608ec4e19241176f15544c3837efbb8ea4ef07572745b491e672a7b",
    ("flat-crash", 0):
        "0679c90ce9548aa0376e32503ff4855422b3b2b702e340ac69f097b1e1ad535a",
    ("flat-crash", 2):
        "13c56eea94df8b031e00dde7786fe5c7c60d0b833ffc1567140f138eccf1d590",
    ("flat-two-stalls", 0):
        "f962898a69916130f5ee4b239794caaf7d63a1bb0cbd9b0da07fed3b0fd756fe",
    ("flat-two-stalls", 2):
        "6b79b482b758fe976bba19ed318c930ce242f9534301277fc070a1fc361023d9",
}

# (case, jitter) -> sha256 of the run workspace's files, see
# workspace_digest
WORKSPACE_GOLDEN = {
    ("adapt-unfold", 0):
        "5e1dbcd27cf3ec02ef4fa77be7654c7aa704035c7696e58112137af4d49f11a0",
    ("adapt-unfold", 2):
        "5e1dbcd27cf3ec02ef4fa77be7654c7aa704035c7696e58112137af4d49f11a0",
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
        which passes every move, and the log bytes stay golden."""
        moves, check = [], actors.check_transition

        def spy(*args):
            moves.append(args)
            check(*args)

        monkeypatch.setattr(actors, "check_transition", spy)
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
    """w1 and w2 are assigned at tick 1, inside their stalls."""
    batch = batch_of(noop_task("a", duration=4.0),
                     noop_task("b", duration=4.0))
    scenario = Scenario(seed=1, horizon=200, workers=(
        WorkerSpec(worker_id="w1", speed=2.0, stall=(1, 6)),
        WorkerSpec(worker_id="w2", stall=(1, 3)),
        WorkerSpec(worker_id="w3", reliability=0.5)))
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
    heartbeat ticks 5 and 7; its heartbeats resume on their phase at 9
    and its result comes five ticks late."""
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
    finishes attempt 1 first, and the Emergency halts w2 mid-job."""
    batch = batch_of(noop_task("a", duration=10.0))
    scenario = Scenario(seed=8, horizon=200, heartbeat_period=2,
                        timeout_multiplier=2, workers=(
                            WorkerSpec(worker_id="w1", stall=(3, 6)),
                            WorkerSpec(worker_id="w2", speed=0.5,
                                       reliability=0.5)))
    return batch, scenario, None


def _quiet_faults():
    """Faults on quiet ticks, between heartbeats 7 ticks apart: w1's
    crash_prob roll, w2's crash at 12 and w4's departure at 56 all
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
                                       departure=56)))
    return batch, scenario, None


def _horizon_mid_job():
    """The horizon cuts w1's job at 20, before its next heartbeat at 28:
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
        "844d90a9b1a3d5d0f5d6deab0d543eaca33861ebe5deec784ed5a7f061849537",
        "2e72f81ee3bd803154d01e61d3aea7591cfc1d353e557460e0df1b205bf7eed9"),
    ("attempts-run-out", 2): (
        "3ce5d1d6387e7ce5561ceb3bc00221185e58d1eb70187fac1ad3f9d0f30419a7",
        "2e72f81ee3bd803154d01e61d3aea7591cfc1d353e557460e0df1b205bf7eed9"),
    ("crash-mid-job", 0): (
        "8ea7146b2c0070d7e80a994af3ec262813e914f67d0cf7354900e282e6654cd2",
        "3fccdb28c2074bd9adf5a76af3a0260fc39ef6ed0a4f24784401f33a89636766"),
    ("crash-mid-job", 2): (
        "d2396ed0ccf1c204102b10f7f84cc8252b554a0b4d71822ca81c1f65ad45b51a",
        "3fccdb28c2074bd9adf5a76af3a0260fc39ef6ed0a4f24784401f33a89636766"),
    ("crash-prob-and-departure", 0): (
        "fd887047f3356895f4462e70211324e7f0af25ede49f38a725c2b5b2ed37250b",
        "9ce05a15872b96d929f25fbebdcd2e67f14a18701c9ca172e261a7a018156633"),
    ("crash-prob-and-departure", 2): (
        "0145b06a0759aa7c15c437554dc6aa5f6f003a77e0871fce9bb0940f18dbea7c",
        "5b66576cc4f04a3c1aa2e14d2d41f3312a97611392377c56f01c5018295a2cf7"),
    ("cut-by-horizon", 0): (
        "29bdca0c253f1b9f8925f81c92a759071adff7e8488acae92ae9b9c267b5a641",
        "a215e90cc7ce0a58f21358393c366c361df4284adbacfc2c0a28bd540aedb871"),
    ("cut-by-horizon", 2): (
        "39855786c832f0f55fce12f4178d35814bff8b00510320598654391508af877b",
        "a215e90cc7ce0a58f21358393c366c361df4284adbacfc2c0a28bd540aedb871"),
    ("departure-not-after-arrival", 0): (
        "bda89ad105f6c8128a179994c99217d41a460fdf14d9f996201a242adb16b64c",
        "87211ca760b15a932fc1e29289c0eadaa7984b347669ec2c28001f080cfac87f"),
    ("departure-not-after-arrival", 2): (
        "bda89ad105f6c8128a179994c99217d41a460fdf14d9f996201a242adb16b64c",
        "87211ca760b15a932fc1e29289c0eadaa7984b347669ec2c28001f080cfac87f"),
    ("emergency-while-running", 0): (
        "3ba54c2f14101698ac36a684cd086e1ff317692051a41b375a75a5a82807b061",
        "a8effcf96e2d2b5c0ad77c765b58c7531fdc7d4eafdc77546fcacdb4c972c77a"),
    ("emergency-while-running", 2): (
        "ed63a19246db7aa102f03c485d3b0daf66e3f41ec9f0ff93f66e1a500bd228a5",
        "a8effcf96e2d2b5c0ad77c765b58c7531fdc7d4eafdc77546fcacdb4c972c77a"),
    ("horizon-mid-job", 0): (
        "4f7ad8b0ae243dce88f4e06f85e11c61c2a508b57fb3de84609940b0c8889084",
        "2474b9c3c17c393dd9500bd21e6868ae66eeae3e1b4fa0980e40e847ec94789b"),
    ("horizon-mid-job", 2): (
        "4f7ad8b0ae243dce88f4e06f85e11c61c2a508b57fb3de84609940b0c8889084",
        "2474b9c3c17c393dd9500bd21e6868ae66eeae3e1b4fa0980e40e847ec94789b"),
    ("late-arrival", 0): (
        "3544713160760fddfde01e3a302ffe9a17ea009381a3e06d601289acd80ca62d",
        "963fcffecd7ea0b490d47b9d625416a44049d15dbde75e94c171e993e1cddcb1"),
    ("late-arrival", 2): (
        "3544713160760fddfde01e3a302ffe9a17ea009381a3e06d601289acd80ca62d",
        "963fcffecd7ea0b490d47b9d625416a44049d15dbde75e94c171e993e1cddcb1"),
    ("offers-due-while-running", 0): (
        "445f384b39dea211c1a825614c8e393503ad946bece239c0b267524c109f95f4",
        "c9515c28c023dfaab658843c8442707fc3c96d227bb181f2ab919c52d4c193b8"),
    ("offers-due-while-running", 2): (
        "70ad3983e603fe1688c8f7e5c47bdb4276118e6e7f81db717e78f259b637eef1",
        "c9515c28c023dfaab658843c8442707fc3c96d227bb181f2ab919c52d4c193b8"),
    ("quiet-faults", 0): (
        "cea5f0d44d520d43210791159dc19df8b278d07e906eec7b04906324e8412462",
        "b29c1e142bfcd04ff6b4709954468ca81f241577bfacd72f2cbb8f20fe1a58e3"),
    ("quiet-faults", 2): (
        "d876767b4f554bee2ed4849068eae9573f6093d6592c8ece5e71a33ee7a29c99",
        "a96091424265519bebcde08d1bd62f63c5f76ee8b0a94a199ebe8559d4bf87f4"),
    ("stall-mid-job", 0): (
        "d93e0aab32349f904b562f5ee9632795f873c2f6aa8b2f4b5082d7417069d006",
        "84252679e8d2044ff3d1f1d32e612e2cd860ba747f1cf47680f63e02c76ca6c7"),
    ("stall-mid-job", 2): (
        "a128278b9daee8bd9a47947fd16db2c04a8f5a0cc758339d646c1e906e75d9b2",
        "a83a65a78b8512a575dd9079fcc0331ed90874071305c0101c24dcc66b66bfd4"),
    ("stall-over-assignment", 0): (
        "569930bbe66e2243e6fee6fdbefe5087b2fdf25f82d0f317494a3d6d860b0b65",
        "89a8490b8864db02d753776f4cdd68525aba70469f2e4011f5f1b91d55dbeaf6"),
    ("stall-over-assignment", 2): (
        "b72d7ae8d4995472c7cd8cc1699198679af16da953788a045a888023bcbc221b",
        "4973880b878a132bd0aa2f98ba46b81b1ca90b9d482e7db7c8817c5e2c521db7"),
}


def report_fields(report):
    """The report fields the engine computes outside the log, as JSON."""
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
    dataset with the checksum its verdict logged."""
    batch, scenario, _ = _adapt_unfold()
    report, log = run_simulation(batch, scenario,
                                 workspace=Workspace(tmp_path))
    assert report.completed
    verified = {dataset_id: checksum for r in records_of(log)
                if r["kind"] == "verdict" and r["payload"]["ok"]
                for dataset_id, checksum in r["payload"]["outputs"].items()}
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
        assert pool_violations(records) == []
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


def pool_violations(records):
    """Assignments made to a worker outside the idle pool, as (seq, task,
    worker): to one assigned a task since its last result or volunteer.
    Such a worker is busy, stalled or dead, and only its own word puts it
    back in the pool; a Monitor timeout does not."""
    assigned: set[str] = set()  # workers not heard from since assigned
    violations = []
    for record in records:
        kind, payload = record["kind"], record["payload"]
        if kind == "assignment":
            if payload["worker_id"] in assigned:
                violations.append((record["seq"], payload["task_id"],
                                   payload["worker_id"]))
            assigned.add(payload["worker_id"])
        elif kind in ("result", "volunteer"):
            assigned.discard(payload["worker_id"])
    return violations


def _flat_noop_seed_2():
    """The benchmark's flat-noop workload at seed 2: 200 duration-1 noops
    with random ids on 16 workers; w03 stalls while running a task."""
    rng = random.Random(2)
    ids = sorted(f"t{n:08x}" for n in rng.sample(range(1 << 32), 200))
    batch = batch_of(*[noop_task(tid, outputs=()) for tid in ids])
    stalls = {"w03": (20, 24), "w06": (31, 24)}
    scenario = Scenario(seed=2, horizon=20000, heartbeat_period=5,
                        timeout_multiplier=3, workers=tuple(
                            WorkerSpec(worker_id=f"w{i:02d}",
                                       stall=stalls.get(f"w{i:02d}"))
                            for i in range(16)))
    return batch, scenario


class TestSilentWorkersStayOutOfThePool:
    """A monitor timeout once freed the silent worker, so the coordinator
    handed a stalled or dead worker a task it could not run, and only a
    second k*H timeout recovered that task."""

    def test_stalled_worker_is_not_assigned_until_its_result(self):
        batch, scenario = _flat_noop_seed_2()
        assert "tef232a32" in batch.tasks
        report, log = run_simulation(batch, scenario)
        assert report.completed
        records = records_of(log)
        assert pool_violations(records) == []
        timed_out = {r["payload"]["task_id"] for r in records
                     if r["kind"] == "task" and r["sender"] == "monitor"}
        w03 = [r["payload"]["task_id"] for r in records
               if r["kind"] == "assignment"
               and r["payload"]["worker_id"] == "w03"]
        # w03 stalls from tick 20 to 44 inside its last job, which times
        # out; the batch finishes before w03 speaks again
        assert w03[-1] in timed_out
        assert report.makespan < 44

    @pytest.mark.parametrize("jitter", [0, 2])
    def test_dead_worker_wins_no_task(self, jitter):
        batch, scenario, validators = _crash_prob_and_departure()
        scenario = dataclasses.replace(scenario, volunteer_jitter=jitter)
        report, log = run_simulation(batch, scenario, validators=validators)
        assert report.completed
        records = records_of(log)
        assert any(r["kind"] == "task" and r["sender"] == "monitor"
                   for r in records)
        assert pool_violations(records) == []


@given(batch=noop_dags(),
       scenario=scenarios(max_tick=50, max_crash_prob=0.05,
                          max_heartbeat=4, min_workers=1),
       horizon=st.integers(100, 400), tame=st.booleans())
@settings(max_examples=50, deadline=None)
def test_random_runs_are_clean_deterministic_and_finish(batch, scenario,
                                                         horizon, tame):
    """Random noop DAGs under random scenarios whose faults fall in the
    first 100 ticks: both audits pass, a second run gives the same
    bytes, no silent worker re-enters the pool, and a pool without
    faults finishes the batch."""
    scenario = tamed(scenario) if tame else \
        dataclasses.replace(scenario, horizon=horizon)
    report, log = run_simulation(batch, scenario)
    _, again = run_simulation(batch, scenario)
    assert replay_check(log, again)
    records = records_of(log)
    assert precedence_audit(records, batch) == []
    assert lifecycle_audit(records) == []
    assert pool_violations(records) == []
    if tame:
        assert report.completed
