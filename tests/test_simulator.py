"""Whole-protocol runs under the deterministic tick simulator."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubflow import (
    KernelSpec,
    LogTally,
    MalformedLog,
    SchemaError,
    SimParams,
    Scenario,
    SlaPolicy,
    Task,
    WorkerSpec,
    WorkflowBatch,
    generate_adapt_workflow,
    lifecycle_audit,
    parse_log,
    precedence_audit,
    replay_check,
    run_simulation,
    scenario_from_dict,
    scenario_to_dict,
)
from pubflow import cli
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
        assert a_report.to_dict() == b_report.to_dict()

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
    def test_report_equals_the_fold_of_its_written_log(self, case):
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
        assert report.messages_total == tally.messages_total
        assert report.messages_by_channel == tally.by_channel
        if tally.reason is not None:
            assert report.makespan == tally.makespan
        else:
            assert report.makespan == scenario.horizon



ticks = st.integers(min_value=0, max_value=10_000)
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def scenarios(draw):
    ids = draw(st.lists(st.text("wxyz0123", min_size=1, max_size=4),
                        max_size=4, unique=True))
    workers = tuple(WorkerSpec(
        worker_id=wid,
        capabilities=draw(st.frozensets(st.sampled_from(["gpu", "ssd"]))),
        speed=draw(st.floats(min_value=0.01, max_value=64.0)),
        reliability=draw(unit), arrival=draw(ticks),
        departure=draw(st.none() | ticks), crash=draw(st.none() | ticks),
        crash_prob=draw(unit), stall=draw(st.none() | st.tuples(ticks, ticks)),
    ) for wid in ids)
    return Scenario(
        seed=draw(st.integers(-2**63, 2**63)), horizon=draw(ticks),
        heartbeat_period=draw(st.integers(1, 50)),
        timeout_multiplier=draw(st.integers(1, 9)),
        volunteer_latency=draw(ticks), volunteer_jitter=draw(ticks),
        workers=workers)


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
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(self.sample())),
                        "utf-8")
        assert load_scenario(path) == self.sample()

    def test_bad_scenario_rejected(self):
        with pytest.raises(SchemaError):
            scenario_from_dict({"workers": [{"speed": 2.0}]})  # no id

    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_generated_scenarios_round_trip(self, scenario):
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

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
        "efe3ba7f62ddcda25c77f4ffad6ca8e1448d66f3bc0f21a7bdfddfcac772c64f"),
    "flat-crash": (
        _flat_crash,
        "bb3f668dd57167b1b532b5bcc4d7feb77dddbf67aefc908aa0b518633e895b9f"),
    "chain": (
        _chain,
        "cee849737b5ddd604b3f6e2677b5ef5b33bcd897449930d2ab379cd84969c525"),
    "adapt-unfold": (
        _adapt_unfold,
        "c61af5bcf0507eb2e8ea0c8167dc037934babbed470bab00c18c878790d6622d"),
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
    def test_no_worker_offers_the_same_attempt_twice(self, case, jitter):
        batch, scenario, _ = ASSIGNMENT_GOLDEN[case][0]()
        scenario = dataclasses.replace(scenario, volunteer_jitter=jitter)
        report, log = run_simulation(batch, scenario)
        assert report.completed
        offers = offers_of(records_of(log))
        assert offers
        assert len(offers) == len(set(offers))
        assert precedence_audit(log, batch) == []
        assert lifecycle_audit(log) == []

    @pytest.mark.parametrize("tasks,workers", [(10, 4), (25, 3), (6, 8)])
    def test_flat_batch_logs_one_offer_per_task_and_worker(self, tasks,
                                                           workers):
        batch = batch_of(*[noop_task(f"t{i:02d}") for i in range(tasks)])
        scenario = Scenario(seed=1, horizon=200, workers=tuple(
            WorkerSpec(worker_id=f"w{i}") for i in range(workers)))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        assert report.messages_by_channel["VolunteerWorkers"] == \
            tasks * workers

    def test_republished_attempt_gets_a_fresh_offer(self):
        """w1 wins t and stalls past the horizon; the monitor republishes
        t as attempt 2, and w2, which offered for attempt 1, offers again
        and runs attempt 2."""
        batch = batch_of(noop_task("t", duration=10.0))
        scenario = Scenario(seed=1, horizon=120, heartbeat_period=3,
                            timeout_multiplier=2, workers=(
                                WorkerSpec(worker_id="w1", stall=(2, 200)),
                                WorkerSpec(worker_id="w2")))
        report, log = run_simulation(batch, scenario)
        assert report.completed
        records = records_of(log)
        assert [o for o in offers_of(records) if o[2] == "w2"] == \
            [("t", 1, "w2"), ("t", 2, "w2")]
        assigned = [(r["payload"]["worker_id"], r["payload"]["attempt"])
                    for r in records if r["kind"] == "assignment"]
        assert assigned == [("w1", 1), ("w2", 2)]
        verdicts = [r["payload"] for r in records if r["kind"] == "verdict"]
        assert [(v["attempt"], v["ok"]) for v in verdicts] == [(2, True)]
        assert precedence_audit(log, batch) == []
        assert lifecycle_audit(log) == []
