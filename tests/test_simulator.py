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
    TaskState,
    WorkerSpec,
    WorkflowBatch,
    Workspace,
    dump,
    generate_adapt_workflow,
    load,
    lifecycle_audit,
    parse_log,
    precedence_audit,
    replay_check,
    run_simulation,
    scenario_from_dict,
)
from pubflow import actors, cli
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
        monitors = []
        init = actors.Monitor.__init__

        def keep(self, *args, **kwargs):
            monitors.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(actors.Monitor, "__init__", keep)
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
        assert report.timeouts == tally.timeouts == monitors[0].timeouts
        assert report.messages_total == tally.messages_total
        assert report.messages_by_channel == tally.by_channel
        if tally.reason is not None:
            assert report.makespan == tally.makespan
        else:
            assert report.makespan == scenario.horizon



def test_idle_workers_are_not_stepped(monkeypatch):
    """A worker is stepped for mail or for its own work (a running job, a
    due offer), so steps stay within ticks plus deliveries to workers;
    stepping every worker on every tick would make them 32 x ticks."""
    steps, deliveries = [0], [0]
    step, drain = actors.WorkerActor.step, InProcessBus.drain

    def counting_step(self, now):
        steps[0] += 1
        step(self, now)

    def counting_drain(self, actor_id):
        out = drain(self, actor_id)
        if actor_id in workers:
            deliveries[0] += len(out)
        return out

    monkeypatch.setattr(actors.WorkerActor, "step", counting_step)
    monkeypatch.setattr(InProcessBus, "drain", counting_drain)
    batch = batch_of(noop_task("a", duration=20.0),
                     noop_task("b", deps=["a"], duration=20.0),
                     noop_task("c", deps=["b"], duration=20.0))
    workers = {f"w{i:02d}" for i in range(32)}
    scenario = Scenario(seed=1, horizon=500, workers=tuple(
        WorkerSpec(worker_id=wid) for wid in sorted(workers)))
    report, _ = run_simulation(batch, scenario)
    assert report.completed
    assert steps[0] <= report.makespan + 1 + deliveries[0]


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


# (case, jitter) -> sha256 of the run's log.dumps().  Any change to these
# bytes must say which bytes changed and why.
LOG_GOLDEN = {
    ("adapt-unfold", 0):
        "e17c3a61374432704b6ffeaf727846dac8be168aa55c8f750c5c552e4fa2767f",
    ("adapt-unfold", 2):
        "1975fdc480b39175136616b050237ea68b10cb49898794b83c4ec6e13390d8f5",
    ("chain", 0):
        "da26f020f8eff1542eafad7f468300566546df926c792bddc15b4511ee73b134",
    ("chain", 2):
        "c24bff253578ea42f3f89ed61ff995695152700b39fe06245ff409754c6a3185",
    ("flat-crash", 0):
        "141cbae46f16e79cc7f19bf9aeaa3f249d8547d343dbda8b531667f54eac531b",
    ("flat-crash", 2):
        "09686ef9c7e2c39c12e08f0915ac1d2823993a34b854d6f4b0cf9b29d7de17c5",
    ("flat-two-stalls", 0):
        "aee75bb5f57a0fad15ce6cfda3053dca0effc383dc03706d5afeaac820136234",
    ("flat-two-stalls", 2):
        "7276b1cb2578a5054d5d12b9431ad02aa304c53dd3d7a39ef96b3cddc0a4ac3e",
}

# (case, jitter) -> sha256 of the run workspace's files, see
# workspace_digest
WORKSPACE_GOLDEN = {
    ("adapt-unfold", 0):
        "944f70d0b683267afbe7237c993a0d4f84d7cdfef232950dec9e5ed9a69542b8",
    ("adapt-unfold", 2):
        "944f70d0b683267afbe7237c993a0d4f84d7cdfef232950dec9e5ed9a69542b8",
}


def workspace_digest(root):
    """sha256 over the directory's files in name order: each file's
    [name, size] as JSON, then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.iterdir()):
        digest.update(json.dumps([path.name, path.stat().st_size]).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


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
    """z is released while both workers run; offers pend past their
    due tick until the worker is idle again."""
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


EDGE_CASES = {
    "late-arrival": _late_arrival,
    "departure-not-after-arrival": _departure_not_after_arrival,
    "crash-mid-job": _crash_mid_job,
    "crash-prob-and-departure": _crash_prob_and_departure,
    "stall-over-assignment": _stall_over_assignment,
    "offers-due-while-running": _offers_due_while_running,
    "cut-by-horizon": _cut_by_horizon,
    "attempts-run-out": _attempts_run_out,
}

# (case, jitter) -> (sha256 of log.dumps(), sha256 of report_fields)
EDGE_GOLDEN = {
    ("attempts-run-out", 0): (
        "ff20642feb6c3e41c9bb84f3f363087618e76af7a257ad0c75e4807c52733ae8",
        "27265b1d3bae9f09e164b492b420aae20eb411f8af9ccf0164ae300f6328a2d4"),
    ("attempts-run-out", 2): (
        "e93c3a76c9a77881ccb9555b7b6cb8dca1b285a5e0f3c8b0e14f78ce3b9384c2",
        "f7c7f1d9493bb32e4bcd9e774432e654a0c6887934bcc7151da50e79ad0b3a6b"),
    ("crash-mid-job", 0): (
        "c5567570108e99557d5a29b2c6510dba9a5d79a2aed1e9b40f08d0a976e477f9",
        "b7333ba8782e97b3d89e8e953044f8e3a6712966cc329ed2e2a2e7e906a7e031"),
    ("crash-mid-job", 2): (
        "fc20a3952a1290fc7794724515e840ec93bc9d02abd6d5fb4a02ffceba37e9b3",
        "945d151d6750e903f340f6b906a6e137c1a9da21c7a7cd05b41d7ca7440edc04"),
    ("crash-prob-and-departure", 0): (
        "064aa366bb980cd6094da8686c1dfd1b13fc67420fd42310ea26d26493747143",
        "1f2c5ebd9e5caaf35f28b3505c6a8c64b51eccfbe68a93ae745fc9243633a180"),
    ("crash-prob-and-departure", 2): (
        "c470137ac1a53215d191b1047948ab573e212351c9751013c3c7d882447ee505",
        "60dab176c72b7ce4ad1ea48d8025f885009905c1a8da5ed1e03858ab284e50ff"),
    ("cut-by-horizon", 0): (
        "6977dd7ed7cc2307f259afe1c41b99d9798306fa1e4d657e8d5c704357c6ffb8",
        "a215e90cc7ce0a58f21358393c366c361df4284adbacfc2c0a28bd540aedb871"),
    ("cut-by-horizon", 2): (
        "83b0b7c35b263e1cdcdb40a97054f0df24f9cbd1c618c926f0007deb74946deb",
        "57b58e2b5cecb036e6a31b33ee641d8f916606fc9e531cab01984260d8501b8c"),
    ("departure-not-after-arrival", 0): (
        "4678a57c2ab52a587e809d1d7109eafdf22897c45296caaa52461d8d203bb7e8",
        "cfc4d8f83ed53bf645846c2e7e2418c0591469d2d3c955fad045befb92aa41de"),
    ("departure-not-after-arrival", 2): (
        "133f6f54618bd53595e5cfde153f9a70a142e4182623bb70a815fcee56cd55ab",
        "cfc4d8f83ed53bf645846c2e7e2418c0591469d2d3c955fad045befb92aa41de"),
    ("late-arrival", 0): (
        "ecacc38dd393298345158b119bae44c85d46f6c498ebefd8f9defb76063399f3",
        "87681b5819471fc2bad4ab2b6ca1fb6c0825f00f19764ad799c140474c8ec8aa"),
    ("late-arrival", 2): (
        "5866055779afaf8c542dced46c75495ef1568972425d19a5b5de6d0f62173c52",
        "87681b5819471fc2bad4ab2b6ca1fb6c0825f00f19764ad799c140474c8ec8aa"),
    ("offers-due-while-running", 0): (
        "c5f39fdead6e360a65981c24df14123fb83be241d4d4abab0dbdbef647a06105",
        "50295df6a089c1a4e2b0fe8e6720f6a69ee98b7cf772e3edd2be27255df1b29d"),
    ("offers-due-while-running", 2): (
        "fc5e59e681b1794ca4625d5e3b7f2fede17ae1ad13738cea4ff900c2d713b063",
        "50295df6a089c1a4e2b0fe8e6720f6a69ee98b7cf772e3edd2be27255df1b29d"),
    ("stall-over-assignment", 0): (
        "eaafa21a647c59fd305b7035246724fa5003dfea0c0914b3fca910d9941b8d00",
        "89a8490b8864db02d753776f4cdd68525aba70469f2e4011f5f1b91d55dbeaf6"),
    ("stall-over-assignment", 2): (
        "9e591da2e1c3e236243dcd59b59478ec93b5d50cbed61c2b43e4eebe7c499750",
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
