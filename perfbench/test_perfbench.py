"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import logstats  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    doc = _bench(workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= (1 if trace else run.MIN_REPS)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_benchmark_json_matches_the_metric_tables():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 5, "tiny")
        assert a == workloads.generate(name, 5, "tiny")
        b = workloads.generate(name, 6, "tiny")
        assert (a.workflow_text, a.scenario) != (b.workflow_text, b.scenario)


def _tiny_log(tmp_path: Path, name: str = "flat-noop",
              tracer: Tracer | None = None) -> tuple[str, object]:
    from pubflow import parse_workflow, scenario_from_dict
    w = workloads.generate(name, 2, "tiny")
    batch = parse_workflow(w.workflow_text)
    call = tracer.call if tracer else rep.direct
    tag = "traced" if tracer else "plain"
    _report, _ws, log_path, _wall = rep.simulate(
        batch, scenario_from_dict(w.scenario), tmp_path, tag, call)
    return log_path.read_text("utf-8"), batch


def _renumber(records: list[dict]) -> str:
    for seq, record in enumerate(records, start=1):
        record["seq"] = seq
    return "".join(json.dumps(r, separators=(",", ":")) + "\n"
                   for r in records)


def test_clean_log_passes_the_audit(tmp_path):
    text, batch = _tiny_log(tmp_path)
    assert rep.audit(text, batch) == []


def test_started_before_its_assignment_trips_the_gate(tmp_path):
    text, batch = _tiny_log(tmp_path)
    records = [json.loads(line) for line in text.splitlines()]
    started = next(i for i, r in enumerate(records)
                   if r["kind"] == "started")
    key = (records[started]["payload"]["task_id"],
           records[started]["payload"]["attempt"])
    assigned = next(i for i, r in enumerate(records)
                    if r["kind"] == "assignment"
                    and (r["payload"]["task_id"],
                         r["payload"]["attempt"]) == key)
    records.insert(assigned, records.pop(started))
    violations = rep.audit(_renumber(records), batch)
    assert any("without an assignment" in v for v in violations)


def test_seq_gap_trips_the_gate(tmp_path):
    text, batch = _tiny_log(tmp_path)
    lines = text.splitlines(keepends=True)
    del lines[len(lines) // 2]
    violations = rep.audit("".join(lines), batch)
    assert violations and violations[0].startswith("malformed log")


def test_gate_rejects_disagreeing_counts(tmp_path):
    text, _batch = _tiny_log(tmp_path)
    counters = logstats.count_log(text)
    doc = {"messages_by_channel": dict(counters.by_channel),
           "messages_total": counters.messages_total,
           "makespan": counters.makespan, "completed": True}
    res = {"completed": True, "violation_count": 0, "violations": [],
           "oracle_ok": None, "log_sha256": "x", "report": doc,
           "sim": {"messages_by_channel": dict(counters.by_channel),
                   "messages_total": counters.messages_total,
                   "makespan": counters.makespan}}
    assert run.gate(res, counters, "x") == []
    res["sim"]["messages_by_channel"]["VolunteerWorkers"] += 1
    assert run.gate(res, counters, "y") == [
        "log differs from the first log of this seed",
        "channel counts of SimReport, pubflow report and the log disagree"]


def test_traced_run_writes_the_same_log_and_restores_functions(tmp_path):
    import pubflow.actors
    import pubflow.bus
    import pubflow.execution
    before = (pubflow.bus.InProcessBus.publish, pubflow.actors.ready_tasks,
              dict(pubflow.execution.KERNELS))
    plain, _ = _tiny_log(tmp_path, "adapt-flaky")
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = _tiny_log(tmp_path, "adapt-flaky", tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (pubflow.bus.InProcessBus.publish, pubflow.actors.ready_tasks,
            dict(pubflow.execution.KERNELS)) == before
    times = tracer.self_times()
    assert times["bus.publish"][0] == logstats.count_log(plain).messages_total
    assert times["adapt.kernel.iter"][0] > 0
    root = tracer.spans()
    wall = root["end"][0] - root["start"][0]
    assert sum(s for _, s in times.values()) == pytest.approx(wall, rel=1e-9)


def test_log_counters_on_a_hand_written_log():
    def rec(seq, ts, kind, channel, sender, **payload):
        return json.dumps({"seq": seq, "ts": ts, "channel": channel,
                           "kind": kind, "sender": sender,
                           "payload": payload})
    lines = [
        rec(1, 0, "task", "TasksToDo", "coordinator", task_id="a",
            attempt=1, spec={}),
        rec(2, 0, "volunteer", "VolunteerWorkers", "w0", task_id="a",
            worker_id="w0", attempt=1, profile={}),
        rec(3, 0, "volunteer", "VolunteerWorkers", "w0", task_id="a",
            worker_id="w0", attempt=1, profile={}),
        rec(4, 1, "assignment", "TasksToDo", "coordinator", task_id="a",
            worker_id="w0", attempt=1),
        rec(5, 1, "started", "TasksInProgress", "w0", task_id="a",
            worker_id="w0", attempt=1),
        rec(6, 20, "task", "TasksToDo", "monitor", task_id="a", attempt=2,
            spec={}),
        rec(7, 20, "dlc", "DLC", "monitor", task_id="a",
            event="transmission_failure"),
        rec(8, 21, "started", "TasksInProgress", "w1", task_id="a",
            worker_id="w1", attempt=2),
        rec(9, 22, "result", "TasksToCheck", "w1", task_id="a",
            worker_id="w1", attempt=2, exit_status=0, outputs={}, spec={}),
        rec(10, 23, "result", "TasksToCheck", "w0", task_id="a",
            worker_id="w0", attempt=1, exit_status=0, outputs={}, spec={}),
        rec(11, 23, "verdict", "FinishedTasks", "checker", task_id="a",
            attempt=2, ok=True, outputs={}),
        rec(12, 24, "emergency", "Emergency", "coordinator",
            reason="complete", batch_id="b"),
    ]
    c = logstats.count_log("\n".join(lines) + "\n")
    assert (c.messages_total, c.makespan, c.ticks, c.busy_ticks) == \
        (12, 24, 25, 7)
    assert (c.volunteers, c.volunteer_repeats, c.assignments) == (2, 1, 1)
    assert (c.attempts_started, c.attempts_failed) == (2, 1)
    assert (c.monitor_timeouts, c.checker_duplicates) == (1, 1)
    assert c.completed and c.tasks_released == 1
    assert c.by_kind["started"] == 2 and c.by_channel["TasksToDo"] == 3


def test_scaled_clock_reads_wall_time_at_the_reference_speed(monkeypatch):
    job_times = iter([0.2, 0.1, 0.3, 0.05])  # warm-up, before, after, after
    monkeypatch.setattr(rep, "reference", lambda: next(job_times))
    clock = rep.Clock(scaled=True)
    assert clock("a", sum, [1, 2]) == 3
    assert clock.seconds["a"] == pytest.approx(
        clock.wall["a"] * rep.REFERENCE_S / 0.2)
    clock("b", sum, [])
    assert clock.seconds["b"] == pytest.approx(
        clock.wall["b"] * rep.REFERENCE_S / 0.175)
    wall = rep.Clock()
    wall("c", sum, [])
    assert wall.seconds["c"] == wall.wall["c"]


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text("utf-8"), "utf-8")
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps(BENCHMARK), "utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-noop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
