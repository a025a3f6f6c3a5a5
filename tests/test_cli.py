"""End-to-end checks of the command line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

from pubflow import Workspace, cli


def run_cli(*argv):
    return cli.main(list(argv))


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_console_script(bin_dir):
    """Write the `pubflow` wrapper pip generates from `[project.scripts]`.

    Returns the directory holding it.
    """
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pubflow"]
    module, attr = target.split(":")
    bin_dir.mkdir(parents=True, exist_ok=True)
    script = bin_dir / "pubflow"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n", "utf-8")
    script.chmod(0o755)
    return bin_dir


@pytest.fixture
def chain_workflow(tmp_path):
    doc = {
        "schema": "pubflow/1",
        "batch_id": "chain",
        "tasks": [
            {"id": "a",
             "kernel": {"name": "noop",
                        "params": {"values": {"d_a": [1.0]}},
                        "outputs": ["d_a"]}},
            {"id": "b", "deps": ["a"],
             "kernel": {"name": "noop",
                        "params": {"values": {"d_b": [2.0]}},
                        "outputs": ["d_b"]}},
        ],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), "utf-8")
    return path


@pytest.fixture
def cyclic_workflow(tmp_path):
    doc = {
        "schema": "pubflow/1",
        "batch_id": "loop",
        "tasks": [
            {"id": "a", "deps": ["b"], "kernel": {"name": "noop"}},
            {"id": "b", "deps": ["a"], "kernel": {"name": "noop"}},
        ],
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc), "utf-8")
    return path


def scenario_file(tmp_path, name="scenario.json", **overrides):
    doc = {
        "seed": 2,
        "horizon": 400,
        "workers": [{"worker_id": "w1"}, {"worker_id": "w2"}],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), "utf-8")
    return path


class TestValidate:
    def test_ok_text(self, chain_workflow, capsys):
        assert run_cli("validate", str(chain_workflow)) == 0
        out = capsys.readouterr().out
        assert out == "2 tasks, 1 edges, series-parallel: yes\n"

    def test_cycle_exit_code_and_witness(self, cyclic_workflow, capsys):
        assert run_cli("validate", str(cyclic_workflow)) == 1
        captured = capsys.readouterr()
        assert "cycle: " in captured.err
        assert " -> " in captured.err

    def test_json_doc(self, chain_workflow, capsys):
        assert run_cli("validate", "--json", str(chain_workflow)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"ok": True, "tasks": 2, "edges": 1,
                       "series_parallel": True, "cycle": None}

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("validate", str(tmp_path / "absent.json")) == 2
        assert "error:" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", "utf-8")
        assert run_cli("validate", str(path)) == 2

    def test_xml_format(self, tmp_path, capsys):
        path = tmp_path / "wf.xml"
        path.write_text(
            '<workflow schema="pubflow/1" batch_id="x">'
            '<task id="a"><kernel name="noop"/></task>'
            '<task id="b"><kernel name="noop"/><dep ref="a"/></task>'
            "</workflow>", "utf-8")
        assert run_cli("validate", "--format", "xml", str(path)) == 0
        out = capsys.readouterr().out
        assert out.startswith("2 tasks, 1 edges")


class TestGenerateAdapt:
    def test_stdout_parses_and_counts(self, capsys):
        assert run_cli("generate-adapt", "--partitions", "4",
                       "--iterations", "2", "--cells", "32") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["batch_id"] == "adapt-P4-N2-M32"
        # metis + matrix + 4 inits + mumps + 2*4 iters + 2 saves
        assert len(doc["tasks"]) == 2 + 4 + 1 + 8 + 2

    def test_output_file_validates(self, tmp_path, capsys):
        out = tmp_path / "adapt.json"
        assert run_cli("generate-adapt", "-o", str(out),
                       "--partitions", "2", "--iterations", "1",
                       "--cells", "16") == 0
        assert run_cli("validate", str(out)) == 0
        text = capsys.readouterr().out
        assert text.startswith("8 tasks, ")

    def test_bad_geometry_fails(self, capsys):
        code = run_cli("generate-adapt", "--partitions", "16",
                       "--cells", "16")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unstable_dt_fails(self, capsys):
        code = run_cli("generate-adapt", "--cells", "512", "--dt", "0.5")
        assert code == 1

    def test_unfold_flag_attaches_rule(self, capsys):
        assert run_cli("generate-adapt", "--partitions", "2",
                       "--iterations", "1", "--cells", "16",
                       "--unfold-solver") == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["id"] for r in doc["rules"]] == ["mumps-split"]


class TestSimulate:
    def generated(self, tmp_path, capsys):
        wf = tmp_path / "wf.json"
        assert run_cli("generate-adapt", "-o", str(wf),
                       "--partitions", "2", "--iterations", "2",
                       "--cells", "16") == 0
        capsys.readouterr()
        return wf

    def test_text_report(self, tmp_path, capsys, chain_workflow):
        scenario = scenario_file(tmp_path)
        assert run_cli("simulate", str(chain_workflow),
                       str(scenario)) == 0
        out = capsys.readouterr().out
        assert "completed: yes" in out
        assert "re-executions: 0" in out
        assert "  Emergency: 1" in out
        assert "utilization:" in out

    def test_json_report(self, tmp_path, capsys, chain_workflow):
        scenario = scenario_file(tmp_path)
        assert run_cli("simulate", "--json", str(chain_workflow),
                       str(scenario)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"] is True
        assert doc["tasks_total"] == 2
        assert set(doc["per_worker_utilization"]) == {"w1", "w2"}

    def test_log_then_audit_then_report(self, tmp_path, capsys):
        wf = self.generated(tmp_path, capsys)
        scenario = scenario_file(tmp_path)
        log = tmp_path / "events.jsonl"
        assert run_cli("simulate", str(wf), str(scenario),
                       "--log", str(log)) == 0
        capsys.readouterr()

        assert run_cli("audit", str(log), "--workflow", str(wf)) == 0
        assert capsys.readouterr().out == "clean\n"

        assert run_cli("report", str(log)) == 0
        out = capsys.readouterr().out
        assert "completed: yes" in out
        assert "tasks seen: 11" in out

    def test_workspace_keeps_datasets(self, tmp_path, capsys):
        wf = self.generated(tmp_path, capsys)
        scenario = scenario_file(tmp_path)
        space = tmp_path / "space"
        assert run_cli("simulate", str(wf), str(scenario),
                       "--workspace", str(space)) == 0
        reopened = Workspace(space)
        sizes = reopened.sizes()
        assert sizes
        for dataset_id, size in sizes.items():
            assert len(reopened.get(dataset_id)) == size

    def test_format_1_workspace_exits_two(self, tmp_path, capsys):
        wf = self.generated(tmp_path, capsys)
        scenario = scenario_file(tmp_path)
        space = tmp_path / "space"
        space.mkdir()
        (space / "mesh.meta.json").write_text("{}", "utf-8")
        assert run_cli("simulate", str(wf), str(scenario),
                       "--workspace", str(space)) == 2
        err = capsys.readouterr().err
        assert "mesh.meta.json" in err and "workspace.jsonl" in err

    def test_format_2_workspace_exits_two(self, tmp_path, capsys):
        wf = self.generated(tmp_path, capsys)
        scenario = scenario_file(tmp_path)
        space = tmp_path / "space"
        space.mkdir()
        (space / "mesh.dat").write_bytes(b"abc")
        (space / "workspace.jsonl").write_text(
            '{"format": 2, "hash": "blake2b-64"}\n', "utf-8")
        assert run_cli("simulate", str(wf), str(scenario),
                       "--workspace", str(space)) == 2
        err = capsys.readouterr().err
        assert "workspace.jsonl: line 1: header must be" in err
        assert '"format": 3' in err

    def test_seed_override_reproducible_and_sensitive(self, tmp_path,
                                                      capsys):
        wf = self.generated(tmp_path, capsys)
        scenario = scenario_file(tmp_path, volunteer_jitter=5)
        logs = {}
        for name, seed in (("a", "7"), ("b", "7"), ("c", "8")):
            path = tmp_path / f"{name}.jsonl"
            assert run_cli("simulate", str(wf), str(scenario),
                           "--seed", seed, "--log", str(path)) == 0
            logs[name] = path.read_bytes()
        capsys.readouterr()
        assert logs["a"] == logs["b"]
        assert logs["a"] != logs["c"]

    def test_scenario_heartbeat_survives_sla_config(self, tmp_path, capsys):
        doc = {
            "schema": "pubflow/1", "batch_id": "one",
            "tasks": [{"id": "t", "kernel": {
                "name": "noop", "duration": 9.0,
                "params": {"values": {"d": [0.0]}}, "outputs": ["d"]}}],
        }
        wf = tmp_path / "one.json"
        wf.write_text(json.dumps(doc), "utf-8")
        scenario = scenario_file(
            tmp_path, workers=[{"worker_id": "w1"}],
            heartbeat={"H": 2, "k": 3})
        config = tmp_path / "engine.json"
        config.write_text(json.dumps({"sla": {"w_r": 0.5, "w_s": 0.5}}),
                          "utf-8")
        # H=2 over a 9-tick run beats at 2, 4, 6 and 8, config or not
        for args in ((), ("--config", str(config))):
            log = tmp_path / f"hb{len(args)}.jsonl"
            assert run_cli("simulate", str(wf), str(scenario),
                           "--log", str(log), *args) == 0
            beats = sum(1 for line in log.read_text("utf-8").splitlines()
                        if json.loads(line)["kind"] == "heartbeat")
            assert beats == 4
        capsys.readouterr()

    @pytest.mark.parametrize("doc, named", [
        ({"sla": {}, "heartbeat": {"H": 2}}, "'heartbeat'"),
        ({"sla": {}, "retries": 1}, "'retries'"),
        ({"sla": {"w_r": None}}, "NoneType"),
    ])
    def test_refused_config_exits_two(self, tmp_path, capsys,
                                      chain_workflow, doc, named):
        scenario = scenario_file(tmp_path)
        config = tmp_path / "engine.json"
        config.write_text(json.dumps(doc), "utf-8")
        assert run_cli("simulate", str(chain_workflow), str(scenario),
                       "--config", str(config)) == 2
        assert named in capsys.readouterr().err

    def test_incomplete_run_exits_one(self, tmp_path, capsys,
                                      chain_workflow):
        scenario = scenario_file(tmp_path, workers=[], horizon=10)
        assert run_cli("simulate", str(chain_workflow),
                       str(scenario)) == 1
        assert "completed: no" in capsys.readouterr().out

    def test_missing_scenario_exits_two(self, tmp_path, capsys,
                                        chain_workflow):
        assert run_cli("simulate", str(chain_workflow),
                       str(tmp_path / "no.json")) == 2

    def test_bad_config_exits_two(self, tmp_path, capsys,
                                  chain_workflow):
        scenario = scenario_file(tmp_path)
        config = tmp_path / "engine.json"
        config.write_text("{oops", "utf-8")
        assert run_cli("simulate", str(chain_workflow), str(scenario),
                       "--config", str(config)) == 2


def one_task(task=None, **kernel):
    return {"schema": "pubflow/1", "batch_id": "b",
            "tasks": [{"id": "a", "kernel": {"name": "noop", **kernel},
                       **(task or {})}]}


def guarded(**guard):
    return {"schema": "pubflow/1", "batch_id": "b",
            "tasks": [{"id": "a", "kernel": {"name": "solver"},
                       "unfold_rule": "r"}],
            "rules": [{"id": "r", "head": "solver", "guard": guard,
                       "entries": ["x"], "exits": ["x"],
                       "body": [{"id": "x", "kernel": {"name": "noop"}}]}]}


def pool(**over):
    return {"horizon": 50, "workers": [{"worker_id": "w1"}], **over}


def worker(**over):
    return pool(workers=[{"worker_id": "w1", **over}])


def xml(task="", kernel="", guard='min-workers="1"', rule="",
        body='<task id="x"><kernel name="noop"/></task>'):
    return ('<workflow schema="pubflow/1" batch_id="b">'
            f'<task id="a" unfold-rule="r"{task}>'
            f'<kernel name="solver"{kernel}/></task>'
            f'<rule id="r" head="solver"{rule}>'
            f'<guard {guard}/><entry ref="x"/><exit ref="x"/>'
            f'<body>{body}</body></rule></workflow>')


# One log record whose payload lacks every field its kind requires.
SHORT_PAYLOAD = ('{"seq":1,"ts":0,"channel":"TasksToDo","kind":"task",'
                 '"sender":"a","payload":{}}\n')


def one_record(old, new):
    """A well-formed one-record task log with `old` replaced by `new`."""
    return SHORT_PAYLOAD.replace(
        "{}", '{"task_id":"t","attempt":1,"spec":{}}').replace(old, new)


LATIN1 = b'{"schema": "pubflow/1", "batch_id": "caf\xe9", "tasks": []}'

# How each kind of input file is handed to the CLI: {bad} is the malformed
# file, {wf} and {sc} a good workflow and scenario.
COMMANDS = {
    "workflow": "validate {bad}",
    "xml": "validate --format xml {bad}",
    "simulated": "simulate {bad} {sc}",
    "scenario": "simulate {wf} {bad}",
    "config": "simulate {wf} {sc} --config {bad}",
    "audit": "audit {bad}",
    "report": "report {bad}",
    # an output path under, or at, a file that is no directory
    "workspace": "simulate {wf} {sc} --workspace {bad}",
    "log": "simulate {wf} {sc} --log {bad}/log.jsonl",
    "output": "generate-adapt -o {bad}/x.json",
}

MALFORMED = [
    # (case, command, document, what stderr must name besides the file)
    ("misspelt-heartbeat", "scenario", pool(hearbeat={"H": 2}), "'hearbeat'"),
    ("misspelt-speed", "scenario", worker(sped=3), "'sped'"),
    ("misspelt-duration", "workflow", one_task(durration=5), "'durration'"),
    ("capabilities-string", "scenario", worker(capabilities="gpu"),
     "capabilities must be a list"),
    ("heartbeat-H-zero", "scenario", pool(heartbeat={"H": 0}), "heartbeat.H"),
    ("heartbeat-k-zero", "scenario", pool(heartbeat={"k": 0}), "heartbeat.k"),
    ("heartbeat-list", "scenario", pool(heartbeat=[1]), "heartbeat must be"),
    ("heartbeat-unknown", "scenario", pool(heartbeat={"h": 2}),
     "'heartbeat.h'"),
    ("horizon-negative", "scenario", pool(horizon=-1), "horizon"),
    ("horizon-bool", "scenario", pool(horizon=True), "horizon must be"),
    ("seed-string", "scenario", pool(seed="7"), "seed must be"),
    ("root-list", "scenario", [1, 2], "scenario must be an object"),
    ("speed-zero", "scenario", worker(speed=0), "speed"),
    ("speed-string", "scenario", worker(speed="3"), "speed must be"),
    ("speed-infinity", "scenario", worker(speed=float("inf")),
     "speed must be a finite number"),
    ("reliability-two", "scenario", worker(reliability=2), "reliability"),
    ("crash-prob-two", "scenario", worker(crash_prob=2), "crash_prob"),
    ("stall-one-number", "scenario", worker(stall=[3]), "stall must be"),
    ("duplicate-worker", "scenario",
     pool(workers=[{"worker_id": "w1"}, {"worker_id": "w1"}]),
     "duplicate worker_id 'w1'"),
    ("worker-named-monitor", "scenario", worker(worker_id="monitor"),
     "reserved worker_id 'monitor'"),
    ("inputs-string", "workflow", one_task(inputs="abc"), "inputs must be"),
    ("params-list", "workflow", one_task(params=[1]), "params must be"),
    ("duration-string", "workflow", one_task(duration="x"),
     "duration must be"),
    ("duration-nan", "workflow", one_task(duration=float("nan")),
     "duration must be a finite number"),
    ("duration-huge-int", "workflow", one_task(duration=10 ** 400),
     "duration must be a finite number"),
    ("speed-huge-int", "scenario", worker(speed=10 ** 400),
     "speed must be a finite number"),
    ("max-attempts-string", "workflow", one_task({"max_attempts": "3"}),
     "max_attempts must be"),
    ("min-workers-string", "workflow", guarded(min_workers="x"),
     "min_workers must be"),
    ("guard-unknown", "workflow", guarded(min_worker=2), "'min_worker'"),
    ("xml-duration", "xml", xml(kernel=' duration="abc"'),
     "<kernel> attribute duration"),
    ("xml-duration-nan", "xml", xml(kernel=' duration="nan"'),
     "duration must be a finite number"),
    ("xml-max-attempts", "xml", xml(task=' max-attempts="x"'),
     "<task> attribute max-attempts"),
    ("xml-min-workers", "xml", xml(guard='min-workers="many"'),
     "<guard> attribute min-workers"),
    ("xml-min-dataset-size", "xml", xml(guard='min-dataset-size="big"'),
     "<guard> attribute min-dataset-size"),
    ("xml-kernel-unknown", "xml", xml(kernel=' duraton="5"'),
     "kernel: unknown key 'duraton'"),
    ("xml-guard-unknown", "xml", xml(guard='min-wrkers="2"'),
     "guard: unknown key 'min_wrkers'"),
    ("xml-rule-unknown", "xml", xml(rule=' priority="2"'),
     "rule 'r': unknown key 'priority'"),
    ("xml-body-task-unknown", "xml",
     xml(body='<task id="x" priority="2"><kernel name="noop"/></task>'),
     "body[0]: unknown key 'priority'"),
    ("xml-body-stray-element", "xml",
     xml(body='<task id="x"><kernel name="noop"/></task><tsak/>'),
     "unexpected element <tsak> in <body>"),
    ("xml-child-key-attribute", "xml", xml(task=' deps="b"'),
     "<task> attribute deps"),
    ("config-string", "config", {"sla": {"w_r": "0.5"}}, "sla.w_r must be"),
    ("config-nan", "config", {"sla": {"w_r": float("nan")}},
     "sla.w_r must be a finite number"),
    ("config-s-cap-zero", "config", {"sla": {"s_cap": 0}}, "sla.s_cap"),
    ("latin1-workflow", "workflow", LATIN1, "not UTF-8"),
    ("latin1-simulated-workflow", "simulated", LATIN1, "not UTF-8"),
    ("latin1-scenario", "scenario", LATIN1, "not UTF-8"),
    ("latin1-config", "config", LATIN1, "not UTF-8"),
    ("latin1-audit-log", "audit", LATIN1, "not UTF-8"),
    ("latin1-report-log", "report", LATIN1, "not UTF-8"),
    ("audit-short-payload", "audit", SHORT_PAYLOAD,
     "line 1: task payload missing ['attempt', 'task_id']"),
    ("report-short-payload", "report", SHORT_PAYLOAD,
     "line 1: task payload missing ['attempt', 'task_id']"),
    ("report-unknown-kind", "report",
     SHORT_PAYLOAD.replace('"task"', '"gossip"'),
     "line 1: unknown kind 'gossip'"),
    ("report-em-kind", "report",
     '{"seq":1,"ts":0,"channel":"DLC","kind":"em","sender":"a","payload":'
     '{"logical_gpus":1,"physical_gpus":1,"scheduling_policy":"in_memory",'
     '"performance_model_available":false}}\n',
     "line 1: unknown kind 'em'"),
    ("audit-payload-list", "audit",
     SHORT_PAYLOAD.replace('{}', '[]'), "line 1: task payload must be"),
    ("audit-spec-number", "audit", one_record('"spec":{}', '"spec":1'),
     "line 1: task payload spec must be an object"),
    ("report-ts-string", "report", one_record('"ts":0', '"ts":"x"'),
     "line 1: record ts must be an integer"),
    ("report-attempt-string", "report",
     one_record('"attempt":1', '"attempt":"2"'),
     "line 1: task payload attempt must be an integer"),
    ("report-attempt-bool", "report",
     one_record('"attempt":1', '"attempt":true'),
     "line 1: task payload attempt must be an integer, got bool"),
    ("audit-task-id-list", "audit",
     one_record('"task_id":"t"', '"task_id":["t"]'),
     "line 1: task payload task_id must be a string"),
    ("report-task-id-list", "report",
     one_record('"task_id":"t"', '"task_id":["t"]'),
     "line 1: task payload task_id must be a string"),
    ("audit-deps-string", "audit",
     one_record('"spec":{}', '"spec":{"deps":"a"}'),
     "line 1: task spec.deps must be a list of strings"),
    ("audit-deps-numbers", "audit",
     one_record('"spec":{}', '"spec":{"deps":[1]}'),
     "line 1: task spec.deps must be a list of strings"),
    ("workspace-a-file", "workspace", "", "File exists"),
    ("log-under-a-file", "log", "", "cannot write"),
    ("output-under-a-file", "output", "", "cannot write"),
]


@pytest.mark.parametrize("command, document, named",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_two(tmp_path, capsys, chain_workflow,
                                   command, document, named):
    bad = tmp_path / "bad.input"
    if isinstance(document, bytes):
        bad.write_bytes(document)
    else:
        bad.write_text(document if isinstance(document, str)
                       else json.dumps(document), "utf-8")
    paths = {"bad": bad, "wf": chain_workflow, "sc": scenario_file(tmp_path)}
    argv = [arg.format(**paths) for arg in COMMANDS[command].split()]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and named in err, err


class TestAuditCommand:
    def logged_run(self, tmp_path, capsys, chain_workflow):
        scenario = scenario_file(tmp_path)
        log = tmp_path / "events.jsonl"
        assert run_cli("simulate", str(chain_workflow), str(scenario),
                       "--log", str(log)) == 0
        capsys.readouterr()
        return log

    def test_violations_exit_one(self, tmp_path, capsys, chain_workflow):
        log = self.logged_run(tmp_path, capsys, chain_workflow)
        records = [json.loads(line)
                   for line in log.read_text("utf-8").splitlines()
                   if json.loads(line)["kind"] != "started"]
        for i, record in enumerate(records, start=1):
            record["seq"] = i
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n"
                    for r in records), "utf-8")
        assert run_cli("audit", str(tampered)) == 1
        assert "without a started" in capsys.readouterr().out

    def test_a_task_with_no_spec_in_the_log_exits_one(self, tmp_path,
                                                      capsys, chain_workflow):
        """Without its WaitingTasks announcement, the release of a task
        names no spec the log holds: a violation, not a traceback."""
        log = self.logged_run(tmp_path, capsys, chain_workflow)
        records = [json.loads(line)
                   for line in log.read_text("utf-8").splitlines()
                   if json.loads(line)["channel"] != "WaitingTasks"]
        for i, record in enumerate(records, start=1):
            record["seq"] = i
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n"
                    for r in records), "utf-8")
        assert run_cli("audit", str(tampered)) == 1
        assert "task a (seq 1) without a spec" in capsys.readouterr().out

    def test_truncated_log_exits_two(self, tmp_path, capsys,
                                     chain_workflow):
        log = self.logged_run(tmp_path, capsys, chain_workflow)
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(log.read_bytes()[:-15])
        assert run_cli("audit", str(broken)) == 2

    def test_json_output(self, tmp_path, capsys, chain_workflow):
        log = self.logged_run(tmp_path, capsys, chain_workflow)
        assert run_cli("audit", "--json", str(log)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"ok": True, "violations": []}


class TestReportCommand:
    def test_json_fields(self, tmp_path, capsys, chain_workflow):
        scenario = scenario_file(tmp_path)
        log = tmp_path / "events.jsonl"
        run_cli("simulate", str(chain_workflow), str(scenario),
                "--log", str(log))
        capsys.readouterr()
        assert run_cli("report", "--json", str(log)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tasks_seen"] == 2
        assert doc["re_executions"] == 0
        assert doc["completed"] is True
        assert doc["failed"] is False
        assert doc["messages_total"] == \
            sum(doc["messages_by_channel"].values())


class TestEntrypoints:
    def test_module_invocation(self, chain_workflow):
        proc = subprocess.run(
            [sys.executable, "-m", "pubflow", "validate",
             str(chain_workflow)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "2 tasks" in proc.stdout

    def test_console_script(self, chain_workflow, tmp_path):
        # Run the command this checkout declares, through the same wrapper
        # pip would install, so no install of the package is needed.
        bin_dir = declared_console_script(tmp_path / "bin")
        env = dict(os.environ)
        env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', os.defpath)}"
        proc = subprocess.run(
            ["pubflow", "validate", str(chain_workflow)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "2 tasks" in proc.stdout

        missing = tmp_path / "missing.json"
        proc = subprocess.run(
            ["pubflow", "validate", str(missing)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "error: cannot read" in proc.stderr

    @pytest.mark.skipif(shutil.which("pubflow") is None,
                        reason="pubflow console script not installed")
    def test_installed_console_script(self, chain_workflow):
        proc = subprocess.run(
            ["pubflow", "validate", str(chain_workflow)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "2 tasks" in proc.stdout
