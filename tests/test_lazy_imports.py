"""What a fresh interpreter loads: pubflow.adapt only for ADAPT work,
numpy only for the ADAPT functions that return arrays, subprocess only
for the shell kernel, the XML parser only for XML documents, logging
never (the event log is the one record of a run), and hashlib never (it
loads OpenSSL's _hashlib; checksums take blake2b from CPython's
_blake2).  Each check runs in its own interpreter, since this one has
long since loaded everything."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pubflow import cli

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("hashlib", "logging", "numpy", "pubflow.adapt", "subprocess",
        "xml.etree.ElementTree")

# Prepended to every probe: which of LAZY are loaded, and a way to print
# the probe's answer as the last line of stdout.
PRELUDE = f"""
import json, sys
LAZY = {LAZY!r}
def loaded():
    return [m for m in LAZY if m in sys.modules]
def answer(**doc):
    print(json.dumps(doc))
"""


def fresh(code: str, *argv: str, cwd: Path) -> dict:
    """Run PRELUDE + code in a new interpreter; its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code, *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# `python -m pubflow ARGS...`, then what it loaded
RUN_CLI = """
import runpy
sys.argv = ["pubflow", *sys.argv[1:]]
try:
    runpy.run_module("pubflow", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    answer(code=exc.code, loaded=loaded())
"""


@pytest.fixture
def noop_run(tmp_path):
    """A noop workflow, its scenario, and the log of simulating it."""
    workflow = tmp_path / "wf.json"
    workflow.write_text(json.dumps({
        "schema": "pubflow/1", "batch_id": "chain",
        "tasks": [
            {"id": "a", "kernel": {"name": "noop", "outputs": ["d_a"],
                                   "params": {"values": {"d_a": [1.0]}}}},
            {"id": "b", "deps": ["a"],
             "kernel": {"name": "noop", "inputs": ["d_a"]}}]}), "utf-8")
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps(
        {"horizon": 50, "workers": [{"worker_id": "w1"}]}), "utf-8")
    log = tmp_path / "log.jsonl"
    assert cli.main(["simulate", str(workflow), str(scenario),
                     "--log", str(log)]) == 0
    return workflow, scenario, log


@pytest.fixture
def adapt_workflow(tmp_path):
    path = tmp_path / "adapt.json"
    assert cli.main(["generate-adapt", "--unfold-solver", "-o",
                     str(path)]) == 0
    return path


class TestImportClosure:
    def test_import_pubflow(self, tmp_path):
        assert fresh("import pubflow\nanswer(loaded=loaded())",
                     cwd=tmp_path) == {"loaded": []}

    @pytest.mark.parametrize("command", [
        ["report", "{log}"],
        ["report", "--json", "{log}"],
        ["audit", "{log}", "--workflow", "{workflow}"],
        ["validate", "{workflow}"],
        ["simulate", "{workflow}", "{scenario}"],
        ["simulate", "{workflow}", "{scenario}", "--workspace", "ws"],
    ], ids=" ".join)
    def test_noop_commands(self, noop_run, tmp_path, command):
        workflow, scenario, log = noop_run
        argv = [arg.format(workflow=workflow, scenario=scenario, log=log)
                for arg in command]
        assert fresh(RUN_CLI, *argv, cwd=tmp_path) == \
            {"code": 0, "loaded": []}

    def test_parsing_an_adapt_workflow_loads_the_adapt_kernels(
            self, adapt_workflow, tmp_path):
        doc = fresh("""
import pubflow
before = loaded()
batch = pubflow.parse_workflow(open(sys.argv[1]).read())
answer(before=before, after=loaded())
""", str(adapt_workflow), cwd=tmp_path)
        assert doc == {"before": [], "after": ["pubflow.adapt"]}

    def test_generate_adapt_loads_them_where_it_runs(self, tmp_path):
        doc = fresh(RUN_CLI, "generate-adapt", "-o", "out.json",
                    cwd=tmp_path)
        assert doc == {"code": 0, "loaded": ["pubflow.adapt"]}

    def test_an_xml_workflow_loads_only_the_xml_parser(self, tmp_path):
        (tmp_path / "wf.xml").write_text(
            '<workflow schema="pubflow/1" batch-id="x">'
            '<task id="a"><kernel name="noop"/></task></workflow>', "utf-8")
        doc = fresh(RUN_CLI, "validate", "--format", "xml", "wf.xml",
                    cwd=tmp_path)
        assert doc == {"code": 0, "loaded": ["xml.etree.ElementTree"]}


class TestAdaptWithoutNumpy:
    """The ADAPT demo runs end to end where numpy cannot be imported: its
    kernels, and everything a run, a validation, an audit or a report
    calls, compute on Python floats."""

    def test_generate_simulate_and_audit(self, tmp_path):
        (tmp_path / "sc.json").write_text(json.dumps({
            "seed": 7, "horizon": 2000, "volunteer_jitter": 2,
            "workers": [{"worker_id": "w1", "speed": 2.0},
                        {"worker_id": "w2", "crash": 10},
                        {"worker_id": "w3", "arrival": 5}]}), "utf-8")
        doc = fresh("""
import io
from contextlib import redirect_stdout
sys.modules["numpy"] = None  # every import of numpy now fails
from pubflow import cli
runs = []
for argv in (["generate-adapt", "--unfold-solver", "-o", "wf.json"],
             ["validate", "wf.json"],
             ["simulate", "wf.json", "sc.json", "--log", "log.jsonl"],
             ["audit", "log.jsonl", "--workflow", "wf.json"],
             ["report", "log.jsonl"]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, out.getvalue().splitlines()[:1]])
answer(runs=runs)
""", cwd=tmp_path)
        assert doc == {"runs": [
            [0, []], [0, ["57 tasks, 144 edges, series-parallel: no"]],
            [0, ["messages: 355"]], [0, ["clean"]], [0, ["messages: 355"]]]}


class TestChecksumsWithoutHashlib:
    """checksum_hex takes blake2b from CPython's _blake2 and, on an
    interpreter without that module, from hashlib; either way its
    checksums are hashlib.blake2b's, cut to 8 bytes."""

    DATA = [b"", b"abc", bytes(range(256)) * 3]

    @pytest.mark.parametrize("without_blake2", [False, True])
    def test_checksums_match_hashlib_blake2b(self, tmp_path,
                                             without_blake2):
        doc = fresh(f"""
if {without_blake2!r}:
    import hashlib  # binds its blake2b before _blake2 is hidden
    sys.modules["_blake2"] = None
from pubflow import checksum_hex
answer(loaded=loaded(), sums=[checksum_hex(d) for d in {self.DATA!r}])
""", cwd=tmp_path)
        assert doc == {
            "loaded": ["hashlib"] if without_blake2 else [],
            "sums": [hashlib.blake2b(d, digest_size=8).hexdigest()
                     for d in self.DATA]}


class TestRegistryLoadsAdaptOnAMiss:
    def test_a_hand_built_metis_spec_runs(self, tmp_path):
        doc = fresh("""
from pubflow import KernelSpec, Workspace, decode_dataset, execute_kernel
before = loaded()
spec = KernelSpec(name="metis", params={"cells": 8, "partitions": 2},
                  outputs=("partitions",))
ws = Workspace("ws")
result = execute_kernel(spec, ws)
answer(before=before, status=result.exit_status, error=result.error,
       table=list(decode_dataset(ws.get("partitions"))))
""", cwd=tmp_path)
        assert doc == {"before": [], "status": 0, "error": None,
                       "table": [8.0, 2.0, 0.0, 4.0, 8.0]}

    def test_dlc_apply_reacquires_a_partition_table(self, tmp_path):
        doc = fresh("""
from pubflow import Workspace, dlc_apply, encode_dataset
ws = Workspace("ws")
record = ws.put("partitions", encode_dataset([8.0, 2.0, 0.0, 4.0, 8.0]),
                {"acquirer": "partition_table", "cells": 8, "parts": 2})
before = loaded()
dlc_apply(ws, "partitions")
answer(before=before, after=loaded(),
       same=ws.checksum("partitions") == record.checksum)
""", cwd=tmp_path)
        assert doc == {"before": [], "after": ["pubflow.adapt"],
                       "same": True}

    def test_a_kernel_registered_first_keeps_its_name(self, tmp_path):
        doc = fresh("""
from pubflow import KernelSpec, Workspace, execute_kernel, register_kernel
from pubflow.execution import KERNELS

@register_kernel("metis")
def mine(spec, ws):
    return {"partitions": b"mine"}

before = loaded()
ws = Workspace("ws")
execute_kernel(KernelSpec(name="iter"), ws)  # a miss: ADAPT loads
result = execute_kernel(KernelSpec(name="metis", outputs=("partitions",)),
                        ws)
answer(before=before, after=loaded(), kept=KERNELS["metis"] is mine,
       status=result.exit_status, data=ws.get("partitions").decode())
""", cwd=tmp_path)
        assert doc == {"before": [], "after": ["pubflow.adapt"],
                       "kept": True, "status": 0, "data": "mine"}

    def test_star_import_binds_every_public_name(self, tmp_path):
        doc = fresh("""
import pubflow
listed = [name for name in dir(pubflow) if not name.startswith("_")]
before = loaded()
namespace = {}
exec("from pubflow import *", namespace)
answer(before=before, listed=listed, all=pubflow.__all__,
       bound=sorted(set(namespace) - {"__builtins__"}))
""", cwd=tmp_path)
        assert doc.pop("before") == []
        assert doc == {"listed": STAR_NAMES, "all": STAR_NAMES,
                       "bound": STAR_NAMES}


# Every name `from pubflow import *` bound when the ADAPT names were
# imported eagerly; serving them lazily must not lose one.
STAR_NAMES = [
    "BC_DIRICHLET", "BC_PERIODIC", "Broker", "CHANNEL_CATALOG", "Channel",
    "Checker", "Coordinator", "DatasetRecord", "DatasetStage", "EMConfig",
    "EngineError", "Envelope", "EventLog", "GuardFailed", "GuardPredicate",
    "HeadMismatch", "InProcessBus", "InvalidGeometry", "InvalidStage",
    "KernelSpec", "LogTally", "MalformedLog", "MissingInput", "Monitor",
    "Report", "ResourceSnapshot", "Scenario", "SchedulingPolicy",
    "SchemaError", "SimParams", "SimReport", "SingularSystem", "SlaPolicy",
    "StateError", "StructureReport", "Task", "TaskResult", "TaskState",
    "UnfoldRule", "UnknownActor", "UnknownChannel", "UnknownId",
    "ValidationError",
    "WorkerActor", "WorkerProfile", "WorkerSpec", "WorkflowBatch",
    "WorkflowSyntaxError", "Workspace", "actors", "adapt", "apply_operator",
    "bus", "check_transition", "checksum_hex", "decode_dataset",
    "default_validator", "dlc_apply", "dump", "em_negotiate",
    "encode_dataset", "errors", "execute_kernel", "execution",
    "final_snapshot", "find_cycle", "generate_adapt_workflow", "graph",
    "initial_field", "lifecycle_audit", "load", "load_scenario", "model",
    "parse_log", "parse_workflow", "partition_bounds",
    "partition_table_bytes", "precedence_audit",
    "ready_tasks", "register_acquirer", "register_kernel", "replay_check",
    "run_simulation", "scenario_from_dict", "select_worker",
    "sequential_oracle", "serialize_workflow", "simulator", "sla_score",
    "solve_field", "transitive_closure", "unfold", "validate_structure",
    "workflow_io",
]
