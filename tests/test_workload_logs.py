"""The logs of the benchmark's workloads, pinned.

`perfbench/workloads.generate(name, seed)` gives a workflow and a
scenario document; `run_simulation` on them writes the log whose sha256,
cut to 16 hex digits, is pinned here for seeds 1 and 7.  The test reads
`perfbench/` and writes nothing there.  A change that moves one of these
logs names it, and the reason, when it re-pins.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pubflow import parse_workflow, run_simulation, scenario_from_dict
from pubflow import simulator

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

PINNED = {
    ("adapt-flaky", 1): "04df2887855dde2d",
    ("adapt-flaky", 7): "1fbb5f2b6ef85fb6",
    ("flat-noop", 1): "828ea5feb66f3edc",
    ("flat-noop", 7): "a9f3432ab223f371",
    ("chain-idle", 1): "3776258b1bdd819b",
    ("chain-idle", 7): "c6c7dbbf17033189",
}


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded from its path under a name of its
    own, so that perfbench's tests still import theirs."""
    name = "_pinned_perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_the_workload_log_is_pinned(workloads, name, seed):
    workload = workloads.generate(name, seed)
    _report, log = run_simulation(parse_workflow(workload.workflow_text),
                                  scenario_from_dict(workload.scenario))
    digest = hashlib.sha256(log.dumps().encode("utf-8")).hexdigest()[:16]
    assert digest == PINNED[name, seed]


def test_the_chain_idle_run_visits_a_pinned_count_of_ticks(workloads,
                                                          monkeypatch):
    """The loop opens each tick it visits with _Run.begin.  chain-idle
    (seed 1) runs 12,373 ticks, and the loop visits 2,618 of them, most
    for one heartbeat: a visit costs the work due in it, and the ticks it
    skips cost nothing.  The count repeats exactly from run to run."""
    workload = workloads.generate("chain-idle", 1)
    visits = []
    begin = simulator._Run.begin
    monkeypatch.setattr(simulator._Run, "begin",
                        lambda run, now: visits.append(now) or begin(run, now))
    for _ in range(2):
        report, _log = run_simulation(parse_workflow(workload.workflow_text),
                                      scenario_from_dict(workload.scenario))
        assert (report.makespan, len(visits)) == (12373, 2618)
        visits.clear()
