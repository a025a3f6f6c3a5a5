"""The README's example documents load through the loaders they
document, so a documented key cannot drift away from its effect."""

import json
import re
import shlex
from itertools import takewhile
from pathlib import Path

from pubflow import (
    CHANNEL_CATALOG,
    Channel,
    InProcessBus,
    KernelSpec,
    Scenario,
    SlaPolicy,
    Task,
    WorkerSpec,
    WorkflowBatch,
    cli,
    dump,
    parse_workflow,
    run_simulation,
    scenario_from_dict,
)
from pubflow.bus import KIND_FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"


def section(name):
    """The text under `## <name>`, up to the next section."""
    text = README.read_text("utf-8")
    return text.split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]


def block(name, language):
    """The first fenced block of `language` under `## <name>`."""
    return section(name).split(f"```{language}\n", 1)[1].split("```", 1)[0]


def json_block(section):
    return json.loads(block(section, "json"))


def test_workflow_example_parses():
    # the strict loaders refuse a documented key they do not read
    batch = parse_workflow(block("Workflow files", "json"))
    assert sorted(batch.tasks) == ["crunch", "prep"]
    assert batch.tasks["crunch"].kernel.declared_duration == 2.0


def test_workflow_xml_example_is_the_json_example():
    assert parse_workflow(block("Workflow files", "xml"), format="xml") \
        == parse_workflow(block("Workflow files", "json"))


def test_quickstart_commands_print_the_blocks_that_follow_them(
        tmp_path, monkeypatch, capsys):
    """Each Quickstart shell block, its heredoc written to its file and
    its pubflow commands run through cli.main, prints the plain block
    that follows it."""
    monkeypatch.chdir(tmp_path)
    text = section("Quickstart")
    steps = re.findall(r"```sh\n(.*?)```\n\n```\n(.*?)```", text, re.S)
    assert len(steps) == text.count("```sh\n") == 3
    for script, expected in steps:
        lines = iter(script.splitlines())
        for line in lines:
            if line.startswith("cat > "):  # cat > FILE <<'EOF' ... EOF
                body = takewhile(lambda row: row != "EOF", lines)
                Path(line.split()[2]).write_text(
                    "".join(row + "\n" for row in body), "utf-8")
                continue
            argv = shlex.split(line)
            assert argv[0] == "pubflow"
            assert cli.main(argv[1:]) == 0, line
        assert capsys.readouterr().out == expected


def test_python_api_example_runs():
    exec(compile(block("Python API", "python"), str(README), "exec"), {})


def test_scenario_example_round_trips():
    # a key the loader ignored would be missing from the round trip
    doc = json_block("Scenarios")
    assert dump(scenario_from_dict(doc)) == doc


def test_engine_configuration_example_is_the_default():
    # SlaPolicy.from_dict refuses any key it does not read
    assert SlaPolicy.from_dict(json_block("Engine configuration")) \
        == SlaPolicy()


def test_channel_subscribers_are_the_ones_the_actors_take(monkeypatch):
    """The Channels table's subscribers column names, per channel, the
    roles that subscribe to it in a one-task run: an item's first word,
    "workers" for any worker, "none" for nobody."""
    taken = {channel: set() for channel in CHANNEL_CATALOG}
    subscribe = InProcessBus.subscribe

    def recording(self, actor_id, channel):
        subscribe(self, actor_id, channel)
        taken[Channel(channel).value].add(
            "workers" if actor_id == "w1" else actor_id)

    monkeypatch.setattr(InProcessBus, "subscribe", recording)
    task = Task(id="t", kernel=KernelSpec(name="noop"))
    report, _ = run_simulation(
        WorkflowBatch(batch_id="b", tasks={"t": task}),
        Scenario(horizon=50, workers=(WorkerSpec(worker_id="w1"),)))
    assert report.completed
    documented = {}
    for line in section("Channels").splitlines():
        if line.startswith("| `"):
            name, _kinds, subscribers = (
                cell.strip() for cell in line.strip("|").split("|"))
            documented[name.strip("`")] = {
                item.split()[0] for item in subscribers.split(", ")} - {"none"}
    assert documented == taken


def test_payload_field_list_names_every_kind_once():
    """The kinds listed under "The payload fields of each kind" are those
    the bus declares, so a deleted kind cannot linger in the list."""
    text = section("Channels").split(
        "The payload fields of each kind:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = [name for line in text.splitlines() if line.startswith("- ")
              for name in re.findall(r"`([^`]+)`", line.split(":", 1)[0])]
    assert sorted(listed) == sorted(KIND_FIELDS)
