"""The README's example documents load through the loaders they
document, so a documented key cannot drift away from its effect."""

import json
from pathlib import Path

from pubflow import SlaPolicy, dump, parse_workflow, scenario_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def block(section, language):
    """The first fenced block of `language` under `## <section>`."""
    text = README.read_text("utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


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
