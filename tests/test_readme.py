"""The README's example documents load through the loaders they
document, so a documented key cannot drift away from its effect."""

import json
from pathlib import Path

from pubflow import SlaPolicy, scenario_from_dict, scenario_to_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def json_block(section):
    """The first ```json block under the README heading `## <section>`."""
    text = README.read_text("utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return json.loads(body.split("```json\n", 1)[1].split("```", 1)[0])


def test_scenario_example_round_trips():
    # a key the loader ignored would be missing from the round trip
    doc = json_block("Scenarios")
    assert scenario_to_dict(scenario_from_dict(doc)) == doc


def test_engine_configuration_example_is_the_default():
    # SlaPolicy.from_dict refuses any key it does not read
    assert SlaPolicy.from_dict(json_block("Engine configuration")) \
        == SlaPolicy()
