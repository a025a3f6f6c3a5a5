"""Workflow file parsing: JSON, XML, canonical serialization."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pubflow import (
    GuardPredicate,
    KernelSpec,
    SchemaError,
    Task,
    UnfoldRule,
    WorkflowBatch,
    WorkflowSyntaxError,
    dump,
    load,
    parse_workflow,
    serialize_workflow,
)
from pubflow.adapt import SimParams, generate_adapt_workflow

MINIMAL = {
    "schema": "pubflow/1",
    "batch_id": "demo",
    "tasks": [
        {"id": "a", "kernel": {"name": "noop"}},
        {"id": "b", "kernel": {"name": "noop"}, "deps": ["a"]},
    ],
}


def doc(**over):
    d = json.loads(json.dumps(MINIMAL))
    d.update(over)
    return d


class TestJsonParsing:
    def test_minimal_document(self):
        batch = parse_workflow(json.dumps(MINIMAL))
        assert batch.batch_id == "demo"
        assert sorted(batch.tasks) == ["a", "b"]
        assert batch.tasks["b"].deps == frozenset({"a"})
        assert batch.tasks["a"].max_attempts == 3  # default

    def test_bytes_input(self):
        batch = parse_workflow(json.dumps(MINIMAL).encode("utf-8"))
        assert batch.batch_id == "demo"

    def test_kernel_fields(self):
        d = doc(tasks=[{
            "id": "a",
            "kernel": {"name": "iter", "params": {"dt": 0.5},
                       "inputs": ["w0"], "outputs": ["w1"],
                       "duration": 2.5},
        }])
        task = parse_workflow(json.dumps(d)).tasks["a"]
        assert task.kernel.name == "iter"
        assert task.kernel.params == {"dt": 0.5}
        assert task.kernel.inputs == ("w0",)
        assert task.kernel.outputs == ("w1",)
        assert task.kernel.declared_duration == 2.5

    def test_not_json_raises_syntax_error(self):
        with pytest.raises(WorkflowSyntaxError):
            parse_workflow("{nope")

    def test_wrong_schema_mark(self):
        with pytest.raises(SchemaError) as err:
            parse_workflow(json.dumps(doc(schema="other/9")))
        assert "schema" in str(err.value)

    def test_missing_batch_id(self):
        d = doc()
        del d["batch_id"]
        with pytest.raises(SchemaError) as err:
            parse_workflow(json.dumps(d))
        assert "batch_id" in str(err.value)

    def test_duplicate_task_id_named(self):
        d = doc(tasks=[{"id": "a", "kernel": {"name": "noop"}},
                       {"id": "a", "kernel": {"name": "noop"}}])
        with pytest.raises(SchemaError) as err:
            parse_workflow(json.dumps(d))
        assert "'a'" in str(err.value)

    def test_unknown_dep_named(self):
        d = doc(tasks=[{"id": "a", "kernel": {"name": "noop"},
                        "deps": ["ghost"]}])
        with pytest.raises(SchemaError) as err:
            parse_workflow(json.dumps(d))
        assert "ghost" in str(err.value)
        assert "'a'" in str(err.value)

    def test_missing_kernel_name_named(self):
        d = doc(tasks=[{"id": "a", "kernel": {}}])
        with pytest.raises(SchemaError) as err:
            parse_workflow(json.dumps(d))
        assert "kernel" in str(err.value)
        assert "'a'" in str(err.value)

    def test_unknown_rule_reference_named(self):
        d = doc(tasks=[{"id": "a", "kernel": {"name": "noop"},
                        "unfold_rule": "nope"}])
        with pytest.raises(SchemaError) as err:
            parse_workflow(json.dumps(d))
        assert "nope" in str(err.value)

    def test_unknown_top_level_key_goes_to_metadata(self):
        d = doc(priority=7)
        batch = parse_workflow(json.dumps(d))
        assert batch.metadata["priority"] == 7

    def test_unknown_task_key_goes_to_metadata(self):
        d = doc(tasks=[{"id": "a", "kernel": {"name": "noop"},
                        "color": "red"}])
        batch = parse_workflow(json.dumps(d))
        assert batch.metadata["task:a:color"] == "red"

    def test_rules_parse(self):
        d = doc(
            tasks=[{"id": "a", "kernel": {"name": "solver"},
                    "unfold_rule": "r"}],
            rules=[{
                "id": "r", "head": "solver",
                "guard": {"min_workers": 2, "required_cap": "gpu"},
                "entries": ["x"], "exits": ["y"],
                "body": [
                    {"id": "x", "kernel": {"name": "noop"}},
                    {"id": "y", "kernel": {"name": "noop"},
                     "deps": ["x"]},
                ],
            }])
        batch = parse_workflow(json.dumps(d))
        rule = batch.rules["r"]
        assert rule.head == "solver"
        assert rule.guard.min_workers == 2
        assert rule.guard.required_cap == "gpu"
        assert [t.id for t in rule.body] == ["x", "y"]

    def test_unsupported_format_rejected(self):
        with pytest.raises(SchemaError):
            parse_workflow("{}", format="yaml")


XML_DOC = """
<workflow schema="pubflow/1" batch_id="demo" owner="ana">
  <meta key="note">"hello"</meta>
  <task id="a">
    <kernel name="noop" duration="2.0">
      <param key="n">3</param>
      <output ref="d"/>
    </kernel>
  </task>
  <task id="b" validator="default" max-attempts="2" queue-hint="fast">
    <kernel name="noop">
      <input ref="d"/>
    </kernel>
    <dep ref="a"/>
    <cap tag="gpu"/>
  </task>
</workflow>
"""

JSON_DOC = json.dumps({
    "schema": "pubflow/1",
    "batch_id": "demo",
    "metadata": {"note": "hello"},
    "owner": "ana",
    "tasks": [
        {"id": "a", "kernel": {"name": "noop", "params": {"n": 3},
                               "outputs": ["d"], "duration": 2.0}},
        {"id": "b", "kernel": {"name": "noop", "inputs": ["d"]},
         "deps": ["a"], "required_caps": ["gpu"],
         "validator": "default", "max_attempts": 2, "queue_hint": "fast"},
    ],
})


class TestXmlParsing:
    def test_xml_equals_json(self):
        batch = parse_workflow(XML_DOC, format="xml")
        assert batch == parse_workflow(JSON_DOC)
        # unknown attributes land where the same JSON keys do
        assert batch.metadata == {"note": "hello", "owner": "ana",
                                  "task:b:queue_hint": "fast"}

    def test_invalid_xml_raises_syntax_error(self):
        with pytest.raises(WorkflowSyntaxError):
            parse_workflow("<workflow", format="xml")

    def test_wrong_root_element(self):
        with pytest.raises(SchemaError) as err:
            parse_workflow("<pipeline/>", format="xml")
        assert "workflow" in str(err.value)

    def test_unexpected_element_named(self):
        bad = '<workflow schema="pubflow/1" batch_id="b"><widget/></workflow>'
        with pytest.raises(SchemaError) as err:
            parse_workflow(bad, format="xml")
        assert "widget" in str(err.value)

    def test_meta_value_must_be_json(self):
        bad = ('<workflow schema="pubflow/1" batch_id="b">'
               '<meta key="k">{oops</meta></workflow>')
        with pytest.raises(SchemaError):
            parse_workflow(bad, format="xml")

    def test_xml_rule(self):
        text = """
        <workflow schema="pubflow/1" batch_id="b">
          <task id="big" unfold-rule="r"><kernel name="solver"/></task>
          <rule id="r" head="solver">
            <guard min-workers="1"/>
            <entry ref="x"/>
            <exit ref="x"/>
            <body><task id="x"><kernel name="noop"/></task></body>
          </rule>
        </workflow>
        """
        batch = parse_workflow(text, format="xml")
        assert batch.rules["r"].entries == frozenset({"x"})
        assert batch.rules["r"].guard.min_workers == 1


class TestSerialization:
    def sample(self):
        rule = UnfoldRule(
            rule_id="r", head="solver",
            body=(Task(id="x", kernel=KernelSpec(name="noop")),),
            entries=frozenset({"x"}), exits=frozenset({"x"}),
            guard=GuardPredicate(min_workers=1))
        tasks = {
            "a": Task(id="a", kernel=KernelSpec(
                name="noop", params={"n": 3}, outputs=("d",),
                declared_duration=2.0)),
            "big": Task(id="big", kernel=KernelSpec(name="solver"),
                        deps=frozenset({"a"}),
                        required_caps=frozenset({"gpu"}),
                        validator="default", max_attempts=2,
                        unfold_rule="r"),
        }
        return WorkflowBatch(batch_id="demo", tasks=tasks,
                             rules={"r": rule},
                             metadata={"note": "hello"})

    def test_round_trip_identity(self):
        batch = self.sample()
        assert parse_workflow(serialize_workflow(batch)) == batch

    def test_serialization_is_stable(self):
        batch = self.sample()
        text = serialize_workflow(batch)
        again = serialize_workflow(parse_workflow(text))
        assert text == again

    def test_output_ends_with_newline(self):
        assert serialize_workflow(self.sample()).endswith("\n")

    def test_canonical_bytes_of_a_rule_free_batch(self):
        # the canonical text of a batch without rules is pinned byte for
        # byte: key order, sorting, indentation and number formatting
        batch = generate_adapt_workflow(
            4, 3, 32, SimParams(dt=1e-4, advection=1.0, diffusion=0.1,
                                steps=3))
        text = serialize_workflow(batch).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == (
            "96aaa069fc614c4acd87bcf34844a5128b37ca7b63f25079a69e58e845e952a1")


# ------------------------------------------------- property: round trips

ident = st.text(alphabet="abcdefgh_0123456789", min_size=1, max_size=8)
scalars = st.one_of(st.integers(-1000, 1000), st.booleans(),
                    st.text(max_size=10),
                    st.floats(allow_nan=False, allow_infinity=False,
                              width=32))


@st.composite
def batches(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"t{i}" for i in range(n)]
    tasks = {}
    for i, name in enumerate(names):
        deps = {names[j] for j in range(i)
                if draw(st.booleans())}
        params = draw(st.dictionaries(ident, scalars, max_size=3))
        tasks[name] = Task(
            id=name,
            kernel=KernelSpec(
                name=draw(ident),
                params=params,
                inputs=tuple(sorted(draw(
                    st.sets(ident, max_size=2)))),
                outputs=tuple(sorted(draw(
                    st.sets(ident, max_size=2)))),
                declared_duration=draw(
                    st.floats(min_value=0.25, max_value=16.0)),
            ),
            deps=frozenset(deps),
            required_caps=frozenset(draw(st.sets(ident, max_size=2))),
            validator=draw(st.one_of(st.none(), ident)),
            max_attempts=draw(st.integers(min_value=1, max_value=5)),
        )
    return WorkflowBatch(batch_id=draw(ident), tasks=tasks)


def example_batch():
    """Hand-picked values: nested params, every optional field set, and
    a rule whose body has an edge and whose guard sets every field."""
    rule = UnfoldRule(
        rule_id="split", head="solver",
        body=(Task(id="f", kernel=KernelSpec(name="factorize",
                                             outputs=("lu",))),
              Task(id="s", kernel=KernelSpec(name="solve", inputs=("lu",)),
                   deps=frozenset({"f"}), max_attempts=5)),
        entries=frozenset({"f"}), exits=frozenset({"s"}),
        guard=GuardPredicate(min_workers=2, required_cap="gpu",
                             dataset_id="matrix", min_dataset_size=64))
    tasks = {
        "prep": Task(id="prep", kernel=KernelSpec(
            name="init", params={"grid": {"nx": 4, "h": [0.5, 0.25]},
                                 "bc": None, "tag": "x"},
            outputs=("matrix",), declared_duration=0.5)),
        "big": Task(id="big", kernel=KernelSpec(name="solver",
                                                inputs=("matrix",)),
                    deps=frozenset({"prep"}),
                    required_caps=frozenset({"gpu", "ssd"}),
                    validator="default", max_attempts=1,
                    unfold_rule="split"),
    }
    return WorkflowBatch(batch_id="examples", tasks=tasks,
                         rules={"split": rule})


@given(batches())
@example(example_batch())
@settings(max_examples=40, deadline=None)
def test_parse_serialize_round_trip(batch):
    assert parse_workflow(serialize_workflow(batch)) == batch
    for value in [*batch.tasks.values(), *batch.rules.values()]:
        assert load(type(value), dump(value), "value") == value
