"""Reading and writing workflow batch documents.

JSON is the canonical on-disk form; XML is accepted as an alternate input
syntax mapping onto the same schema.  Every document must carry
schema = "pubflow/1".

serialize_workflow emits a canonical form: fixed key order, tasks and
rules sorted by id, dependency and capability lists sorted.  Parsing a
canonical document and serializing the result reproduces it byte for byte.
Tasks, kernels, rules and guards are read by model.load, so their keys,
defaults and types are their dataclasses'.  Unknown keys of the document
and its tasks go to batch metadata (as-is and as "task:<id>:<field>");
kernels, rules, guards and a rule's body tasks refuse them.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from typing import Mapping, Optional

from .errors import SchemaError, WorkflowSyntaxError
from .model import Task, UnfoldRule, WorkflowBatch, load

SCHEMA_MARK = "pubflow/1"


# ---------------------------------------------------------------- parsing

def parse_workflow(data: bytes | str, format: str = "json") -> WorkflowBatch:
    """Decode a workflow document.

    Raises WorkflowSyntaxError when the document cannot be decoded at all
    and SchemaError (naming the offending element) when it decodes but
    violates the schema.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if format == "json":
        return _parse_json(data)
    if format == "xml":
        return _parse_xml(data)
    raise SchemaError(f"unknown workflow format {format!r}")


def _parse_json(text: str) -> WorkflowBatch:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkflowSyntaxError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    return _build_batch(doc)


def _build_batch(doc: Mapping) -> WorkflowBatch:
    if doc.get("schema") != SCHEMA_MARK:
        raise SchemaError(
            f"document must declare schema {SCHEMA_MARK!r}, "
            f"got {doc.get('schema')!r}")
    batch_id = doc.get("batch_id")
    if not isinstance(batch_id, str) or not batch_id:
        raise SchemaError("batch_id missing or not a string")

    metadata: dict[str, object] = {}
    raw_meta = doc.get("metadata", {})
    if not isinstance(raw_meta, dict):
        raise SchemaError("metadata must be an object")
    metadata.update(raw_meta)
    for key in doc:
        if key not in {"schema", "batch_id", "metadata", "tasks", "rules"}:
            metadata[key] = doc[key]

    raw_tasks = doc.get("tasks")
    if not isinstance(raw_tasks, list):
        raise SchemaError("tasks missing or not a list")
    tasks: dict[str, Task] = {}
    for entry in raw_tasks:
        task = _task_from_obj(entry, metadata)
        if task.id in tasks:
            raise SchemaError(f"duplicate task id {task.id!r}")
        tasks[task.id] = task

    rules: dict[str, UnfoldRule] = {}
    for entry in doc.get("rules", []):
        rule = _rule_from_obj(entry)
        if rule.rule_id in rules:
            raise SchemaError(f"duplicate rule id {rule.rule_id!r}")
        rules[rule.rule_id] = rule

    for task in tasks.values():
        for dep in sorted(task.deps):
            if dep not in tasks:
                raise SchemaError(
                    f"task {task.id!r} depends on unknown id {dep!r}")
        if task.unfold_rule is not None and task.unfold_rule not in rules:
            raise SchemaError(
                f"task {task.id!r} references unknown rule "
                f"{task.unfold_rule!r}")

    return WorkflowBatch(batch_id=batch_id, tasks=tasks, rules=rules,
                         metadata=metadata)


def _task_from_obj(obj: object, metadata: Optional[dict] = None) -> Task:
    if not isinstance(obj, dict):
        raise SchemaError("task entry must be an object")
    tid = obj.get("id")
    if not isinstance(tid, str) or not tid:
        raise SchemaError("task missing id")
    extra = None if metadata is None else {}
    task = load(Task, obj, f"task {tid!r}", extra)
    for key, value in (extra or {}).items():
        metadata[f"task:{tid}:{key}"] = value
    return task


def _rule_from_obj(obj: object) -> UnfoldRule:
    if not isinstance(obj, dict):
        raise SchemaError("rule entry must be an object")
    rid = obj.get("id")
    if not isinstance(rid, str) or not rid:
        raise SchemaError("rule missing id")
    return load(UnfoldRule, obj, f"rule {rid!r}")


# ----------------------------------------------------------------- XML

def _parse_xml(text: str) -> WorkflowBatch:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise WorkflowSyntaxError(f"invalid XML: {exc}") from exc
    if root.tag != "workflow":
        raise SchemaError(f"root element must be <workflow>, got <{root.tag}>")

    doc: dict[str, object] = {
        "schema": root.get("schema"),
        "batch_id": root.get("batch_id"),
        "metadata": {},
        "tasks": [],
        "rules": [],
    }
    for child in root:
        if child.tag == "meta":
            key = child.get("key")
            if key is None:
                raise SchemaError("<meta> element missing key attribute")
            doc["metadata"][key] = _json_text(child, "meta")
        elif child.tag == "task":
            doc["tasks"].append(_xml_task(child))
        elif child.tag == "rule":
            doc["rules"].append(_xml_rule(child))
        else:
            raise SchemaError(f"unexpected element <{child.tag}> in <workflow>")
    return _build_batch(doc)


def _json_text(elem: ET.Element, what: str) -> object:
    raw = elem.text if elem.text is not None else "null"
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"<{what}> value is not valid JSON: {raw!r}") from exc


def _xml_attrs(elem: ET.Element, obj: dict, attrs: Mapping) -> dict:
    """Copy elem's present attributes into obj: attribute -> (key, type)."""
    for attr, (key, kind) in attrs.items():
        if (raw := elem.get(attr)) is not None:
            try:
                obj[key] = kind(raw)
            except ValueError:
                raise SchemaError(f"<{elem.tag}> attribute {attr}={raw!r} "
                                  f"is not a valid {kind.__name__}") from None
    return obj


def _xml_task(elem: ET.Element) -> dict:
    obj = _xml_attrs(elem, {"id": elem.get("id")}, {
        "validator": ("validator", str),
        "max-attempts": ("max_attempts", int),
        "unfold-rule": ("unfold_rule", str)})
    deps, caps = [], []
    for child in elem:
        if child.tag == "kernel":
            params = {}
            inputs, outputs = [], []
            for k in child:
                if k.tag == "param":
                    key = k.get("key")
                    if key is None:
                        raise SchemaError("<param> element missing key")
                    params[key] = _json_text(k, "param")
                elif k.tag == "input":
                    inputs.append(k.get("ref"))
                elif k.tag == "output":
                    outputs.append(k.get("ref"))
                else:
                    raise SchemaError(f"unexpected element <{k.tag}> in <kernel>")
            obj["kernel"] = _xml_attrs(child, {
                "params": params, "inputs": inputs, "outputs": outputs,
            }, {"name": ("name", str), "duration": ("duration", float)})
        elif child.tag == "dep":
            ref = child.get("ref")
            if ref is None:
                raise SchemaError("<dep> element missing ref")
            deps.append(ref)
        elif child.tag == "cap":
            tag = child.get("tag")
            if tag is None:
                raise SchemaError("<cap> element missing tag")
            caps.append(tag)
        else:
            raise SchemaError(f"unexpected element <{child.tag}> in <task>")
    obj["deps"] = deps
    obj["required_caps"] = caps
    return obj


def _xml_rule(elem: ET.Element) -> dict:
    obj: dict[str, object] = {
        "id": elem.get("id"),
        "head": elem.get("head"),
        "entries": [],
        "exits": [],
        "body": [],
    }
    for child in elem:
        if child.tag == "guard":
            obj["guard"] = _xml_attrs(child, {}, {
                "min-workers": ("min_workers", int),
                "required-cap": ("required_cap", str),
                "dataset-id": ("dataset_id", str),
                "min-dataset-size": ("min_dataset_size", int)})
        elif child.tag == "entry":
            obj["entries"].append(child.get("ref"))
        elif child.tag == "exit":
            obj["exits"].append(child.get("ref"))
        elif child.tag == "body":
            obj["body"] = [_xml_task(t) for t in child if t.tag == "task"]
        else:
            raise SchemaError(f"unexpected element <{child.tag}> in <rule>")
    return obj


# ------------------------------------------------------------- serializing

def task_to_obj(task: Task) -> dict:
    """Canonical JSON object for one task (also the bus payload form)."""
    return {
        "id": task.id,
        "kernel": {
            "name": task.kernel.name,
            "params": {k: task.kernel.params[k]
                       for k in sorted(task.kernel.params)},
            "inputs": list(task.kernel.inputs),
            "outputs": list(task.kernel.outputs),
            "duration": task.kernel.declared_duration,
        },
        "deps": sorted(task.deps),
        "required_caps": sorted(task.required_caps),
        "validator": task.validator,
        "max_attempts": task.max_attempts,
        "unfold_rule": task.unfold_rule,
    }


def task_from_obj(obj: Mapping) -> Task:
    """Inverse of task_to_obj; used when decoding bus payloads."""
    return _task_from_obj(dict(obj))


def _rule_to_obj(rule: UnfoldRule) -> dict:
    return {
        "id": rule.rule_id,
        "head": rule.head,
        "guard": {
            "min_workers": rule.guard.min_workers,
            "required_cap": rule.guard.required_cap,
            "dataset_id": rule.guard.dataset_id,
            "min_dataset_size": rule.guard.min_dataset_size,
        },
        "entries": sorted(rule.entries),
        "exits": sorted(rule.exits),
        "body": [task_to_obj(t) for t in rule.body],
    }


def serialize_workflow(batch: WorkflowBatch) -> str:
    """Canonical JSON text for a batch (stable byte-for-byte)."""
    doc = {
        "schema": SCHEMA_MARK,
        "batch_id": batch.batch_id,
        "metadata": {k: batch.metadata[k] for k in sorted(batch.metadata)},
        "tasks": [task_to_obj(batch.tasks[tid]) for tid in sorted(batch.tasks)],
        "rules": [_rule_to_obj(batch.rules[rid]) for rid in sorted(batch.rules)],
    }
    return json.dumps(doc, indent=2) + "\n"
