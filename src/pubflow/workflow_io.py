"""Reading and writing workflow batch documents.

JSON is the canonical on-disk form; XML is accepted as an alternate input
syntax mapping onto the same schema.  Every document must carry
schema = "pubflow/1".

Tasks, kernels, rules and guards are read by model.load and written by
model.dump, so their keys, defaults and types are their dataclasses'.
Unknown keys of the document and its tasks go to batch metadata (as-is
and as "task:<id>:<key>"); kernels, rules, guards and a rule's body
tasks refuse them.  An XML attribute is the JSON key with '-' for '_',
and its element then goes through the same loader.

serialize_workflow emits a canonical form: keys in field order, tasks and
rules sorted by id, dependency and capability lists sorted.  Parsing a
canonical document and serializing the result reproduces it byte for byte.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import SchemaError, WorkflowSyntaxError
from .execution import find_kernel
from .model import GuardPredicate, KernelSpec, Task, UnfoldRule, \
    WorkflowBatch, dump, key_type, load

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

SCHEMA_MARK = "pubflow/1"


# ---------------------------------------------------------------- parsing

def parse_workflow(data: bytes | str, format: str = "json") -> WorkflowBatch:
    """Decode a workflow document.

    Raises WorkflowSyntaxError when the document cannot be decoded at all
    and SchemaError (naming the offending element) when it decodes but
    violates the schema.

    Each kernel name the batch uses is looked up, so the ADAPT kernels
    load here, not in the first simulated tick.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if format == "json":
        batch = _parse_json(data)
    elif format == "xml":
        batch = _parse_xml(data)
    else:
        raise SchemaError(f"unknown workflow format {format!r}")
    used = {task.kernel.name for task in batch.tasks.values()}
    used.update(task.kernel.name for rule in batch.rules.values()
                for task in rule.body)
    for name in used:
        find_kernel(name)
    return batch


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

    tasks = _by_id(Task, "task", doc.get("tasks"), metadata)
    rules = _by_id(UnfoldRule, "rule", doc.get("rules", []))
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


def _by_id(cls: type, what: str, entries: object,
           metadata: Optional[dict] = None) -> dict:
    """A document's list of tasks or rules as an id -> object map; with
    `metadata`, an entry's unknown keys go there as "<what>:<id>:<key>"."""
    if not isinstance(entries, list):
        raise SchemaError(f"{what}s missing or not a list")
    out = {}
    for obj in entries:
        if not isinstance(obj, dict):
            raise SchemaError(f"{what} entry must be an object")
        oid = obj.get("id")
        if not isinstance(oid, str) or not oid:
            raise SchemaError(f"{what} missing id")
        if oid in out:
            raise SchemaError(f"duplicate {what} id {oid!r}")
        extra = None if metadata is None else {}
        out[oid] = load(cls, obj, f"{what} {oid!r}", extra)
        if extra:
            metadata.update((f"{what}:{oid}:{k}", v) for k, v in extra.items())
    return out


# ----------------------------------------------------------------- XML

def _parse_xml(text: str) -> WorkflowBatch:
    import xml.etree.ElementTree as ET  # only XML documents need it
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise WorkflowSyntaxError(f"invalid XML: {exc}") from exc
    if root.tag != "workflow":
        raise SchemaError(f"root element must be <workflow>, got <{root.tag}>")

    doc = _xml_attrs(root, WorkflowBatch)
    doc.update(metadata={}, tasks=[], rules=[])
    for child in root:
        if child.tag == "meta":
            doc["metadata"][_xml_get(child, "key")] = _json_text(child)
        elif child.tag == "task":
            doc["tasks"].append(_xml_task(child))
        elif child.tag == "rule":
            doc["rules"].append(_xml_rule(child))
        else:
            raise _unexpected(child, root)
    return _build_batch(doc)


def _xml_attrs(elem: ET.Element, cls: type) -> dict:
    """elem's attributes as the JSON keys of `cls`, '-' read as '_'.  The
    text of an int or float key is converted; a key that holds a list,
    an object or a map comes from child elements, never an attribute."""
    obj: dict[str, object] = {}
    for attr, raw in elem.attrib.items():
        key = attr.replace("-", "_")
        kind = key_type(cls, key)
        if kind in (int, float):
            try:
                raw = kind(raw)
            except ValueError:
                raise SchemaError(f"<{elem.tag}> attribute {attr}={raw!r} "
                                  f"is not a valid {kind.__name__}") from None
        elif kind not in (None, str):
            raise SchemaError(f"<{elem.tag}> attribute {attr} is not "
                              f"allowed: child elements give {key}")
        obj[key] = raw
    return obj


def _xml_get(elem: ET.Element, attr: str) -> str:
    value = elem.get(attr)
    if value is None:
        raise SchemaError(f"<{elem.tag}> element missing {attr}")
    return value


def _json_text(elem: ET.Element) -> object:
    raw = elem.text if elem.text is not None else "null"
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"<{elem.tag}> value is not valid JSON: {raw!r}") from exc


def _unexpected(child: ET.Element, parent: ET.Element) -> SchemaError:
    return SchemaError(f"unexpected element <{child.tag}> in <{parent.tag}>")


def _xml_task(elem: ET.Element) -> dict:
    obj = _xml_attrs(elem, Task)
    for child in elem:
        if child.tag == "kernel":
            obj["kernel"] = _xml_kernel(child)
        elif child.tag == "dep":
            obj.setdefault("deps", []).append(_xml_get(child, "ref"))
        elif child.tag == "cap":
            obj.setdefault("required_caps", []).append(_xml_get(child, "tag"))
        else:
            raise _unexpected(child, elem)
    return obj


def _xml_kernel(elem: ET.Element) -> dict:
    obj = _xml_attrs(elem, KernelSpec)
    for child in elem:
        if child.tag == "param":
            obj.setdefault("params", {})[_xml_get(child, "key")] = \
                _json_text(child)
        elif child.tag == "input":
            obj.setdefault("inputs", []).append(_xml_get(child, "ref"))
        elif child.tag == "output":
            obj.setdefault("outputs", []).append(_xml_get(child, "ref"))
        else:
            raise _unexpected(child, elem)
    return obj


def _xml_rule(elem: ET.Element) -> dict:
    obj = _xml_attrs(elem, UnfoldRule)
    for child in elem:
        if child.tag == "guard":
            if len(child):
                raise _unexpected(child[0], child)
            obj["guard"] = _xml_attrs(child, GuardPredicate)
        elif child.tag == "entry":
            obj.setdefault("entries", []).append(_xml_get(child, "ref"))
        elif child.tag == "exit":
            obj.setdefault("exits", []).append(_xml_get(child, "ref"))
        elif child.tag == "body":
            if stray := [task for task in child if task.tag != "task"]:
                raise _unexpected(stray[0], child)
            obj["body"] = [_xml_task(task) for task in child]
        else:
            raise _unexpected(child, elem)
    return obj


# ------------------------------------------------------------- serializing

# The canonical JSON object for one task, which is also its bus payload.
task_to_obj = dump


def task_from_obj(obj: Mapping) -> Task:
    """Inverse of task_to_obj; used when decoding bus payloads."""
    return load(Task, obj, f"task {obj.get('id')!r}")


def serialize_workflow(batch: WorkflowBatch) -> str:
    """Canonical JSON text for a batch (stable byte-for-byte)."""
    doc = {
        "schema": SCHEMA_MARK,
        "batch_id": batch.batch_id,
        "metadata": {k: batch.metadata[k] for k in sorted(batch.metadata)},
        "tasks": [dump(batch.tasks[tid]) for tid in sorted(batch.tasks)],
        "rules": [dump(batch.rules[rid]) for rid in sorted(batch.rules)],
    }
    return json.dumps(doc, indent=2) + "\n"
