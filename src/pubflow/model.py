"""Core value types: tasks, batches, unfold rules, worker profiles.

These are plain immutable dataclasses.  All graph and engine operations
treat them as values; mutation happens by building new instances
(see graph.unfold), never in place.

They are also the schema of every document pubflow reads or writes:
`load` builds an instance from a JSON object and `dump` is its inverse.
Both take a field's key from its name, renamed by the class's
`_doc_keys`, and its JSON form from its type hint.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Mapping, Optional, Union, get_args, get_origin, \
    get_type_hints

from .errors import SchemaError, StateError


class TaskState(Enum):
    """Lifecycle states, ordered.  Within one attempt the index never
    decreases; a new attempt resets the task to TODO."""

    WAITING = 0
    TODO = 1
    IN_PROGRESS = 2
    TO_CHECK = 3
    FINISHED = 4


# Bound once, by name: the log's fold checks every move of every task,
# and an Enum member read off its class, or its .value, is a descriptor
# call.
_TODO, _IN_PROGRESS, _FINISHED = (TaskState.TODO, TaskState.IN_PROGRESS,
                                  TaskState.FINISHED)


def check_transition(current: TaskState, new: TaskState,
                     current_attempt: int, new_attempt: int) -> None:
    """Enforce the lifecycle rules; raises StateError on an illegal move.

    Forward moves keep the attempt.  The only backward move is a reset to
    TODO with the attempt incremented (re-publication after a timeout or a
    failed check), and a Finished task never moves again.
    """
    if current is _FINISHED:
        raise StateError(f"task already finished (attempt {current_attempt})")
    if new_attempt == current_attempt:
        if new._value_ < current._value_:
            raise StateError(
                f"state cannot move backward within attempt "
                f"{current_attempt}: {current.name} -> {new.name}")
        return
    if new_attempt > current_attempt:
        if new is not _TODO:
            raise StateError(
                f"attempt bump must reset to TODO, got {new.name}")
        return
    raise StateError(
        f"attempt cannot decrease: {current_attempt} -> {new_attempt}")


@dataclass(frozen=True)
class KernelSpec:
    """A named executable action.

    name must be resolvable in the kernel registry when the task runs.
    inputs/outputs are dataset ids in the run workspace.  declared_duration
    is the nominal work in simulator ticks at speed 1.0.
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    declared_duration: float = 1.0

    _doc_keys = {"declared_duration": "duration"}

    def __post_init__(self) -> None:
        if self.declared_duration <= 0:
            raise ValueError("declared_duration must be positive")


@dataclass(frozen=True)
class Task:
    id: str
    kernel: KernelSpec
    deps: frozenset[str] = frozenset()
    required_caps: frozenset[str] = frozenset()
    validator: Optional[str] = None
    max_attempts: int = 3
    unfold_rule: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("task id must be non-empty")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.id in self.deps:
            raise ValueError(f"task {self.id!r} depends on itself")


@dataclass(frozen=True)
class ResourceSnapshot:
    """What the engine knows about available resources at one instant.

    Guards are pure predicates over this; building it is the caller's job.
    """

    available_workers: int = 0
    capabilities: frozenset[str] = frozenset()
    dataset_sizes: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class GuardPredicate:
    """Condition an unfold rule must satisfy before a node is expanded."""

    min_workers: int = 0
    required_cap: Optional[str] = None
    dataset_id: Optional[str] = None
    min_dataset_size: Optional[int] = None

    def evaluate(self, snapshot: ResourceSnapshot) -> bool:
        if snapshot.available_workers < self.min_workers:
            return False
        if self.required_cap is not None \
                and self.required_cap not in snapshot.capabilities:
            return False
        if self.min_dataset_size is not None:
            size = snapshot.dataset_sizes.get(self.dataset_id or "", 0)
            if size < self.min_dataset_size:
                return False
        return True


@dataclass(frozen=True)
class UnfoldRule:
    """Production rule replacing one node by a small sub-graph.

    head names the kernel the target task must run.  body tasks use local
    ids; entries/exits designate which body nodes inherit the parent's
    incoming and outgoing edges.
    """

    rule_id: str
    head: str
    body: tuple[Task, ...]
    entries: frozenset[str]
    exits: frozenset[str]
    guard: GuardPredicate = GuardPredicate()

    _doc_keys = {"rule_id": "id"}

    def __post_init__(self) -> None:
        ids = {t.id for t in self.body}
        if len(ids) != len(self.body):
            raise ValueError(f"rule {self.rule_id!r} body has duplicate ids")
        if not self.entries or not self.entries <= ids:
            raise ValueError(
                f"rule {self.rule_id!r} entries must be a non-empty subset "
                "of the body")
        if not self.exits or not self.exits <= ids:
            raise ValueError(
                f"rule {self.rule_id!r} exits must be a non-empty subset "
                "of the body")
        for t in self.body:
            if not t.deps <= ids:
                raise ValueError(
                    f"rule {self.rule_id!r} body task {t.id!r} depends on "
                    "ids outside the body")


@dataclass(frozen=True)
class WorkflowBatch:
    """A named set of tasks plus the unfold rules they may reference."""

    batch_id: str
    tasks: Mapping[str, Task]
    rules: Mapping[str, UnfoldRule] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.batch_id:
            raise ValueError("batch_id must be non-empty")
        for tid, task in self.tasks.items():
            if tid != task.id:
                raise ValueError(f"task key {tid!r} != task id {task.id!r}")
            for dep in sorted(task.deps):
                if dep not in self.tasks:
                    raise ValueError(
                        f"task {tid!r} depends on unknown task {dep!r}")

    def edges(self) -> list[tuple[str, str]]:
        """Dependency edges as (dep, task) pairs, deterministic order."""
        return [(dep, tid) for tid in sorted(self.tasks)
                for dep in sorted(self.tasks[tid].deps)]

    @cached_property
    def dependents(self) -> dict[str, list[str]]:
        """Task id -> the ids that depend on it, in id order; read-only."""
        out: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        for dep, tid in self.edges():
            out[dep].append(tid)
        return out


@dataclass(frozen=True)
class WorkerProfile:
    """What a volunteer advertises about itself."""

    worker_id: str
    capabilities: frozenset[str] = frozenset()
    speed: float = 1.0
    reliability: float = 1.0

    def __post_init__(self) -> None:
        if not self.worker_id:
            raise ValueError("worker_id must be non-empty")
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError("reliability must be in [0, 1]")


# --------------------------------------------------------------- loading

def load(cls, doc: object, where: str, extra: Optional[dict] = None):
    """Build the dataclass `cls` from the JSON object `doc`, named `where`.

    Keys are the field names, renamed by the class's `_doc_keys` (a dotted
    name sits one object deep); a missing key takes the field's default.
    Anything else raises SchemaError naming `where` and the key, except
    that unknown top-level keys go to `extra` when it is given."""
    keys, groups, required, _ = _schema(cls)
    if not isinstance(doc, dict):
        raise _wrong(where, "an object", doc)
    for group in groups:
        if group in doc:
            doc = dict(doc)
            value = doc.pop(group)
            if not isinstance(value, dict):
                raise _wrong(f"{where}: {group}", "an object", value)
            doc.update((f"{group}.{sub}", v) for sub, v in value.items())
    args = {}
    for key, value in doc.items():
        if key in keys:
            name, _, convert = keys[key]
            args[name] = convert(value, where, key)
        elif extra is None:
            raise SchemaError(f"{where}: unknown key {key!r}")
        else:
            extra[key] = value
    if missing := [key for key in required if key not in doc]:
        raise SchemaError(f"{where}: missing key {missing[0]!r}")
    try:
        return cls(**args)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def dump(obj) -> dict:
    """The JSON object for the dataclass instance `obj`; load's inverse.

    Every field is written, None included, in field order: frozensets as
    sorted lists, tuples as lists, mappings with their keys sorted and
    dataclasses as objects.  A dotted key sits one object deep."""
    doc: dict = {}
    for name, group, key, encode in _schema(type(obj))[3]:
        value = getattr(obj, name)
        if encode is not None and value is not None:
            value = encode(value)
        (doc.setdefault(group, {}) if group else doc)[key] = value
    return doc


def key_type(cls, key: str) -> object:
    """The type the document key `key` of `cls` holds, Optional[X] as X;
    None for a key that `cls` does not read."""
    hint = _schema(cls)[0].get(key, (None, None))[1]
    return get_args(hint)[0] if get_origin(hint) is Union else hint


# JSON types accepted for a hint: (description, types, constructor); a
# float value must also be finite (Python's json reads NaN and Infinity)
_SCALARS = {bool: ("a boolean", {bool}, bool),
            int: ("an integer", {int}, int),
            float: ("a finite number", {int, float}, float),
            str: ("a string", {str}, str),
            abc.Mapping: ("an object", {dict}, dict),
            dict: ("an object", {dict}, dict)}


@cache
def _schema(cls) -> tuple[dict, tuple, list, tuple]:
    """doc key -> (field name, type hint, converter), in field order; the
    dotted groups; the required keys; and for dump, (field name, group,
    key, encoder) per field."""
    hints, renames = get_type_hints(cls), getattr(cls, "_doc_keys", {})
    keys = {renames.get(f.name, f.name):
            (f.name, hints[f.name], _converter(hints[f.name]))
            for f in fields(cls)}
    required = sorted(renames.get(f.name, f.name) for f in fields(cls)
                      if f.default is f.default_factory is MISSING)
    writers = tuple((name, *key.rpartition(".")[::2], _encoder(hint))
                    for key, (name, hint, _) in keys.items())
    return keys, tuple({k.split(".")[0] for k in keys if "." in k}), \
        required, writers


def _encoder(hint):
    """A function field value -> JSON value for one type hint, or None
    where the value is already its JSON form."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]; dump passes None through
        return _encoder(args[0])
    if is_dataclass(hint):
        return dump
    if origin is frozenset:
        return sorted
    if origin is tuple:
        item = _encoder(args[0])
        return list if item is None else lambda v: [item(x) for x in v]
    if origin in (abc.Mapping, dict):
        return lambda v: {k: v[k] for k in sorted(v)}
    if isinstance(hint, type) and issubclass(hint, Enum):
        return lambda v: v.value
    return None


def _converter(hint):
    """A function (value, where, key) -> field value for one type hint; a
    fixed-length tuple holds one type, as in tuple[int, int]."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        inner = _converter(args[0])
        return lambda v, where, key: \
            None if v is None else inner(v, where, key)
    if is_dataclass(hint):
        return lambda v, where, key: load(hint, v, f"{where}.{key}")
    if hint is object:
        return lambda v, where, key: v
    if isinstance(hint, type) and issubclass(hint, Enum):
        values = [member.value for member in hint]

        def convert_member(v, where, key):
            if type(v) is not type(values[0]) or v not in values:
                raise SchemaError(
                    f"{where}: {key} must be one of {values}, got {v!r}")
            return hint(v)
        return convert_member
    if origin in (tuple, frozenset):
        size = len(args) if origin is tuple and args[-1] is not ... else None
        item, same = _converter(args[0]), {args[0]}
        what = f"a list of {size}" if size else "a list"

        def convert(v, where, key):
            if not isinstance(v, list) or size not in (None, len(v)):
                raise _wrong(f"{where}: {key}", what, v)
            if set(map(type, v)) <= same:
                return origin(v)
            return origin(item(x, where, f"{key}[{i}]")
                          for i, x in enumerate(v))
        return convert
    what, types, build = _SCALARS[origin or hint]

    def convert(v, where, key):
        try:
            value = build(v) if type(v) in types else None
        except OverflowError:  # an integer too large for a float
            value = None
        if value is None or type(value) is float and not math.isfinite(value):
            raise _wrong(f"{where}: {key}", what, v)
        return value
    return convert


def _wrong(name: str, what: str, value: object) -> SchemaError:
    got = f"a list of {len(value)}" if isinstance(value, list) \
        else repr(value) if isinstance(value, float) \
        else type(value).__name__
    return SchemaError(f"{name} must be {what}, got {got}")
