"""Kernel execution, the run workspace, and the data/resource policies.

Datasets are little-endian float64 arrays in a 16-byte-header container:
4 magic bytes "PFLW", 4 pad bytes, then the element count as an unsigned
64-bit little-endian integer, then the raw array.  Checksums are BLAKE2b
with an 8-byte digest over the full container bytes, rendered as 16
lowercase hex digits wherever they appear in JSON.

The workspace is one directory per run holding two append-only files:
the data pack, workspace.dat, with every payload put, one after another,
and the manifest, workspace.jsonl.  The manifest's first line names its
format and hash, {"format": 3, "hash": "blake2b-64"}; each put, drop,
metadata removal or reacquisition then appends the dataset's record
{dataset_id, acquisition_params, checksum, stage}, and the last line for
an id wins.  A put's line also gives its payload's place in the pack,
"at": [offset, size]; a dropped payload stays in the pack as dead space.
Records, extents and the payloads put since opening live in memory, so
only a read of an older payload opens a file, the pack, and that payload
is checked against its record's checksum.  A put costs one unbuffered
append to each file, through a descriptor opened and closed around it.
A Workspace folds the manifest once, when it opens the directory,
checking that every extent lies inside the pack, so only that Workspace
may write the directory while it is open.  An older format (format 2 kept one data file per
dataset, format 1 one JSON sidecar per dataset) is refused.
The DLC policy reacts to a transmission failure by dropping the local
copy, removing its metadata, and reacquiring from the recorded acquisition
parameters; a reacquired dataset must hash identically (all producers are
deterministic).

The EM policy reconciles logical against physical accelerator counts and
picks a scheduling flavour.  It is a pure function, and no channel
carries its result.

This module registers the noop and shell kernels.  The ADAPT kernels
and the partition_table acquirer register when pubflow.adapt loads,
which happens on the first lookup of a name not registered yet
(find_kernel, used by execute_kernel and by parse_workflow for each
kernel a batch names; Workspace.reacquire for its acquirer).  Neither
module imports numpy as it loads: encode_dataset packs a sequence with
struct, and the kernels read a dataset into an array('d') with
read_dataset.  Only what returns a numpy array, decode_dataset and the
ADAPT module's public functions, imports numpy, where it runs.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Optional
from urllib.parse import quote

from .errors import InvalidStage, MissingInput, SchemaError
from .model import KernelSpec, dump, load

try:  # CPython's own BLAKE2: hashlib would load OpenSSL's _hashlib first
    from _blake2 import blake2b
except ImportError:  # an interpreter without it
    from hashlib import blake2b

if TYPE_CHECKING:
    import numpy as np

DATASET_MAGIC = b"PFLW"
_HEADER = struct.Struct("<4s4xQ")
_ITEM = struct.Struct("<d")


def checksum_hex(data: bytes) -> str:
    """BLAKE2b-64 of a byte string as 16 lowercase hex digits."""
    return blake2b(data, digest_size=8).hexdigest()


def encode_dataset(values) -> bytes:
    """Serialize a 1-D float sequence into the container format: a 1-D
    numpy array, or a list, tuple or other sequence whose items each go
    through float() (so True is 1.0 and "1.5" is 1.5).  The bytes are
    those of np.asarray(values, dtype="<f8"); nested sequences, None and
    other non-numbers are refused with SchemaError."""
    np = sys.modules.get("numpy")  # an array exists only once it is loaded
    if np is not None and isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise SchemaError("datasets are one-dimensional arrays")
        body = values.astype("<f8", copy=False).tobytes()
    elif isinstance(values, Sequence) and \
            not isinstance(values, (str, bytes)):
        fmt = f"<{len(values)}d"
        try:  # floats (numpy's too), ints and bools pack as float() reads them
            body = struct.pack(fmt, *values)
        except struct.error:  # a numeric string, or not a number at all
            try:
                body = struct.pack(fmt, *map(float, values))
            except TypeError:
                raise SchemaError("datasets are one-dimensional arrays of "
                                  "numbers") from None
    else:
        if isinstance(values, (str, bytes)):
            float(values)  # as numpy: a non-numeric string is a ValueError
        raise SchemaError("datasets are one-dimensional arrays")
    return _HEADER.pack(DATASET_MAGIC, len(body) // 8) + body


def _count(data: bytes) -> int:
    """The element count of a dataset container; SchemaError unless its
    header, magic and length check out."""
    if len(data) < _HEADER.size:
        raise SchemaError("dataset shorter than its header")
    magic, count = _HEADER.unpack_from(data)
    if magic != DATASET_MAGIC:
        raise SchemaError(f"bad dataset magic {magic!r}")
    if len(data) - _HEADER.size != 8 * count:
        raise SchemaError(f"dataset length {len(data) - _HEADER.size} "
                          f"does not match count {count}")
    return count


def read_dataset(data: bytes) -> array:
    """The float64 values in a dataset container, as an array('d')."""
    _count(data)
    values = array("d")
    values.frombytes(memoryview(data)[_HEADER.size:])
    if sys.byteorder == "big":  # the container is little-endian
        values.byteswap()
    return values


def read_item(data: bytes, index: int) -> float:
    """read_dataset(data)[index], reading only that value."""
    index = range(_count(data))[index]  # IndexError out of range
    return _ITEM.unpack_from(data, _HEADER.size + 8 * index)[0]


def decode_dataset(data: bytes) -> np.ndarray:
    """read_dataset's values as a float64 numpy array; loads numpy, which
    no kernel needs."""
    import numpy as np
    return np.array(read_dataset(data), dtype=float)


# ------------------------------------------------------------- workspace

class DatasetStage(str, Enum):
    READY = "ready"
    DROPPED = "dropped"
    ACQUIRING = "acquiring"


@dataclass(frozen=True)
class DatasetRecord:
    dataset_id: str
    acquisition_params: dict
    checksum: Optional[str]
    stage: DatasetStage


# Acquirers regenerate dataset bytes from recorded parameters.
AcquirerFn = Callable[..., bytes]
ACQUIRERS: dict[str, AcquirerFn] = {}


def register_acquirer(name: str) -> Callable[[AcquirerFn], AcquirerFn]:
    def deco(fn: AcquirerFn) -> AcquirerFn:
        ACQUIRERS[name] = fn
        return fn
    return deco


def _registered(registry: dict, name: str) -> Optional[Callable]:
    """registry[name], or None.  A miss first loads pubflow.adapt, whose
    kernels and acquirer register then, so only ADAPT work pays for
    loading it."""
    fn = registry.get(name)
    if fn is None:
        from . import adapt  # noqa: F401
        fn = registry.get(name)
    return fn


MANIFEST = "workspace.jsonl"
PACK = "workspace.dat"
MANIFEST_HEADER = {"format": 3, "hash": "blake2b-64"}


def _append_file(path: str, data: bytes) -> int:
    """Append `data` to the file at `path`, created if missing, through one
    unbuffered descriptor; returns the offset where `data` starts."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        offset = os.lseek(fd, 0, os.SEEK_END)
        view = memoryview(data)
        while view:  # a write may take fewer bytes than it was given
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
    return offset


class Workspace:
    """Per-run dataset store: records and payloads in memory, mirrored to
    one directory as an append-only manifest and an append-only data pack
    (format 3, see the module docstring).  A put makes one unbuffered
    append to each file, the payload to the pack and then its record to
    the manifest; a drop appends its record and forgets the payload, whose
    bytes stay in the pack, as nothing compacts it.  No descriptor stays
    open between calls, so there is nothing to close."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest = os.path.join(self.root, MANIFEST)
        self._pack = os.path.join(self.root, PACK)
        self._records: dict[str, DatasetRecord] = {}
        self._data: dict[str, bytes] = {}   # ready payloads read or put
        # ready dataset -> (offset, size) of its payload in the pack
        self._extents: dict[str, tuple[int, int]] = {}
        if os.path.exists(self._manifest):
            self._fold()
            return
        sidecar = next(self.root.glob("*.meta.json"), None)
        if sidecar is not None:
            raise SchemaError(
                f"{sidecar}: a format-1 dataset sidecar; this workspace "
                f"format keeps its records in {MANIFEST}")
        self._append(MANIFEST_HEADER)

    def _fold(self) -> None:
        """Read the manifest: its header, then each record; last wins.
        Every extent must lie inside the pack."""
        with open(self._manifest, encoding="utf-8") as f:
            text = f.read()
        lines = text.split("\n")
        if lines.pop():
            raise SchemaError(f"{self._manifest}: line {len(lines) + 1}: "
                              "truncated (no line end)")
        if not lines:
            raise SchemaError(f"{self._manifest}: no header line")
        end = os.path.getsize(self._pack) \
            if os.path.exists(self._pack) else 0
        for lineno, line in enumerate(lines, start=1):
            where = f"{self._manifest}: line {lineno}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{where}: not JSON ({exc.msg})") from exc
            if lineno == 1:
                if doc != MANIFEST_HEADER:
                    raise SchemaError(f"{where}: header must be "
                                      f"{json.dumps(MANIFEST_HEADER)}")
                continue
            at = doc.pop("at", None) if isinstance(doc, dict) else None
            record = load(DatasetRecord, doc, where)
            dataset_id = record.dataset_id
            self._records[dataset_id] = record
            if record.stage is not DatasetStage.READY:
                if at is not None:
                    raise SchemaError(f"{where}: a {record.stage.value} "
                                      "record has no extent (at)")
                self._extents.pop(dataset_id, None)
                continue
            if at is None:
                raise SchemaError(f"{where}: missing key 'at'")
            if not (isinstance(at, list) and len(at) == 2
                    and all(type(v) is int and v >= 0 for v in at)):
                raise SchemaError(f"{where}: at must be [offset, size], "
                                  "two non-negative integers")
            offset, size = at
            if offset + size > end:
                raise SchemaError(
                    f"{where}: extent {at} lies past the end of {PACK} "
                    f"({end} bytes)")
            self._extents[dataset_id] = offset, size

    def _append(self, doc: dict) -> None:
        _append_file(self._manifest, (json.dumps(doc) + "\n").encode())

    def _write(self, record: DatasetRecord, **extra) -> DatasetRecord:
        self._append({**dump(record), **extra})
        self._records[record.dataset_id] = record
        return record

    def put(self, dataset_id: str, data: bytes,
            acquisition_params: Optional[dict] = None) -> DatasetRecord:
        record = DatasetRecord(
            dataset_id=dataset_id,
            acquisition_params=dict(acquisition_params or {}),
            checksum=checksum_hex(data),
            stage=DatasetStage.READY,
        )
        offset = _append_file(self._pack, data)
        self._write(record, at=[offset, len(data)])
        self._extents[dataset_id] = offset, len(data)
        self._data[dataset_id] = data
        return record

    def record(self, dataset_id: str) -> Optional[DatasetRecord]:
        return self._records.get(dataset_id)

    def has_ready(self, dataset_id: str) -> bool:
        return dataset_id in self._extents

    def get(self, dataset_id: str) -> bytes:
        data = self._data.get(dataset_id)
        if data is None:  # not ready, or put before this Workspace opened
            extent = self._extents.get(dataset_id)
            if extent is None:
                raise MissingInput(f"dataset {dataset_id!r} is not ready")
            offset, size = extent
            with open(self._pack, "rb") as f:
                f.seek(offset)
                data = f.read(size)
            if checksum_hex(data) != self._records[dataset_id].checksum:
                raise SchemaError(
                    f"{self._pack}: dataset {dataset_id!r} does not match "
                    "its checksum")
            self._data[dataset_id] = data
        return data

    def sizes(self) -> dict[str, int]:
        return {dataset_id: size
                for dataset_id, (_, size) in self._extents.items()}

    def checksum(self, dataset_id: str) -> Optional[str]:
        record = self.record(dataset_id)
        return record.checksum if record else None

    # -- staged transitions used by the DLC policy ------------------------

    def drop(self, dataset_id: str) -> DatasetRecord:
        record = self.record(dataset_id)
        if record is None or record.stage is not DatasetStage.READY:
            raise InvalidStage(
                f"cannot drop {dataset_id!r}: not a ready dataset")
        del self._extents[dataset_id]
        self._data.pop(dataset_id, None)
        return self._write(replace(record, stage=DatasetStage.DROPPED))

    def remove_metadata(self, dataset_id: str) -> DatasetRecord:
        record = self.record(dataset_id)
        if record is None or record.stage is not DatasetStage.DROPPED:
            raise InvalidStage(
                f"cannot remove metadata of {dataset_id!r}: not dropped")
        # the record itself survives (we need the acquisition params);
        # the published checksum is forgotten with the payload
        return self._write(
            replace(record, checksum=None, stage=DatasetStage.ACQUIRING))

    def reacquire(self, dataset_id: str) -> DatasetRecord:
        record = self.record(dataset_id)
        if record is None or record.stage is not DatasetStage.ACQUIRING:
            raise InvalidStage(
                f"cannot reacquire {dataset_id!r}: not acquiring")
        params = dict(record.acquisition_params)
        name = params.pop("acquirer", None)
        acquire = None if name is None else _registered(ACQUIRERS, name)
        if acquire is None:
            raise SchemaError(
                f"dataset {dataset_id!r} has no registered acquirer "
                f"({name!r})")
        data = acquire(**params)
        return self.put(dataset_id, data,
                        acquisition_params=record.acquisition_params)


DLC_EVENTS = ("transmission_failure",)


def dlc_apply(workspace: Workspace, dataset_id: str,
              event: str = "transmission_failure") -> list[tuple[str, str]]:
    """Run the data-lifecycle policy for one dataset.

    Returns the ordered action list actually applied:
    drop -> remove_metadata -> reacquire.  The reacquired copy must hash
    identically to the original (producers are deterministic); callers
    can compare DatasetRecord checksums to verify.
    """
    if event not in DLC_EVENTS:
        raise SchemaError(f"unrecognized DLC event {event!r}")
    actions = [("drop", dataset_id)]
    workspace.drop(dataset_id)
    actions.append(("remove_metadata", dataset_id))
    workspace.remove_metadata(dataset_id)
    actions.append(("reacquire", dataset_id))
    workspace.reacquire(dataset_id)
    return actions


# ------------------------------------------------------------ EM policy

class SchedulingPolicy(str, Enum):
    DATA_AWARE = "data_aware"
    IN_MEMORY = "in_memory"


@dataclass(frozen=True)
class EMConfig:
    logical_gpus: int = 0
    physical_gpus: int = 0
    scheduling_policy: SchedulingPolicy = SchedulingPolicy.IN_MEMORY
    performance_model_available: bool = False


def em_negotiate(probe: EMConfig) -> EMConfig:
    """Reconcile a probed execution-model configuration.

    Logical device count is clamped to the physical count, and the
    scheduling policy follows the performance model: data-aware when one
    is available, in-memory otherwise.  Idempotent.
    """
    logical = min(probe.logical_gpus, probe.physical_gpus)
    policy = (SchedulingPolicy.DATA_AWARE
              if probe.performance_model_available
              else SchedulingPolicy.IN_MEMORY)
    return EMConfig(
        logical_gpus=logical,
        physical_gpus=probe.physical_gpus,
        scheduling_policy=policy,
        performance_model_available=probe.performance_model_available,
    )


# --------------------------------------------------------- kernel running

@dataclass(frozen=True)
class TaskResult:
    exit_status: int
    outputs: dict[str, str]  # dataset id -> checksum hex
    error: Optional[str] = None


KernelFn = Callable[[KernelSpec, Workspace], Mapping[str, bytes]]
KERNELS: dict[str, KernelFn] = {}


def register_kernel(name: str) -> Callable[[KernelFn], KernelFn]:
    def deco(fn: KernelFn) -> KernelFn:
        KERNELS[name] = fn
        return fn
    return deco


def find_kernel(name: str) -> Optional[KernelFn]:
    """The kernel registered under `name`, read from KERNELS at each call;
    the ADAPT kernels register on the first miss."""
    return _registered(KERNELS, name)


def execute_kernel(spec: KernelSpec, workspace: Workspace) -> TaskResult:
    """Run a registered kernel against the workspace.

    Missing inputs raise MissingInput (the data-policy trigger).  A kernel
    that raises or fails to produce its declared outputs is encoded as a
    nonzero exit status in the result, never an exception.
    """
    for dataset_id in spec.inputs:
        if not workspace.has_ready(dataset_id):
            raise MissingInput(f"input {dataset_id!r} is not ready")
    fn = find_kernel(spec.name)
    if fn is None:
        return TaskResult(exit_status=127, outputs={},
                          error=f"kernel {spec.name!r} is not registered")
    try:
        produced = fn(spec, workspace)
    except MissingInput:
        raise
    except Exception as exc:  # kernel panic: encoded, not propagated
        return TaskResult(exit_status=1, outputs={},
                          error=f"{type(exc).__name__}: {exc}")
    outputs: dict[str, str] = {}
    for dataset_id in spec.outputs:
        if dataset_id not in produced:
            return TaskResult(
                exit_status=1, outputs={},
                error=f"kernel did not produce declared output {dataset_id!r}")
        record = workspace.put(dataset_id, produced[dataset_id])
        outputs[dataset_id] = record.checksum or ""
    return TaskResult(exit_status=0, outputs=outputs)


@register_kernel("noop")
def _kernel_noop(spec: KernelSpec,
                 workspace: Workspace) -> Mapping[str, bytes]:
    """Does nothing; may still declare constant outputs via params.

    params["values"] maps dataset id to a list of numbers; outputs not
    listed there become empty datasets.
    """
    values = spec.params.get("values", {})
    out = {}
    for dataset_id in spec.outputs:
        data = values.get(dataset_id, []) if isinstance(values, Mapping) \
            else values
        out[dataset_id] = encode_dataset([float(v) for v in data])
    return out


@register_kernel("shell")
def _kernel_shell(spec: KernelSpec,
                  workspace: Workspace) -> Mapping[str, bytes]:
    """Subprocess adapter for live deployments; not used in simulation.

    params: argv (list of strings).  The command runs in a fresh temporary
    directory holding each declared input as <quoted id>.dat, and must
    write each declared output there under the same kind of name.
    """
    # only live runs need these; keep them off package import
    import subprocess
    import tempfile
    argv = spec.params.get("argv")
    if not isinstance(argv, list) or not argv:
        raise SchemaError("shell kernel needs a non-empty argv param")
    with tempfile.TemporaryDirectory(prefix="pubflow-shell-") as cwd:
        for dataset_id in spec.inputs:
            Path(cwd, _file_name(dataset_id)).write_bytes(
                workspace.get(dataset_id))
        proc = subprocess.run([str(a) for a in argv], cwd=cwd,
                              capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"command exited {proc.returncode}: "
                               f"{proc.stderr.decode()[:200]}")
        out = {}
        for dataset_id in spec.outputs:
            path = Path(cwd, _file_name(dataset_id))
            if not path.exists():
                raise RuntimeError(f"command did not write {dataset_id!r}")
            out[dataset_id] = path.read_bytes()
    return out


def _file_name(dataset_id: str) -> str:
    """The file a shell command sees for a dataset: its id, quoted."""
    return quote(dataset_id, safe="") + ".dat"
