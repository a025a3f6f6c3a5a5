"""Outside-in tracing: spans around calls into pubflow's public functions.

Nothing under src/ changes.  Tracer.install() replaces each traced
function where its callers look it up (a class attribute, a module
global, or a KERNELS entry) with a wrapper that records one span:
(name, start, end, parent).  Spans are kept in flat arrays while the
program runs; self times are computed afterwards as a span's duration
minus the durations of its direct children.  uninstall() puts every
original back.

Only the calling thread is traced; the simulator is single-threaded.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Callable, Optional

import numpy as np

# Kernels registered by pubflow.execution and pubflow.adapt.
KERNEL_NAMES = ("metis", "matrix", "init", "mumps", "mumps_factorize",
                "mumps_solve", "iter", "save", "noop")
ACTOR_CLASSES = ("Broker", "Coordinator", "WorkerActor", "Monitor", "Checker")
WORKSPACE_METHODS = ("put", "get", "has_ready", "record", "sizes", "checksum")

_HEADER_BYTES = 16  # dataset container header (execution.py)

Counter = Callable[[tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.instances: dict[str, object] = {}
        self._saved: list[tuple[Callable[[object], None], object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             count: Optional[Counter] = None) -> Callable:
        nid = self._id(name)
        name_id, parent, start, end = \
            self.name_id, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """One span around a call the benchmark makes itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def _patch_attr(self, owner: object, attr: str, name: str,
                    count: Optional[Counter] = None) -> None:
        original = getattr(owner, attr)
        self._saved.append(
            (lambda value, o=owner, a=attr: setattr(o, a, value), original))
        setattr(owner, attr, self.wrap(name, original, count))

    def _patch_item(self, mapping: dict, key: str, name: str,
                    count: Optional[Counter] = None) -> None:
        original = mapping[key]
        self._saved.append(
            (lambda value, m=mapping, k=key: m.__setitem__(k, value),
             original))
        mapping[key] = self.wrap(name, original, count)

    def install(self) -> None:
        import pubflow.actors as actors
        import pubflow.adapt as adapt
        import pubflow.bus as bus
        import pubflow.cli as cli
        import pubflow.execution as execution
        import pubflow.simulator as simulator

        def add(key: str, amount: float) -> None:
            self.counts[key] = self.counts.get(key, 0) + amount

        def on_drain(args, result):
            add("bus.deliveries", len(result))
            add("bus.drain.empty", 0 if result else 1)

        def on_append(args, result):
            add("bus.serialized_bytes", len(args[0].lines[-1]) + 1)

        self._patch_attr(bus.InProcessBus, "publish", "bus.publish")
        self._patch_attr(bus.InProcessBus, "drain", "bus.drain", on_drain)
        self._patch_attr(bus.InProcessBus, "messages_by_channel",
                         "bus.messages_by_channel")
        self._patch_attr(bus.EventLog, "append", "bus.log_append", on_append)

        def keep(args, result):
            # Monitor and Checker keep counters the log can be checked against.
            self.instances[type(args[0]).__name__] = args[0]

        for cls_name in ACTOR_CLASSES:
            self._patch_attr(getattr(actors, cls_name), "step",
                             f"actors.{cls_name}.step",
                             keep if cls_name in ("Monitor", "Checker")
                             else None)
        self._patch_attr(actors, "select_worker", "actors.select_worker")

        def on_put(args, result):
            add("execution.Workspace.put.bytes", len(args[2]))

        def on_get(args, result):
            add("execution.Workspace.get.bytes", len(result))

        for method in WORKSPACE_METHODS:
            hook = {"put": on_put, "get": on_get}.get(method)
            self._patch_attr(execution.Workspace, method,
                             f"execution.Workspace.{method}", hook)

        def on_checksum(args, result):
            add("execution.checksum_hex.bytes", len(args[0]))

        self._patch_attr(execution, "checksum_hex", "execution.checksum_hex",
                         on_checksum)
        for module in (execution, adapt):
            self._patch_attr(module, "encode_dataset",
                             "execution.encode_dataset")
            self._patch_attr(module, "decode_dataset",
                             "execution.decode_dataset")
        self._patch_attr(actors, "execute_kernel", "execution.execute_kernel")

        def on_iter(args, result):
            add("adapt.iter.cells", sum(
                (len(data) - _HEADER_BYTES) // 8 for data in result.values()))

        for kernel in KERNEL_NAMES:
            self._patch_item(execution.KERNELS, kernel,
                             f"adapt.kernel.{kernel}",
                             on_iter if kernel == "iter" else None)

        def on_ready(args, result):
            add("graph.ready_tasks.tasks_scanned", len(args[0].tasks))

        self._patch_attr(actors, "ready_tasks", "graph.ready_tasks", on_ready)
        self._patch_attr(actors, "unfold", "graph.unfold")
        self._patch_attr(actors, "task_to_obj", "workflow_io.task_to_obj")
        self._patch_attr(actors, "task_from_obj", "workflow_io.task_from_obj")
        self._patch_attr(simulator, "parse_log", "simulator.parse_log")
        self._patch_attr(cli, "parse_log", "simulator.parse_log")

    def uninstall(self) -> None:
        while self._saved:
            restore, original = self._saved.pop()
            restore(original)

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = end - start
        covered = np.bincount(parent[parent >= 0],
                              weights=duration[parent >= 0],
                              minlength=len(start))
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": parent, "start": start, "end": end,
                "self": duration - covered}

    def self_times(self, first: int = 0,
                   last: Optional[int] = None) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over spans first..last-1."""
        s = self.spans()
        ids = s["name_id"][first:last]
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=s["self"][first:last],
                             minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        s = self.spans()
        np.savez(path, names=np.array(self.names), name_id=s["name_id"],
                 parent=s["parent"], start=s["start"], end=s["end"])
