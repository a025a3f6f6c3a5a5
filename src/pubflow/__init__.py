"""Publish-subscribe DAG workflow engine with a deterministic simulator.

Tasks flow through a small closed set of channels between five actors
(broker, coordinator, workers, monitor, checker); worker selection is
score-based, fault recovery is heartbeat-driven, and tasks can unfold
into sub-graphs at release time.  A seeded tick simulator exercises the
whole protocol in-process and produces byte-reproducible event logs.

The ADAPT demo's names (SimParams, generate_adapt_workflow,
final_snapshot, ...) and the pubflow.adapt module load on first use, so
that only ADAPT work pays for them; numpy loads only when one of them
returns an array.  They are in __all__ and dir() all the same.
"""

from importlib import import_module as _import_module

from .actors import (
    Broker,
    Checker,
    Coordinator,
    Monitor,
    SlaPolicy,
    WorkerActor,
    default_validator,
    select_worker,
    sla_score,
)
from .bus import (CHANNEL_CATALOG, Channel, Envelope, EventLog,
                  InProcessBus, LogTally)
from .errors import (
    EngineError,
    GuardFailed,
    HeadMismatch,
    InvalidGeometry,
    InvalidStage,
    MalformedLog,
    MissingInput,
    SchemaError,
    SingularSystem,
    StateError,
    UnknownActor,
    UnknownChannel,
    UnknownId,
    ValidationError,
    WorkflowSyntaxError,
)
from .execution import (
    DatasetRecord,
    DatasetStage,
    EMConfig,
    SchedulingPolicy,
    TaskResult,
    Workspace,
    checksum_hex,
    decode_dataset,
    dlc_apply,
    em_negotiate,
    encode_dataset,
    execute_kernel,
    register_acquirer,
    register_kernel,
)
from .graph import (
    StructureReport,
    find_cycle,
    ready_tasks,
    transitive_closure,
    unfold,
    validate_structure,
)
from .model import (
    GuardPredicate,
    KernelSpec,
    ResourceSnapshot,
    Task,
    TaskState,
    UnfoldRule,
    WorkerProfile,
    WorkflowBatch,
    check_transition,
    dump,
    load,
)
from .simulator import (
    Report,
    Scenario,
    SimReport,
    WorkerSpec,
    lifecycle_audit,
    load_scenario,
    parse_log,
    precedence_audit,
    replay_check,
    run_simulation,
    scenario_from_dict,
)
from .workflow_io import parse_workflow, serialize_workflow

__version__ = "0.1.0"

# Served from pubflow.adapt by __getattr__ on first use.
_ADAPT_NAMES = (
    "BC_DIRICHLET",
    "BC_PERIODIC",
    "SimParams",
    "apply_operator",
    "final_snapshot",
    "generate_adapt_workflow",
    "initial_field",
    "partition_bounds",
    "partition_table_bytes",
    "sequential_oracle",
    "solve_field",
)

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["adapt", *_ADAPT_NAMES])


def __getattr__(name: str):
    if name != "adapt" and name not in _ADAPT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import adapt`: its hasattr check would call this again
    adapt = _import_module(".adapt", __name__)
    globals().update((n, getattr(adapt, n)) for n in _ADAPT_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
