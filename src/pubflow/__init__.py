"""Publish-subscribe DAG workflow engine with a deterministic simulator.

Tasks flow through a small closed set of channels between five actors
(broker, coordinator, workers, monitor, checker); worker selection is
score-based, fault recovery is heartbeat-driven, and tasks can unfold
into sub-graphs at release time.  A seeded tick simulator exercises the
whole protocol in-process and produces byte-reproducible event logs.
"""

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
from .adapt import (
    BC_DIRICHLET,
    BC_PERIODIC,
    SimParams,
    apply_operator,
    final_snapshot,
    generate_adapt_workflow,
    initial_field,
    partition_bounds,
    partition_table_bytes,
    sequential_oracle,
    solve_field,
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
    probe_environment,
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

__all__ = [name for name in dir() if not name.startswith("_")]
