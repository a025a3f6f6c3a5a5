"""Exception types shared across the engine.

Everything raised on purpose by this package derives from EngineError so
callers can catch one base type at the CLI boundary.
"""


class EngineError(Exception):
    """Base class for all pubflow errors."""


class WorkflowSyntaxError(EngineError):
    """The document could not be decoded at all (bad JSON/XML)."""


class SchemaError(EngineError):
    """A decoded document or bus payload violates the expected shape."""


class ValidationError(EngineError):
    """A structurally invalid batch was refused (e.g. cyclic)."""


class UnknownId(EngineError):
    """An id was referenced that the batch does not contain."""


class GuardFailed(EngineError):
    """An unfold guard evaluated false against the resource snapshot."""


class HeadMismatch(EngineError):
    """An unfold rule head does not match the target task's kernel."""


class StateError(EngineError):
    """An operation was attempted in a task state that forbids it."""


class UnknownActor(EngineError):
    """Bus call referenced an actor id that was never registered."""


class UnknownChannel(EngineError):
    """Bus call referenced a channel outside the fixed catalog."""


class MissingInput(EngineError):
    """A kernel input dataset is not ready in the workspace."""


class InvalidStage(EngineError):
    """A dataset lifecycle transition was attempted from the wrong stage."""


class InvalidGeometry(EngineError):
    """Mesh/partition counts are inconsistent (needs >= 2 cells per part)."""


class SingularSystem(EngineError):
    """The linear operator cannot be solved (incompatible or singular)."""


class MalformedLog(EngineError):
    """An event log could not be parsed (truncated or corrupt)."""
