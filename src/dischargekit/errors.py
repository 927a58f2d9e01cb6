"""Exception types shared across the toolkit, and the budget of work past
which a search raises one."""


class DischargeKitError(Exception):
    """Base class for all toolkit errors."""


class LoopEdgeError(DischargeKitError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(DischargeKitError):
    """The same unordered vertex pair appears more than once."""


class MalformedInputError(DischargeKitError):
    """Input JSON does not have the shape its format requires."""


class DanglingVertexIndexError(DischargeKitError):
    """An edge endpoint is not a valid vertex index."""


class DisconnectedEmbeddingError(DischargeKitError):
    """The operation requires a connected plane graph."""


class InvalidRotationError(DischargeKitError):
    """A rotation system is not a permutation of the incident edges."""


class SizeLimitExceededError(DischargeKitError):
    """Input exceeds a configured exhaustive-enumeration cap."""


class WorkBudget:
    """A fixed allowance of work: past ``limit``, ``spend`` raises
    ``SizeLimitExceededError`` ("``what`` needs more than ``limit`` ``units``")."""

    def __init__(self, limit: int, what: str, units: str) -> None:
        self.limit = limit
        self.left = limit
        self.message = f"{what} needs more than {limit} {units}"

    def spend(self, work: int) -> None:
        self.left -= work
        if self.left < 0:
            raise SizeLimitExceededError(self.message)
