"""Exception types shared across the toolkit."""


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


class UnsupportedLengthError(DischargeKitError):
    """Cycle length outside the supported range {3, 4, 5}."""


class VertexNotOnCycleError(DischargeKitError):
    """Role classification asked for a vertex that is not on the cycle."""


class SizeLimitExceededError(DischargeKitError):
    """Input exceeds a configured exhaustive-enumeration cap."""
