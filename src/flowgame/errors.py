"""Exception types shared across the package.

Every error raised on user input derives from FlowGameError, so callers
(and the CLI) can distinguish bad input from genuine bugs.
"""


class FlowGameError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Parsing and network validation
# ---------------------------------------------------------------------------

class ParseError(FlowGameError):
    """A malformed command line or file, or a non-exact numeric literal."""


class NetworkValidationError(FlowGameError):
    """A network candidate violates a structural invariant."""


class DuplicateEdge(NetworkValidationError):
    """Two edges share the same ordered (tail, head) pair."""


class SelfLoop(NetworkValidationError):
    """An edge starts and ends at the same node."""


class UnknownEndpoint(NetworkValidationError):
    """An edge endpoint, the source, or the sink is not a declared node."""


class NegativeCapacity(NetworkValidationError):
    """An edge capacity is below zero."""


class NegativeCost(NetworkValidationError):
    """An edge transport cost is below zero."""


class SourceEqualsSink(NetworkValidationError):
    """Source and sink coincide (or a source set overlaps a sink set)."""


class EmptyTerminalSet(NetworkValidationError):
    """A multi-terminal candidate has no sources or no sinks."""


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class InvalidPath(FlowGameError):
    """A node sequence is not a source-to-sink path over existing edges."""


class LoopyFlowInSupport(FlowGameError):
    """A flow revisits a node. Loopy flows are strictly dominated: removing
    the loop keeps every surviving path intact and can only lower the
    transport cost, so they are rejected rather than silently repaired."""


class CapacityExceeded(FlowGameError):
    """A path flow pushes more through an edge than its capacity."""


class InvalidStrategy(FlowGameError):
    """Mixed-strategy probabilities are invalid or actions repeat."""


class InvalidParams(FlowGameError):
    """A player valuation (p1, p2) is not strictly positive."""


# ---------------------------------------------------------------------------
# Flow analysis
# ---------------------------------------------------------------------------

class UndecomposableFlow(FlowGameError):
    """An edge flow cannot be written as source-sink paths plus cycles."""


# ---------------------------------------------------------------------------
# Equilibrium construction and verification
# ---------------------------------------------------------------------------

class WrongRegion(FlowGameError):
    """The requested computation is only defined for a different parameter
    region."""


class BoundaryParams(FlowGameError):
    """Parameters sit exactly on a region boundary (p1 equal to the cheapest
    path cost, or p2 equal to 1). Closed-form claims are stated on open
    regions only. When both pure profiles are equilibria (p1 at the cost
    boundary with p2 below 1) they are attached as ``profiles``."""

    def __init__(self, message, profiles=()):
        super().__init__(message)
        self.profiles = tuple(profiles)


class CheapestRoutingRequired(FlowGameError):
    """The construction needs a min-cost max-flow that travels only along
    cheapest-cost paths, and this network has none. Carries the offending
    path as ``witness`` when known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PathBudgetExceeded(FlowGameError):
    """The network has more simple source-sink paths than the configured
    enumeration budget."""


class EdgeBudgetExceeded(FlowGameError):
    """The attack enumeration would cover more candidate edges than the
    configured budget."""
