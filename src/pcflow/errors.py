"""Exception types shared across the package."""


class PcflowError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(PcflowError):
    """A configuration value or curve specification is out of range."""


class ConvexityLost(PcflowError):
    """The discrete curve is no longer strictly convex (or not simple)."""


class NonConvexSpec(ConfigInvalid, ConvexityLost):
    """A curve specification describes a curve that is not strictly convex."""


class NonFinite(PcflowError):
    """A computed quantity is NaN/inf or geometrically degenerate."""


class DegenerateChord(PcflowError):
    """Two-point evaluation requested on a vanishing chord."""


class NotConverged(PcflowError):
    """An iterative solver failed to reach its tolerance."""
