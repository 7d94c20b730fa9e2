"""Package-level error types."""


class MvmdpError(Exception):
    """Base class for package errors."""


class AugmentationLimitError(MvmdpError):
    """Reachable (state, cumulative-reward) space exceeded the node cap, or
    one stage's moment polygons exceeded the vertex cap."""


class EnumerationLimitError(MvmdpError):
    """A brute-force enumeration would exceed its policy/combination cap."""


class PolicyCoverageError(MvmdpError):
    """A policy rule has no entry for a decision point reachable under it."""


class InputFormatError(MvmdpError):
    """Malformed serialized input (MDP JSON, rational string, CLI argument)."""


class EngineDisagreementError(MvmdpError, AssertionError):
    """Two independent exact engines gave contradictory answers (a bug)."""
