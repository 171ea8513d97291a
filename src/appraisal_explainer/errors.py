"""Exception taxonomy for the engine.

``InputError`` subclasses signal bad inputs or configuration and map to CLI
exit code 2; all other ``EngineError`` subclasses are pipeline failures and
map to exit code 1.
"""


class EngineError(Exception):
    """Base class for all engine failures."""


class InputError(EngineError):
    """Invalid input data or configuration."""


class ConfigError(InputError):
    """Malformed or out-of-range configuration."""


class EmptyQuery(InputError):
    """Query text is empty after trimming."""


class DuplicateCandidate(InputError):
    """A candidate id appears more than once in a candidate set."""


class ScorerUnavailable(EngineError):
    """The remote entailment scorer could not be reached."""


class ProtocolError(ScorerUnavailable):
    """The remote entailment scorer returned a malformed response."""


class NoCandidates(EngineError):
    """Ranking was requested for an empty candidate set."""


class NothingToExplain(EngineError):
    """Explanation was requested but the ranked list has no entries."""


class RealizerUnavailable(EngineError):
    """The remote chat realizer could not be reached."""


class EmptyCompletion(RealizerUnavailable):
    """The remote chat realizer returned an empty completion."""
