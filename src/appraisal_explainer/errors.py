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


class InvalidScore(EngineError):
    """A raw salience score is negative or non-finite."""


class ScorerUnavailable(EngineError):
    """The remote entailment scorer could not be reached."""


class ProtocolError(EngineError):
    """The remote entailment scorer returned a malformed response."""


class IncompleteVector(EngineError):
    """An appraisal vector or salience profile does not cover all six dimensions."""


class NoCandidates(EngineError):
    """Ranking was requested for an empty candidate set."""


class NothingToExplain(EngineError):
    """Explanation was requested but the ranked list has no entries."""


class InvalidPromptRequest(EngineError):
    """Prompt mode and payload do not match."""


class RealizerUnavailable(EngineError):
    """The remote chat realizer could not be reached."""


class EmptyCompletion(EngineError):
    """The remote chat realizer returned an empty completion."""
