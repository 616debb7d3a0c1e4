"""Exception hierarchy for the knowledge-base engine."""


def naming_key(value, kind=str):
    """Order of the values an error may name: type ``kind`` first, the rest by repr."""
    return (0, value) if isinstance(value, kind) else (1, repr(value))


class KbError(Exception):
    """Base class for every error raised by this package."""


class ZeroEvidence(KbError):
    """An assertion has no weighted evidence mass at all."""


class EmptyMatrix(KbError):
    """A presence matrix with no true cell cannot be resolved."""


class OutOfRange(KbError):
    """A level, ordinal or priority lies outside its legal range."""


class DuplicateFact(KbError):
    """Two facts share an id or an attribute/value pair."""


class OrderTooLarge(KbError):
    """Materializing 2**n nodes was refused because n exceeds the cap."""


class UnknownFact(KbError):
    """A fact id does not exist in the lattice."""


class UnknownDisease(KbError):
    """A disease id is not known to the knowledge base."""


class IllegalConditionEdit(KbError):
    """Condition parts may only be edited on single-fact nodes."""


class AlreadyPresent(KbError):
    """Incremental add for a label that is already tracked."""


class NotPresent(KbError):
    """Incremental removal/transition for an untracked label."""


class InvalidTransition(KbError):
    """A truth-value transition must actually change the value."""


class EmptyMintermSet(KbError):
    """Nothing to minimize."""


class DanglingLabel(KbError):
    """A rule references a lattice node that does not resolve."""


class ParseError(KbError):
    """Base for evidence/knowledge-base text format errors.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None
                         else "line %d: %s" % (line, message))
        self.line = line


class SyntaxError(ParseError):  # noqa: A001 - deliberate API name
    """Malformed line in an evidence document."""


class UnknownFactRef(ParseError):
    """An evidence record references an undeclared fact."""


class LevelOutOfRange(ParseError):
    """An evidence record uses a level outside 1..q."""


class VersionMismatch(KbError):
    """Serialized knowledge base written by an incompatible version."""


class CorruptRecord(ParseError):
    """Serialized knowledge base is truncated or malformed."""
