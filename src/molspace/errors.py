"""Exception types shared across the package.

Every error raised by library code derives from MolspaceError so callers can
catch one base class at ingestion boundaries and convert failures into
per-record reject entries instead of aborting a whole run.
"""


class MolspaceError(Exception):
    """Base class for all errors raised by this package.

    ``record_id`` is the id of the record being read when the error was
    raised, once that id is known; reject lines print it.
    """

    record_id: str | None = None


class ParseError(MolspaceError):
    """Input text does not conform to the expected format."""


class UnsupportedElement(ParseError):
    """An atom symbol outside the supported H/C/N/O/F set."""


class UnsupportedBondOrder(ParseError):
    """A bond order other than 1, 2 or 3 (aromatic bond codes included)."""


class InvalidHydrogenCount(ParseError):
    """An explicit per-atom hydrogen count is negative or malformed."""


class InvalidHydrogenTopology(MolspaceError):
    """Explicit hydrogens bonded to each other, absent, or multivalent."""


class InvalidEnvironment(MolspaceError):
    """An atom environment that has no entry in the level-0 code table."""


class InvalidArgument(MolspaceError):
    """An argument outside the documented domain of an operation."""


class TooLarge(MolspaceError):
    """Input exceeds a documented size cap for an exact algorithm."""


class DegenerateWeights(MolspaceError):
    """A weighted average whose weights sum to zero."""


class MissingReference(MolspaceError):
    """A reference energy required for a composition is not provided."""


class MissingProperty(MolspaceError):
    """A record lacks a numeric property required by an operation."""


class DuplicateRecord(MolspaceError):
    """Two records in one table share an id."""


class EmptyDistribution(MolspaceError):
    """A divergence was requested against a distribution with no mass."""


class RankDeficient(MolspaceError):
    """An unregularized least-squares system with singular normal matrix."""


class UnseenFeature(MolspaceError):
    """A feature key absent from a fitted model's coefficient table."""
