"""Exception hierarchy for the specialty approximation pipeline.

Two broad classes matter to callers:

* :class:`CorpusInputError` — the input file or record stream is unusable
  (unreadable file, malformed line, duplicate id).  The command line maps
  these to exit code 2.
* every other :class:`SpecialtyApproxError` — a pipeline-level failure on
  structurally valid input (empty seed, unsatisfiable threshold, ...).
  The command line maps these to exit code 1.
"""

from __future__ import annotations


class SpecialtyApproxError(Exception):
    """Base class for all errors raised by this package."""


class CorpusInputError(SpecialtyApproxError):
    """Base class for errors caused by unusable input data."""


class FileUnreadable(CorpusInputError):
    """The corpus (or config) file could not be opened or decoded."""


class RunMismatch(CorpusInputError):
    """A stored run artifact differs from its re-derivation."""


class SchemaError(CorpusInputError):
    """A corpus line is not a valid publication record.

    Attributes
    ----------
    line_no : int
        1-based line number within the input file.
    reason : str
        Human-readable description of the violation.
    """

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class DuplicatePubId(CorpusInputError):
    """Two records share the same publication id."""

    def __init__(self, pub_id: str):
        self.pub_id = pub_id
        super().__init__(f"duplicate publication id: {pub_id!r}")


class EmptyCategorySet(CorpusInputError):
    """A publication carries no subject categories, so no cell exists."""


class UnknownPubId(SpecialtyApproxError):
    """A referenced publication id does not exist in the corpus."""

    def __init__(self, pub_id: str):
        self.pub_id = pub_id
        super().__init__(f"unknown publication id: {pub_id!r}")


class EmptySeed(SpecialtyApproxError):
    """The seed record contains no publications."""


class EmptyInitialSet(SpecialtyApproxError):
    """No initial publication ids were supplied for the seed."""


class Unsatisfiable(SpecialtyApproxError):
    """All candidate values were selected without reaching the threshold.

    Attributes
    ----------
    field : FieldKind
        The field whose selection failed.
    partial : KeyValueSet
        The exhausted selection (``exhausted=True``), kept so callers can
        inspect how far coverage got.
    """

    def __init__(self, field, partial):
        self.field = field
        self.partial = partial
        super().__init__(
            f"{field.value}: all {len(partial.entries)} candidate values "
            f"selected, coverage {partial.achieved_coverage:.4f} below "
            f"threshold {partial.threshold}"
        )


class EmptyWindow(SpecialtyApproxError):
    """A year window has start > end."""


class EmptyApproximation(SpecialtyApproxError):
    """An operation needs approximation members but none exist."""


class OutOfRange(SpecialtyApproxError):
    """A numeric argument lies outside its documented domain."""


class EmptyRecord(SpecialtyApproxError):
    """A publication record (e.g. a peer's) resolved to no publications."""


class InvalidConfig(SpecialtyApproxError):
    """A configuration object violates its own constraints."""


class LabelMismatch(SpecialtyApproxError):
    """Ground-truth labels do not cover the publications being scored."""
