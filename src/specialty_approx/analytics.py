"""Downstream analytics: prominent authors and record/approximation overlap.

Two consumers are served.  Reviewer shortlisting ranks the authors most
present in an approximated specialty (or its key-author selection) while
excluding the focal author, ambiguous homonym identities, and anyone who
co-published with the focal author inside a conflict window.  Peer
comparison measures how much of a second record falls inside the
approximation and how much of the approximation the second record's own
key values cover.  Both coverage questions go to the approximation's row
bitset engine: the members' share per field is a bit count of
:func:`~specialty_approx.approx.covered_rows` over the member rows, and
the share covered in enough fields is read off
:func:`~specialty_approx.approx.region_rows`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .approx import (SpecialtyApproximation, YearWindow, covered_rows,
                     region_rows)
from .corpus import Corpus, normalize_author_key
from .errors import (EmptyApproximation, EmptyRecord, InvalidConfig,
                     OutOfRange)
from .keys import (AuthorScope, FieldKind, KeyValueSet, KeyValueSets,
                   homonyms_among, in_scope_authors)
from .seed import SeedRecord


class RankingSource(Enum):
    """What population a ranking was computed from."""

    FROM_KEY_AUTHORS = "from_key_authors"
    FROM_APPROXIMATION = "from_approximation"


class ExclusionReason(Enum):
    FOCAL = "focal"
    HOMONYM = "homonym"
    CO_AUTHOR_CONFLICT = "co_author_conflict"


@dataclass(frozen=True)
class RankedAuthor:
    author_key: str
    publication_count: int


@dataclass(frozen=True)
class ExcludedAuthor:
    author_key: str
    reason: ExclusionReason
    publication_count: int


@dataclass(frozen=True)
class AuthorRanking:
    """Ranked authors plus everything that was removed and why.

    ``entries`` plus ``excluded`` partition the raw candidate table, so
    no count silently disappears.
    """

    source: RankingSource
    entries: tuple[RankedAuthor, ...]
    excluded: tuple[ExcludedAuthor, ...]
    warnings: tuple[str, ...] = ()

    def top(self, n: int) -> tuple[RankedAuthor, ...]:
        return self.entries[:n]


def conflicted_author_keys(
    corpus: Corpus,
    focal_key: str,
    window: YearWindow,
) -> frozenset[str]:
    """Everyone who co-published with the focal author inside the window.

    Co-publication means appearing together on any corpus publication
    (full author lists, regardless of reprint scope) whose year falls in
    the window.  The focal author is not their own conflict.
    """
    conflicted: set[str] = set()
    for row in corpus.by_author_key.rows.get(focal_key, ()):
        if corpus.year[row] in window:
            conflicted.update(corpus.author.values_of(row))
    conflicted.discard(focal_key)
    return frozenset(conflicted)


def _table_from_approximation(
    approximation: SpecialtyApproximation,
    corpus: Corpus,
    scope: AuthorScope,
) -> tuple[dict[str, int], frozenset[str]]:
    """Candidate counts over member publications, plus homonym surnames;
    counted over the corpus's author forward index."""
    authors, _ = in_scope_authors(corpus, scope)
    keys = authors.values
    table = {keys[author]: n for author, n in authors.count(
        corpus.rows_of(approximation.member_ids)).items()}
    return table, homonyms_among(table)


def rank_authors(
    source: SpecialtyApproximation | KeyValueSet,
    corpus: Corpus,
    focal: str | None = None,
    conflict_window: YearWindow | None = None,
    scope: AuthorScope = AuthorScope.ALL_AUTHORS,
) -> AuthorRanking:
    """Rank authors by absolute publication count, minus exclusions.

    Parameters
    ----------
    source
        Either a :class:`SpecialtyApproximation` (authors counted over
        member publications under ``scope``) or an author-field
        :class:`KeyValueSet` (selection frequencies reused as counts;
        homonyms were already barred from candidacy there).
    focal
        Author key (or raw ``"surname initial"`` string) whose own entry
        and conflicts are excluded.  A focal author absent from the
        corpus yields a warning and no conflict exclusions.
    conflict_window
        Years over which co-publication with the focal author
        disqualifies a candidate.  Ignored without ``focal``.
    scope
        Author scope for counting; only used with an approximation
        source.

    Exclusion precedence: focal, then homonym, then conflict; each
    removed key is reported once with its candidate count.
    """
    warnings: list[str] = []
    if isinstance(source, SpecialtyApproximation):
        if not source.member_ids:
            raise EmptyApproximation("cannot rank authors of an empty approximation")
        kind = RankingSource.FROM_APPROXIMATION
        table, homonyms = _table_from_approximation(source, corpus, scope)
    elif isinstance(source, KeyValueSet):
        if source.field is not FieldKind.AUTHOR:
            raise InvalidConfig(
                f"ranking needs the author key-value set, got {source.field.value}"
            )
        kind = RankingSource.FROM_KEY_AUTHORS
        table = {e.value: e.frequency for e in source.entries}
        homonyms = frozenset()
    else:
        raise InvalidConfig(
            "source must be a SpecialtyApproximation or an author KeyValueSet"
        )

    focal_key: str | None = None
    conflicted: frozenset[str] = frozenset()
    if focal is not None:
        focal_key = normalize_author_key(focal)
        if focal_key not in corpus.by_author_key:
            warnings.append(
                f"focal author {focal_key!r} not found in corpus; "
                f"no conflict exclusions derived"
            )
        elif conflict_window is not None:
            conflicted = conflicted_author_keys(corpus, focal_key,
                                                conflict_window)

    excluded: list[ExcludedAuthor] = []
    kept: list[RankedAuthor] = []
    for key in sorted(table):
        count = table[key]
        if key == focal_key:
            excluded.append(ExcludedAuthor(key, ExclusionReason.FOCAL, count))
        elif key.rpartition(" ")[0] in homonyms:
            excluded.append(ExcludedAuthor(key, ExclusionReason.HOMONYM, count))
        elif key in conflicted:
            excluded.append(
                ExcludedAuthor(key, ExclusionReason.CO_AUTHOR_CONFLICT, count)
            )
        else:
            kept.append(RankedAuthor(key, count))

    kept.sort(key=lambda r: (-r.publication_count, r.author_key))
    return AuthorRanking(
        source=kind,
        entries=tuple(kept),
        excluded=tuple(excluded),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class MutualCoverage:
    """Two-way overlap between a peer record and an approximation.

    ``share_in_approximation``: fraction of the peer's publications that
    are approximation members.  ``key_coverage_of_approximation``: per
    field, the fraction of approximation members the peer's own key
    values cover.
    """

    subject_id: str
    share_in_approximation: float
    key_coverage_of_approximation: Mapping[FieldKind, float]


def _record_ids(record: SeedRecord | Iterable[str]) -> frozenset[str]:
    if isinstance(record, SeedRecord):
        return record.all_ids
    return frozenset(record)


def mutual_coverage(
    subject_id: str,
    subject_record: SeedRecord | Iterable[str],
    subject_keys: KeyValueSets,
    approximation: SpecialtyApproximation,
    corpus: Corpus,
) -> MutualCoverage:
    """Measure how a peer's record and the approximation cover each other."""
    ids = _record_ids(subject_record)
    if not ids:
        raise EmptyRecord(f"record of {subject_id!r} is empty")
    if not approximation.member_ids:
        raise EmptyApproximation("approximation has no members")

    share = len(ids & approximation.member_set) / len(ids)

    members = approximation.member_rows
    return MutualCoverage(
        subject_id=subject_id,
        share_in_approximation=share,
        key_coverage_of_approximation={
            field: (members & bits).bit_count() / len(approximation.member_ids)
            for field, bits in covered_rows(corpus, subject_keys).items()
        },
    )


def coverage_of_record_by_keys(
    record: SeedRecord | Iterable[str],
    keys: KeyValueSets,
    min_fields: int,
    corpus: Corpus,
) -> float:
    """Fraction of a record covered in >= ``min_fields`` fields by ``keys``.

    Every record id must resolve in the corpus (:class:`UnknownPubId`
    otherwise).  Non-increasing in ``min_fields``; with a window-spanning
    record this equals its share inside the corresponding approximation.
    """
    if not 1 <= min_fields <= 4:
        raise OutOfRange(f"min_fields must lie in 1..4, got {min_fields}")
    ids = _record_ids(record)
    if not ids:
        raise EmptyRecord("record is empty")
    regions = region_rows(corpus, keys, corpus.bitset(ids))
    hit = sum(bits.bit_count() for flags, bits in regions.items()
              if sum(flags) >= min_fields)
    return hit / len(ids)


RANKING_CSV_COLUMNS = ("rank", "author_key", "publication_count")


def write_rankings_csv(
    ranking: AuthorRanking,
    path,
    top: int | None = None,
) -> None:
    """Write ranked authors as CSV (1-based rank; optional top-N cut)."""
    entries = ranking.entries if top is None else ranking.top(top)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RANKING_CSV_COLUMNS)
        for rank, entry in enumerate(entries, start=1):
            writer.writerow([rank, entry.author_key, entry.publication_count])
