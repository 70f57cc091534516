"""Seed record assembly: initial publications plus one-hop extension.

The seed is the publication record whose specialty gets approximated.
Extension follows each seed publication's references one hop into the
corpus; references that resolve to corpus publications join the seed,
the rest are counted as unresolved (they still matter later as
reference-key candidates).  Citing publications are never pulled in:
extension walks the reference direction only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .corpus import Corpus
from .errors import EmptyInitialSet


class Provenance(Enum):
    """How a publication entered the seed."""

    INITIAL = "initial"
    ADDED_VIA_REFERENCE = "added_via_reference"


@dataclass(frozen=True)
class SeedRecord:
    """The resolved seed: initial ids, extension additions, provenance.

    ``unresolved_references`` holds the distinct reference strings of
    initial publications that matched no corpus id (reported, never
    silently dropped).
    """

    initial_ids: frozenset[str]
    extended_ids: frozenset[str]
    unresolved_references: frozenset[str]

    def __post_init__(self):
        if self.initial_ids & self.extended_ids:
            raise ValueError("extension additions overlap the initial set")

    @property
    def all_ids(self) -> frozenset[str]:
        return self.initial_ids | self.extended_ids

    @property
    def provenance(self) -> Mapping[str, Provenance]:
        out = {pid: Provenance.INITIAL for pid in self.initial_ids}
        out.update(
            (pid, Provenance.ADDED_VIA_REFERENCE) for pid in self.extended_ids
        )
        return out

    @property
    def unresolved_reference_count(self) -> int:
        return len(self.unresolved_references)

    def __len__(self) -> int:
        return len(self.initial_ids) + len(self.extended_ids)

    def __contains__(self, pub_id: str) -> bool:
        return pub_id in self.initial_ids or pub_id in self.extended_ids


def build_seed_record(
    corpus: Corpus,
    initial_ids: Iterable[str],
    extend: bool = True,
) -> SeedRecord:
    """Resolve initial ids and optionally extend one hop via references.

    Parameters
    ----------
    corpus
        Resolution target for ids and references.
    initial_ids
        The publications whose specialty is wanted.  Every id must exist
        in the corpus (:class:`UnknownPubId` otherwise); an empty set
        raises :class:`EmptyInitialSet`.
    extend
        When true (default), each initial publication's references are
        resolved against the corpus and the hits join the seed.  The hop
        is taken exactly once: references of added publications are not
        followed.
    """
    initial = frozenset(initial_ids)
    if not initial:
        raise EmptyInitialSet("no initial publication ids supplied")
    rows = corpus.rows_of(initial)

    added: set[str] = set()
    unresolved: set[str] = set()
    if extend:
        for row in rows:
            for ref in corpus.reference.values_of(row):
                if ref not in corpus:
                    unresolved.add(ref)
                elif ref not in initial:
                    added.add(ref)

    return SeedRecord(
        initial_ids=initial,
        extended_ids=frozenset(added),
        unresolved_references=frozenset(unresolved),
    )


SEED_CSV_COLUMNS = ("pub_id", "provenance")


def write_seed_csv(seed: SeedRecord, path) -> None:
    """Write the seed as CSV, one row per publication, sorted by id."""
    provenance = seed.provenance
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SEED_CSV_COLUMNS)
        for pid in sorted(seed.all_ids):
            writer.writerow([pid, provenance[pid].value])
