"""Key-value selection: per-field frequency-greedy coverage of a seed.

For each of the four fields (cell, title word, author, reference) the
seed's values are ranked by how many seed publications carry them, then
admitted from the top until the selected values cover a threshold share
of the seed.  Ties are whole batches: every value with the current
frequency joins at once, so the outcome never depends on input order.

A publication counts as covered by a field's selection when

* cell: its cell is selected;
* title word: at least ``required_title_words`` of its (length-filtered)
  title words are selected;
* author: any of its in-scope author keys is selected;
* reference: any of its references is selected.

:data:`FIELD_SPECS` is the one place a field is defined; every layer
loops over it.  Each :class:`FieldSpec` names the corpus column or
forward index holding the field and the test a config puts on its
candidate values, and :meth:`FieldSpec.count` counts a seed over those
two.  :func:`in_scope_authors` alone maps an author scope to the author
forward index and postings, and refuses an unresolved ``AUTO``.  All
four selections of :func:`compute_all_keys` share one resolved seed.
"""

from __future__ import annotations

import csv
import dataclasses
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import (Callable, Collection, Iterable, Iterator, Mapping,
                    Sequence)

from .corpus import (Column, Corpus, ForwardIndex, Postings, Publication,
                     bitset_of_rows, is_doi_like, rows_in)
from .errors import EmptySeed, InvalidConfig, Unsatisfiable
from .seed import SeedRecord


class FieldKind(Enum):
    """The four publication fields key values are drawn from."""

    CELL = "cell"
    TITLE_WORD = "title_word"
    AUTHOR = "author"
    REFERENCE = "reference"


class AuthorScope(Enum):
    """Which author occurrences of a publication are in scope.

    AUTO resolves per seed: reprint-corresponding authors only when at
    least ``REPRINT_AUTO_MIN_SHARE`` of seed publications carry reprint
    data, all authors otherwise.
    """

    AUTO = "auto"
    ALL_AUTHORS = "all_authors"
    REPRINT_ONLY = "reprint_only"


REPRINT_AUTO_MIN_SHARE = 0.9


@dataclass(frozen=True)
class FieldSpec:
    """One field: its :class:`KeyValueSets` and :class:`KeysConfig`
    threshold attributes, the corpus :class:`Column` or
    :class:`ForwardIndex` holding it (``forward``) and the postings its
    values are in (``index``), both under a resolved author scope, the
    test a config puts on candidate values (``keep``, ``None`` for none),
    and the selected values a publication needs to be covered.
    """

    attr: str
    threshold: str
    forward: Callable[[Corpus, AuthorScope], Column | ForwardIndex]
    index: Callable[[Corpus, AuthorScope], Postings]
    keep: Callable[["KeysConfig"], Callable[[str], bool] | None] = \
        lambda config: None
    required: Callable[["KeysConfig"], int] = lambda config: 1

    def count(self, corpus: Corpus, rows: Iterable[int],
              config: "KeysConfig") -> Mapping[int, int]:
        """Value id -> number of ``rows`` holding the value, over the
        values ``keep`` admits, as ids into the ``forward`` table.  Each
        distinct value is tested once, after counting."""
        forward = self.forward(corpus, config.author_scope)
        counts = forward.count(rows)
        keep = self.keep(config)
        if keep is None:
            return counts
        table = forward.values
        return {value: n for value, n in counts.items() if keep(table[value])}


def in_scope_authors(corpus: Corpus,
                     scope: AuthorScope) -> tuple[ForwardIndex, Postings]:
    """The forward index and the postings of the author occurrences
    ``scope`` considers; an unresolved ``AUTO`` raises."""
    if scope is AuthorScope.ALL_AUTHORS:
        return corpus.author, corpus.by_author_key
    if scope is AuthorScope.REPRINT_ONLY:
        return corpus.reprint_author, corpus.by_reprint_author_key
    raise InvalidConfig("author scope AUTO is unresolved; resolve per seed first")


# in canonical field order: cell, title word, author, reference
FIELD_SPECS: Mapping[FieldKind, FieldSpec] = MappingProxyType({
    FieldKind.CELL: FieldSpec(
        "cells", "threshold_cell",
        forward=lambda corpus, scope: corpus.cell,
        index=lambda corpus, scope: corpus.by_cell),
    FieldKind.TITLE_WORD: FieldSpec(
        "title_words", "threshold_title",
        forward=lambda corpus, scope: corpus.title_word,
        index=lambda corpus, scope: corpus.by_title_word,
        # a title is a set of words: dropping the short ones after
        # counting changes no kept count
        keep=lambda config: (None if config.min_word_len == 1 else
                             lambda word: len(word) >= config.min_word_len),
        required=lambda config: config.required_title_words),
    FieldKind.AUTHOR: FieldSpec(
        "authors", "threshold_author",
        forward=lambda corpus, scope: in_scope_authors(corpus, scope)[0],
        index=lambda corpus, scope: in_scope_authors(corpus, scope)[1]),
    FieldKind.REFERENCE: FieldSpec(
        "references", "threshold_reference",
        forward=lambda corpus, scope: corpus.reference,
        index=lambda corpus, scope: corpus.by_reference,
        keep=lambda config: is_doi_like if config.doi_only_references else None),
})
FIELD_ORDER: tuple[FieldKind, ...] = tuple(FIELD_SPECS)


@dataclass(frozen=True)
class KeysConfig:
    """All knobs of the key-value selection phase.

    Thresholds are per-field shares of seed publications in (0, 1];
    each field is independently configurable.
    """

    threshold_cell: float = 0.8
    threshold_title: float = 0.8
    threshold_author: float = 0.8
    threshold_reference: float = 0.8
    min_word_len: int = 5
    required_title_words: int = 2
    author_scope: AuthorScope = AuthorScope.AUTO
    doi_only_references: bool = False

    def __post_init__(self):
        for name in [spec.threshold for spec in FIELD_SPECS.values()]:
            t = getattr(self, name)
            if (isinstance(t, bool) or not isinstance(t, (int, float))
                    or not 0 < t <= 1):
                raise InvalidConfig(f"{name} must lie in (0, 1], got {t!r}")
        for name in ("min_word_len", "required_title_words"):
            n = getattr(self, name)
            if type(n) is not int or n < 1:
                raise InvalidConfig(f"{name} must be an int >= 1, got {n!r}")
        for name, kind in (("author_scope", AuthorScope),
                           ("doi_only_references", bool)):
            if not isinstance(getattr(self, name), kind):
                raise InvalidConfig(f"{name} must be a {kind.__name__}, "
                                    f"got {getattr(self, name)!r}")

    def threshold_for(self, field: FieldKind) -> float:
        return getattr(self, FIELD_SPECS[field].threshold)

    def resolved_for_seed(self, pubs: Sequence[Publication]) -> "KeysConfig":
        """Pin AUTO author scope for a concrete seed (no-op otherwise)."""
        return self._resolved(len(pubs), sum(
            1 for p in pubs if p.reprint_author_key is not None))

    def _resolved(self, n: int, with_reprint: int) -> "KeysConfig":
        """:meth:`resolved_for_seed` for a seed of ``n`` publications,
        ``with_reprint`` of which carry reprint data."""
        if self.author_scope is not AuthorScope.AUTO:
            return self
        if not n:
            raise EmptySeed("cannot resolve author scope on an empty seed")
        scope = (AuthorScope.REPRINT_ONLY
                 if with_reprint / n >= REPRINT_AUTO_MIN_SHARE
                 else AuthorScope.ALL_AUTHORS)
        return dataclasses.replace(self, author_scope=scope)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["author_scope"] = self.author_scope.value
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "KeysConfig":
        try:
            kwargs = dict(data)
            if "author_scope" in kwargs:
                kwargs["author_scope"] = AuthorScope(kwargs["author_scope"])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(str(exc)) from exc


def homonyms_among(author_keys: Iterable[str]) -> frozenset[str]:
    """The surnames that two or more of the distinct ``author_keys``
    carry: ambiguous identities, whose keys lose key-author candidacy."""
    per_surname = Counter(key.rpartition(" ")[0] for key in author_keys)
    return frozenset(s for s, n in per_surname.items() if n > 1)


def _resolve_seed(
    corpus: Corpus, seed_ids: frozenset[str], config: KeysConfig | None
) -> tuple[list[int], KeysConfig]:
    """The seed's rows, ascending (so in id order), and the config
    resolved for them."""
    rows = sorted(corpus.rows_of(seed_ids))
    if not rows:
        raise EmptySeed("seed record is empty")
    reprint = corpus.reprint
    return rows, (config or KeysConfig())._resolved(
        len(rows), sum(reprint[row] >= 0 for row in rows))


def field_frequencies(
    corpus: Corpus,
    seed: SeedRecord,
    field: FieldKind,
    config: KeysConfig | None = None,
) -> dict[str, int]:
    """Raw frequency table: value -> number of seed publications carrying it.

    Counts every distinct value including homonym author keys; homonym
    exclusion is a candidacy rule of :func:`select_key_values`, not a
    counting rule.
    """
    rows, config = _resolve_seed(corpus, seed.all_ids, config)
    spec = FIELD_SPECS[field]
    table = spec.forward(corpus, config.author_scope).values
    return {table[value]: n
            for value, n in spec.count(corpus, rows, config).items()}


@dataclass(frozen=True)
class KeyValueEntry:
    """One selected key value with its rank context.

    ``cumulative_coverage`` is the share of seed publications covered by
    the selection up to and including this value, in admission order.
    """

    value: str
    frequency: int
    cumulative_coverage: float


@dataclass(frozen=True)
class KeyValueSet:
    """The selected key values of one field.

    Entries are ordered by (frequency desc, value asc) with no
    duplicates.  ``exhausted`` marks a selection that ran out of
    candidates below threshold; such sets only travel inside
    :class:`Unsatisfiable`.
    """

    field: FieldKind
    entries: tuple[KeyValueEntry, ...]
    threshold: float
    achieved_coverage: float
    n_unique_values: int
    n_eligible_values: int
    n_excluded_homonyms: int = 0
    descended_to_frequency_one: bool = False
    exhausted: bool = False

    @property
    def values(self) -> tuple[str, ...]:
        return tuple(e.value for e in self.entries)

    @cached_property
    def selected(self) -> frozenset[str]:
        """Built once: coverage checks ask for it once per publication."""
        return frozenset(e.value for e in self.entries)

    @property
    def key_share_of_unique(self) -> float:
        """Selected values as a share of all distinct candidate values."""
        if self.n_unique_values == 0:
            return 0.0
        return len(self.entries) / self.n_unique_values

    def __len__(self) -> int:
        return len(self.entries)


def select_key_values(
    corpus: Corpus,
    seed: SeedRecord,
    field: FieldKind,
    config: KeysConfig | None = None,
) -> KeyValueSet:
    """Select one field's key values by batch-greedy frequency descent.

    Candidate values are ranked by seed frequency; equal-frequency values
    form one batch, admitted whole (value id ascending within the batch).
    Selection stops at the first batch after which the covered share of
    seed publications reaches the field's threshold.  If every candidate
    is admitted and the threshold is still not met, :class:`Unsatisfiable`
    is raised carrying the exhausted partial set.
    """
    rows, config = _resolve_seed(corpus, seed.all_ids, config)
    return _select(corpus, rows, config, field)


def _select(
    corpus: Corpus,
    rows: Sequence[int],
    config: KeysConfig,
    field: FieldKind,
) -> KeyValueSet:
    """:func:`select_key_values` on a resolved seed's rows and config.

    The values are counted in one pass and grouped into frequency
    batches; only an admitted value's seed rows are looked up, as its
    corpus posting within the seed, and credited a whole set at a time:
    a sparse posting's row array is intersected with the seed's rows, a
    dense posting's bitset with the seed's bitset.
    """
    spec = FIELD_SPECS[field]
    threshold = config.threshold_for(field)
    required = spec.required(config)
    counts = spec.count(corpus, rows, config)
    table = spec.forward(corpus, config.author_scope).values

    eligible: Collection[int] = counts
    if field is FieldKind.AUTHOR:
        homonyms = homonyms_among(map(table.__getitem__, counts))
        if homonyms:
            eligible = [key for key in counts
                        if table[key].rpartition(" ")[0] not in homonyms]
    batches: dict[int, list[int]] = defaultdict(list)
    for value in eligible:
        batches[counts[value]].append(value)

    index = spec.index(corpus, config.author_scope)
    n_rows = len(corpus)
    seed_rows = set(rows)
    seed_bits = bitset_of_rows(rows, n_rows) if index.bits else 0
    n = len(rows)
    # levels[j]: the seed rows more than j admitted values hit, below
    # required; none when fewer values are eligible than required.  They
    # are row bitsets while only dense values are admitted, and sets of
    # rows from the first sparse value on.
    levels: list = [0] * required if required <= len(eligible) else []
    covered = 0
    entries: list[KeyValueEntry] = []
    reached = False
    # frequencies descending, values ascending within a tie batch
    for freq in sorted(batches, reverse=True):
        for value in sorted(map(table.__getitem__, batches[freq])):
            if levels:
                bits = index.bits.get(value)
                if bits is not None and type(levels[0]) is int:
                    hits = bits & seed_bits
                else:
                    if type(levels[0]) is int:
                        levels = [set(rows_in(level, n_rows))
                                  for level in levels]
                    hits = (seed_rows.intersection(index.rows[value])
                            if bits is None
                            else set(rows_in(bits & seed_bits, n_rows)))
                for j in range(len(levels) - 1, 0, -1):
                    levels[j] |= levels[j - 1] & hits
                levels[0] |= hits
                top = levels[-1]
                covered = len(top) if type(top) is set else top.bit_count()
            entries.append(KeyValueEntry(value, freq, covered / n))
        if covered / n >= threshold:
            reached = True
            break

    result = KeyValueSet(
        field=field,
        entries=tuple(entries),
        threshold=threshold,
        achieved_coverage=covered / n,
        n_unique_values=len(counts),
        n_eligible_values=len(eligible),
        n_excluded_homonyms=len(counts) - len(eligible),
        descended_to_frequency_one=bool(entries) and entries[-1].frequency == 1,
        exhausted=not reached,
    )
    if not reached:
        raise Unsatisfiable(field, result)
    return result


@dataclass(frozen=True)
class KeyValueSets:
    """The four per-field selections plus the resolved config they used.

    ``corpus`` is the corpus the values were selected on, or ``None`` for
    sets made by hand; :func:`~specialty_approx.approx.covered_rows`
    keeps its result on that corpus in ``covered_rows``.
    """

    cells: KeyValueSet
    title_words: KeyValueSet
    authors: KeyValueSet
    references: KeyValueSet
    config: KeysConfig
    corpus: Corpus | None = dataclasses.field(
        default=None, repr=False, compare=False)
    covered_rows: dict[FieldKind, int] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    def per_field(self, field: FieldKind) -> KeyValueSet:
        return getattr(self, FIELD_SPECS[field].attr)

    def __iter__(self) -> Iterator[KeyValueSet]:
        """The selections in canonical field order."""
        return (getattr(self, spec.attr) for spec in FIELD_SPECS.values())

    def warnings(self) -> list[str]:
        out = []
        for kvs in self:
            if kvs.descended_to_frequency_one:
                out.append(
                    f"{kvs.field.value}: selection descended to frequency-1 "
                    f"values ({len(kvs)} of {kvs.n_eligible_values} "
                    f"candidates selected)"
                )
        if self.authors.n_excluded_homonyms:
            out.append(
                f"author: {self.authors.n_excluded_homonyms} homonym key(s) "
                f"excluded from candidacy"
            )
        return out


def compute_all_keys(
    corpus: Corpus,
    seed: SeedRecord,
    config: KeysConfig | None = None,
) -> KeyValueSets:
    """Run selection for all four fields under one resolved config.

    The AUTO author scope is resolved once against the seed, and the
    returned bundle records the resolved config so every later coverage
    check uses the same scope.  The first field failing its threshold
    raises :class:`Unsatisfiable` (fields run in the canonical order
    cell, title word, author, reference).
    """
    rows, config = _resolve_seed(corpus, seed.all_ids, config)
    return KeyValueSets(config=config, corpus=corpus, **{
        spec.attr: _select(corpus, rows, config, field)
        for field, spec in FIELD_SPECS.items()
    })


KEY_CSV_COLUMNS = ("field", "rank", "value", "frequency", "cumulative_coverage")


def write_key_values_csv(keys: KeyValueSets, path: str | Path) -> None:
    """Write all selected key values as CSV (one row per value).

    Rows appear in canonical field order, then selection order; ``rank``
    is 1-based within each field.  Output is byte-deterministic for a
    given selection.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(KEY_CSV_COLUMNS)
        for kvs in keys:
            for rank, entry in enumerate(kvs.entries, start=1):
                writer.writerow([
                    kvs.field.value, rank, entry.value, entry.frequency,
                    repr(entry.cumulative_coverage),
                ])
