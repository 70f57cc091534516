"""Specialty approximation: combine per-field coverage over a year window.

Phase three of the pipeline.  Every corpus publication inside the year
window has a four-flag coverage profile (one flag per field, true when
the field's key values cover the publication); those covered in at least
``min_fields`` fields form the specialty approximation.

One engine answers every coverage question in row bitsets (see
:mod:`specialty_approx.corpus`).  :func:`covered_rows` gives the rows
each field's key values cover: the bitsets of dense postings fold into
hit levels with ``&`` and ``|``, and sparse postings are counted in one
byte per row.  :func:`region_rows` splits a batch of candidate rows into
its 16 flag regions with ``&``, so the histogram and the subset sizes
are bit counts and the members are the set rows of whole regions, read
in row order and so already sorted; the approximation, the seed
histogram and the analytics all ask it.  :func:`coverage_profile`
states the same rules once more, on one publication's own fields: it is
the one per-publication copy of them, the reference the engine must
match.

Under per-field coverage ``t`` and independence, the chance a seed-like
publication lands in a >=3-of-4 approximation is
``4 t^3 (1 - t) + t^4`` (three fields exactly, or all four), exposed as
:func:`expected_inclusion_probability`.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from operator import and_, or_
from typing import Mapping, Sequence

from .corpus import (Corpus, Postings, bitset_from_digits, ids_of_rows,
                     tokenize_title)
from .errors import (EmptyApproximation, EmptyWindow, InvalidConfig,
                     OutOfRange)
from .keys import (FIELD_ORDER, FIELD_SPECS, AuthorScope, FieldKind,
                   KeyValueSets, in_scope_authors)
from .seed import SeedRecord


def expected_inclusion_probability(t):
    """Probability of coverage in >= 3 of 4 fields, per-field share ``t``.

    Pure arithmetic (no floats introduced), so exact ``Fraction`` inputs
    give exact results: t = 4/5 yields 512/625 = 0.8192.  Raises
    :class:`OutOfRange` unless 0 <= t <= 1.
    """
    if t < 0 or t > 1:
        raise OutOfRange(f"per-field share must lie in [0, 1], got {t!r}")
    return 4 * t**3 * (1 - t) + t**4


def expected_inclusion_rate(shares, min_fields: int = 3):
    """P(covered in >= ``min_fields`` fields) for independent field shares.

    Generalizes :func:`expected_inclusion_probability` to per-field
    shares and any member rule; with four equal shares and
    ``min_fields=3`` the two agree.
    """
    shares = tuple(shares)
    if not 1 <= min_fields <= len(shares):
        raise OutOfRange(
            f"min_fields must lie in 1..{len(shares)}, got {min_fields}"
        )
    for s in shares:
        if s < 0 or s > 1:
            raise OutOfRange(f"per-field share must lie in [0, 1], got {s!r}")
    total = 0
    for combo in product((False, True), repeat=len(shares)):
        if sum(combo) < min_fields:
            continue
        term = 1
        for s, hit in zip(shares, combo):
            term = term * (s if hit else (1 - s))
        total = total + term
    return total


@dataclass(frozen=True, order=True)
class YearWindow:
    """An inclusive publication-year window."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise EmptyWindow(f"window start {self.start} > end {self.end}")

    def years(self) -> range:
        return range(self.start, self.end + 1)

    def __contains__(self, year: int) -> bool:
        return self.start <= year <= self.end

    def __str__(self) -> str:
        return f"{self.start}:{self.end}"

    @classmethod
    def parse(cls, text: str) -> "YearWindow":
        """Parse ``"START:END"`` (or a single year meaning START=END)."""
        raw = text.strip()
        try:
            if ":" in raw:
                start_s, end_s = raw.split(":", 1)
                return cls(int(start_s), int(end_s))
            year = int(raw)
            return cls(year, year)
        except ValueError as exc:
            raise InvalidConfig(f"not a year window: {text!r}") from exc


# each of the 16 flag tuples once: profiles share them
_FLAG_TUPLES = {f: f for f in product((False, True), repeat=len(FIELD_ORDER))}


@dataclass(frozen=True)
class CoverageProfile:
    """Which fields' key values cover one publication, in field order."""

    pub_id: str
    flags: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "flags", _FLAG_TUPLES[tuple(self.flags)])

    @property
    def count(self) -> int:
        return sum(self.flags)

    @property
    def mask(self) -> str:
        """Four-character bitmask in canonical field order, e.g. "1011"."""
        return _mask(self.flags)


def coverage_profile(pub, keys: KeyValueSets) -> CoverageProfile:
    """Evaluate all four coverage rules for one publication, on its own
    fields: the one per-publication statement of the rules, and the
    reference that :func:`covered_rows` must match."""
    config = keys.config
    scope = config.author_scope
    if scope is AuthorScope.AUTO:
        raise InvalidConfig("coverage needs a resolved author scope")
    words = tokenize_title(pub.title, config.min_word_len)
    authors = (pub.author_keys if scope is AuthorScope.ALL_AUTHORS
               else {pub.reprint_author_key} - {None})
    refs = (pub.doi_references if config.doi_only_references
            else pub.references)
    return CoverageProfile(pub.pub_id, (
        pub.cell.key in keys.cells.selected,
        len(words & keys.title_words.selected) >= config.required_title_words,
        not authors.isdisjoint(keys.authors.selected),
        not refs.isdisjoint(keys.references.selected)))


def _mask(flags: tuple[bool, ...]) -> str:
    return "".join("1" if f else "0" for f in flags)


@dataclass(frozen=True)
class SpecialtyApproximation:
    """The approximated specialty over one year window.

    ``histogram`` counts every in-window publication by covered-field
    count (bins 0..4 always present); ``subset_sizes`` counts them by
    exact flag combination (all 16 masks present).  ``member_rows`` is
    the members' row bitset over ``row_ids``, the rows of the corpus the
    approximation was built on, and ``member_regions`` splits it by flag
    tuple.  ``member_flags`` (each member's flag tuple) and ``profiles``
    (the members' coverage profiles) are decoded from those on first
    read.
    """

    member_ids: tuple[str, ...]
    window: YearWindow
    min_fields: int
    n_in_window: int
    histogram: Mapping[int, int]
    subset_sizes: Mapping[str, int]
    # no repr: past about 14k rows a bitset's decimal digits pass
    # Python's int-to-str limit
    member_rows: int = dataclasses.field(repr=False)
    member_regions: Mapping[tuple[bool, ...], int] = dataclasses.field(
        repr=False)
    # the corpus's own tuple, not a copy
    row_ids: tuple[str, ...] = dataclasses.field(repr=False, compare=False)

    @cached_property
    def member_set(self) -> frozenset[str]:
        return frozenset(self.member_ids)

    @cached_property
    def member_flags(self) -> Mapping[str, tuple[bool, ...]]:
        """Each member's flag tuple, region by region."""
        flags_of: dict[str, tuple[bool, ...]] = {}
        for flags, bits in self.member_regions.items():
            flags_of.update(dict.fromkeys(ids_of_rows(bits, self.row_ids),
                                          flags))
        return flags_of

    @cached_property
    def profiles(self) -> Mapping[str, CoverageProfile]:
        """The members' coverage profiles, in member-id order."""
        return {pid: CoverageProfile(pid, self.member_flags[pid])
                for pid in self.member_ids}

    def __len__(self) -> int:
        return len(self.member_ids)

    def __contains__(self, pub_id: str) -> bool:
        return pub_id in self.member_set


def covered_rows(corpus: Corpus, keys: KeyValueSets) -> dict[FieldKind, int]:
    """Per field in canonical order, the row bitset the key values cover.

    A field covers a row when at least its required number of selected
    values carry the publication.  For key values selected under
    ``keys.config`` this equals :func:`coverage_profile` on every
    publication.  On the corpus the keys were selected on
    (``keys.corpus``) it is computed once and kept on the keys; on any
    other corpus, and for keys made by hand, it is computed each time.
    Keys with an unresolved author scope raise :class:`InvalidConfig`.
    """
    config = keys.config
    kept = keys.corpus is corpus
    if kept and keys.covered_rows:
        return dict(keys.covered_rows)
    covered = {
        field: _held_by_at_least(
            corpus, spec.index(corpus, config.author_scope),
            keys.per_field(field).values, spec.required(config))
        for field, spec in FIELD_SPECS.items()}
    if kept:
        keys.covered_rows.update(covered)
    return covered


def _held_by_at_least(corpus: Corpus, index: Postings,
                      values: Sequence, required: int) -> int:
    """The rows that at least ``required`` of the postings of ``values``
    in ``index`` hold; a value absent from ``index`` holds no row.

    ``levels[j]`` holds the rows hit by at least ``j`` postings so far
    (``levels[0]`` every row), up to ``required``.  A dense posting
    folds in with ``&`` and ``|`` on its bitset; the sparse ones are
    counted per row, in one byte per row.
    """
    n = len(corpus.row_ids)
    if not n or required > len(values):   # no row is hit that often
        return 0
    levels = [(1 << n) - 1]
    sparse = []
    for value in values:
        bits = index.bits.get(value)
        if bits is None:
            sparse.append(index.rows.get(value, ()))
        else:
            levels = _fold(levels, (bits,), required)
    # a byte counts at most 255 hits: beyond that, count in batches
    batch = 255 if required > 255 else max(1, len(sparse))
    for start in range(0, len(sparse), batch):
        levels = _fold(levels, _count_levels(
            corpus, sparse[start:start + batch], required), required)
    return levels[required] if required < len(levels) else 0


def _count_levels(corpus: Corpus, postings: list[Sequence[int]],
                  required: int) -> list[int]:
    """Hit levels 1..min(required, len(postings)) of the postings.

    Each row's hit count is one byte that stops at the top level, so it
    cannot wrap however many postings hold the row.
    """
    top = min(required, len(postings))
    counts = bytearray(len(corpus.row_ids))
    step = bytes(min(v + 1, top) for v in range(256))
    for posting in postings:
        for row in posting:
            counts[row] = step[counts[row]]
    # b"1" where a count reaches k: the level's binary digits
    return [bitset_from_digits(counts.translate(b"0" * k + b"1" * (256 - k)))
            for k in range(1, top + 1)]


def _fold(levels: list[int], other: Sequence[int], top: int) -> list[int]:
    """The hit levels, up to ``top``, of two disjoint groups of postings.

    ``other[i - 1]`` holds the rows the second group hits at least ``i``
    times.  A row is hit ``j`` times by both groups when the first hits
    it ``j - i`` times and the second ``i`` times.
    """
    out = [levels[0]]
    for j in range(1, min(top, len(levels) - 1 + len(other)) + 1):
        bits = levels[j] if j < len(levels) else 0
        for i in range(max(1, j - len(levels) + 1), min(j, len(other)) + 1):
            bits |= levels[j - i] & other[i - 1]
        out.append(bits)
    return out


def region_rows(
    corpus: Corpus,
    keys: KeyValueSets,
    candidates: int,
) -> dict[tuple[bool, ...], int]:
    """The candidate rows split by flag tuple into their 16 coverage regions.

    Region ``flags`` holds the candidates whose coverage profile has
    exactly those flags.  Every tuple is a key (empty regions included),
    in mask order from ``0000`` to ``1111``, and the regions partition
    the candidates.
    """
    covered = covered_rows(corpus, keys).values()
    return {flags: reduce(and_, (bits if hit else ~bits
                                 for hit, bits in zip(flags, covered)),
                          candidates)
            for flags in _FLAG_TUPLES}


def _histogram(regions: Mapping[tuple[bool, ...], int]) -> dict[int, int]:
    """Rows per covered-field count (bins 0..4)."""
    histogram = dict.fromkeys(range(len(FIELD_ORDER) + 1), 0)
    for flags, bits in regions.items():
        histogram[sum(flags)] += bits.bit_count()
    return histogram


def build_approximation(
    corpus: Corpus,
    keys: KeyValueSets,
    window: YearWindow,
    min_fields: int = 3,
) -> SpecialtyApproximation:
    """Assemble the approximation from key values over a year window.

    The window's rows (those any of its years' postings holds) are split
    into their 16 :func:`region_rows`; the histogram and subset sizes are
    the regions' bit counts, and the members are the rows of the regions
    with at least ``min_fields`` flags, read in row order, so sorted.
    Member flags and coverage profiles are decoded only when
    :attr:`SpecialtyApproximation.member_flags` or
    :attr:`SpecialtyApproximation.profiles` is first read.
    """
    if not 1 <= min_fields <= 4:
        raise OutOfRange(f"min_fields must lie in 1..4, got {min_fields}")
    in_window = window_rows(corpus, window)
    regions = region_rows(corpus, keys, in_window)

    member_regions = {flags: bits for flags, bits in regions.items()
                      if sum(flags) >= min_fields}
    members = reduce(or_, member_regions.values(), 0)
    return SpecialtyApproximation(
        member_ids=tuple(ids_of_rows(members, corpus.row_ids)),
        window=window,
        min_fields=min_fields,
        n_in_window=in_window.bit_count(),
        histogram=_histogram(regions),
        subset_sizes={_mask(flags): bits.bit_count()
                      for flags, bits in regions.items()},
        member_rows=members,
        member_regions=member_regions,
        row_ids=corpus.row_ids,
    )


def window_rows(corpus: Corpus, window: YearWindow) -> int:
    """The row bitset of the publications inside ``window``."""
    return _held_by_at_least(
        corpus, corpus.by_year,
        [year for year in corpus.by_year if year in window], 1)


def key_author_match_counts(
    corpus: Corpus,
    keys: KeyValueSets,
    window: YearWindow,
) -> dict[str, int]:
    """In-window publications carrying each selected key author.

    Counted over each key's rows in the author postings of the keys'
    resolved scope, by their year; ``approx`` reports them in
    ``summary.json``.
    """
    author_rows = in_scope_authors(corpus, keys.config.author_scope)[1].rows
    years = corpus.year
    in_window = {v for v, year in enumerate(years.values) if year in window}
    return {key: sum(years.ids[row] in in_window
                     for row in author_rows.get(key, ()))
            for key in keys.authors.values}


def seed_coverage_histogram(
    corpus: Corpus,
    seed: SeedRecord,
    keys: KeyValueSets,
) -> dict[int, float]:
    """Share of seed publications by covered-field count (bins 0..4).

    The fractions sum to 1 (up to float error); bin ``k`` holds the share
    of seed publications whose own key values cover them in exactly ``k``
    fields.
    """
    if not seed.all_ids:
        raise EmptyApproximation("seed record is empty")
    counts = _histogram(region_rows(corpus, keys,
                                    corpus.bitset(seed.all_ids)))
    return {k: n / len(seed.all_ids) for k, n in counts.items()}


APPROX_CSV_COLUMNS = (
    "pub_id", "year", *(field.value for field in FIELD_ORDER), "count",
)


def write_approximation_csv(
    approximation: SpecialtyApproximation,
    corpus: Corpus,
    path,
) -> None:
    """Write the members as CSV: id, year, four 0/1 flags, flag count.

    Rows are sorted by publication id; output is byte-deterministic.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(APPROX_CSV_COLUMNS)
        for pid in approximation.member_ids:
            flags = approximation.member_flags[pid]
            writer.writerow([
                pid,
                corpus.year[corpus.rows[pid]],
                *(int(f) for f in flags),
                sum(flags),
            ])
