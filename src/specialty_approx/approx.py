"""Specialty approximation: combine per-field coverage over a year window.

Phase three of the pipeline.  Every corpus publication inside the year
window has a four-flag coverage profile (one flag per field, true when
the field's key values cover the publication); those covered in at least
``min_fields`` fields form the specialty approximation.

:func:`covered_ids` answers by index intersection which of a batch of
candidates each field covers.  :func:`coverage_regions` splits the batch
by set algebra into its 16 flag regions, so the histogram, the subset
sizes and the members are read off whole regions and no publication is
profiled one by one; the approximation, the seed histogram and the
analytics all ask it.  :func:`coverage_profile` evaluates the same rules
on one publication and is the reference the engine must match.

Under per-field coverage ``t`` and independence, the chance a seed-like
publication lands in a >=3-of-4 approximation is
``4 t^3 (1 - t) + t^4`` (three fields exactly, or all four), exposed as
:func:`expected_inclusion_probability`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping

from .corpus import Corpus
from .errors import (EmptyApproximation, EmptyWindow, InvalidConfig,
                     OutOfRange, UnknownPubId)
from .keys import (FIELD_ORDER, FIELD_SPECS, AuthorScope, FieldKind,
                   KeysConfig, KeyValueSets, compute_all_keys)
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

    def covers(self, field: FieldKind) -> bool:
        return self.flags[FIELD_ORDER.index(field)]


def coverage_profile(pub, keys: KeyValueSets) -> CoverageProfile:
    """Evaluate all four coverage rules for one publication.

    The per-publication reference that :func:`covered_ids` must match.
    """
    config = keys.config
    return CoverageProfile(pub.pub_id, tuple(
        len(spec.values(pub, config) & keys.per_field(field).selected)
        >= spec.required(config)
        for field, spec in FIELD_SPECS.items()
    ))


def _mask(flags: tuple[bool, ...]) -> str:
    return "".join("1" if f else "0" for f in flags)


def all_masks() -> tuple[str, ...]:
    """All 16 flag-combination masks, sorted."""
    return tuple(format(i, "04b") for i in range(16))


@dataclass(frozen=True)
class SpecialtyApproximation:
    """The approximated specialty over one year window.

    ``histogram`` counts every in-window publication by covered-field
    count (bins 0..4 always present); ``subset_sizes`` counts them by
    exact flag combination (all 16 masks present).  ``member_flags``
    maps each member to its flag tuple; ``profiles`` holds the members'
    coverage profiles, built on first read.
    """

    member_ids: tuple[str, ...]
    window: YearWindow
    min_fields: int
    n_in_window: int
    histogram: Mapping[int, int]
    subset_sizes: Mapping[str, int]
    member_flags: Mapping[str, tuple[bool, ...]]

    @cached_property
    def member_set(self) -> frozenset[str]:
        return frozenset(self.member_ids)

    @cached_property
    def profiles(self) -> Mapping[str, CoverageProfile]:
        """The members' coverage profiles, in member-id order."""
        return {pid: CoverageProfile(pid, self.member_flags[pid])
                for pid in self.member_ids}

    def __len__(self) -> int:
        return len(self.member_ids)

    def __contains__(self, pub_id: str) -> bool:
        return pub_id in self.member_set


def covered_ids(
    corpus: Corpus,
    keys: KeyValueSets,
    candidate_ids: Iterable[str],
) -> dict[FieldKind, frozenset[str]]:
    """Per field in canonical order, the candidates the key values cover.

    Intersects each selected value's postings with the candidates, so
    publications the key values never reach are never touched.  Where a
    field needs several hits, level sets hold the candidates hit at
    least once, twice, ... so far, in place of a count per candidate.
    For key values selected under ``keys.config`` this equals
    :func:`coverage_profile` on every candidate.  A candidate absent
    from the corpus raises :class:`UnknownPubId`.
    """
    candidates = frozenset(candidate_ids)
    unknown = candidates.difference(corpus.publications)
    if unknown:
        raise UnknownPubId(min(unknown))
    config = keys.config
    if config.author_scope is AuthorScope.AUTO:
        raise InvalidConfig("coverage needs a resolved author scope")
    covered: dict[FieldKind, frozenset[str]] = {}
    for field, spec in FIELD_SPECS.items():
        index = spec.index(corpus, config.author_scope)
        hits = [index.get(value, frozenset()) & candidates
                for value in keys.per_field(field).values]
        required = spec.required(config)
        if required == 1:   # one hit suffices: a union, no counting
            covered[field] = frozenset().union(*hits)
        else:
            reached: list[set[str]] = [set() for _ in range(required)]
            for hit in hits:
                for j in range(required - 1, 0, -1):
                    reached[j].update(reached[j - 1].intersection(hit))
                reached[0].update(hit)
            covered[field] = frozenset(reached[-1])
    return covered


def coverage_regions(
    corpus: Corpus,
    keys: KeyValueSets,
    candidate_ids: Iterable[str],
) -> dict[tuple[bool, ...], frozenset[str]]:
    """The candidates split by flag tuple into their 16 coverage regions.

    Region ``flags`` holds the candidates whose coverage profile has
    exactly those flags.  Every tuple is a key (empty regions included),
    in :func:`all_masks` order, and the regions partition the
    candidates.  Built by set algebra on :func:`covered_ids`, one field
    at a time, with no Python work per candidate.
    """
    regions = {(): frozenset(candidate_ids)}
    for ids in covered_ids(corpus, keys, regions[()]).values():
        regions = {
            flags + (hit,): part
            for flags, region in regions.items()
            for hit, part in ((False, region - ids), (True, region & ids))
        }
    return regions


def _histogram(regions: Mapping[tuple[bool, ...], frozenset[str]]
               ) -> dict[int, int]:
    """Candidates per covered-field count (bins 0..4)."""
    histogram = dict.fromkeys(range(len(FIELD_ORDER) + 1), 0)
    for flags, region in regions.items():
        histogram[sum(flags)] += len(region)
    return histogram


def build_approximation(
    corpus: Corpus,
    keys: KeyValueSets,
    window: YearWindow,
    min_fields: int = 3,
) -> SpecialtyApproximation:
    """Assemble the approximation from key values over a year window.

    The year window is split into its 16 :func:`coverage_regions`; the
    histogram and subset sizes are the regions' sizes, and the members
    are the regions with at least ``min_fields`` flags.  Coverage
    profiles are built only when :attr:`SpecialtyApproximation.profiles`
    is first read.
    """
    if not 1 <= min_fields <= 4:
        raise OutOfRange(f"min_fields must lie in 1..4, got {min_fields}")
    window_ids = _window_ids(corpus, window)
    regions = coverage_regions(corpus, keys, window_ids)

    subset_sizes = {_mask(flags): len(region)
                    for flags, region in regions.items()}
    member_flags: dict[str, tuple[bool, ...]] = {}
    for flags, region in regions.items():
        if sum(flags) >= min_fields:
            member_flags.update(dict.fromkeys(region, flags))
    return SpecialtyApproximation(
        member_ids=tuple(sorted(member_flags)),
        window=window,
        min_fields=min_fields,
        n_in_window=len(window_ids),
        histogram=_histogram(regions),
        subset_sizes=subset_sizes,
        member_flags=member_flags,
    )


def key_author_match_counts(
    corpus: Corpus,
    keys: KeyValueSets,
    window: YearWindow,
) -> dict[str, int]:
    """In-window publications carrying each selected key author.

    Counted in the author index of the keys' resolved scope, one posting
    intersection per key; ``approx`` reports them in ``summary.json``.
    """
    author_index = FIELD_SPECS[FieldKind.AUTHOR].index(
        corpus, keys.config.author_scope)
    window_ids = _window_ids(corpus, window)
    return {key: len(author_index.get(key, frozenset()) & window_ids)
            for key in keys.authors.values}


def _window_ids(corpus: Corpus, window: YearWindow) -> frozenset[str]:
    """The corpus's publications inside ``window``, read off its own years."""
    return corpus.ids_in_years(y for y in corpus.by_year if y in window)


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
    counts = _histogram(coverage_regions(corpus, keys, seed.all_ids))
    return {k: n / len(seed.all_ids) for k, n in counts.items()}


def rederive_key_values(
    corpus: Corpus,
    approximation: SpecialtyApproximation,
    config: KeysConfig | None = None,
) -> KeyValueSets:
    """Re-run key-value selection with the approximation as the seed.

    The members become a fresh (non-extended) seed; large populations
    typically need far smaller key shares per unique value than the
    original seed did.
    """
    if not approximation.member_ids:
        raise EmptyApproximation("approximation has no members")
    new_seed = SeedRecord(
        initial_ids=approximation.member_set,
        extended_ids=frozenset(),
        unresolved_references=frozenset(),
    )
    return compute_all_keys(corpus, new_seed, config or KeysConfig())


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
                corpus.publications[pid].year,
                *(int(f) for f in flags),
                sum(flags),
            ])
