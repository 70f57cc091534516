"""Approximation tests: inclusion math, windows, profiles, assembly."""

import dataclasses
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import make_random_records, records_to_corpus
from specialty_approx import (
    FIELD_ORDER, AuthorScope, FieldKind, KeysConfig, KeyValueSets,
    SeedRecord, YearWindow, build_approximation, build_seed_record,
    compute_all_keys, coverage_of_record_by_keys, coverage_profile, ingest,
    expected_inclusion_probability, expected_inclusion_rate,
    seed_coverage_histogram, select_key_values,
    write_approximation_csv,
)
from specialty_approx import approx as approx_mod
from specialty_approx.approx import (APPROX_CSV_COLUMNS, covered_rows,
                                     key_author_match_counts, region_rows)
from specialty_approx.errors import (
    EmptyWindow, InvalidConfig, OutOfRange, Unsatisfiable,
)
from specialty_approx.keys import FIELD_SPECS, KeyValueEntry, KeyValueSet
from specialty_approx.syngen import (GeneratorConfig, SpecialtyParams,
                                     build_records)
from test_corpus import minimal_record

# the 16 flag masks, sorted
MASKS = ["0000", "0001", "0010", "0011", "0100", "0101", "0110", "0111",
         "1000", "1001", "1010", "1011", "1100", "1101", "1110", "1111"]


# ------------------------------------------------------------ inclusion math

def test_inclusion_probability_is_exact_for_fractions():
    assert expected_inclusion_probability(Fraction(4, 5)) == Fraction(512, 625)
    assert expected_inclusion_probability(Fraction(1, 2)) == Fraction(5, 16)


def test_inclusion_probability_boundaries():
    assert expected_inclusion_probability(0) == 0
    assert expected_inclusion_probability(1) == 1
    for bad in (-0.1, 1.1):
        with pytest.raises(OutOfRange):
            expected_inclusion_probability(bad)


def test_inclusion_probability_matches_enumeration():
    # brute force over the 16 outcomes of four independent coin flips
    for t in (0.1, 0.3, 0.8, 0.95):
        total = 0.0
        for combo in range(16):
            hits = bin(combo).count("1")
            if hits < 3:
                continue
            p = 1.0
            for bit in range(4):
                p *= t if combo >> bit & 1 else 1 - t
            total += p
        assert expected_inclusion_probability(t) == pytest.approx(total)


def test_inclusion_rate_generalizes_the_probability():
    for t in (0.2, 0.8):
        assert expected_inclusion_rate([t] * 4, min_fields=3) == \
            pytest.approx(expected_inclusion_probability(t))
    # min_fields=1 is the complement of "no field covers"
    shares = (0.3, 0.5, 0.9, 0.2)
    assert expected_inclusion_rate(shares, min_fields=1) == \
        pytest.approx(1 - np.prod([1 - s for s in shares]))
    # min_fields at the maximum is the plain product
    assert expected_inclusion_rate(shares, min_fields=4) == \
        pytest.approx(float(np.prod(shares)))


def test_inclusion_rate_validates_arguments():
    with pytest.raises(OutOfRange):
        expected_inclusion_rate([0.5] * 4, min_fields=0)
    with pytest.raises(OutOfRange):
        expected_inclusion_rate([0.5] * 4, min_fields=5)
    with pytest.raises(OutOfRange):
        expected_inclusion_rate([0.5, 1.2], min_fields=1)


# ------------------------------------------------------------------- windows

def test_year_window_parse_and_contains():
    window = YearWindow.parse(" 2010:2012 ")
    assert (window.start, window.end) == (2010, 2012)
    assert str(window) == "2010:2012"
    assert list(window.years()) == [2010, 2011, 2012]
    assert 2010 in window and 2012 in window and 2013 not in window


def test_year_window_single_year_form():
    window = YearWindow.parse("2011")
    assert (window.start, window.end) == (2011, 2011)


def test_year_window_rejects_bad_input():
    with pytest.raises(EmptyWindow):
        YearWindow(2012, 2010)
    for bad in ("abc", "2010:", "2010:2011:2012"):
        with pytest.raises(InvalidConfig):
            YearWindow.parse(bad)


# ---------------------------------------------------------- coverage profile

def craft_keys(corpus, seed_ids, **config_kwargs):
    """Key-value sets at permissive thresholds, keeping exhausted partials.

    Random corpora cannot always satisfy every field (homonym exclusion
    may leave too few author keys), and these tests only need *some*
    selection to drive the approximation code.
    """
    config = KeysConfig(**{"threshold_cell": 0.5, "threshold_title": 0.5,
                           "threshold_author": 0.5, "threshold_reference": 0.5,
                           **config_kwargs})
    seed = build_seed_record(corpus, seed_ids, extend=False)
    pubs = [corpus.publications[p] for p in sorted(seed.all_ids)]
    resolved = config.resolved_for_seed(pubs)
    picked = {}
    for field in FIELD_ORDER:
        try:
            picked[field] = select_key_values(corpus, seed, field, resolved)
        except Unsatisfiable as exc:
            picked[field] = exc.partial
    return KeyValueSets(
        cells=picked[FieldKind.CELL],
        title_words=picked[FieldKind.TITLE_WORD],
        authors=picked[FieldKind.AUTHOR],
        references=picked[FieldKind.REFERENCE],
        config=resolved,
    )


def test_coverage_profile_flags_follow_field_rules():
    records = [
        minimal_record(id="s1", subject_categories=["X"],
                       title="greedy coverage threshold",
                       authors=[{"surname": "Weiss", "initials": "A"}],
                       reprint_author=None, references=["r1"]),
        minimal_record(id="s2", subject_categories=["X"],
                       title="greedy coverage window",
                       authors=[{"surname": "Weiss", "initials": "A"}],
                       reprint_author=None, references=["r1"]),
        # q1: same cell, one shared title word, foreign author, shared ref
        minimal_record(id="q1", subject_categories=["X"],
                       title="greedy dynamics",
                       authors=[{"surname": "Novak", "initials": "B"}],
                       reprint_author=None, references=["r1", "r9"]),
        # q2: nothing in common
        minimal_record(id="q2", subject_categories=["Y"],
                       title="unrelated topics entirely",
                       authors=[{"surname": "Silva", "initials": "C"}],
                       reprint_author=None, references=["r9"]),
    ]
    corpus = records_to_corpus(records)
    keys = craft_keys(corpus, ["s1", "s2"])

    profile_q1 = coverage_profile(corpus.publications["q1"], keys)
    assert profile_q1.flags == (True, False, False, True)
    assert profile_q1.mask == "1001"
    assert profile_q1.count == 2

    profile_q2 = coverage_profile(corpus.publications["q2"], keys)
    assert profile_q2.flags == (False, False, False, False)
    assert profile_q2.count == 0

    profile_s1 = coverage_profile(corpus.publications["s1"], keys)
    assert profile_s1.flags == (True, True, True, True)


# ----------------------------------------------------------------- assembly

def test_build_approximation_validates_inputs():
    corpus = records_to_corpus([minimal_record()])
    keys = craft_keys(corpus, ["p1"])
    window = YearWindow(2010, 2010)
    for bad in (0, 5):
        with pytest.raises(OutOfRange):
            build_approximation(corpus, keys, window, min_fields=bad)

    import dataclasses
    unresolved = dataclasses.replace(
        keys, config=dataclasses.replace(keys.config,
                                         author_scope=AuthorScope.AUTO))
    with pytest.raises(InvalidConfig):
        build_approximation(corpus, unresolved, window)


def test_build_approximation_respects_the_window():
    records = [minimal_record(id=f"p{y}", year=y) for y in range(2008, 2014)]
    corpus = records_to_corpus(records)
    keys = craft_keys(corpus, ["p2010"])
    result = build_approximation(corpus, keys, YearWindow(2010, 2012),
                                 min_fields=1)
    assert result.n_in_window == 3
    assert set(result.member_ids) <= {"p2010", "p2011", "p2012"}
    assert result.window == YearWindow(2010, 2012)


def test_build_approximation_member_structures_are_consistent():
    rng = np.random.default_rng(99)
    records = make_random_records(rng, 120, years=(2005, 2008))
    corpus = records_to_corpus(records)
    seed_ids = [r["id"] for r in records[:40]]
    keys = craft_keys(corpus, seed_ids)
    window = YearWindow(2005, 2007)
    for min_fields in (1, 2, 3, 4):
        result = build_approximation(corpus, keys, window, min_fields)
        assert list(result.member_ids) == sorted(result.member_ids)
        assert len(result.member_set) == len(result.member_ids)
        assert sum(result.histogram.values()) == result.n_in_window
        assert sum(result.subset_sizes.values()) == result.n_in_window
        assert sorted(result.histogram) == [0, 1, 2, 3, 4]
        assert sorted(result.subset_sizes) == MASKS
        # histogram is the mask-size table aggregated by popcount
        for count in range(5):
            assert result.histogram[count] == sum(
                size for mask, size in result.subset_sizes.items()
                if mask.count("1") == count
            )
        assert len(result) == sum(
            v for k, v in result.histogram.items() if k >= min_fields
        )
        for pid, profile in result.profiles.items():
            assert pid in result.member_set
            assert profile.count >= min_fields
        # membership check against the profile evaluator, per publication
        for pid in result.member_ids:
            pub = corpus.publications[pid]
            assert pub.year in window
            assert coverage_profile(pub, keys).count >= min_fields


def test_member_flags_are_decoded_on_first_read():
    rng = np.random.default_rng(99)
    records = make_random_records(rng, 120, years=(2005, 2008))
    corpus = records_to_corpus(records)
    keys = craft_keys(corpus, [r["id"] for r in records[:40]])
    result = build_approximation(corpus, keys, YearWindow(2005, 2007), 2)
    assert result.row_ids is corpus.row_ids
    assert "member_flags" not in vars(result)
    assert result.member_flags == {
        pid: coverage_profile(corpus.publications[pid], keys).flags
        for pid in result.member_ids}
    assert "member_flags" in vars(result)


def test_repr_survives_bitsets_past_the_int_to_str_limit():
    corpus = records_to_corpus([minimal_record(id="p1", year=2010)])
    keys = craft_keys(corpus, ["p1"])
    result = build_approximation(corpus, keys, YearWindow(2010, 2010), 1)
    big = 1 << 20000   # 6021 decimal digits; the default limit is 4300
    wide = dataclasses.replace(result, member_rows=big,
                               member_regions={(True,) * 4: big})
    text = repr(wide)
    assert text.startswith("SpecialtyApproximation(member_ids=('p1',)")
    for name in ("member_rows", "member_regions", "row_ids"):
        assert name not in text


def test_build_approximation_matches_reference_evaluator():
    rng = np.random.default_rng(123)
    records = make_random_records(rng, 150, years=(2005, 2009))
    corpus = records_to_corpus(records)
    keys = craft_keys(corpus, [r["id"] for r in records[:50]])
    window = (2005, 2008)
    selected = {
        "cell": keys.cells.selected,
        "title_word": keys.title_words.selected,
        "author": keys.authors.selected,
        "reference": keys.references.selected,
    }
    scope = keys.config.author_scope.value
    result = build_approximation(corpus, keys, YearWindow(*window), 3)
    members, histogram, subset_sizes, profiles, n_in_window = \
        oracles.approximate(records, selected, window, 3, scope=scope)
    assert list(result.member_ids) == members
    assert dict(result.histogram) == histogram
    assert dict(result.subset_sizes) == subset_sizes
    assert result.n_in_window == n_in_window
    for pid, flags in profiles.items():
        assert result.profiles[pid].flags == flags


def test_key_author_match_counts():
    records = [
        minimal_record(id="s1", authors=[{"surname": "Weiss", "initials": "A"}],
                       reprint_author=None),
        minimal_record(id="s2", authors=[{"surname": "Weiss", "initials": "A"}],
                       reprint_author=None),
        minimal_record(id="o1", year=2011,
                       authors=[{"surname": "Weiss", "initials": "A"}],
                       reprint_author=None),
        minimal_record(id="far", year=1999,
                       authors=[{"surname": "Weiss", "initials": "A"}],
                       reprint_author=None),
    ]
    corpus = records_to_corpus(records)
    keys = craft_keys(corpus, ["s1", "s2"])
    # three in-window publications carry the selected key author
    assert key_author_match_counts(corpus, keys, YearWindow(2010, 2011)) == \
        {"WEISS A": 3}


def test_key_author_match_counts_rejects_an_unresolved_scope():
    # AUTO is not read as all authors: it raises, as covered_rows does
    corpus = records_to_corpus([minimal_record(id=f"p{i}") for i in range(5)])
    keys = craft_keys(corpus, ["p0", "p1"])
    unresolved = dataclasses.replace(keys, config=dataclasses.replace(
        keys.config, author_scope=AuthorScope.AUTO))
    with pytest.raises(InvalidConfig):
        key_author_match_counts(corpus, unresolved, YearWindow(2010, 2011))
    with pytest.raises(InvalidConfig):
        covered_rows(corpus, unresolved)


def hand_keys(config, **values):
    """Key-value sets holding exactly the given values, field by field."""
    def kvs(field, vals):
        return KeyValueSet(
            field=field,
            entries=tuple(KeyValueEntry(v, 1, 1.0) for v in vals),
            threshold=0.5, achieved_coverage=1.0,
            n_unique_values=len(vals), n_eligible_values=len(vals))
    return KeyValueSets(
        **{spec.attr: kvs(field, values.get(field.value, ()))
           for field, spec in FIELD_SPECS.items()},
        config=config)


@pytest.mark.parametrize("required_title_words", [1, 2, 3, 9])
def test_region_split_matches_profiles_on_edge_case_keys(required_title_words):
    # no cell value selected, an author and a word absent from the index,
    # and (at 9) more required title words than are selected
    rng = np.random.default_rng(31)
    records = make_random_records(rng, 90, years=(2005, 2008))
    corpus = records_to_corpus(records)
    words = [w for w in sorted(corpus.by_title_word) if len(w) >= 5][:5]
    keys = hand_keys(
        KeysConfig(required_title_words=required_title_words,
                   author_scope=AuthorScope.ALL_AUTHORS),
        title_word=[*words, "absentword"],
        author=[*sorted(corpus.by_author_key)[:4], "NOBODY X"],
        reference=sorted(corpus.by_reference)[:8],
    )
    profile = {pid: coverage_profile(pub, keys)
               for pid, pub in corpus.publications.items()}
    assert not any(p.flags[0] for p in profile.values())   # cell
    if required_title_words > len(words):
        assert not any(p.flags[1] for p in profile.values())   # title word

    window = YearWindow(2005, 2007)
    window_ids = {pid for pid, pub in corpus.publications.items()
                  if pub.year in window}
    regions = region_rows(corpus, keys, corpus.bitset(window_ids))
    assert ["".join(str(int(f)) for f in flags) for flags in regions] == MASKS
    for flags, bits in regions.items():
        assert bits == corpus.bitset(pid for pid in window_ids
                                     if profile[pid].flags == flags)
    assert sum(bits.bit_count() for bits in regions.values()) \
        == len(window_ids)

    for min_fields in (1, 2, 3, 4):
        result = build_approximation(corpus, keys, window, min_fields)
        assert result.n_in_window == len(window_ids)
        assert sum(result.subset_sizes.values()) == result.n_in_window
        for mask in MASKS:
            assert result.subset_sizes[mask] == sum(
                profile[pid].mask == mask for pid in window_ids)
        for k in range(5):
            assert result.histogram[k] == sum(
                profile[pid].count == k for pid in window_ids)
        members = sorted(pid for pid in window_ids
                         if profile[pid].count >= min_fields)
        assert list(result.member_ids) == members
        assert result.profiles == {pid: profile[pid] for pid in members}

    record = sorted(corpus.publications)[::3]
    seed = SeedRecord(initial_ids=frozenset(record), extended_ids=frozenset(),
                      unresolved_references=frozenset())
    histogram = seed_coverage_histogram(corpus, seed, keys)
    for k in range(5):
        assert histogram[k] == sum(
            profile[pid].count == k for pid in record) / len(record)
    for min_fields in (1, 2, 3, 4):
        assert coverage_of_record_by_keys(record, keys, min_fields, corpus) \
            == sum(profile[pid].count >= min_fields
                   for pid in record) / len(record)


@pytest.mark.parametrize("required_title_words", [10**6, 10**9])
def test_coverage_cost_does_not_grow_with_required_title_words(
        required_title_words):
    # no publication holds that many selected title words, so the field
    # covers nothing, and finding that out must not cost more than 1 hit
    rng = np.random.default_rng(17)
    records = make_random_records(rng, 60, years=(2005, 2008))
    corpus = records_to_corpus(records)
    keys = craft_keys(corpus, [r["id"] for r in records[:20]],
                      required_title_words=required_title_words)
    started = time.perf_counter()
    result = build_approximation(corpus, keys, YearWindow(2005, 2008), 1)
    covered = covered_rows(corpus, keys)
    assert time.perf_counter() - started < 1.0
    assert not covered[FieldKind.TITLE_WORD]
    assert not any(flags[1] for flags in result.member_flags.values())


def _corpus_lines(*records):
    return [json.dumps(record) for record in records]


@pytest.mark.parametrize("lines,window,in_window", [
    pytest.param(["not json", json.dumps(minimal_record(year="bad"))],
                 (2000, 2020), [], id="every-line-rejected"),
    pytest.param(_corpus_lines(minimal_record(id="a", year=2001),
                               minimal_record(id="b", year=2002)),
                 (2010, 2012), [], id="window-without-publications"),
    pytest.param(_corpus_lines(minimal_record(id="a", year=-10**20),
                               minimal_record(id="b", year=2011),
                               minimal_record(id="c", year=10**20)),
                 (1, 10**20), ["b", "c"], id="years-of-plus-minus-1e20"),
])
def test_coverage_on_edge_corpora(tmp_path, lines, window, in_window):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = ingest(path)
    # every minimal record is covered in all four fields
    keys = hand_keys(KeysConfig(author_scope=AuthorScope.ALL_AUTHORS),
                     cell=["Phys"], title_word=["greedy", "coverage"],
                     author=["WEISS A"], reference=["10.1000/xyz1"])
    everyone = corpus.bitset(corpus.publications)
    assert covered_rows(corpus, keys) == dict.fromkeys(FIELD_ORDER, everyone)
    regions = region_rows(corpus, keys, everyone)
    assert regions[(True,) * 4] == everyone
    assert sum(bits.bit_count() for bits in regions.values()) \
        == len(corpus.publications)
    for min_fields in (1, 2, 3, 4):
        result = build_approximation(corpus, keys, YearWindow(*window),
                                     min_fields)
        assert result.n_in_window == len(in_window)
        assert list(result.member_ids) == in_window
        assert result.member_rows == corpus.bitset(result.member_ids)
        assert result.histogram == {0: 0, 1: 0, 2: 0, 3: 0,
                                    4: len(in_window)}
        assert result.subset_sizes["1111"] == len(in_window)


# ------------------------------------------------------------- seed coverage

def test_seed_coverage_histogram_fractions():
    records = [
        minimal_record(id="s1", subject_categories=["X"],
                       title="greedy coverage threshold",
                       references=["r1"], reprint_author=None),
        minimal_record(id="s2", subject_categories=["X"],
                       title="greedy coverage threshold",
                       references=["r1"], reprint_author=None),
        minimal_record(id="s3", subject_categories=["Y"],
                       title="something else entirely here",
                       authors=[{"surname": "Silva", "initials": "Z"}],
                       references=["r9"], reprint_author=None),
    ]
    corpus = records_to_corpus(records)
    seed = build_seed_record(corpus, ["s1", "s2", "s3"], extend=False)
    keys = compute_all_keys(corpus, seed, KeysConfig(
        threshold_cell=0.6, threshold_title=0.6,
        threshold_author=0.6, threshold_reference=0.6))
    histogram = seed_coverage_histogram(corpus, seed, keys)
    assert sorted(histogram) == [0, 1, 2, 3, 4]
    assert sum(histogram.values()) == pytest.approx(1.0, abs=1e-12)
    assert histogram[4] == pytest.approx(2 / 3)   # s1, s2 covered everywhere


def _pair_keys():
    """A small two-specialty corpus, a 40-id seed and its selected keys."""
    spec = dict(n_publications=300, internal_reference_fraction=0.1,
                reprint_author_rule="none")
    records, truth = build_records(GeneratorConfig(
        rng_seed=21, specialties=(SpecialtyParams(label="alpha", **spec),
                                  SpecialtyParams(label="beta", **spec)),
        cross_contamination=0.1))
    corpus = records_to_corpus(records)
    window = YearWindow(2010, 2012)
    ids = sorted(pid for pid, label in truth.labels.items()
                 if label == "alpha"
                 and corpus.publications[pid].year in window)
    seed = build_seed_record(corpus, ids[:40])
    return records, corpus, seed, compute_all_keys(corpus, seed), window


def test_covered_rows_runs_once_per_key_set_on_its_corpus(monkeypatch):
    _, corpus, seed, keys, window = _pair_keys()
    calls = []
    engine = approx_mod._held_by_at_least

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(approx_mod, "_held_by_at_least", counted)
    seed_coverage_histogram(corpus, seed, keys)
    assert len(calls) == len(FIELD_ORDER)
    build_approximation(corpus, keys, window, 3)
    assert len(calls) == len(FIELD_ORDER) + 1   # the window's years alone
    covered = covered_rows(corpus, keys)
    covered.clear()   # each caller gets its own dict
    assert covered_rows(corpus, keys) == keys.covered_rows != {}
    assert len(calls) == len(FIELD_ORDER) + 1

    # keys made by hand carry no corpus, so nothing is kept on them
    by_hand = KeyValueSets(**{spec.attr: keys.per_field(field)
                              for field, spec in FIELD_SPECS.items()},
                           config=keys.config)
    assert covered_rows(corpus, by_hand) == covered_rows(corpus, keys)
    assert covered_rows(corpus, by_hand) == covered_rows(corpus, keys)
    assert len(calls) == 3 * len(FIELD_ORDER) + 1


def test_keys_asked_about_another_corpus_recompute():
    records, corpus, seed, keys, window = _pair_keys()
    on_corpus = covered_rows(corpus, keys)
    other = records_to_corpus(records[::2])
    fresh = covered_rows(other, dataclasses.replace(keys, corpus=None))
    assert fresh != on_corpus   # the rows differ
    assert covered_rows(other, keys) == fresh
    assert region_rows(other, keys, other.bitset(other.row_ids)) == \
        region_rows(other, dataclasses.replace(keys, corpus=None),
                    other.bitset(other.row_ids))
    assert covered_rows(corpus, keys) == on_corpus


# ---------------------------------------------------------------------- CSV

def test_write_approximation_csv(tmp_path):
    rng = np.random.default_rng(12)
    records = make_random_records(rng, 40, years=(2005, 2006))
    corpus = records_to_corpus(records)
    keys = craft_keys(corpus, [r["id"] for r in records[:15]])
    result = build_approximation(corpus, keys, YearWindow(2005, 2006), 2)
    path = tmp_path / "approximation.csv"
    write_approximation_csv(result, corpus, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(APPROX_CSV_COLUMNS)
    assert len(lines) == 1 + len(result)
    first = lines[1].split(",")
    pid = first[0]
    assert pid == result.member_ids[0]
    assert first[1] == str(corpus.publications[pid].year)
    flags = tuple(bool(int(v)) for v in first[2:6])
    assert flags == result.profiles[pid].flags
    assert int(first[6]) == result.profiles[pid].count