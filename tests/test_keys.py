"""Key-value selection tests: batch greedy, homonyms, thresholds, CSV."""

import dataclasses

import numpy as np
import pytest

from conftest import make_random_records, records_to_corpus
from oracles import greedy_select, resolve_scope
from specialty_approx import (
    AuthorScope, FieldKind, KeysConfig, build_seed_record, compute_all_keys,
    coverage_profile, field_frequencies, select_key_values,
)
from specialty_approx.errors import EmptySeed, InvalidConfig, Unsatisfiable
from specialty_approx.keys import (
    FIELD_ORDER, FIELD_SPECS, KEY_CSV_COLUMNS, homonyms_among,
    in_scope_authors, write_key_values_csv,
)
from test_corpus import minimal_record

FIELD_BY_NAME = {f.value: f for f in FIELD_ORDER}


def seed_of(corpus, ids=None):
    ids = ids if ids is not None else sorted(corpus.publications)
    return build_seed_record(corpus, ids, extend=False)


# --------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InvalidConfig):
        KeysConfig(threshold_cell=0.0)
    with pytest.raises(InvalidConfig):
        KeysConfig(threshold_reference=1.5)
    with pytest.raises(InvalidConfig):
        KeysConfig(min_word_len=0)
    with pytest.raises(InvalidConfig):
        KeysConfig(required_title_words=0)
    with pytest.raises(InvalidConfig):
        KeysConfig(threshold_cell=True)
    with pytest.raises(InvalidConfig):
        KeysConfig(min_word_len=2.5)
    with pytest.raises(InvalidConfig):
        KeysConfig(required_title_words=True)
    with pytest.raises(InvalidConfig):
        KeysConfig(doi_only_references="no")
    with pytest.raises(InvalidConfig):
        KeysConfig(author_scope="all_authors")
    KeysConfig(threshold_title=1.0)  # closed upper bound is allowed


def test_config_threshold_for():
    config = KeysConfig(threshold_cell=0.5, threshold_title=0.6,
                        threshold_author=0.7, threshold_reference=0.8)
    assert [config.threshold_for(f) for f in FIELD_ORDER] == [0.5, 0.6, 0.7, 0.8]


def test_config_round_trips_through_dict():
    config = KeysConfig(threshold_cell=0.5, author_scope=AuthorScope.REPRINT_ONLY)
    assert KeysConfig.from_dict(config.to_dict()) == config
    with pytest.raises(InvalidConfig):
        KeysConfig.from_dict({"no_such_knob": 1})
    with pytest.raises(InvalidConfig):
        KeysConfig.from_dict({"author_scope": "bogus"})
    with pytest.raises(InvalidConfig):
        KeysConfig.from_dict({"min_word_len": 2.5})
    with pytest.raises(InvalidConfig):
        KeysConfig.from_dict({"doi_only_references": "no"})


def test_auto_scope_resolution_at_the_90_percent_boundary():
    def pubs_with_reprint_share(n_with, n_without):
        records = [minimal_record(id=f"w{i}") for i in range(n_with)]
        records += [minimal_record(id=f"n{i}", reprint_author=None)
                    for i in range(n_without)]
        corpus = records_to_corpus(records)
        return [corpus.publications[p] for p in sorted(corpus.publications)]

    config = KeysConfig()
    exactly_90 = pubs_with_reprint_share(9, 1)
    assert config.resolved_for_seed(exactly_90).author_scope is \
        AuthorScope.REPRINT_ONLY
    just_below = pubs_with_reprint_share(8, 2)
    assert config.resolved_for_seed(just_below).author_scope is \
        AuthorScope.ALL_AUTHORS
    with pytest.raises(EmptySeed):
        config.resolved_for_seed([])


def test_explicit_scope_resolution_is_a_no_op():
    config = KeysConfig(author_scope=AuthorScope.ALL_AUTHORS)
    assert config.resolved_for_seed([]) is config


def test_in_scope_authors_rejects_unresolved_auto():
    # the row engine and the per-publication rules both refuse AUTO
    corpus = records_to_corpus([minimal_record()])
    with pytest.raises(InvalidConfig):
        in_scope_authors(corpus, AuthorScope.AUTO)
    keys = compute_all_keys(corpus, seed_of(corpus))
    auto_keys = dataclasses.replace(keys, config=dataclasses.replace(
        keys.config, author_scope=AuthorScope.AUTO))
    with pytest.raises(InvalidConfig):
        coverage_profile(corpus.publications["p1"], auto_keys)


# ------------------------------------------------------------- homonyms

def homonym_corpus():
    return records_to_corpus([
        minimal_record(id="p1", authors=[{"surname": "Weiss", "initials": "A"}],
                       reprint_author=0),
        minimal_record(id="p2", authors=[{"surname": "Weiss", "initials": "B"},
                                         {"surname": "Novak", "initials": "C"}],
                       reprint_author=1),
        minimal_record(id="p3", authors=[{"surname": "Novak", "initials": "C"}],
                       reprint_author=0),
    ])


def test_homonym_detection_all_authors():
    corpus = homonym_corpus()
    _, postings = in_scope_authors(corpus, AuthorScope.ALL_AUTHORS)
    assert homonyms_among(postings) == {"WEISS"}


def test_homonym_detection_respects_scope():
    # in reprint scope, WEISS appears only with initial A -> not a homonym
    corpus = homonym_corpus()
    _, postings = in_scope_authors(corpus, AuthorScope.REPRINT_ONLY)
    assert sorted(postings) == ["NOVAK C", "WEISS A"]
    assert homonyms_among(postings) == set()


def test_homonyms_are_excluded_from_candidacy_and_counted():
    corpus = homonym_corpus()
    config = KeysConfig(author_scope=AuthorScope.ALL_AUTHORS,
                        threshold_author=0.6)
    result = select_key_values(corpus, seed_of(corpus), FieldKind.AUTHOR, config)
    assert result.values == ("NOVAK C",)
    assert result.n_unique_values == 3            # WEISS A, WEISS B, NOVAK C
    assert result.n_eligible_values == 1
    assert result.n_excluded_homonyms == 2
    assert result.achieved_coverage == pytest.approx(2 / 3)


def test_homonym_frequencies_still_counted_raw():
    corpus = homonym_corpus()
    config = KeysConfig(author_scope=AuthorScope.ALL_AUTHORS)
    freq = field_frequencies(corpus, seed_of(corpus), FieldKind.AUTHOR, config)
    assert freq == {"WEISS A": 1, "WEISS B": 1, "NOVAK C": 2}


# ----------------------------------------------------- batch-greedy behavior

def test_ties_admit_the_whole_batch_in_value_order():
    # two cells, each covering half the seed; threshold 0.5 could stop at
    # one, but both share frequency 2 and must join together
    corpus = records_to_corpus([
        minimal_record(id="p1", subject_categories=["X"]),
        minimal_record(id="p2", subject_categories=["X"]),
        minimal_record(id="p3", subject_categories=["A"]),
        minimal_record(id="p4", subject_categories=["A"]),
    ])
    result = select_key_values(corpus, seed_of(corpus), FieldKind.CELL,
                               KeysConfig(threshold_cell=0.5))
    assert result.values == ("A", "X")            # ascending within the batch
    assert [e.cumulative_coverage for e in result.entries] == [0.5, 1.0]
    assert result.achieved_coverage == 1.0


def test_selection_stops_at_first_satisfying_batch():
    corpus = records_to_corpus([
        minimal_record(id=f"p{i}", subject_categories=["X"]) for i in range(8)
    ] + [minimal_record(id="p8", subject_categories=["Y"]),
         minimal_record(id="p9", subject_categories=["Z"])])
    result = select_key_values(corpus, seed_of(corpus), FieldKind.CELL,
                               KeysConfig(threshold_cell=0.8))
    assert result.values == ("X",)               # 8/10 reaches 0.8 exactly
    assert result.achieved_coverage == pytest.approx(0.8)
    assert not result.descended_to_frequency_one


def test_title_coverage_needs_required_word_count():
    # every title shares "coverage"; only p1/p2 share a second long word
    corpus = records_to_corpus([
        minimal_record(id="p1", title="coverage threshold studies"),
        minimal_record(id="p2", title="coverage threshold designs"),
        minimal_record(id="p3", title="coverage of short runs"),
    ])
    config = KeysConfig(threshold_title=0.6)
    result = select_key_values(corpus, seed_of(corpus), FieldKind.TITLE_WORD,
                               config)
    # "coverage" (3) alone covers nobody under the two-word rule; the
    # threshold batch brings "threshold" (2), covering p1 and p2
    assert result.values == ("coverage", "threshold")
    assert result.entries[0].cumulative_coverage == 0.0
    assert result.achieved_coverage == pytest.approx(2 / 3)


def test_min_word_len_excludes_short_tokens():
    corpus = records_to_corpus([
        minimal_record(id="p1", title="runs of red oxen"),
        minimal_record(id="p2", title="runs of red cats"),
    ])
    with pytest.raises(Unsatisfiable):
        # no token reaches five characters -> no candidates at all
        select_key_values(corpus, seed_of(corpus), FieldKind.TITLE_WORD,
                          KeysConfig())
    shorter = KeysConfig(min_word_len=3, threshold_title=1.0)
    result = select_key_values(corpus, seed_of(corpus), FieldKind.TITLE_WORD,
                               shorter)
    assert set(result.values) == {"runs", "red"}


def test_doi_only_restricts_reference_candidates():
    corpus = records_to_corpus([
        minimal_record(id="p1", references=["10.1000/x", "plain1"]),
        minimal_record(id="p2", references=["10.1000/x", "plain1"]),
    ])
    all_refs = select_key_values(corpus, seed_of(corpus), FieldKind.REFERENCE,
                                 KeysConfig(threshold_reference=1.0))
    assert set(all_refs.values) == {"10.1000/x", "plain1"}
    doi_only = select_key_values(
        corpus, seed_of(corpus), FieldKind.REFERENCE,
        KeysConfig(threshold_reference=1.0, doi_only_references=True))
    assert doi_only.values == ("10.1000/x",)


def test_unsatisfiable_carries_the_exhausted_partial():
    corpus = records_to_corpus([
        minimal_record(id="p1", references=["r1"]),
        minimal_record(id="p2", references=["r2"]),
        minimal_record(id="p3", references=[]),
    ])
    with pytest.raises(Unsatisfiable) as exc_info:
        select_key_values(corpus, seed_of(corpus), FieldKind.REFERENCE,
                          KeysConfig(threshold_reference=0.9))
    partial = exc_info.value.partial
    assert exc_info.value.field is FieldKind.REFERENCE
    assert partial.exhausted
    assert partial.descended_to_frequency_one
    assert set(partial.values) == {"r1", "r2"}
    assert partial.achieved_coverage == pytest.approx(2 / 3)
    assert "0.6667" in str(exc_info.value)


def test_descended_flag_set_when_singletons_are_needed():
    corpus = records_to_corpus([
        minimal_record(id="p1", subject_categories=["X"]),
        minimal_record(id="p2", subject_categories=["X"]),
        minimal_record(id="p3", subject_categories=["Y"]),
    ])
    result = select_key_values(corpus, seed_of(corpus), FieldKind.CELL,
                               KeysConfig(threshold_cell=0.9))
    assert result.descended_to_frequency_one
    assert result.achieved_coverage == 1.0


def test_key_share_of_unique():
    corpus = records_to_corpus([
        minimal_record(id="p1", subject_categories=["X"]),
        minimal_record(id="p2", subject_categories=["X"]),
        minimal_record(id="p3", subject_categories=["Y"]),
        minimal_record(id="p4", subject_categories=["Z"]),
    ])
    result = select_key_values(corpus, seed_of(corpus), FieldKind.CELL,
                               KeysConfig(threshold_cell=0.5))
    assert result.values == ("X",)
    assert result.key_share_of_unique == pytest.approx(1 / 3)


# --------------------------------------------------- oracle cross-validation

def outcome_of(corpus, seed, field, config):
    try:
        result = select_key_values(corpus, seed, field, config)
        return result, True
    except Unsatisfiable as exc:
        return exc.partial, False


def assert_selection_matches_greedy(corpus, seed, seed_records, config,
                                    tag, **oracle_kwargs):
    """Every field's selection on ``seed`` equals the reference greedy's
    on the seed's raw records."""
    for field in FIELD_ORDER:
        expected = greedy_select(seed_records, field.value,
                                 config.threshold_for(field), **oracle_kwargs)
        got, reached = outcome_of(corpus, seed, field, config)
        assert reached == expected.reached, (tag, field)
        assert got.values == expected.values, (tag, field)
        assert [(e.value, e.frequency, e.cumulative_coverage)
                for e in got.entries] == expected.entries
        assert got.achieved_coverage == expected.achieved
        assert got.n_unique_values == expected.n_unique
        assert got.n_eligible_values == expected.n_eligible
        assert got.n_excluded_homonyms == expected.n_excluded_homonyms
        assert got.descended_to_frequency_one == \
            expected.descended_to_frequency_one


def test_selection_matches_reference_greedy_on_random_corpora():
    rng = np.random.default_rng(333)
    for round_no in range(25):
        records = make_random_records(
            rng, int(rng.integers(5, 45)),
            reprint_share=float(rng.choice((0.0, 0.5, 1.0))))
        corpus = records_to_corpus(records)
        threshold = float(rng.choice((0.5, 0.8, 0.95)))
        config = KeysConfig(
            threshold_cell=threshold, threshold_title=threshold,
            threshold_author=threshold, threshold_reference=threshold)
        assert_selection_matches_greedy(corpus, seed_of(corpus), records,
                                        config, round_no,
                                        scope=resolve_scope(records))


@pytest.mark.parametrize("scope", [AuthorScope.ALL_AUTHORS,
                                   AuthorScope.REPRINT_ONLY])
@pytest.mark.parametrize("doi_only", [False, True])
@pytest.mark.parametrize("required_title_words", [1, 2, 3])
@pytest.mark.parametrize("min_word_len", [1, 3, 5])
def test_selection_matches_reference_greedy_over_the_config_space(
        min_word_len, required_title_words, doi_only, scope):
    rng = np.random.default_rng(
        [min_word_len, required_title_words, int(doi_only),
         int(scope is AuthorScope.REPRINT_ONLY)])
    for round_no in range(12):
        records = make_random_records(
            rng, int(rng.integers(5, 45)),
            reprint_share=float(rng.choice((0.0, 0.5, 1.0))))
        corpus = records_to_corpus(records)
        # a part of the corpus, so postings hold ids outside the seed
        seed_records = [r for r in records if rng.random() < 0.6] \
            or records[:1]
        seed = seed_of(corpus, [r["id"] for r in seed_records])
        threshold = float(rng.choice((0.5, 0.8, 0.95)))
        config = KeysConfig(
            threshold_cell=threshold, threshold_title=threshold,
            threshold_author=threshold, threshold_reference=threshold,
            min_word_len=min_word_len,
            required_title_words=required_title_words,
            author_scope=scope, doi_only_references=doi_only)
        assert_selection_matches_greedy(
            corpus, seed, seed_records, config, round_no,
            min_word_len=min_word_len,
            required_title_words=required_title_words,
            scope=scope.value, doi_only=doi_only)


# ----------------------------------------------------------- bundle and CSV

def rich_corpus():
    rng = np.random.default_rng(77)
    return records_to_corpus(make_random_records(rng, 60, reprint_share=1.0))


def rich_config():
    # Homonym exclusion under reprint scope leaves only two eligible
    # author keys in this corpus, so the author threshold must sit below
    # their combined 2/60 share.
    return KeysConfig(threshold_cell=0.5, threshold_title=0.5,
                      threshold_author=0.03, threshold_reference=0.5)


def test_compute_all_keys_resolves_scope_once():
    corpus = rich_corpus()
    seed = seed_of(corpus)
    bundle = compute_all_keys(corpus, seed, rich_config())
    assert bundle.config.author_scope is AuthorScope.REPRINT_ONLY
    assert [k.field for k in bundle] == list(FIELD_ORDER)
    for field in FIELD_ORDER:
        assert bundle.per_field(field).field is field


def test_warnings_mention_descent_and_homonyms():
    corpus = homonym_corpus()
    config = KeysConfig(threshold_cell=0.5, threshold_title=0.5,
                        threshold_author=0.5, threshold_reference=0.5,
                        author_scope=AuthorScope.ALL_AUTHORS)
    bundle = compute_all_keys(corpus, seed_of(corpus), config)
    text = "\n".join(bundle.warnings())
    assert "homonym" in text


def test_key_values_csv_round_trip(tmp_path):
    corpus = rich_corpus()
    bundle = compute_all_keys(corpus, seed_of(corpus), rich_config())
    path = tmp_path / "keys.csv"
    write_key_values_csv(bundle, path)

    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(KEY_CSV_COLUMNS)


# ----------------------------------------------------------- field table

@pytest.mark.parametrize("scope", [AuthorScope.ALL_AUTHORS,
                                   AuthorScope.REPRINT_ONLY])
@pytest.mark.parametrize("doi_only", [False, True])
@pytest.mark.parametrize("min_word_len", [1, 5])
def test_field_values_are_posted_in_the_field_index(scope, doi_only,
                                                    min_word_len):
    # the forward index key selection counts and the postings the
    # coverage engine reads hold the same rows
    corpus = records_to_corpus(
        make_random_records(np.random.default_rng(23), 80))
    config = KeysConfig(min_word_len=min_word_len, author_scope=scope,
                        doi_only_references=doi_only)
    for field, spec in FIELD_SPECS.items():
        index = spec.index(corpus, scope)
        table = spec.forward(corpus, scope).values
        n_values = 0
        for row, pub_id in enumerate(corpus.row_ids):
            for value in spec.count(corpus, [row], config):
                assert pub_id in index.get(table[value], ()), (field, value)
                n_values += 1
        assert n_values > 0, field
