"""Differential harness: every coverage entry point against the oracle.

One seeded sweep over the whole coverage config space (author scope,
DOI-only references, minimum title-word length, required title words and
the member rule) on small random corpora.  Each configuration checks
``coverage_profile``, ``seed_coverage_histogram``, ``build_approximation``,
``coverage_of_record_by_keys`` and ``mutual_coverage`` against
``oracles.profile_record``, which evaluates one raw record at a time and
shares no code with the package.  A second sweep runs the batch entry
points on a generated 2k corpus, whose selected key values fall on both
sides of the corpus's dense-posting cut-off.
"""

import itertools

import numpy as np
import pytest

import oracles
from conftest import make_random_records, records_to_corpus
from specialty_approx import (
    FIELD_ORDER, AuthorScope, FieldKind, GeneratorConfig, SpecialtyParams,
    YearWindow, build_approximation, build_seed_record,
    coverage_of_record_by_keys, coverage_profile, mutual_coverage,
    seed_coverage_histogram,
)
from specialty_approx.approx import covered_rows, region_rows
from specialty_approx.errors import EmptyApproximation
from specialty_approx.keys import FIELD_SPECS
from specialty_approx.syngen import build_records
from test_approx import craft_keys

WINDOW = (2005, 2007)


def oracle_inputs(keys):
    """``oracles`` arguments for a selection: selected values, then kwargs."""
    config = keys.config
    selected = {f.value: keys.per_field(f).selected for f in FIELD_ORDER}
    return selected, dict(
        min_word_len=config.min_word_len,
        required_title_words=config.required_title_words,
        scope=config.author_scope.value,
        doi_only=config.doi_only_references,
    )


def oracle_flags(records, keys):
    selected, kwargs = oracle_inputs(keys)
    return {r["id"]: oracles.profile_record(r, selected, **kwargs)
            for r in records}


def test_every_coverage_entry_point_matches_the_oracle():
    rng = np.random.default_rng(606)
    # AUTO resolves to all authors on the first corpus, reprint-only on
    # the second (every record there carries a reprint author)
    corpora = []
    for reprint_share in (0.5, 1.0):
        records = make_random_records(rng, 70, years=(2005, 2008),
                                      reprint_share=reprint_share)
        corpora.append((records, records_to_corpus(records)))
    seed_ids = [f"p{i:04d}" for i in range(20)]
    peer_ids = [f"p{i:04d}" for i in range(35, 55)]
    window = YearWindow(*WINDOW)

    sweep = itertools.product(corpora, AuthorScope, (False, True),
                              range(1, 9), range(1, 4))
    for (records, corpus), scope, doi_only, min_word_len, required in sweep:
        settings = dict(author_scope=scope, doi_only_references=doi_only,
                        min_word_len=min_word_len,
                        required_title_words=required)
        keys = craft_keys(corpus, seed_ids, **settings)
        peer_keys = craft_keys(corpus, peer_ids, **settings)
        flags = oracle_flags(records, keys)
        peer_flags = oracle_flags(records, peer_keys)
        count = {pid: sum(f) for pid, f in flags.items()}

        for pub in corpus:
            assert coverage_profile(pub, keys).flags == flags[pub.pub_id]

        seed = build_seed_record(corpus, seed_ids, extend=False)
        assert seed_coverage_histogram(corpus, seed, keys) == {
            k: sum(count[p] == k for p in seed_ids) / len(seed_ids)
            for k in range(5)
        }

        selected, kwargs = oracle_inputs(keys)
        for min_fields in range(1, 5):
            result = build_approximation(corpus, keys, window, min_fields)
            members, histogram, subset_sizes, profiles, n_in_window = \
                oracles.approximate(records, selected, WINDOW, min_fields,
                                    **kwargs)
            assert list(result.member_ids) == members
            assert dict(result.histogram) == histogram
            assert dict(result.subset_sizes) == subset_sizes
            assert result.n_in_window == n_in_window
            assert {p: f.flags for p, f in result.profiles.items()} == \
                profiles

            assert coverage_of_record_by_keys(
                peer_ids, keys, min_fields, corpus
            ) == sum(count[p] >= min_fields for p in peer_ids) / len(peer_ids)

            if not members:
                with pytest.raises(EmptyApproximation):
                    mutual_coverage("peer", peer_ids, peer_keys, result,
                                    corpus)
                continue
            mutual = mutual_coverage("peer", peer_ids, peer_keys, result,
                                     corpus)
            assert mutual.share_in_approximation == \
                len(set(peer_ids) & set(members)) / len(peer_ids)
            assert mutual.key_coverage_of_approximation == {
                field: sum(peer_flags[m][i] for m in members) / len(members)
                for i, field in enumerate(FIELD_ORDER)
            }


def test_dense_and_sparse_postings_match_the_oracle():
    # at 2k publications a posting is dense (held as a row bitset) from 32
    # ids on, so selected values fall on both sides of the cut-off
    records, truth = build_records(GeneratorConfig(
        rng_seed=77,
        specialties=(SpecialtyParams(label="alpha", n_publications=1000),
                     SpecialtyParams(label="beta", n_publications=1000)),
        cross_contamination=0.1,
    ))
    corpus = records_to_corpus(records)
    window = (2010, 2012)
    in_window = sorted(r["id"] for r in records
                       if window[0] <= r["year"] <= window[1])
    seed_ids = [p for p in in_window if truth.labels[p] == "alpha"][:150]
    peer_ids = [p for p in in_window if truth.labels[p] == "beta"][:40]
    candidates = sorted(corpus.publications)

    sweep = itertools.product(
        (AuthorScope.ALL_AUTHORS, AuthorScope.REPRINT_ONLY), (1, 2, 3))
    for scope, required in sweep:
        # full thresholds reach down to rare values: at 2 and 3 required
        # hits, over 255 selected title words are sparse
        settings = dict(author_scope=scope, required_title_words=required,
                        threshold_cell=1.0, threshold_title=1.0,
                        threshold_reference=1.0)
        keys = craft_keys(corpus, seed_ids, **settings)
        peer_keys = craft_keys(corpus, peer_ids, **settings)
        dense = {
            field: {value in FIELD_SPECS[field].index(corpus, scope).bits
                    for value in keys.per_field(field).values}
            for field in FIELD_ORDER}
        assert dense[FieldKind.TITLE_WORD] == {False, True}
        flags = oracle_flags(records, keys)
        peer_flags = oracle_flags(records, peer_keys)
        count = {pid: sum(f) for pid, f in flags.items()}

        assert covered_rows(corpus, keys) == {
            field: corpus.bitset(p for p in candidates if flags[p][i])
            for i, field in enumerate(FIELD_ORDER)}
        regions = region_rows(corpus, keys, corpus.bitset(candidates))
        assert regions == {
            region: corpus.bitset(p for p in candidates if flags[p] == region)
            for region in itertools.product((False, True), repeat=4)}

        seed = build_seed_record(corpus, seed_ids, extend=False)
        assert seed_coverage_histogram(corpus, seed, keys) == {
            k: sum(count[p] == k for p in seed_ids) / len(seed_ids)
            for k in range(5)
        }

        selected, kwargs = oracle_inputs(keys)
        for min_fields in range(1, 5):
            result = build_approximation(corpus, keys, YearWindow(*window),
                                         min_fields)
            members, histogram, subset_sizes, profiles, n_in_window = \
                oracles.approximate(records, selected, window, min_fields,
                                    **kwargs)
            assert members
            assert list(result.member_ids) == members
            assert result.member_rows == corpus.bitset(result.member_ids)
            assert dict(result.histogram) == histogram
            assert dict(result.subset_sizes) == subset_sizes
            assert result.n_in_window == n_in_window
            assert {p: f.flags for p, f in result.profiles.items()} == \
                profiles

            assert coverage_of_record_by_keys(
                peer_ids, keys, min_fields, corpus
            ) == sum(count[p] >= min_fields for p in peer_ids) / len(peer_ids)

            mutual = mutual_coverage("peer", peer_ids, peer_keys, result,
                                     corpus)
            assert mutual.share_in_approximation == \
                len(set(peer_ids) & set(members)) / len(peer_ids)
            assert mutual.key_coverage_of_approximation == {
                field: sum(peer_flags[m][i] for m in members) / len(members)
                for i, field in enumerate(FIELD_ORDER)
            }
