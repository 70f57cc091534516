"""Seed assembly tests: resolution, one-hop extension, provenance."""

import numpy as np
import pytest

from conftest import make_random_records, records_to_corpus
from specialty_approx import (
    KeysConfig, Provenance, SeedRecord, build_seed_record, compute_all_keys,
    coverage_of_record_by_keys, write_seed_csv,
)
from specialty_approx.errors import EmptyInitialSet, UnknownPubId
from specialty_approx.seed import SEED_CSV_COLUMNS
from test_corpus import minimal_record


def chain_corpus():
    """a -> b -> c reference chain plus an unresolvable reference."""
    return records_to_corpus([
        minimal_record(id="a", references=["b", "10.1/missing"]),
        minimal_record(id="b", references=["c"]),
        minimal_record(id="c", references=[]),
        minimal_record(id="d", references=["a"]),  # cites a; must never join
    ])


def test_extension_is_exactly_one_hop():
    record = build_seed_record(chain_corpus(), ["a"])
    assert record.initial_ids == {"a"}
    assert record.extended_ids == {"b"}          # c is two hops away
    assert record.all_ids == {"a", "b"}
    assert "d" not in record                      # citing direction ignored
    assert record.unresolved_references == {"10.1/missing"}
    assert record.unresolved_reference_count == 1


def test_extension_can_be_disabled():
    record = build_seed_record(chain_corpus(), ["a"], extend=False)
    assert record.all_ids == {"a"}
    assert record.extended_ids == frozenset()
    assert record.unresolved_references == frozenset()


def test_initial_ids_never_demoted_to_extension():
    record = build_seed_record(chain_corpus(), ["a", "b"])
    assert record.initial_ids == {"a", "b"}
    assert record.extended_ids == {"c"}


def test_unknown_initial_id_raises():
    with pytest.raises(UnknownPubId) as exc_info:
        build_seed_record(chain_corpus(), ["a", "zz"])
    assert exc_info.value.pub_id == "zz"


def _keys_of_a(corpus):
    return compute_all_keys(
        corpus, build_seed_record(corpus, ["a"], extend=False),
        KeysConfig(threshold_cell=0.5, threshold_title=0.5,
                   threshold_author=0.5, threshold_reference=0.5))


@pytest.mark.parametrize("entry", [
    lambda corpus, ids: build_seed_record(corpus, ids),
    lambda corpus, ids: compute_all_keys(corpus, SeedRecord(
        initial_ids=frozenset(ids), extended_ids=frozenset(),
        unresolved_references=frozenset())),
    lambda corpus, ids: coverage_of_record_by_keys(
        ids, _keys_of_a(corpus), 3, corpus),
], ids=["build_seed_record", "compute_all_keys",
        "coverage_of_record_by_keys"])
def test_unknown_ids_name_the_least_at_every_entry_point(entry):
    # known ids on both sides of the unknown ones, the larger unknown first
    with pytest.raises(UnknownPubId) as exc_info:
        entry(chain_corpus(), ["c", "b0", "a", "a9"])
    assert exc_info.value.pub_id == "a9"


def test_empty_initial_set_raises():
    with pytest.raises(EmptyInitialSet):
        build_seed_record(chain_corpus(), [])


def test_provenance_and_container_protocol():
    record = build_seed_record(chain_corpus(), ["a"])
    assert record.provenance == {
        "a": Provenance.INITIAL,
        "b": Provenance.ADDED_VIA_REFERENCE,
    }
    assert len(record) == 2
    assert "a" in record and "c" not in record


def test_seed_record_rejects_overlapping_sets():
    with pytest.raises(ValueError):
        SeedRecord(initial_ids=frozenset("a"), extended_ids=frozenset("a"),
                   unresolved_references=frozenset())


def test_extension_matches_brute_force_on_random_corpora():
    rng = np.random.default_rng(21)
    for _ in range(10):
        records = make_random_records(rng, 40)
        corpus = records_to_corpus(records)
        ids = [r["id"] for r in records]
        initial = set(rng.choice(ids, size=8, replace=False))
        record = build_seed_record(corpus, initial)

        expected_added, expected_unresolved = set(), set()
        for rec in records:
            if rec["id"] not in initial:
                continue
            for ref in rec["references"]:
                if ref in corpus:
                    if ref not in initial:
                        expected_added.add(ref)
                else:
                    expected_unresolved.add(ref)
        assert record.extended_ids == expected_added
        assert record.unresolved_references == expected_unresolved


def test_write_seed_csv(tmp_path):
    record = build_seed_record(chain_corpus(), ["b"])
    path = tmp_path / "seed.csv"
    write_seed_csv(record, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(SEED_CSV_COLUMNS)
    assert lines[1:] == ["b,initial", "c,added_via_reference"]
