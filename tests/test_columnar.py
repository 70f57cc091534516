"""The columnar corpus against brute force from raw records.

Both builders, ``ingest`` and ``Corpus.from_publications`` over
``parse_record``, must give the same on-read view as dicts of frozensets
recomputed from the raw JSON records: the publications in arrival order,
all six inverted indexes, and the bitset of every dense posting.  The
query path must build neither a ``Publication`` nor a posting frozenset.
"""

import json
import random

import numpy as np
import pytest

from conftest import make_random_records
from oracles import (oracle_author_key, oracle_cell_key, oracle_tokens,
                     record_author_keys)
from specialty_approx import (AuthorName, AuthorScope, Corpus, GroundTruth,
                              KeysConfig, Publication, YearWindow,
                              build_approximation, build_records,
                              build_seed_record, compute_all_keys,
                              coverage_of_record_by_keys, evaluate_recovery,
                              ingest, mutual_coverage, parse_record,
                              rank_authors, seed_coverage_histogram)
from specialty_approx import corpus as corpus_mod
from specialty_approx.approx import key_author_match_counts
from specialty_approx.corpus import Postings
from specialty_approx.syngen import GeneratorConfig, SpecialtyParams

INDEXES = ("by_cell", "by_title_word", "by_author_key",
           "by_reprint_author_key", "by_reference", "by_year")


def _record(pid, **fields):
    record = {"id": pid, "year": 2010, "doc_type": "Article",
              "source_id": "s1", "subject_categories": ["Phys"],
              "title": "Greedy coverage of citation networks",
              "authors": [{"surname": "Weiss", "initials": "A"}],
              "reprint_author": 0, "references": ["10.1000/xyz1"]}
    record.update(fields)
    return record


_EDGE_RECORDS = [
    _record("e3", references=["10.1000/a", "plain1", "10.1000/a"]),
    _record("e1", authors=[{"surname": "Weiss", "initials": "A"},
                           {"surname": "Weiss", "initials": "A.B."},
                           {"surname": "Weiß", "initials": "a"}],
            reprint_author=2, year=2011),
    _record("e5", title="Naïve café: semi-conductors in 2D!",
            authors=[{"surname": "Müller", "initials": "j"},
                     {"surname": "García", "initials": "M.R."}],
            reprint_author=1, doc_type="review", source_id="s2"),
    _record("e2", authors=[], reprint_author=None, references=[],
            subject_categories=["Phys", "Bio", "Phys"], title="!!! --"),
    _record("e4", title="Graph graph GRAPH, graph.", year=-3,
            subject_categories=["Bio", "Phys"]),
]


def _generated_records():
    config = GeneratorConfig(
        rng_seed=31,
        specialties=(SpecialtyParams(label="alpha", n_publications=300),
                     SpecialtyParams(label="beta", n_publications=200)),
        cross_contamination=0.1)
    return build_records(config)[0]


def _shuffled(records):
    records = list(records)
    random.Random(4).shuffle(records)
    return records


FIXTURES = {
    "random": lambda: make_random_records(np.random.default_rng(41), 150),
    "random-shuffled": lambda: _shuffled(
        make_random_records(np.random.default_rng(41), 150)),
    "edge": lambda: list(_EDGE_RECORDS),
    "generated": _generated_records,
    "generated-shuffled": lambda: _shuffled(_generated_records()),
}


def _write_jsonl(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def _brute_force(records):
    """The six indexes as dicts of frozensets, from the raw records."""
    def index(values_of):
        out = {}
        for record in records:
            for value in values_of(record):
                out.setdefault(value, set()).add(record["id"])
        return {value: frozenset(ids) for value, ids in out.items()}

    return {
        "by_cell": index(lambda r: {oracle_cell_key(r["subject_categories"])}),
        "by_title_word": index(lambda r: oracle_tokens(r["title"])),
        "by_author_key": index(lambda r: record_author_keys(r, "all_authors")),
        "by_reprint_author_key": index(
            lambda r: record_author_keys(r, "reprint_only")),
        "by_reference": index(lambda r: set(r["references"])),
        "by_year": index(lambda r: {r["year"]}),
    }


def _check_against_brute_force(corpus, records):
    ids = [record["id"] for record in records]
    assert list(corpus.publications) == ids   # arrival order
    assert [pub.pub_id for pub in corpus] == ids
    assert corpus.row_ids == tuple(sorted(ids))
    assert len(corpus) == len(corpus.publications) == len(ids)
    rank = {pid: row for row, pid in enumerate(sorted(ids))}
    for record in records:
        pub = corpus.publications[record["id"]]
        assert pub == parse_record(record)
        assert pub.cell.key == oracle_cell_key(record["subject_categories"])
        assert pub.title_tokens == oracle_tokens(record["title"])
        keys = [oracle_author_key(a["surname"], a["initials"])
                for a in record["authors"]]
        assert list(pub._author_keys) == keys   # list order, repeats kept
        assert corpus.author.values_of(rank[record["id"]]) == tuple(keys)
        assert pub.reprint_author == record["reprint_author"]
        assert pub.references == set(record["references"])
        assert (pub.year, pub.title) == (record["year"], record["title"])

    n = len(ids)
    for name, expected in _brute_force(records).items():
        built = getattr(corpus, name)
        assert isinstance(built, Postings), name
        assert dict(built.items()) == expected, name
        assert set(built) == set(expected) and len(built) == len(expected)
        for value, members in expected.items():
            rows = sorted(rank[pid] for pid in members)
            assert list(built.rows[value]) == rows, (name, value)
            if 64 * len(members) >= n:
                bits = sum(1 << (n - 1 - row) for row in rows)
                assert built.bits[value] == bits, (name, value)
            else:
                assert value not in built.bits, (name, value)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_both_builders_match_brute_force(tmp_path, fixture):
    records = FIXTURES[fixture]()
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, map(json.dumps, records))
    ingested = ingest(path, strict=True)
    assert ingested.ingest_report.ok
    built = Corpus.from_publications(parse_record(r) for r in records)
    for corpus in (ingested, built):
        _check_against_brute_force(corpus, records)


def test_lenient_ingest_with_rejected_lines_matches_brute_force(tmp_path):
    records = _shuffled(make_random_records(np.random.default_rng(43), 80))
    lines = list(map(json.dumps, records))
    for at, bad in ((0, '{"id": "x1"}'), (17, "not json"), (40, ""),
                    (41, json.dumps(_record("x2", year="2010"))),
                    (len(lines), json.dumps(_record("x3", authors="A")))):
        lines.insert(at, bad)
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, lines)
    corpus = ingest(path)
    report = corpus.ingest_report
    assert (report.total_lines, report.accepted) == (84, 80)
    assert len(report.rejected) == 4
    _check_against_brute_force(corpus, records)
    built = Corpus.from_publications(parse_record(r) for r in records)
    _check_against_brute_force(built, records)


def _counted(counts, kind, original):
    def wrapper(*args, **kwargs):
        counts[kind] += 1
        return original(*args, **kwargs)
    return wrapper


def test_ingest_builds_no_publication_and_calls_from_publications_once(
        tmp_path, monkeypatch):
    counts = {"from_publications": 0, "publications": 0, "names": 0}
    # through the class attribute a tracer wraps
    build = corpus_mod.Corpus.__dict__["from_publications"].__func__
    monkeypatch.setattr(corpus_mod.Corpus, "from_publications", classmethod(
        _counted(counts, "from_publications", build)))
    for attr in ("__init__", "_fill"):
        monkeypatch.setattr(Publication, attr, _counted(
            counts, "publications", getattr(Publication, attr)))
    monkeypatch.setattr(AuthorName, "__init__", _counted(
        counts, "names", AuthorName.__init__))
    records = make_random_records(np.random.default_rng(44), 30)
    lines = [*map(json.dumps, records[:10]), "", "   ",
             json.dumps(_record("bad", year=None)), *map(json.dumps,
                                                         records[10:])]
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, lines)
    corpus = ingest(path)
    assert counts == {"from_publications": 1, "publications": 0, "names": 0}
    assert len(corpus) == 30 and len(corpus.ingest_report.rejected) == 1
    # the counters do count
    corpus.publications[records[0]["id"]]
    assert counts["publications"] == 1


def _module_caches():
    """The function caches of ``corpus.py``: its module-level functions'
    and its classes' methods'."""
    owners = [corpus_mod, *(value for value in vars(corpus_mod).values()
                            if isinstance(value, type)
                            and value.__module__ == corpus_mod.__name__)]
    found = {}
    for owner in owners:
        for name, value in vars(owner).items():
            value = getattr(value, "__func__", value)   # a classmethod's
            if hasattr(value, "cache_info"):
                found[f"{owner.__name__}.{name}"] = value
    return found


def _module_sizes():
    return {name: len(value) for name, value in vars(corpus_mod).items()
            if isinstance(value, (dict, list, set))}


def test_no_module_level_cache_grows_with_the_corpus():
    config = GeneratorConfig(
        rng_seed=77,
        specialties=tuple(
            SpecialtyParams(label=label, n_publications=1500,
                            internal_reference_fraction=0.1,
                            reprint_author_rule="none")
            for label in ("alpha", "beta")),
        cross_contamination=0.10)
    records = build_records(config)[0]
    assert len(records) == 3000
    sizes = _module_sizes()
    caches = _module_caches()
    assert "DocType.from_label" in caches   # the search finds caches
    corpus = Corpus.from_publications(parse_record(r) for r in records)
    list(corpus)   # every publication read back once
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.maxsize is not None, name
        assert info.currsize <= info.maxsize, name
    assert _module_sizes() == sizes


def test_query_path_builds_no_publication_or_posting_frozenset(monkeypatch):
    config = GeneratorConfig(
        rng_seed=32,
        specialties=(SpecialtyParams(label="alpha", n_publications=400),
                     SpecialtyParams(label="beta", n_publications=400)),
        cross_contamination=0.1)
    records, truth = build_records(config)
    corpus = Corpus.from_publications(parse_record(r) for r in records)
    window = YearWindow(2010, 2012)
    alpha = sorted(pid for pid, label in truth.labels.items()
                   if label == "alpha")
    built = {"publications": 0, "postings": 0}
    for owner, attr, kind in ((Publication, "__init__", "publications"),
                              (Publication, "_fill", "publications"),
                              (Postings, "__getitem__", "postings")):
        monkeypatch.setattr(owner, attr, _counted(built, kind,
                                                  getattr(owner, attr)))
    truth = GroundTruth(labels=dict(truth.labels))
    for scope in (AuthorScope.AUTO, AuthorScope.ALL_AUTHORS,
                  AuthorScope.REPRINT_ONLY):
        record = build_seed_record(corpus, alpha[:60])
        keys = compute_all_keys(corpus, record, KeysConfig(
            threshold_cell=0.6, threshold_title=0.6, threshold_author=0.6,
            threshold_reference=0.6, author_scope=scope))
        seed_coverage_histogram(corpus, record, keys)
        result = build_approximation(corpus, keys, window)
        key_author_match_counts(corpus, keys, window)
        rank_authors(result, corpus, focal=keys.authors.values[0],
                     conflict_window=window)
        rank_authors(keys.authors, corpus)
        mutual_coverage("peer", alpha[60:90], keys, result, corpus)
        coverage_of_record_by_keys(alpha[60:90], keys, 3, corpus)
        evaluate_recovery(result, truth, "alpha", corpus)
    assert built == {"publications": 0, "postings": 0}
    # the counters do count: an on-read view builds both
    corpus.publications[alpha[0]]
    corpus.by_cell[next(iter(corpus.by_cell))]
    assert built == {"publications": 1, "postings": 1}
