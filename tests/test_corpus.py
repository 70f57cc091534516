"""Data model, parsing, and index tests for the corpus layer."""

import gc
import itertools
import json
import pickle
import tempfile
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_random_records, records_to_corpus
from oracles import (oracle_author_key, oracle_is_doi, oracle_tokens,
                     record_field_values)
from specialty_approx import (
    AuthorName, AuthorScope, CellId, Corpus, DocType, FieldKind,
    GeneratorConfig, KeysConfig, Publication, SeedRecord, SpecialtyParams,
    derive_cell, field_frequencies, ingest, is_doi_like, normalize_author_key,
    parse_record, tokenize_title,
)
from specialty_approx.corpus import Postings
from specialty_approx.keys import FIELD_SPECS
from specialty_approx.syngen import build_records
from specialty_approx.errors import (
    DuplicatePubId, EmptyCategorySet, FileUnreadable, SchemaError,
)


def minimal_record(**overrides) -> dict:
    record = {
        "id": "p1",
        "year": 2010,
        "doc_type": "Article",
        "source_id": "s1",
        "subject_categories": ["Phys"],
        "title": "Greedy coverage of citation networks",
        "authors": [{"surname": "Weiss", "initials": "A"}],
        "reprint_author": 0,
        "references": ["10.1000/xyz1"],
    }
    record.update(overrides)
    return record


# ----------------------------------------------------------------- tokenizer

@pytest.mark.parametrize("title,expected", [
    ("Order-statistics of runs", {"order", "statistics", "of", "runs"}),
    ("  A  b   C ", {"a", "b", "c"}),
    ("semi-conductors: 2D!", {"semi", "conductors", "2d"}),
    ("", set()),
    ("___---...", set()),
])
def test_tokenize_title_splits_on_every_non_alphanumeric(title, expected):
    assert tokenize_title(title) == frozenset(expected)


def test_tokenize_title_min_len_filters():
    assert tokenize_title("an apple of discord", min_len=5) == {"apple", "discord"}


def test_tokenize_title_agrees_with_reference_tokenizer():
    rng = np.random.default_rng(11)
    for record in make_random_records(rng, 60):
        for min_len in (1, 5):
            assert tokenize_title(record["title"], min_len) == \
                oracle_tokens(record["title"], min_len)


def test_tokenize_title_treats_non_ascii_as_separator():
    assert tokenize_title("naïve café") == {"na", "ve", "caf"}


# --------------------------------------------------------------- DOI matcher

@pytest.mark.parametrize("ref,expected", [
    ("10.1000/xyz", True),
    ("doi:10.1000/xyz", True),
    ("DOI:10.123456789/a.b-c", True),
    (" 10.1234/suffix ", True),
    ("10.123/short-registrant", False),
    ("10.1234567890/too-long", False),
    ("11.1234/not-a-doi", False),
    ("10.1234/", False),
    ("10.1234", False),
    ("plainref001", False),
    ("10.12a4/mixed", False),
])
def test_is_doi_like(ref, expected):
    assert is_doi_like(ref) is expected
    assert oracle_is_doi(ref) is expected


# ------------------------------------------------------------- author naming

def test_author_key_folds_diacritics_and_case():
    assert AuthorName.from_raw("Müller", "j").key == "MULLER J"
    assert AuthorName.from_raw("garcía", "M.R.").key == "GARCIA M"
    assert AuthorName.from_raw("Kovács", "Z") == AuthorName("KOVACS", "Z")


def test_author_key_uses_first_alphabetic_initial():
    assert AuthorName.from_raw("Brown", ".R.J.").first_initial == "R"
    with pytest.raises(ValueError):
        AuthorName.from_raw("Brown", "...")
    with pytest.raises(ValueError):
        AuthorName.from_raw("", "R")


def test_author_key_matches_reference_folding():
    for surname in ("Müller", "García", "Kovács", "O'Neil", "van der Berg"):
        assert AuthorName.from_raw(surname, "Q").key == \
            oracle_author_key(surname, "Q")


@pytest.mark.parametrize("raw,expected", [
    ("Weiss A", "WEISS A"),
    ("  müller   j ", "MULLER J"),
    ("van der Berg K", "VAN DER BERG K"),
])
def test_normalize_author_key(raw, expected):
    assert normalize_author_key(raw) == expected


def test_normalize_author_key_rejects_non_keys():
    for bad in ("", "Weiss", "Weiss AB"):
        with pytest.raises(ValueError):
            normalize_author_key(bad)


# ------------------------------------------------------------------ doc type

@pytest.mark.parametrize("label,expected", [
    ("Article", DocType.ARTICLE),
    ("review", DocType.REVIEW),
    ("Meeting Abstract", DocType.MEETING_ABSTRACT),
    ("meeting-abstract", DocType.MEETING_ABSTRACT),
    ("PROCEEDINGS PAPER", DocType.PROCEEDINGS_PAPER),
    ("editorial material", DocType.EDITORIAL_MATERIAL),
    ("never-heard-of-it", DocType.OTHER),
])
def test_doc_type_folding(label, expected):
    assert DocType.from_label(label) is expected


# ---------------------------------------------------------------------- cell

def test_cell_id_sorts_and_deduplicates():
    cell = derive_cell(["Phys", "Bio", "Phys"])
    assert cell.categories == ("Bio", "Phys")
    assert cell.key == "Bio|Phys"
    assert derive_cell(["Bio", "Phys"]) == cell


def test_cell_id_requires_categories():
    with pytest.raises(EmptyCategorySet):
        CellId(())


def test_cell_ids_order_deterministically():
    cells = [derive_cell(c) for c in (["b"], ["a", "c"], ["a"])]
    assert sorted(cells) == [derive_cell(["a"]), derive_cell(["a", "c"]),
                             derive_cell(["b"])]


# --------------------------------------------------------------- publication

def test_publication_canonicalizes_collections():
    pub = parse_record(minimal_record(
        subject_categories=["Phys", "Bio", "Phys"],
        references=["r2", "r1", "r2"],
    ))
    assert pub.subject_categories == ("Bio", "Phys")
    assert pub.references == frozenset({"r1", "r2"})
    assert pub.cell.key == "Bio|Phys"


def test_publication_rejects_self_reference():
    with pytest.raises(SchemaError):
        parse_record(minimal_record(references=["p1"]))


def test_publication_rejects_bad_reprint_index():
    with pytest.raises(SchemaError):
        parse_record(minimal_record(reprint_author=1))
    with pytest.raises(SchemaError):
        parse_record(minimal_record(reprint_author=-1))
    with pytest.raises(SchemaError):
        parse_record(minimal_record(authors=[], reprint_author=0))


def test_publication_accepts_null_reprint_and_empty_authors():
    pub = parse_record(minimal_record(authors=[], reprint_author=None))
    assert pub.author_keys == frozenset()
    assert pub.reprint_author_key is None


def test_publication_rejects_boolean_year():
    with pytest.raises(ValueError):
        Publication(
            pub_id="x", year=True, doc_type=DocType.ARTICLE, source_id="s",
            subject_categories=("a",), title="t", authors=(),
            reprint_author=None, references=frozenset(),
        )


def test_publication_derived_fields():
    pub = parse_record(minimal_record(
        title="Coverage of greedy covers",
        authors=[{"surname": "Weiss", "initials": "A"},
                 {"surname": "Weiss", "initials": "A.B."}],
        reprint_author=1,
        references=["10.1000/x", "plain0"],
    ))
    assert pub.title_tokens == {"coverage", "of", "greedy", "covers"}
    # both raw occurrences fold to one identity
    assert pub.author_keys == {"WEISS A"}
    assert pub.reprint_author_key == "WEISS A"
    assert pub.doi_references == {"10.1000/x"}


# -------------------------------------------------------------- parse_record

@pytest.mark.parametrize("mutation,fragment", [
    (dict(id=""), "id"),
    (dict(id=7), "id"),
    (dict(year="2010"), "year"),
    (dict(year=True), "year"),
    (dict(doc_type=3), "doc_type"),
    (dict(title=None), "title"),
    (dict(subject_categories=[]), "subject_categories"),
    (dict(subject_categories=["a|b"]), "'|'"),
    (dict(subject_categories=["a", ""]), "subject_categories"),
    (dict(authors="Weiss"), "authors"),
    (dict(authors=[{"surname": "Weiss"}]), "author 0"),
    (dict(authors=[{"surname": "", "initials": "A"}]), "author 0"),
    (dict(reprint_author="0"), "reprint_author"),
    (dict(references="r1"), "references"),
    (dict(references=["ok", ""]), "empty string"),
    (dict(title="lone \ud800 surrogate"), "'title' holds a lone surrogate"),
    (dict(authors=[{"surname": "Wei\udcffss", "initials": "A"}]),
     "author 0 holds a lone surrogate"),
    (dict(subject_categories=["Phys", "Chem\udbff"]),
     "'subject_categories' holds a lone surrogate"),
    (dict(references=["\ud800x"]), "'references' holds a lone surrogate"),
])
def test_parse_record_schema_violations(mutation, fragment):
    with pytest.raises(SchemaError) as exc_info:
        parse_record(minimal_record(**mutation), line_no=7)
    assert exc_info.value.line_no == 7
    assert fragment in str(exc_info.value)


@pytest.mark.parametrize("mutation,reason", [
    (dict(subject_categories=["", "a|b"]),
     "'subject_categories' must be non-empty strings"),
    (dict(year="2010", title=None), "'year' must be an integer"),
    (dict(year=True, subject_categories=["a|b"]), "'year' must be an integer"),
    (dict(subject_categories=[], authors="Weiss"),
     "'subject_categories' must be non-empty strings"),
    (dict(subject_categories=["a|b"], references=["p1"]),
     "subject category contains '|'"),
    (dict(reprint_author=5, references=[""]),
     "'references' contains an empty string"),
    (dict(reprint_author=5, references=["p1"]),
     "publication references itself"),
])
def test_parse_record_reports_the_first_fault_in_field_order(mutation,
                                                             reason):
    with pytest.raises(SchemaError) as exc_info:
        parse_record(minimal_record(**mutation), line_no=4)
    assert (exc_info.value.line_no, exc_info.value.reason) == (4, reason)


def test_parse_record_missing_keys_are_listed():
    record = minimal_record()
    del record["year"], record["title"]
    with pytest.raises(SchemaError) as exc_info:
        parse_record(record)
    assert "year" in str(exc_info.value) and "title" in str(exc_info.value)


def test_parse_record_ignores_unknown_keys():
    assert parse_record(minimal_record(extra="ignored")).pub_id == "p1"


def test_publication_stores_shared_compact_fields():
    first = parse_record(minimal_record(
        subject_categories=["Phys", "Bio"],
        authors=[{"surname": "Weiss", "initials": "A"}] * 2,
        references=["r1", "r2", "r1"]))
    second = parse_record(minimal_record(
        id="p2", subject_categories=["Bio", "Phys", "Bio"],
        authors=[{"surname": "Weiss", "initials": "A"}], references=["r2"]))
    assert not hasattr(first, "__dict__")
    assert first.cell is second.cell
    assert first.authors[0] is first.authors[1] is second.authors[0]
    assert sorted(first.references) == ["r1", "r2"]
    with pytest.raises(AttributeError):
        first.year = 2011


def test_publication_equality_repr_and_pickling_follow_its_fields():
    pub = parse_record(minimal_record(references=["r2", "r1", "r2"]))
    same = Publication(
        pub_id="p1", year=2010, doc_type=DocType.ARTICLE, source_id="s1",
        subject_categories=["Phys"],
        title="Greedy coverage of citation networks",
        authors=[AuthorName("WEISS", "A")], reprint_author=0,
        references=["r1", "r2"])
    assert pub == same and hash(pub) == hash(same)
    assert pub != parse_record(minimal_record(year=2011))
    assert repr(pub) == (
        "Publication(pub_id='p1', year=2010, doc_type=<DocType.ARTICLE: "
        "'Article'>, source_id='s1', subject_categories=('Phys',), "
        "title='Greedy coverage of citation networks', "
        "authors=(AuthorName(surname='WEISS', first_initial='A'),), "
        f"reprint_author=0, references={pub.references!r})")
    assert pickle.loads(pickle.dumps(pub)) == pub


# records whose raw values exercise every derivation a field makes
_EDGE_RECORDS = [
    minimal_record(id="e-dup-refs",
                   references=["10.1000/a", "plain1", "10.1000/a", "plain1"]),
    minimal_record(id="e-repeated-authors",
                   authors=[{"surname": "Weiss", "initials": "A"},
                            {"surname": "Weiss", "initials": "A.B."},
                            {"surname": "Wei\u00df", "initials": "a"}],
                   reprint_author=2),
    minimal_record(id="e-diacritics",
                   title="Na\u00efve caf\u00e9: semi-conductors in 2D!",
                   authors=[{"surname": "M\u00fcller", "initials": "j"},
                            {"surname": "Garc\u00eda", "initials": "M.R."},
                            {"surname": "Kov\u00e1cs", "initials": " Z "}],
                   reprint_author=1),
    minimal_record(id="e-doi-prefixes",
                   references=["doi:10.1234/xyz", "DOI:10.55555/abc",
                               " 10.1000/padded ", "10.12/short", "plain2"]),
    minimal_record(id="e-no-authors", authors=[], reprint_author=None,
                   subject_categories=["Phys", "Bio", "Phys"], references=[]),
]


def test_every_record_field_values_match_the_oracle(tmp_path):
    config = GeneratorConfig(
        rng_seed=12,
        specialties=(SpecialtyParams(label="alpha", n_publications=150),
                     SpecialtyParams(label="beta", n_publications=150)),
        cross_contamination=0.1,
    )
    records = [*build_records(config)[0],
               *make_random_records(np.random.default_rng(13), 60),
               *_EDGE_RECORDS]
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, records)
    corpus = ingest(path)
    assert corpus.ingest_report.ok and len(corpus) == len(records)

    for scope, min_word_len, doi_only in itertools.product(
            (AuthorScope.ALL_AUTHORS, AuthorScope.REPRINT_ONLY), (1, 3, 5),
            (False, True)):
        keys_config = KeysConfig(min_word_len=min_word_len,
                                 author_scope=scope,
                                 doi_only_references=doi_only)
        for field, spec in FIELD_SPECS.items():
            table = spec.forward(corpus, scope).values
            for record in records:
                row = corpus.rows[record["id"]]
                expected = record_field_values(
                    record, field.value, min_word_len=min_word_len,
                    scope=scope.value, doi_only=doi_only)
                assert {table[v] for v in spec.count(
                    corpus, [row], keys_config)} == expected, \
                    (record["id"], field, scope, min_word_len, doi_only)


_TITLE_EDGE_RECORDS = [
    minimal_record(id="t-no-token", title="!!! -- ... ?"),
    minimal_record(id="t-repeated", title="Graph graph GRAPH, graph."),
    minimal_record(id="t-non-ascii",
                   title="\u00d6lfeld na\u00efve Stra\u00dfe \u00fcber"),
    minimal_record(id="t-short", title="an of to at b"),
]


def test_title_word_forward_index_counts_as_tokenize_title():
    config = GeneratorConfig(
        rng_seed=14,
        specialties=(SpecialtyParams(label="alpha", n_publications=200),))
    records = [*build_records(config)[0],
               *make_random_records(np.random.default_rng(15), 60),
               *_TITLE_EDGE_RECORDS]
    corpus = records_to_corpus(records)
    ids = [record["id"] for record in records]
    words = corpus.title_word.values
    for pid in ids:   # each publication's distinct words, once each
        counts = corpus.title_word.count([corpus.rows[pid]])
        assert {words[w]: n for w, n in counts.items()} == dict.fromkeys(
            tokenize_title(corpus.publications[pid].title), 1), pid

    for min_word_len in range(1, 9):
        keys_config = KeysConfig(min_word_len=min_word_len)
        for group in (ids, ids[::3], [r["id"] for r in _TITLE_EDGE_RECORDS]):
            seed = SeedRecord(initial_ids=frozenset(group),
                              extended_ids=frozenset(),
                              unresolved_references=frozenset())
            expected = Counter(chain.from_iterable(
                tokenize_title(corpus.publications[pid].title, min_word_len)
                for pid in group))
            assert field_frequencies(corpus, seed, FieldKind.TITLE_WORD,
                                     keys_config) == expected, min_word_len


# -------------------------------------------------------------------- corpus

def test_corpus_indexes_round_trip():
    rng = np.random.default_rng(5)
    records = make_random_records(rng, 80)
    corpus = records_to_corpus(records)
    assert len(corpus) == 80

    for pub in corpus:
        assert pub.pub_id in corpus.by_cell[pub.cell.key]
        for word in pub.title_tokens:
            assert pub.pub_id in corpus.by_title_word[word]
        for key in pub.author_keys:
            assert pub.pub_id in corpus.by_author_key[key]
        if pub.reprint_author_key is not None:
            assert pub.pub_id in corpus.by_reprint_author_key[pub.reprint_author_key]
        for ref in pub.references:
            assert pub.pub_id in corpus.by_reference[ref]
        assert pub.pub_id in corpus.by_year[pub.year]

    # and nothing extra: every index entry points at a real carrier
    for word, ids in corpus.by_title_word.items():
        for pid in ids:
            assert word in corpus.publications[pid].title_tokens
    for ref, ids in corpus.by_reference.items():
        for pid in ids:
            assert ref in corpus.publications[pid].references


def test_corpus_ids_in_years():
    rng = np.random.default_rng(6)
    corpus = records_to_corpus(make_random_records(rng, 50, years=(2001, 2004)))
    expected = {p.pub_id for p in corpus if p.year in (2002, 2003)}
    assert corpus.ids_in_years([2002, 2003]) == expected
    assert corpus.ids_in_years([1990]) == frozenset()


def test_corpus_rejects_duplicate_ids():
    records = [minimal_record(), minimal_record()]
    with pytest.raises(DuplicatePubId):
        records_to_corpus(records)


# -------------------------------------------------------------------- ingest

def write_jsonl(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs),
                    encoding="utf-8")


def test_ingest_accepts_valid_file(tmp_path):
    rng = np.random.default_rng(8)
    records = make_random_records(rng, 30)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, records)
    corpus = ingest(path)
    assert len(corpus) == 30
    assert corpus.ingest_report.ok
    assert corpus.ingest_report.total_lines == 30
    assert corpus.ingest_report.accepted == 30


def test_ingest_skips_and_reports_bad_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [
        json.dumps(minimal_record()),
        "not json at all",
        "",
        json.dumps(minimal_record(id="p2", year="bad")),
        json.dumps(minimal_record(id="p3")),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = ingest(path)
    assert sorted(corpus.publications) == ["p1", "p3"]
    report = corpus.ingest_report
    assert not report.ok
    assert report.total_lines == 4  # the blank line is not counted
    assert [r.line_no for r in report.rejected] == [2, 4]
    assert "JSON" in report.rejected[0].reason


def test_ingest_strict_raises_on_first_bad_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(minimal_record()) + "\n{broken\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError) as exc_info:
        ingest(path, strict=True)
    assert exc_info.value.line_no == 2


def test_ingest_duplicate_id_raises_even_when_lenient(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [minimal_record(), minimal_record()])
    with pytest.raises(DuplicatePubId):
        ingest(path)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileUnreadable):
        ingest(tmp_path / "nope.jsonl")


def test_ingest_keeps_unicode_line_breaks_inside_records(tmp_path):
    title = "Greedy coverage\u2028of citation\u0085networks"
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(minimal_record(title=title), ensure_ascii=False)
                    + "\n", encoding="utf-8")
    corpus = ingest(path)
    assert corpus.ingest_report.ok
    assert corpus.publications["p1"].title == title


def test_ingest_invalid_utf8_after_valid_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [minimal_record(id=f"p{i}") for i in range(200)])
    with open(path, "ab") as handle:
        handle.write(b"\xff\n")
    with pytest.raises(FileUnreadable):
        ingest(path)


def test_ingest_rejects_undecodable_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps(minimal_record()), "1" * 5000, "[" * 100_000]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = ingest(path).ingest_report
    assert report.accepted == 1
    assert [r.line_no for r in report.rejected] == [2, 3]
    assert all(r.reason.startswith("invalid JSON") for r in report.rejected)
    for line_no in (2, 3):
        path.write_text(lines[line_no - 1] + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc_info:
            ingest(path, strict=True)
        assert exc_info.value.line_no == 1


def _lenient_duplicate(path):
    write_jsonl(path, [minimal_record(), minimal_record()])
    return False, DuplicatePubId


def _strict_schema_error(path):
    path.write_text("{broken\n", encoding="utf-8")
    return True, SchemaError


def _unreadable(path):
    return False, FileUnreadable


def _valid(path):
    write_jsonl(path, [minimal_record()])
    return False, None


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("prepare", [
    _valid, _lenient_duplicate, _strict_schema_error, _unreadable,
])
def test_ingest_restores_collector_state(tmp_path, enabled, prepare):
    strict, error = prepare(tmp_path / "corpus.jsonl")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            ingest(tmp_path / "corpus.jsonl", strict=strict)
        else:
            with pytest.raises(error):
                ingest(tmp_path / "corpus.jsonl", strict=strict)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_ingest_shares_equal_value_strings(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [
        minimal_record(id="p1", title="Greedy covers",
                       authors=[{"surname": "Weiss", "initials": "A"}],
                       references=["10.1000/shared"]),
        minimal_record(id="p2", title="Greedy sets",
                       authors=[{"surname": "Wei\u00df", "initials": "A.B."}],
                       references=["10.1000/shared"]),
    ])
    corpus = ingest(path)
    p1, p2 = corpus.publications["p1"], corpus.publications["p2"]

    def the(values, value):
        return next(v for v in values if v == value)

    for own, index, value in [
        (lambda p: p.references, corpus.by_reference, "10.1000/shared"),
        (lambda p: p.title_tokens, corpus.by_title_word, "greedy"),
        (lambda p: p.author_keys, corpus.by_author_key, "WEISS A"),
    ]:
        shared = the(own(p1), value)
        assert the(own(p2), value) is shared
        assert the(index, value) is shared
    assert p1.authors[0].surname is p2.authors[0].surname


def test_parse_record_accepts_str_subclasses():
    class Text(str):
        pass

    pub = parse_record(minimal_record(
        subject_categories=[Text("Phys")], title=Text("Greedy covers"),
        authors=[{"surname": Text("Weiss"), "initials": Text("A")}],
        references=[Text("10.1000/xyz1")],
    ))
    assert pub.references == {"10.1000/xyz1"}
    assert all(type(r) is str for r in pub.references)
    assert pub.author_keys == {"WEISS A"}


def test_ingest_indexes_equal_brute_force_rebuild(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, make_random_records(np.random.default_rng(9), 150))
    corpus = ingest(path)
    pubs = list(corpus)

    def rebuild(values_of):
        keys = {v for p in pubs for v in values_of(p)}
        return {k: frozenset(p.pub_id for p in pubs if k in values_of(p))
                for k in keys}

    expected = {
        "by_cell": rebuild(lambda p: {p.cell.key}),
        "by_title_word": rebuild(lambda p: p.title_tokens),
        "by_author_key": rebuild(lambda p: p.author_keys),
        "by_reprint_author_key": rebuild(
            lambda p: {p.reprint_author_key} - {None}),
        "by_reference": rebuild(lambda p: p.references),
        "by_year": rebuild(lambda p: {p.year}),
    }
    assert corpus.by_reprint_author_key and corpus.by_reference
    for name, index in expected.items():
        built = getattr(corpus, name)
        assert isinstance(built, Postings), name
        assert built == index, name
        assert all(type(ids) is frozenset for ids in built.values()), name


# ------------------------------------------------------------------ fuzzing

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters() | st.characters(categories=["Cs"]), max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=8,
)
_REQUIRED = ("id", "year", "doc_type", "source_id", "subject_categories",
             "title", "authors", "reprint_author", "references")


def _parse_or_schema_error(obj) -> None:
    try:
        parse_record(obj, line_no=3)
    except SchemaError as exc:
        assert exc.line_no == 3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(obj=_JSON_VALUES)
def test_parse_record_fuzz_top_level_values(obj):
    _parse_or_schema_error(obj)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(overrides=st.dictionaries(st.sampled_from(_REQUIRED), _JSON_VALUES,
                                 min_size=1),
       author=st.dictionaries(st.sampled_from(("surname", "initials")),
                              _JSON_VALUES))
def test_parse_record_fuzz_required_values(overrides, author):
    _parse_or_schema_error(minimal_record(**overrides))
    record = minimal_record()
    record["authors"] = [{**record["authors"][0], **author}]
    _parse_or_schema_error(record)


def _verdict(obj, line_no):
    """parse_record's verdict: the publication, or (line, reason)."""
    try:
        return parse_record(obj, line_no)
    except SchemaError as exc:
        return exc.line_no, exc.reason


@settings(max_examples=300, deadline=None, derandomize=True)
@given(surname=st.sampled_from(["Weiss", "Wei\u00df", " o'neil", ""]),
       initials=st.sampled_from(["A", "j.r.", " Z ", "..."]),
       categories=st.lists(st.sampled_from(["Phys", "Bio", "Chem"]),
                           min_size=1, max_size=3),
       label=st.sampled_from(["Article", "review", "odd"]),
       overrides=st.dictionaries(st.sampled_from(_REQUIRED), _JSON_VALUES,
                                 max_size=1),
       author=st.dictionaries(st.sampled_from(("surname", "initials")),
                              _JSON_VALUES, max_size=1),
       second_author=st.booleans())
def test_primed_raw_values_give_the_verdict_of_a_cold_parse(
        surname, initials, categories, label, overrides, author,
        second_author):
    # the first record primes a raw author pair, category list and doc-type
    # label; the second shares them, some of its values fuzzed
    primed = {"authors": [{"surname": surname, "initials": initials}],
              "subject_categories": categories, "doc_type": label}
    primer = minimal_record(id="primer-record", **primed)
    record = minimal_record(**primed)
    fuzzed = {**record["authors"][0], **author}
    record["authors"] = ([record["authors"][0], fuzzed] if second_author
                         else [fuzzed])
    record.update(overrides)
    lines = [json.dumps(primer), json.dumps(record)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        corpus = ingest(path)
    rejected = {r.line_no: (r.line_no, r.reason)
                for r in corpus.ingest_report.rejected}
    for line_no, line in enumerate(lines, start=1):
        obj = json.loads(line)
        cold = _verdict(obj, line_no)
        if isinstance(cold, Publication):
            assert line_no not in rejected
            assert corpus.publications[obj["id"]] == cold
        else:
            assert rejected.get(line_no) == cold


# None marks a valid record, given a unique id from its line number
_LINES = st.lists(
    st.none()
    | st.text(st.characters(exclude_characters="\n"), max_size=30)
    | _JSON_VALUES.map(json.dumps),
    max_size=8,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lines=_LINES)
@example(lines=[None, "1" * 5000, "[" * 100_000, "", None])
def test_lenient_ingest_fuzz_reports_every_rejected_line(lines):
    texts = [json.dumps(minimal_record(id=f"p{i}")) if line is None else line
             for i, line in enumerate(lines)]
    valid = {i + 1 for i, line in enumerate(lines) if line is None}
    counted = {i + 1 for i, text in enumerate(texts) if text.strip()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes("".join(t + "\n" for t in texts).encode("utf-8"))
        corpus = ingest(path)
    report = corpus.ingest_report
    assert report.total_lines == len(counted)
    assert sorted(corpus.publications) == sorted(f"p{n - 1}" for n in valid)
    assert [r.line_no for r in report.rejected] == sorted(counted - valid)
