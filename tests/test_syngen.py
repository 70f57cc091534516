"""Synthetic-corpus generator tests: determinism, pools, ground truth."""

import json
import tracemalloc

import pytest

from conftest import records_to_corpus
from specialty_approx import (
    GeneratorConfig, GroundTruth, SpecialtyParams, YearWindow,
    build_approximation, build_records, build_seed_record, compute_all_keys,
    evaluate_recovery, generate, is_doi_like, parse_record,
)
from specialty_approx.errors import (FileUnreadable, InvalidConfig,
                                     LabelMismatch, SchemaError)
from specialty_approx.keys import KeysConfig
from specialty_approx.syngen import (GENERATOR_ITEM_BUDGET,
                                     LOTKA_MAX_PRODUCTIVITY)


def small_params(label="solo", **overrides):
    base = dict(n_publications=120, n_core_cells=5, vocab_size=200,
                n_authors=150, n_reference_targets=150,
                year_range=(2010, 2012))
    base.update(overrides)
    return SpecialtyParams(label=label, **base)


def small_config(rng_seed=1, cross_contamination=0.0, labels=("solo",),
                 **overrides):
    return GeneratorConfig(
        rng_seed=rng_seed,
        specialties=tuple(small_params(l, **overrides) for l in labels),
        cross_contamination=cross_contamination,
    )


# ------------------------------------------------------------------- config

def test_params_validation():
    with pytest.raises(InvalidConfig):
        SpecialtyParams(label="Bad Label")
    with pytest.raises(InvalidConfig):
        small_params(n_publications=0)
    with pytest.raises(InvalidConfig):
        small_params(cell_concentration=1.0)
    with pytest.raises(InvalidConfig):
        small_params(title_length=(5, 2))
    with pytest.raises(InvalidConfig):
        small_params(reprint_author_rule="second")
    with pytest.raises(InvalidConfig):
        small_params(internal_reference_fraction=1.5)


def test_generator_config_validation():
    with pytest.raises(InvalidConfig):
        GeneratorConfig(rng_seed=1, specialties=())
    with pytest.raises(InvalidConfig):
        GeneratorConfig(rng_seed=1,
                        specialties=(small_params(), small_params()))
    with pytest.raises(InvalidConfig):
        small_config(cross_contamination=-0.1)


def test_generator_config_round_trips_and_loads(tmp_path):
    config = small_config(rng_seed=9, cross_contamination=0.25,
                          labels=("alpha", "beta"))
    assert GeneratorConfig.from_dict(config.to_dict()) == config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert GeneratorConfig.load(path) == config
    with pytest.raises(InvalidConfig):
        GeneratorConfig.from_dict({"rng_seed": 3})


def test_config_values_numpy_cannot_draw_are_rejected():
    for count in (2.5, 7.0, True, "7", 2**63):
        with pytest.raises(InvalidConfig):
            small_params(n_core_cells=count)
    for pair in ((1, 2**63), (-2**63 - 1, 2)):
        with pytest.raises(InvalidConfig):
            small_params(year_range=pair)
    with pytest.raises(InvalidConfig):
        small_config(rng_seed=-1)


@pytest.mark.parametrize("specialty", [
    {"label": "a", "n_publications": 1, "refs_per_pub": [2**62, 2**62]},
    {"label": "a", "n_publications": 10**9},
], ids=["refs-per-pub-2**62", "1e9-publications"])
def test_config_over_the_item_budget_is_rejected_at_load(tmp_path,
                                                        specialty):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rng_seed": 1, "specialties": [specialty]}),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(FileUnreadable, match="budget"):
            GeneratorConfig.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000   # rejected before anything is drawn
    with pytest.raises(InvalidConfig, match="over the budget"):
        GeneratorConfig.from_dict({"rng_seed": 1, "specialties": [specialty]})


def test_item_budget_counts_every_specialty():
    params = small_params()
    assert params.items == (120 * (12 + 2 * 25 + 8 + 6) + 5 + 200
                            + LOTKA_MAX_PRODUCTIVITY * 150 + 150)
    fits = GENERATOR_ITEM_BUDGET // params.items
    small_config(labels=tuple(f"s{k}" for k in range(fits)))
    with pytest.raises(InvalidConfig, match="over the budget"):
        small_config(labels=tuple(f"s{k}" for k in range(fits + 1)))


def test_lenient_config_values_still_load_as_before():
    # int() has always read these; the int64 checks keep them
    canonical = small_config(rng_seed=7, title_length=(2, 3)).to_dict()
    spec = canonical["specialties"][0]
    for lenient in ({"rng_seed": "7"}, {"rng_seed": 7.9},
                    {"specialties": [{**spec, "title_length": [2.5, 3]}]}):
        assert GeneratorConfig.from_dict({**canonical, **lenient}) == \
            GeneratorConfig.from_dict(canonical)
    assert small_params(authors_per_pub=[True, 2]).authors_per_pub == (1, 2)
    assert small_params(year_range=(-2**63, 2**63 - 1)).year_range == \
        (-2**63, 2**63 - 1)


# -------------------------------------------------------------- determinism

def test_build_records_is_deterministic():
    first, truth_a = build_records(small_config(rng_seed=7))
    second, truth_b = build_records(small_config(rng_seed=7))
    assert first == second
    assert dict(truth_a.labels) == dict(truth_b.labels)
    third, _ = build_records(small_config(rng_seed=8))
    assert first != third


def test_generate_files_are_byte_deterministic(tmp_path):
    config = small_config(rng_seed=3, cross_contamination=0.2,
                          labels=("alpha", "beta"))
    payloads = []
    for round_no in (1, 2):
        corpus_path = tmp_path / f"corpus{round_no}.jsonl"
        truth_path = tmp_path / f"truth{round_no}.jsonl"
        generate(config, corpus_path, truth_path)
        payloads.append((corpus_path.read_bytes(), truth_path.read_bytes()))
    assert payloads[0] == payloads[1]


# ------------------------------------------------------------ record shape

def test_generated_records_parse_and_respect_bounds():
    config = small_config(rng_seed=5, labels=("alpha", "beta"),
                          cross_contamination=0.1)
    records, truth = build_records(config)
    assert len(records) == 240
    corpus = records_to_corpus(records)         # every record parses
    assert len(corpus) == 240

    params = config.specialties[0]
    for record in records:
        assert record["references"] == sorted(set(record["references"]))
        assert record["id"] not in record["references"]
        assert len(record["references"]) <= params.refs_per_pub[1]
        n_authors = len(record["authors"])
        assert (params.authors_per_pub[0] <= n_authors
                <= params.authors_per_pub[1])
        assert params.year_range[0] <= record["year"] <= params.year_range[1]
        assert record["reprint_author"] is None or \
            0 <= record["reprint_author"] < n_authors


def test_ground_truth_labels_cover_every_record():
    records, truth = build_records(small_config(labels=("alpha", "beta")))
    assert set(truth.labels) == {r["id"] for r in records}
    assert set(truth.labels.values()) == {"alpha", "beta"}
    assert truth.ids_for("alpha") | truth.ids_for("beta") == set(truth.labels)
    assert truth.specialty_of(next(iter(truth.ids_for("alpha")))) == "alpha"


def test_ground_truth_jsonl_round_trip(tmp_path):
    _, truth = build_records(small_config(labels=("alpha", "beta")))
    path = tmp_path / "truth.jsonl"
    truth.write_jsonl(path)
    loaded = GroundTruth.read_jsonl(path)
    assert dict(loaded.labels) == dict(truth.labels)


@pytest.mark.parametrize("line", [
    '{"id": "x"}',
    '{"id": 7, "specialty": "alpha"}',
    '["x", "alpha"]',
    "{not json",
    "1" * 5000,
    "[" * 100_000,
], ids=["no-specialty", "int-id", "not-an-object", "invalid-json",
        "5000-digit-int", "deep-nesting"])
def test_ground_truth_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "truth.jsonl"
    path.write_text('{"id": "p1", "specialty": "alpha"}\n' + line + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError) as exc_info:
        GroundTruth.read_jsonl(path)
    assert exc_info.value.line_no == 2
    assert str(path) in str(exc_info.value)


def test_zero_contamination_keeps_pools_disjoint():
    records, truth = build_records(
        small_config(labels=("alpha", "beta"), cross_contamination=0.0))
    values = {"alpha": set(), "beta": set()}
    for record in records:
        label = truth.labels[record["id"]]
        values[label].update(record["subject_categories"])
        values[label].update(a["surname"] for a in record["authors"])
        values[label].update(record["references"])
    assert not values["alpha"] & values["beta"]


def test_contamination_mixes_partner_values():
    records, truth = build_records(
        small_config(labels=("alpha", "beta"), cross_contamination=0.5,
                     rng_seed=11))
    beta_cells = {
        tuple(r["subject_categories"]) for r in records
        if truth.labels[r["id"]] == "beta"
    }
    alpha_with_beta_cell = [
        r for r in records
        if truth.labels[r["id"]] == "alpha"
        and tuple(r["subject_categories"]) in beta_cells
    ]
    assert alpha_with_beta_cell                   # contamination is visible


def test_internal_reference_fraction_extremes():
    # pool no larger than the publication count, so fraction 1.0 leaves
    # no room for external filler ids
    all_internal, truth = build_records(
        small_config(internal_reference_fraction=1.0, rng_seed=2,
                     n_reference_targets=100))
    ids = set(truth.labels)
    for record in all_internal:
        assert set(record["references"]) <= ids

    all_external, _ = build_records(
        small_config(internal_reference_fraction=0.0, rng_seed=2))
    for record in all_external:
        for ref in record["references"]:
            assert is_doi_like(ref)
            assert ref not in ids


def test_reprint_rules():
    by_rule = {
        rule: build_records(small_config(reprint_author_rule=rule))[0]
        for rule in ("first", "last", "none")
    }
    assert all(r["reprint_author"] == 0 for r in by_rule["first"])
    assert all(r["reprint_author"] == len(r["authors"]) - 1
               for r in by_rule["last"])
    assert all(r["reprint_author"] is None for r in by_rule["none"])


def test_author_productivity_is_capped():
    records, _ = build_records(small_config(rng_seed=13))
    counts: dict[tuple, int] = {}
    for record in records:
        for entry in record["authors"]:
            key = (entry["surname"], entry["initials"])
            counts[key] = counts.get(key, 0) + 1
    assert max(counts.values()) <= LOTKA_MAX_PRODUCTIVITY


def test_no_duplicate_authors_within_one_record():
    records, _ = build_records(small_config(rng_seed=17,
                                            authors_per_pub=(1, 6)))
    for record in records:
        names = [(a["surname"], a["initials"]) for a in record["authors"]]
        assert len(names) == len(set(names))


# -------------------------------------------------------------- evaluation

def pipeline_on(config, n_initial=40, window=YearWindow(2010, 2012)):
    records, truth = build_records(config)
    corpus = records_to_corpus(records)
    target = sorted(
        pid for pid, label in truth.labels.items()
        if label == config.specialties[0].label
        and corpus.publications[pid].year in window
    )
    seed = build_seed_record(corpus, target[:n_initial])
    keys = compute_all_keys(corpus, seed, KeysConfig(
        threshold_cell=0.6, threshold_title=0.6,
        threshold_author=0.6, threshold_reference=0.6))
    return corpus, truth, build_approximation(corpus, keys, window, 3)


def test_evaluate_recovery_perfect_on_pure_single_specialty():
    corpus, truth, approximation = pipeline_on(
        small_config(rng_seed=19, internal_reference_fraction=0.4))
    precision, recall = evaluate_recovery(approximation, truth, "solo",
                                          corpus)
    assert precision == 1.0                       # only one specialty exists
    assert 0.0 < recall <= 1.0


def test_evaluate_recovery_counts_by_hand():
    corpus, truth, approximation = pipeline_on(
        small_config(rng_seed=23, internal_reference_fraction=0.4))
    member_ids = set(approximation.member_ids)
    in_window_target = {
        pid for pid, label in truth.labels.items()
        if label == "solo" and corpus.publications[pid].year
        in approximation.window
    }
    hits = len(member_ids & in_window_target)
    precision, recall = evaluate_recovery(approximation, truth, "solo",
                                          corpus)
    assert precision == hits / len(member_ids)
    assert recall == hits / len(in_window_target)


def test_evaluate_recovery_label_mismatches():
    corpus, truth, approximation = pipeline_on(small_config(rng_seed=29))
    with pytest.raises(LabelMismatch):
        evaluate_recovery(approximation, truth, "nonexistent", corpus)
    # a member without a label is a mismatch, not a silent skip
    partial = GroundTruth(labels={
        pid: label for pid, label in truth.labels.items()
        if pid != approximation.member_ids[0]
    })
    with pytest.raises(LabelMismatch):
        evaluate_recovery(approximation, partial, "solo", corpus)
    # a labeled id missing from the corpus is a mismatch as well
    augmented = GroundTruth(labels={**dict(truth.labels), "ghost": "solo"})
    with pytest.raises(LabelMismatch):
        evaluate_recovery(approximation, augmented, "solo", corpus)


def test_evaluate_recovery_names_the_first_offending_id_in_sorted_order():
    corpus, truth, approximation = pipeline_on(small_config(rng_seed=29))
    ghosts = [f"ghost{k:02d}" for k in range(40, 0, -3)]
    augmented = GroundTruth(labels={**dict(truth.labels),
                                    **dict.fromkeys(ghosts, "solo")})
    with pytest.raises(LabelMismatch, match=f"'{min(ghosts)}' not in corpus"):
        evaluate_recovery(approximation, augmented, "solo", corpus)
    unlabeled = approximation.member_ids[-5:]
    partial = GroundTruth(labels={pid: label
                                  for pid, label in truth.labels.items()
                                  if pid not in unlabeled})
    with pytest.raises(LabelMismatch,
                       match=f"5 member.*first: '{unlabeled[0]}'"):
        evaluate_recovery(approximation, partial, "solo", corpus)
