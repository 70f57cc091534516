"""Metamorphic tests: changes to the input that must change no artifact.

A publication added to the corpus takes a row in sorted-id order and
moves every later publication down a row; the ids it is given here sort
first, so these tests also show that no row number reaches an artifact.
"""

import gc
import json
import random

import pytest

from specialty_approx import GeneratorConfig, SpecialtyParams, cli
from specialty_approx.syngen import build_records, write_corpus

WINDOW = "2010:2012"


def run_main(*argv):
    code = cli.main([str(a) for a in argv])
    gc.unfreeze()   # _ingest froze this process's heap
    assert code == 0, argv


@pytest.fixture(scope="module")
def pair_corpus(tmp_path_factory):
    """A 2k two-specialty corpus, its truth, and a seed and a peer record."""
    root = tmp_path_factory.mktemp("metamorphic")
    config = GeneratorConfig(
        rng_seed=77,
        specialties=(SpecialtyParams(label="alpha", n_publications=1000),
                     SpecialtyParams(label="beta", n_publications=1000)),
        cross_contamination=0.1,
    )
    records, truth = build_records(config)
    truth.write_jsonl(root / "truth.jsonl")
    in_window = sorted(r["id"] for r in records if 2010 <= r["year"] <= 2012)
    for label, n in (("alpha", 150), ("beta", 40)):
        ids = [pid for pid in in_window if truth.labels[pid] == label][:n]
        (root / f"{label}.txt").write_text("\n".join(ids) + "\n",
                                           encoding="utf-8")
    return root, records


def run_commands(root, corpus, out):
    """approx, then reviewers, coverage and evaluate on its run."""
    run = out / "approx"
    run_main("approx", corpus, "--ids", root / "alpha.txt",
             "--window", WINDOW, "--out", run)
    run_main("reviewers", corpus, "--run", run, "--out", out / "reviewers")
    run_main("coverage", corpus, "--run", run, "--ids", root / "beta.txt",
             "--out", out / "coverage")
    run_main("evaluate", corpus, "--run", run, "--truth",
             root / "truth.jsonl", "--target", "alpha",
             "--out", out / "evaluate")


def artifacts(out):
    """Every file a command wrote, by command and name, manifests aside."""
    return {(d.name, f.name): f.read_bytes()
            for d in sorted(out.iterdir()) for f in sorted(d.iterdir())
            if f.name != "manifest.json"}


def test_corpus_line_order_changes_no_artifact(pair_corpus):
    root, records = pair_corpus
    shuffled = list(records)
    random.Random(3).shuffle(shuffled)
    written = {}
    for name, lines in (("ordered", records), ("shuffled", shuffled)):
        corpus = root / f"{name}.jsonl"
        write_corpus(lines, corpus)
        run_commands(root, corpus, root / name)
        written[name] = artifacts(root / name)
    assert sorted(written["ordered"]) == sorted([
        ("approx", "approximation.csv"), ("approx", "keys.csv"),
        ("approx", "seed.csv"), ("approx", "summary.json"),
        ("coverage", "coverage.json"), ("evaluate", "evaluation.json"),
        ("reviewers", "rankings.csv"), ("reviewers", "reviewer_report.json"),
    ])
    assert written["shuffled"] == written["ordered"]


def approx_artifacts(root, records, name, window=WINDOW):
    """``approx`` on ``records``: its files by name, the summary parsed."""
    corpus = root / f"{name}.jsonl"
    write_corpus(records, corpus)
    out = root / name
    run_main("approx", corpus, "--ids", root / "alpha.txt",
             "--window", window, "--out", out)
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())
             if f.name != "manifest.json"}
    return json.loads(files.pop("summary.json")), files


def test_widening_the_window_past_the_corpus_years_changes_only_it(
        pair_corpus):
    root, records = pair_corpus
    years = sorted({r["year"] for r in records})
    spanning = f"{years[0]}:{years[-1]}"
    wider = f"{years[0] - 100}:{years[-1] + 10**6}"
    summary, files = approx_artifacts(root, records, "spanning", spanning)
    wide_summary, wide_files = approx_artifacts(root, records, "wider", wider)
    assert wide_files == files
    assert wide_summary["config"]["window"] == wider
    assert wide_summary["approximation"]["window"] == wider
    wide_summary["config"]["window"] = spanning
    wide_summary["approximation"]["window"] = spanning
    assert wide_summary == summary


def test_an_unrelated_in_window_publication_only_joins_bin_zero(pair_corpus):
    root, records = pair_corpus
    unrelated = {
        "id": "0unrelated", "year": 2011, "doc_type": "Article",
        "source_id": "nowhere", "subject_categories": ["UNRELATED"],
        "title": "zzqx wwvyk qqqjz", "reprint_author": 0,
        "authors": [{"surname": "Nobody", "initials": "Q"}],
        "references": ["10.0000/unrelated"],
    }
    summary, files = approx_artifacts(root, records, "base")
    added_summary, added_files = approx_artifacts(
        root, [*records, unrelated], "unrelated-added")
    assert added_files == files
    approximation = summary["approximation"]
    approximation["n_in_window"] += 1
    approximation["histogram"]["0"] += 1
    approximation["subset_sizes"]["0000"] += 1
    assert added_summary == summary


def test_an_uncited_out_of_window_publication_changes_nothing(pair_corpus):
    root, records = pair_corpus
    seed_ids = (root / "alpha.txt").read_text(encoding="utf-8").split()
    first = next(r for r in records if r["id"] == seed_ids[0])
    # the seed's own values in every field, and it cites the seed
    citer = {**first, "id": "0citer", "year": 2009,
             "references": sorted({*first["references"], *seed_ids[:20]})}
    summary, files = approx_artifacts(root, records, "base-out")
    added_summary, added_files = approx_artifacts(
        root, [*records, citer], "citer-added")
    assert added_files == files
    assert added_summary == summary
