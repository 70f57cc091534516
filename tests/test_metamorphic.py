"""Metamorphic tests: changes to the input that must change no artifact."""

import gc
import random

import pytest

from specialty_approx import GeneratorConfig, SpecialtyParams, cli
from specialty_approx.syngen import build_records, write_corpus

WINDOW = "2010:2012"


def run_main(*argv):
    code = cli.main([str(a) for a in argv])
    gc.unfreeze()   # _load_corpus froze this process's heap
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
