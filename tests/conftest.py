"""Shared fixtures: random record corpora and the pinned scenario batches."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

import specialty_approx as sa
from specialty_approx.syngen import GeneratorConfig, SpecialtyParams, build_records

ACCEPTANCE_RESULTS: list[str] = []


def pytest_configure(config):
    """Let the tests that start the CLI or a demo in a fresh interpreter
    import the package from this checkout, as ``pythonpath`` in
    ``pyproject.toml`` lets the tests themselves."""
    paths = (str(config.rootpath / "src"), os.environ.get("PYTHONPATH"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


# --------------------------------------------------------------- raw records

_SURNAMES = (
    "Weiss", "Müller", "García", "Okafor", "Tanaka", "Novak", "Silva",
    "Larsen", "Moreau", "Kovács", "Brown", "Owusu",
)
# the first two surnames also appear with a second initial -> homonyms
_HOMONYM_SURNAMES = ("Weiss", "Müller")
_INITIALS = ("A", "B", "C", "D", "E", "F", "J", "K", "M", "R", "S", "T")
_LONG_WORDS = (
    "clustering", "coverage", "citation", "frequency", "threshold",
    "specialty", "bibliometric", "approximation", "recall", "precision",
    "window", "greedy", "profile", "sampling", "corpus", "network",
)
_SHORT_WORDS = ("of", "in", "on", "a", "to", "the", "via", "and")
_CATEGORIES = ("Phys", "Chem", "Bio", "Math", "CompSci", "Stat")
_DOC_TYPES = ("Article", "review", "Letter", "Meeting Abstract", "oddity")
_EXTERNAL_DOIS = tuple(f"10.9999/ext{k:04d}" for k in range(40))
_OPAQUE_REFS = tuple(f"plainref{k:03d}" for k in range(20))


def make_random_records(
    rng: np.random.Generator,
    n_pubs: int,
    *,
    years: tuple[int, int] = (2005, 2008),
    reprint_share: float = 0.5,
    max_refs: int = 6,
) -> list[dict]:
    """Random raw records with homonyms, mixed references, varied titles."""
    records = []
    for i in range(n_pubs):
        pid = f"p{i:04d}"
        n_authors = int(rng.integers(1, 4))
        authors = []
        for _ in range(n_authors):
            surname = str(rng.choice(_SURNAMES))
            if surname in _HOMONYM_SURNAMES:
                initial = str(rng.choice(("A", "Z")))
            else:
                initial = str(rng.choice(_INITIALS))
            # vary the raw forms the parser must normalize
            if rng.random() < 0.3:
                initial = f"{initial}.{rng.choice(_INITIALS)}."
            authors.append({"surname": surname, "initials": initial})
        reprint = (int(rng.integers(0, n_authors))
                   if rng.random() < reprint_share else None)

        n_long = int(rng.integers(2, 6))
        words = list(rng.choice(_LONG_WORDS, size=n_long, replace=False))
        words += list(rng.choice(_SHORT_WORDS, size=int(rng.integers(0, 3))))
        rng.shuffle(words)
        separator = str(rng.choice((" ", " ", " ", "-", ": ")))
        title = separator.join(words)

        refs: set[str] = set()
        for _ in range(int(rng.integers(0, max_refs + 1))):
            kind = rng.random()
            if kind < 0.5 and i > 0:
                refs.add(f"p{int(rng.integers(0, i)):04d}")
            elif kind < 0.8:
                refs.add(str(rng.choice(_EXTERNAL_DOIS)))
            else:
                refs.add(str(rng.choice(_OPAQUE_REFS)))

        records.append({
            "id": pid,
            "year": int(rng.integers(years[0], years[1] + 1)),
            "doc_type": str(rng.choice(_DOC_TYPES)),
            "source_id": f"src{int(rng.integers(0, 5))}",
            "subject_categories": sorted(
                set(rng.choice(_CATEGORIES, size=int(rng.integers(1, 4))))
            ),
            "title": title,
            "authors": authors,
            "reprint_author": reprint,
            "references": sorted(refs),
        })
    return records


def records_to_corpus(records) -> sa.Corpus:
    return sa.Corpus.from_publications(sa.parse_record(r) for r in records)


# ----------------------------------------------------- pinned scenario batch

def two_specialty_config(rng_seed: int) -> GeneratorConfig:
    """The contamination scenario shared by several acceptance criteria."""
    spec = dict(n_publications=2000, internal_reference_fraction=0.1,
                reprint_author_rule="none")
    return GeneratorConfig(
        rng_seed=rng_seed,
        specialties=(SpecialtyParams(label="alpha", **spec),
                     SpecialtyParams(label="beta", **spec)),
        cross_contamination=0.10,
    )


WINDOW = sa.YearWindow(2010, 2012)


@dataclass
class ScenarioRun:
    """One generated two-specialty corpus pushed through the pipeline."""

    rng_seed: int
    corpus: sa.Corpus
    truth: object
    target_ids: list[str]          # in-window ids of the target specialty
    seed_record: sa.SeedRecord
    keys: sa.KeyValueSets
    histogram: dict[int, float]    # seed coverage histogram (fractions)
    approximation: sa.SpecialtyApproximation


def run_scenario(rng_seed: int, n_initial: int) -> ScenarioRun:
    records, truth = build_records(two_specialty_config(rng_seed))
    corpus = records_to_corpus(records)
    target_ids = sorted(
        pid for pid, label in truth.labels.items()
        if label == "alpha" and corpus.publications[pid].year in WINDOW
    )
    seed_record = sa.build_seed_record(corpus, target_ids[:n_initial])
    keys = sa.compute_all_keys(corpus, seed_record)
    histogram = sa.seed_coverage_histogram(corpus, seed_record, keys)
    approximation = sa.build_approximation(corpus, keys, WINDOW, min_fields=3)
    return ScenarioRun(rng_seed, corpus, truth, target_ids, seed_record,
                       keys, histogram, approximation)


@dataclass
class TrialBatch:
    runs: list[ScenarioRun]
    elapsed_seconds: float


@pytest.fixture(scope="session")
def pinned_trials() -> TrialBatch:
    """Twenty pinned-seed scenario runs (seeds 1000..1019, 500 initial ids)."""
    started = time.perf_counter()
    runs = [run_scenario(rng_seed, n_initial=500)
            for rng_seed in range(1000, 1020)]
    return TrialBatch(runs=runs, elapsed_seconds=time.perf_counter() - started)


@pytest.fixture(scope="session")
def reference_scenario() -> tuple[ScenarioRun, float]:
    """The frozen-regression scenario (seed 42, 300 initial ids)."""
    started = time.perf_counter()
    run = run_scenario(42, n_initial=300)
    return run, time.perf_counter() - started
