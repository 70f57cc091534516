"""
Approximating a specialty from a few hundred publications
=========================================================

A walk through the full pipeline on a synthetic literature with a
planted answer: generate two overlapping specialties, start from 300
known publication ids, extend them one hop through their reference
lists, select each field's most frequent key values until they cover
80% of the seed, and collect every publication the selected values
cover in at least three of the four fields.  The generator's ground
truth then tells us exactly how precise that approximation is.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from specialty_approx import (
    GeneratorConfig, SpecialtyParams, YearWindow, build_approximation,
    build_seed_record, compute_all_keys, evaluate_recovery, generate,
    ingest,
)
from specialty_approx.syngen import GroundTruth

# ---------------------------------------------------------------------
# 1. A corpus with a planted answer.  Two specialties of 2000
#    publications each; 10% of every alpha publication's field draws
#    leak from the beta pools, so the boundary is blurred but known.
# ---------------------------------------------------------------------

config = GeneratorConfig(
    rng_seed=42,
    specialties=(
        SpecialtyParams(label="alpha", n_publications=2000,
                        internal_reference_fraction=0.1,
                        reprint_author_rule="none"),
        SpecialtyParams(label="beta", n_publications=2000,
                        internal_reference_fraction=0.1,
                        reprint_author_rule="none"),
    ),
    cross_contamination=0.10,
)

workdir = Path(tempfile.mkdtemp(prefix="specialty_demo_"))
atexit.register(shutil.rmtree, workdir)  # scratch files go at exit
corpus_path = workdir / "corpus.jsonl"
truth_path = workdir / "truth.jsonl"
generate(config, corpus_path, truth_path)

corpus = ingest(corpus_path)
truth = GroundTruth.read_jsonl(truth_path)
print(f"corpus: {len(corpus.publications)} publications "
      f"({len(corpus.by_cell)} cells, {len(corpus.by_author_key)} author keys)")

# ---------------------------------------------------------------------
# 2. The starting record: 300 alpha publications inside the window of
#    interest, i.e. what a real analysis would begin with — an
#    incomplete list of works known to belong to the specialty.
# ---------------------------------------------------------------------

window = YearWindow(2010, 2012)
alpha_in_window = sorted(
    pid for pid, label in truth.labels.items()
    if label == "alpha" and corpus.publications[pid].year in window
)
initial_ids = alpha_in_window[:300]
print(f"window {window.start}-{window.end}: {len(alpha_in_window)} alpha "
      f"publications, starting from {len(initial_ids)}")

# ---------------------------------------------------------------------
# 3. Seed extension: every publication the initial ones cite (and that
#    resolves inside the corpus) joins the seed.  References point
#    backwards, so this pulls in the literature the starting set is
#    built on, not unrelated work that happens to cite it.
# ---------------------------------------------------------------------

seed = build_seed_record(corpus, initial_ids)
print(f"seed: {len(seed.initial_ids)} initial + "
      f"{len(seed.extended_ids)} via references = {len(seed)} publications "
      f"({len(seed.unresolved_references)} references left the corpus)")

# ---------------------------------------------------------------------
# 4. Key values: per field, admit values from the most frequent down
#    (ties as whole batches) until the selected values cover 80% of
#    the seed.  A publication counts as covered by its cell, by two
#    selected title words, by one in-scope author, or by one reference.
# ---------------------------------------------------------------------

keys = compute_all_keys(corpus, seed)
for kvs in keys:
    preview = ", ".join(kvs.values[:3])
    print(f"  {kvs.field.value:<11} {len(kvs):>4} values "
          f"cover {kvs.achieved_coverage:.3f} of the seed "
          f"(e.g. {preview})")

# ---------------------------------------------------------------------
# 5. The approximation: every in-window publication covered in at
#    least 3 of the 4 fields is taken to belong to the specialty.
# ---------------------------------------------------------------------

approximation = build_approximation(corpus, keys, window, min_fields=3)
print(f"approximation: {len(approximation)} members out of "
      f"{approximation.n_in_window} in-window publications")

# ---------------------------------------------------------------------
# 6. Scoring against the planted answer.  Precision: members that are
#    truly alpha.  Recall: in-window alpha publications that became
#    members.  The seed was only a quarter of the specialty, yet the
#    key values generalize to most of the rest of it.
# ---------------------------------------------------------------------

precision, recall = evaluate_recovery(approximation, truth, "alpha", corpus)
print(f"precision {precision:.3f}, recall {recall:.3f} "
      f"(seeded with {len(initial_ids)} of {len(alpha_in_window)} "
      f"in-window alpha publications)")
