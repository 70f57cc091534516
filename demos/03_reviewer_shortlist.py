"""
A reviewer shortlist with conflict-of-interest exclusion
========================================================

Once a specialty approximation exists, its most prolific authors are
natural reviewer candidates for a manuscript in that specialty.  Three
kinds of candidates must go: the focal author themselves, anyone who
co-published with them recently (conflict of interest), and surnames
whose publication counts blend several people (homonyms).  The ranking
keeps every removal on the record, so nothing disappears silently.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from specialty_approx import (
    ExclusionReason, FieldKind, GeneratorConfig, RankingSource,
    SpecialtyParams, YearWindow, build_approximation, build_seed_record,
    compute_all_keys, generate, ingest, mutual_coverage, rank_authors,
    write_rankings_csv,
)
from specialty_approx.syngen import GroundTruth

# ---------------------------------------------------------------------
# 1. Build an approximation, as in the pipeline walkthrough.
# ---------------------------------------------------------------------

config = GeneratorConfig(
    rng_seed=321,
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
generate(config, workdir / "corpus.jsonl", workdir / "truth.jsonl")
corpus = ingest(workdir / "corpus.jsonl")
truth = GroundTruth.read_jsonl(workdir / "truth.jsonl")

window = YearWindow(2010, 2012)
alpha_ids = sorted(
    pid for pid, label in truth.labels.items()
    if label == "alpha" and corpus.publications[pid].year in window
)
seed = build_seed_record(corpus, alpha_ids[:300])
keys = compute_all_keys(corpus, seed)
approximation = build_approximation(corpus, keys, window, min_fields=3)
print(f"approximation: {len(approximation)} members")

# ---------------------------------------------------------------------
# 2. Pick a focal author — here simply the most prolific author of the
#    approximation, as if they had submitted the manuscript — and rank
#    everyone else, excluding co-authors from the last three years.
# ---------------------------------------------------------------------

unfiltered = rank_authors(approximation, corpus)
focal = unfiltered.entries[0].author_key
print(f"focal author: {focal} "
      f"({unfiltered.entries[0].publication_count} member publications)")

ranking = rank_authors(approximation, corpus, focal=focal,
                       conflict_window=window)
print("\ntop reviewer candidates:")
for rank, entry in enumerate(ranking.top(8), start=1):
    print(f"  {rank:>2}. {entry.author_key:<14} "
          f"{entry.publication_count:>3} member publications")

# ---------------------------------------------------------------------
# 3. The audit trail: who was removed, and why.
# ---------------------------------------------------------------------

by_reason = {reason: 0 for reason in ExclusionReason}
for excluded in ranking.excluded:
    by_reason[excluded.reason] += 1
print("\nexcluded candidates:")
for reason, count in by_reason.items():
    print(f"  {reason.value:<20} {count}")

write_rankings_csv(ranking, workdir / "rankings.csv", top=25)
rows = (workdir / "rankings.csv").read_text(encoding="utf-8").splitlines()
print(f"\nrankings.csv: {rows[0]!r} header, {len(rows) - 1} rows")

# ---------------------------------------------------------------------
# 4. Ranking straight from the selected author key values is also
#    possible when no approximation has been built yet; the selection
#    frequencies then stand in for member counts.
# ---------------------------------------------------------------------

from_keys = rank_authors(keys.per_field(FieldKind.AUTHOR), corpus)
assert from_keys.source is RankingSource.FROM_KEY_AUTHORS
print(f"key-value ranking: {len(from_keys.entries)} candidates "
      f"straight from the author selection")

# ---------------------------------------------------------------------
# 5. Sanity check on one shortlisted reviewer: how much of their own
#    recent record the approximation captures, and how well the seed's
#    key values cover the approximation from their perspective.
# ---------------------------------------------------------------------

candidate = ranking.entries[0].author_key
candidate_record = [
    pid for pid in sorted(corpus.by_author_key[candidate])
    if corpus.publications[pid].year in window
]
overlap = mutual_coverage(candidate, candidate_record, keys,
                          approximation, corpus)
print(f"\n{candidate}: {overlap.share_in_approximation:.2f} of their "
      f"{len(candidate_record)} in-window publications are members")
