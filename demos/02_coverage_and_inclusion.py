"""
Coverage histograms and the independence yardstick
==================================================

Key-value selection stops at 80% coverage per field.  If the four
fields covered publications independently, the chance of a seed
publication being covered in at least 3 of them would be exactly
4*t^3*(1-t) + t^4 = 512/625 = 0.8192 at t = 4/5.  Real fields are
correlated — a publication central to the specialty tends to be
covered everywhere at once — so the measured 3-of-4 share lands
above that yardstick.  This script measures the gap.
"""

import atexit
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

from specialty_approx import (
    GeneratorConfig, SpecialtyParams, YearWindow, build_seed_record,
    compute_all_keys, expected_inclusion_probability,
    expected_inclusion_rate, generate, ingest, seed_coverage_histogram,
)
from specialty_approx.syngen import GroundTruth

# ---------------------------------------------------------------------
# 1. The exact yardstick.  With a Fraction input the computation stays
#    in exact arithmetic all the way through.
# ---------------------------------------------------------------------

exact = expected_inclusion_probability(Fraction(4, 5))
print(f"independent-fields yardstick at t=4/5: {exact} = {float(exact)}")

# ---------------------------------------------------------------------
# 2. A two-specialty corpus and a seed, as in the pipeline walkthrough.
# ---------------------------------------------------------------------

config = GeneratorConfig(
    rng_seed=1007,
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
seed = build_seed_record(corpus, alpha_ids[:400])
keys = compute_all_keys(corpus, seed)

# ---------------------------------------------------------------------
# 3. The seed coverage histogram: what share of the seed the selected
#    values cover in exactly 0, 1, ... 4 fields.
# ---------------------------------------------------------------------

histogram = seed_coverage_histogram(corpus, seed, keys)
print("\nseed publications by covered-field count:")
for count in range(5):
    bar = "#" * round(60 * histogram[count])
    print(f"  {count} fields  {histogram[count]:6.3f}  {bar}")

measured = histogram[3] + histogram[4]
print(f"\nmeasured 3-of-4 share: {measured:.4f}")

# ---------------------------------------------------------------------
# 4. Yardsticks.  First the single-t formula at the nominal threshold,
#    then its generalization fed with the coverage each field actually
#    achieved (thresholds stop at the first batch that crosses them,
#    so achieved coverage runs a little hot).
# ---------------------------------------------------------------------

achieved = [kvs.achieved_coverage for kvs in keys]
print("achieved per-field coverage:",
      " ".join(f"{kvs.field.value}={kvs.achieved_coverage:.3f}"
               for kvs in keys))
print(f"independence yardstick at t=0.8:       {float(exact):.4f}")
print(f"independence yardstick, achieved t's:  "
      f"{expected_inclusion_rate(achieved, 3):.4f}")
print(f"\nthe measured share beats the t=0.8 yardstick by "
      f"{measured - float(exact):+.4f}; selection overshoots thresholds "
      f"(whole tie batches are admitted), and correlated fields shift "
      f"mass into the 4-field bin")
