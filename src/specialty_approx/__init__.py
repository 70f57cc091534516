"""Approximate the scientific specialty of a publication record.

The pipeline has three phases.  A seed record (some publications, plus a
one-hop extension through their references) defines the field of
interest.  For each of four fields (subject-category cell, title word,
author, cited reference) the most frequent values are selected greedily
until they cover a threshold share of the seed.  Every corpus
publication in a year window that the selected values cover in at least
``min_fields`` of the four fields joins the specialty approximation.

Downstream tools rank prominent authors (excluding a focal author, their
recent co-authors, and ambiguous homonym names), compare peer records
against the approximation, and generate synthetic corpora with known
specialty labels to validate recovery.
"""

from .approx import (CoverageProfile, SpecialtyApproximation, YearWindow,
                     build_approximation, coverage_profile,
                     expected_inclusion_probability, expected_inclusion_rate,
                     seed_coverage_histogram,
                     write_approximation_csv)
from .analytics import (AuthorRanking, ExcludedAuthor, ExclusionReason,
                        MutualCoverage, RankedAuthor, RankingSource,
                        conflicted_author_keys, coverage_of_record_by_keys,
                        mutual_coverage, rank_authors, write_rankings_csv)
from .corpus import (AuthorName, CellId, Corpus, DocType, IngestReport,
                     Publication, derive_cell, ingest, is_doi_like,
                     normalize_author_key, parse_record, tokenize_title)
from .errors import (CorpusInputError, DuplicatePubId, EmptyApproximation,
                     EmptyCategorySet, EmptyInitialSet, EmptyRecord,
                     EmptySeed, EmptyWindow, FileUnreadable, InvalidConfig,
                     LabelMismatch, OutOfRange, SchemaError,
                     SpecialtyApproxError, UnknownPubId, Unsatisfiable)
from .keys import (FIELD_ORDER, FIELD_SPECS, AuthorScope, FieldKind,
                   FieldSpec, KeysConfig, KeyValueEntry, KeyValueSet,
                   KeyValueSets, compute_all_keys, field_frequencies,
                   select_key_values, write_key_values_csv)
from .seed import (Provenance, SeedRecord, build_seed_record, write_seed_csv)
from .syngen import (GeneratorConfig, GroundTruth, SpecialtyParams,
                     build_records, evaluate_recovery, generate,
                     write_corpus)

__version__ = "0.1.0"

__all__ = [
    "AuthorName", "AuthorRanking", "AuthorScope", "CellId", "Corpus",
    "CorpusInputError", "CoverageProfile", "DocType", "DuplicatePubId",
    "EmptyApproximation", "EmptyCategorySet", "EmptyInitialSet",
    "EmptyRecord", "EmptySeed", "EmptyWindow", "ExcludedAuthor",
    "ExclusionReason", "FIELD_ORDER", "FIELD_SPECS", "FieldKind",
    "FieldSpec", "FileUnreadable",
    "GeneratorConfig", "GroundTruth", "IngestReport",
    "InvalidConfig", "KeyValueEntry", "KeyValueSet", "KeyValueSets",
    "KeysConfig", "LabelMismatch", "MutualCoverage", "OutOfRange",
    "Provenance", "Publication", "RankedAuthor", "RankingSource",
    "SchemaError", "SeedRecord", "SpecialtyApproxError",
    "SpecialtyApproximation", "SpecialtyParams", "UnknownPubId",
    "Unsatisfiable", "YearWindow", "build_approximation", "build_records",
    "build_seed_record", "compute_all_keys", "conflicted_author_keys",
    "coverage_of_record_by_keys", "coverage_profile",
    "derive_cell", "evaluate_recovery", "expected_inclusion_probability",
    "expected_inclusion_rate", "field_frequencies", "generate", "ingest",
    "is_doi_like", "mutual_coverage", "normalize_author_key", "parse_record",
    "rank_authors", "seed_coverage_histogram",
    "select_key_values", "tokenize_title", "write_approximation_csv",
    "write_corpus", "write_key_values_csv", "write_rankings_csv",
    "write_seed_csv",
]
