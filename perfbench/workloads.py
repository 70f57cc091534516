"""The three benchmark workloads.

Each workload is a closed loop with one client.  It generates its inputs
from the workload seed, sets up (timed, repeated), then runs operations
in passes.  Each operation has output checks, a quality score against
the planted truth, a digest entry and, for the traced run, exact counts
computed from the inputs and outputs.

The program is always called through module attributes (``approx.
build_approximation``, never a name imported from the package), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

from harness import (Tracer, clock, peak_rss_mb, run_child, sha256_file,
                     sha256_json)
from specialty_approx import analytics, approx, cli, corpus as corpus_mod
from specialty_approx import keys as keys_mod, seed as seed_mod, syngen
from specialty_approx.errors import Unsatisfiable

WINDOW = approx.YearWindow(2010, 2012)
# the CLI's default 5-year conflict span, ending at the window end
CONFLICT_WINDOW = approx.YearWindow(WINDOW.end - 4, WINDOW.end)
TOP = 10
HERE = Path(__file__).resolve().parent

# Spans recorded by the traced run: (owner, attribute, span name).  The
# span name's prefix is the layer.  Per-publication helpers such as
# coverage_profile are left unwrapped; their counts are derived instead.
TRACE_TARGETS = (
    (corpus_mod, "ingest", "corpus.ingest"),
    (corpus_mod, "parse_record", "corpus.parse_record"),
    (corpus_mod.Corpus, "from_publications", "corpus.from_publications"),
    (seed_mod, "build_seed_record", "seed.build_seed_record"),
    (keys_mod, "compute_all_keys", "keys.compute_all_keys"),
    (approx, "build_approximation", "approx.build_approximation"),
    (approx, "seed_coverage_histogram", "approx.seed_coverage_histogram"),
    (analytics, "rank_authors", "analytics.rank_authors"),
    (analytics, "mutual_coverage", "analytics.mutual_coverage"),
    (analytics, "coverage_of_record_by_keys",
     "analytics.coverage_of_record_by_keys"),
    (syngen, "build_records", "syngen.build_records"),
    (syngen, "evaluate_recovery", "syngen.evaluate_recovery"),
    (cli, "main", "cli.main"),
)


# Every corpus is generated with this seed, the one criterion 10 uses.  The
# workload seed draws only the inputs of the operations: with a seeded
# corpus, the set-up approximation's size alone moved reviewers-10k's median
# by +-25% between seeds.
CORPUS_SEED = 77


def query_config() -> syngen.GeneratorConfig:
    """The criterion-10 corpus: one 100k specialty."""
    return syngen.GeneratorConfig(
        rng_seed=CORPUS_SEED,
        specialties=(syngen.SpecialtyParams(
            label="bulk", n_publications=100_000, n_authors=60_000,
            n_reference_targets=40_000, vocab_size=4_000, n_core_cells=20),),
    )


def pair_config() -> syngen.GeneratorConfig:
    """Two 5k specialties with 10% cross-contamination (demo 03's shape)."""
    return syngen.GeneratorConfig(
        rng_seed=CORPUS_SEED,
        specialties=tuple(
            syngen.SpecialtyParams(label=label, n_publications=5_000,
                                   internal_reference_fraction=0.1,
                                   reprint_author_rule="none")
            for label in ("alpha", "beta")
        ),
        cross_contamination=0.10,
    )


@dataclass
class Bench:
    """Where and how one benchmark run executes."""

    root: Path
    src: Path
    work: Path
    seed: int
    trace: bool
    env: dict = field(default_factory=dict)
    tracer: Tracer | None = None


def pipeline(corpus, ids, config=None, histogram=True):
    """seed -> keys -> (seed histogram) -> approximation, as ``approx`` runs it."""
    record = seed_mod.build_seed_record(corpus, ids)
    keys = keys_mod.compute_all_keys(corpus, record, config)
    hist = (approx.seed_coverage_histogram(corpus, record, keys)
            if histogram else None)
    result = approx.build_approximation(corpus, keys, WINDOW, min_fields=3)
    return record, keys, hist, result


def author_index(corpus, keys):
    if keys.config.author_scope is keys_mod.AuthorScope.REPRINT_ONLY:
        return corpus.by_reprint_author_key
    return corpus.by_author_key


def postings_touched(corpus, keys, window_ids) -> int:
    """Window-restricted posting sizes summed over the selected values."""
    indexes = {
        keys_mod.FieldKind.CELL: corpus.by_cell,
        keys_mod.FieldKind.TITLE_WORD: corpus.by_title_word,
        keys_mod.FieldKind.AUTHOR: author_index(corpus, keys),
        keys_mod.FieldKind.REFERENCE: corpus.by_reference,
    }
    return sum(
        len(indexes[kvs.field].get(value, frozenset()) & window_ids)
        for kvs in keys for value in kvs.values
    )


def corpus_postings(corpus) -> int:
    return sum(
        len(ids)
        for index in (corpus.by_cell, corpus.by_title_word,
                      corpus.by_author_key, corpus.by_reprint_author_key,
                      corpus.by_reference, corpus.by_year)
        for ids in index.values()
    )


def key_counts(keys) -> dict:
    out = {}
    for kvs in keys:
        out[f"keys.selected.{kvs.field.value}"] = len(kvs)
        out[f"keys.eligible.{kvs.field.value}"] = kvs.n_eligible_values
    return out


def approx_counts(corpus, record, keys, result, window_ids) -> dict:
    return {
        "seed.count": 1,
        "seed.size": len(record),
        "seed.extended": len(record.extended_ids),
        "approx.in_window": result.n_in_window,
        "approx.members": len(result),
        "approx.postings_touched": postings_touched(corpus, keys, window_ids),
        **key_counts(keys),
    }


def window_ids_of(corpus, truth, label) -> list[str]:
    """Sorted in-window ids that the planted truth labels ``label``."""
    return sorted(
        pid for pid, lab in truth.labels.items()
        if lab == label and corpus.publications[pid].year in WINDOW
    )


def in_unit_interval(values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


def ranking_problems(ranking, focal) -> list[str]:
    order = [(-e.publication_count, e.author_key) for e in ranking.entries]
    problems = []
    if any(a >= b for a, b in zip(order, order[1:])):
        problems.append("ranking not ordered by count desc, key asc")
    if any(e.author_key == focal for e in ranking.entries):
        problems.append(f"focal author {focal} ranked")
    return problems


class Workload:
    """Hooks the runner calls; see :mod:`run` for the order."""

    name = ""
    setup_reps = 3
    count_ops = 1          # ops every run completes; they give counts and digest

    def __init__(self, bench: Bench):
        self.bench = bench
        self.work = bench.work
        self.rng = random.Random(f"{self.name}:{bench.seed}")
        self.use_inputs(self.work)
        self.static_counts: dict = {}

    # ------------------------------------------------------------- inputs
    def config(self) -> syngen.GeneratorConfig:
        raise NotImplementedError

    def generate_here(self) -> dict:
        """Write corpus and truth files into the work directory (runs in
        a child process)."""
        tracer = Tracer([(syngen, "build_records", "syngen.build_records")])
        with tracer:
            syngen.generate(self.config(), self.corpus_path, self.truth_path)
        _, start, end, _, _ = tracer.spans[0]
        return {"syngen.generate_s": end - start,
                "syngen.records": sum(sp.n_publications
                                      for sp in self.config().specialties)}

    def make_inputs(self) -> dict:
        """Generate the inputs in a child, so this process sees only files.

        They are kept under ``.bench_out/inputs/<key>`` and reused by later
        untraced runs; the key covers the config, the generator's source
        and the numpy version.  Traced runs always generate, so
        ``syngen.generate_s`` is measured.
        """
        import numpy
        key = sha256_json([self.config().to_dict(), numpy.__version__,
                           sha256_file(self.bench.src / "specialty_approx"
                                       / "syngen.py")])[:16]
        store = self.bench.root / ".bench_out" / "inputs" / f"{self.name}-{key}"
        info_path = store / "inputs.json"
        if not self.bench.trace and info_path.is_file():
            info = json.loads(info_path.read_text(encoding="utf-8"))
            if sha256_file(store / "corpus.jsonl") == info["corpus_sha256"]:
                self.use_inputs(store)
                return {**info, "inputs_reused": True}
        tmp = store.with_name(f"{store.name}.tmp{os.getpid()}")
        tmp.mkdir(parents=True)
        info = self.generate_into(tmp)
        info["corpus_sha256"] = sha256_file(tmp / "corpus.jsonl")
        (tmp / "inputs.json").write_text(json.dumps(info), encoding="utf-8")
        shutil.rmtree(store, ignore_errors=True)
        try:
            tmp.rename(store)
        except OSError:  # a concurrent run stored the same inputs first
            shutil.rmtree(tmp, ignore_errors=True)
        self.use_inputs(store)
        return {**info, "inputs_reused": False}

    def use_inputs(self, directory: Path) -> None:
        self.corpus_path = directory / "corpus.jsonl"
        self.truth_path = directory / "truth.jsonl"

    def generate_into(self, directory: Path) -> dict:
        child = run_child(
            [sys.executable, str(HERE / "child.py"), "generate", self.name,
             str(self.bench.seed), str(directory)],
            self.bench.env, self.work / "generate")
        if child.returncode != 0:
            raise RuntimeError(f"input generation failed: {child.stderr[-2000:]}")
        self.use_inputs(directory)
        return json.loads(child.stdout.strip().splitlines()[-1])

    # -------------------------------------------------------------- setup
    def setup_rep(self, last: bool) -> float:
        """One timed set-up; earlier ones in a fresh child process."""
        if last:
            with (self.bench.tracer or contextlib.nullcontext()):
                return self.setup()
        child = run_child(
            [sys.executable, str(HERE / "child.py"), "setup", self.name,
             str(self.bench.seed), str(self.corpus_path.parent)],
            self.bench.env, self.work / "setup")
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed: {child.stderr[-2000:]}")
        return json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]

    def setup(self) -> float:
        raise NotImplementedError

    def prepare(self) -> list[str]:
        """Untimed work after set-up; returns check failures."""
        return []

    def finish(self) -> list[str]:
        """Run-level checks after the measured loop."""
        return []

    def probe(self) -> None:
        """Traced run only: one call into each layer no operation reaches."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    # ---------------------------------------------------------- operations
    def next_pass(self) -> list:
        raise NotImplementedError

    def describe(self, params):
        """A short label of an operation's input, kept in the report."""
        return None

    def run_op(self, params, tag: str):
        raise NotImplementedError

    def check(self, params, out) -> list[str]:
        raise NotImplementedError

    def quality(self, out) -> tuple[float, float]:
        """(recall, precision) against the planted truth."""
        raise NotImplementedError

    def digest_item(self, out):
        raise NotImplementedError

    def counts(self, out) -> dict:
        raise NotImplementedError


# --------------------------------------------------------------- query-100k

# Initial-id counts: the log-uniform distribution over 30..3000 cut into 9
# equal-probability strata, each represented by its median (39 .. 2323).
# A pass runs each size twice, in a seeded order, so every run sees the same
# size mix and the median falls between the two 300-id operations.
QUERY_SIZES = tuple(round(30 * 100 ** ((j + 0.5) / 9)) for j in range(9))


@dataclass
class QueryOut:
    record: object
    keys: object
    histogram: dict
    result: object


class QueryWorkload(Workload):
    name = "query-100k"
    setup_reps = 2         # a 100k ingest takes ~15 s
    count_ops = 2 * len(QUERY_SIZES)
    truth_label = "bulk"

    def config(self):
        return query_config()

    def setup(self) -> float:
        started = clock()
        self.corpus = corpus_mod.ingest(self.corpus_path)
        return clock() - started

    def prepare(self) -> list[str]:
        self.truth = syngen.GroundTruth.read_jsonl(self.truth_path)
        self.window_ids = self.corpus.ids_in_years(WINDOW.years())
        self.window_sorted = sorted(self.window_ids)
        self.static_counts = {
            "corpus.lines": self.corpus.ingest_report.total_lines,
            "corpus.postings": corpus_postings(self.corpus),
        }
        # one untimed query, checked against coverage_profile on every
        # in-window publication
        check_rng = random.Random(f"{self.name}:{self.bench.seed}:check")
        self.check_ids = check_rng.sample(self.window_sorted, 30)
        self.check_out = self.run_op(self.check_ids, "check")
        problems = self.check(self.check_ids, self.check_out)
        pubs = self.corpus.publications
        expected = sorted(
            pid for pid in self.window_ids
            if approx.coverage_profile(pubs[pid], self.check_out.keys).count >= 3
        )
        if expected != list(self.check_out.result.member_ids):
            problems.append("members differ from the coverage_profile oracle")
        return problems

    def next_pass(self):
        sizes = 2 * list(QUERY_SIZES)
        self.rng.shuffle(sizes)
        return [self.rng.sample(self.window_sorted, n) for n in sizes]

    def run_op(self, ids, tag):
        return QueryOut(*pipeline(self.corpus, ids))

    def describe(self, ids):
        return len(ids)

    def check(self, ids, out) -> list[str]:
        problems = []
        total = math.fsum(out.histogram.values())
        if abs(total - 1.0) > 1e-9:
            problems.append(f"seed histogram sums to {total!r}")
        members = out.result.member_ids
        if list(members) != sorted(set(members)):
            problems.append("member ids not sorted and distinct")
        if not set(members) <= self.window_ids:
            problems.append("member outside the window")
        if out.result.histogram[3] + out.result.histogram[4] != len(members):
            problems.append("member count differs from histogram bins 3-4")
        return problems

    def quality(self, out):
        precision, recall = syngen.evaluate_recovery(
            out.result, self.truth, self.truth_label, self.corpus)
        return recall, precision

    def digest_item(self, out):
        return {
            "members": sha256_json(list(out.result.member_ids)),
            "histogram": [repr(out.histogram[k]) for k in range(5)],
            "keys": {kvs.field.value: list(kvs.values) for kvs in out.keys},
        }

    def counts(self, out) -> dict:
        return {**approx_counts(self.corpus, out.record, out.keys, out.result,
                                self.window_ids),
                "keys.unsatisfiable": 0}

    def probe(self):
        out = self.check_out
        analytics.rank_authors(out.result, self.corpus, focal=None)
        analytics.mutual_coverage("check", out.record, out.keys, out.result,
                                  self.corpus)
        analytics.coverage_of_record_by_keys(out.record, out.keys, 3,
                                             self.corpus)


# ------------------------------------------------------------ reviewers-10k

@dataclass
class Candidate:
    author_key: str
    record: object          # None when the candidate's keys are unsatisfiable
    keys: object
    share: float
    key_coverage: dict | None


@dataclass
class ShortlistOut:
    focal: str
    ranking: object
    candidates: list


class ReviewersWorkload(Workload):
    name = "reviewers-10k"
    count_ops = 4

    def config(self):
        return pair_config()

    def setup(self) -> float:
        started = clock()
        self.corpus = corpus_mod.ingest(self.corpus_path)
        ingest_s = clock() - started
        self.truth = syngen.GroundTruth.read_jsonl(self.truth_path)
        alpha = window_ids_of(self.corpus, self.truth, "alpha")
        ids = random.Random(f"{self.name}:setup").sample(alpha, 300)
        started = clock()
        self.record, self.keys, self.histogram, self.approximation = \
            pipeline(self.corpus, ids)
        return ingest_s + clock() - started

    def prepare(self) -> list[str]:
        self.window_ids = self.corpus.ids_in_years(WINDOW.years())
        self.members = self.approximation.member_set
        pubs = self.corpus.publications
        self.focals = sorted({
            key for pid, label in self.truth.labels.items()
            if label == "alpha" and pubs[pid].year in WINDOW
            for key in pubs[pid].author_keys
        })
        precision, recall = syngen.evaluate_recovery(
            self.approximation, self.truth, "alpha", self.corpus)
        self.setup_quality = (recall, precision)
        self.static_counts = {
            "corpus.lines": self.corpus.ingest_report.total_lines,
            "corpus.postings": corpus_postings(self.corpus),
            **{k: v for k, v in approx_counts(
                self.corpus, self.record, self.keys, self.approximation,
                self.window_ids).items() if k.startswith("approx.")},
        }
        total = math.fsum(self.histogram.values())
        return [] if abs(total - 1.0) <= 1e-9 else [
            f"set-up seed histogram sums to {total!r}"]

    def next_pass(self):
        return [self.rng.choice(self.focals)]

    def describe(self, focal):
        return focal

    def run_op(self, focal, tag):
        """One shortlist, computed the way ``cmd_reviewers`` computes it."""
        corpus = self.corpus
        ranking = analytics.rank_authors(
            self.approximation, corpus, focal=focal,
            conflict_window=CONFLICT_WINDOW)
        candidates = []
        for entry in ranking.top(TOP):
            record_ids = corpus.by_author_key.get(entry.author_key, frozenset())
            try:
                record = seed_mod.build_seed_record(corpus, record_ids)
                keys = keys_mod.compute_all_keys(corpus, record,
                                                 self.keys.config)
                mutual = analytics.mutual_coverage(
                    entry.author_key, record, keys, self.approximation, corpus)
            except Unsatisfiable:
                candidates.append(Candidate(
                    entry.author_key, None, None,
                    len(record_ids & self.members) / len(record_ids), None))
                continue
            candidates.append(Candidate(
                entry.author_key, record, keys, mutual.share_in_approximation,
                {f.value: v for f, v in
                 mutual.key_coverage_of_approximation.items()}))
        return ShortlistOut(focal, ranking, candidates)

    def check(self, focal, out) -> list[str]:
        problems = ranking_problems(out.ranking, focal)
        for cand in out.candidates:
            shares = [cand.share, *(cand.key_coverage or {}).values()]
            if not in_unit_interval(shares):
                problems.append(f"{cand.author_key}: share outside [0, 1]")
        return problems

    def quality(self, out):
        return self.setup_quality

    def digest_item(self, out):
        return {
            "focal": out.focal,
            "top": [(e.author_key, e.publication_count)
                    for e in out.ranking.top(TOP)],
            "shares": [(c.author_key, repr(c.share),
                        {k: repr(v) for k, v in (c.key_coverage or {}).items()})
                       for c in out.candidates],
        }

    def counts(self, out) -> dict:
        scored = [c for c in out.candidates if c.record is not None]
        counts = {
            "seed.count": len(scored),
            "seed.size": sum(len(c.record) for c in scored),
            "seed.extended": sum(len(c.record.extended_ids) for c in scored),
            "keys.unsatisfiable": len(out.candidates) - len(scored),
            "analytics.candidates": len(out.candidates),
            "analytics.profiles_evaluated": len(self.members) * len(scored),
        }
        for cand in scored:
            for name, value in key_counts(cand.keys).items():
                counts[name] = counts.get(name, 0) + value
        return counts

    def probe(self):
        analytics.coverage_of_record_by_keys(self.record, self.keys, 3,
                                             self.corpus)


# ------------------------------------------------------------ cli-chain-10k

@dataclass
class ChainIn:
    ids: list
    focal: str
    peer: str


@dataclass
class ChainOut:
    dir: Path
    steps: list             # (command, seconds, exit code, peak RSS MiB)
    stderr: dict
    # filled in by check()
    inproc: tuple | None = None
    quality: tuple | None = None
    report: dict | None = None
    coverage: dict | None = None


CHAIN_COMMANDS = ("approx", "reviewers", "coverage", "evaluate")


class CliChainWorkload(Workload):
    name = "cli-chain-10k"
    count_ops = 1

    def config(self):
        return pair_config()

    def make_inputs(self) -> dict:
        self.config_path = self.work / "generator.json"
        self.config_path.write_text(json.dumps(self.config().to_dict()),
                                    encoding="utf-8")
        self.setup_dirs = []
        return {}

    def command(self, argv, log_stem: Path):
        """Run one CLI command: a child process, or in-process when traced.

        Returns (seconds, exit code, peak RSS MiB or None, stderr text).
        """
        if not self.bench.trace:
            child = run_child([sys.executable, "-m", "specialty_approx", *argv],
                              self.bench.env, log_stem)
            return child.wall_s, child.returncode, child.maxrss_mb, child.stderr
        out, err = io.StringIO(), io.StringIO()
        started = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return clock() - started, code, None, err.getvalue()

    def setup_rep(self, last: bool) -> float:
        out = self.work / f"setup{len(self.setup_dirs)}"
        self.setup_dirs.append(out)
        total = 0.0
        for argv in (["generate", "--config", str(self.config_path),
                      "--out", str(out)],
                     ["ingest", str(out / "corpus.jsonl"),
                      "--out", str(out / "ingest")]):
            with (self.bench.tracer or contextlib.nullcontext()):
                seconds, code, _, err = self.command(argv, out.with_suffix(
                    f".{argv[0]}"))
            if code != 0:
                raise RuntimeError(f"set-up {argv[0]} exited {code}: {err[-2000:]}")
            total += seconds
        return total

    def prepare(self) -> list[str]:
        problems = []
        digests = {sha256_file(d / "corpus.jsonl") for d in self.setup_dirs}
        if len(digests) > 1:
            problems.append("repeated generate wrote different corpora")
        final = self.setup_dirs[-1]
        self.corpus_path = final / "corpus.jsonl"
        self.truth_path = final / "truth.jsonl"
        self.corpus = corpus_mod.ingest(self.corpus_path)
        self.truth = syngen.GroundTruth.read_jsonl(self.truth_path)
        self.window_ids = self.corpus.ids_in_years(WINDOW.years())
        self.alpha = window_ids_of(self.corpus, self.truth, "alpha")
        pubs = self.corpus.publications
        self.focals = sorted({key for pid in self.alpha
                              for key in pubs[pid].author_keys})
        beta_authors = {key for pid, label in self.truth.labels.items()
                        if label == "beta" for key in pubs[pid].author_keys}
        self.peers = sorted(key for key in beta_authors
                            if len(self.corpus.by_author_key[key]) >= 5)
        self.static_counts = {
            "corpus.lines": self.corpus.ingest_report.total_lines,
            "corpus.postings": corpus_postings(self.corpus),
        }
        self.chains = 0
        self.first_chain = None
        self.child_rss_mb = 0.0
        self.step_log = {}
        return problems

    def next_pass(self):
        return [ChainIn(self.rng.sample(self.alpha, 300),
                        self.rng.choice(self.focals),
                        self.rng.choice(self.peers))]

    def describe(self, chain):
        return chain.focal

    def approx_argv(self, ids_path: Path, out: Path):
        return ["approx", str(self.corpus_path), "--ids", str(ids_path),
                "--window", str(WINDOW), "--out", str(out)]

    def run_op(self, chain: ChainIn, tag):
        d = self.work / f"chain{self.chains:03d}-{tag}"
        self.chains += 1
        d.mkdir()
        (d / "ids.txt").write_text("\n".join(chain.ids) + "\n", encoding="utf-8")
        peer_ids = sorted(self.corpus.by_author_key[chain.peer])
        (d / "peer.txt").write_text("\n".join(peer_ids) + "\n", encoding="utf-8")
        corpus, run = str(self.corpus_path), str(d / "approx")
        argvs = {
            "approx": self.approx_argv(d / "ids.txt", d / "approx"),
            "reviewers": ["reviewers", corpus, "--run", run, "--top", str(TOP),
                          "--focal", chain.focal, "--out", str(d / "reviewers")],
            "coverage": ["coverage", corpus, "--run", run,
                         "--ids", str(d / "peer.txt"),
                         "--out", str(d / "coverage")],
            "evaluate": ["evaluate", corpus, "--run", run,
                         "--truth", str(self.truth_path), "--target", "alpha",
                         "--out", str(d / "evaluate")],
        }
        steps, stderr = [], {}
        for name in CHAIN_COMMANDS:
            seconds, code, rss, err = self.command(argvs[name], d / name)
            steps.append((name, seconds, code, rss))
            self.step_log.setdefault(name, []).append(seconds)
            self.child_rss_mb = max(self.child_rss_mb, rss or 0.0)
            stderr[name] = err
            if code != 0:
                break
        if self.first_chain is None:
            self.first_chain = d
        return ChainOut(d, steps, stderr)

    def artifacts(self, d: Path) -> list[Path]:
        """Primary artifacts of a chain (manifests embed wall time)."""
        return sorted(p for name in CHAIN_COMMANDS for p in (d / name).iterdir()
                      if p.name != "manifest.json")

    def check(self, chain: ChainIn, out: ChainOut) -> list[str]:
        problems = [f"{name} exited {code}: {out.stderr[name][-300:]!r}"
                    for name, _, code, _ in out.steps if code != 0]
        if problems or len(out.steps) < len(CHAIN_COMMANDS):
            return problems or ["chain incomplete"]
        d = out.dir
        record, keys, _, result = pipeline(self.corpus, chain.ids,
                                           histogram=False)
        out.inproc = (record, keys, result)
        with open(d / "approx" / "approximation.csv", encoding="utf-8",
                  newline="") as handle:
            ids = [row["pub_id"] for row in csv.DictReader(handle)]
        if ids != list(result.member_ids):
            problems.append("approximation.csv differs from build_approximation")
        evaluation = json.loads((d / "evaluate" / "evaluation.json").read_text())
        precision, recall = syngen.evaluate_recovery(result, self.truth, "alpha",
                                                     self.corpus)
        if (evaluation["precision"], evaluation["recall"]) != (precision, recall):
            problems.append("evaluation.json differs from evaluate_recovery")
        out.quality = (evaluation["recall"], evaluation["precision"])
        report = json.loads((d / "reviewers" / "reviewer_report.json").read_text())
        for cand in report["top_candidates"]:
            shares = [cand["share_in_approximation"],
                      *(cand["key_coverage_of_approximation"] or {}).values()]
            if not in_unit_interval(shares):
                problems.append(f"{cand['author_key']}: share outside [0, 1]")
        with open(d / "reviewers" / "rankings.csv", encoding="utf-8",
                  newline="") as handle:
            order = [(-int(r["publication_count"]), r["author_key"])
                     for r in csv.DictReader(handle)]
        if any(a >= b for a, b in zip(order, order[1:])):
            problems.append("rankings.csv not ordered by count desc, key asc")
        coverage = json.loads((d / "coverage" / "coverage.json").read_text())
        if not in_unit_interval([coverage["covered_share"],
                                 coverage["share_in_approximation"],
                                 *coverage["key_coverage_of_approximation"].values()]):
            problems.append("coverage.json share outside [0, 1]")
        out.report = report
        out.coverage = coverage
        return problems

    def finish(self) -> list[str]:
        """A repeated ``approx`` must write byte-identical artifacts."""
        d = self.first_chain
        again = d / "approx-repeat"
        _, code, _, err = self.command(self.approx_argv(d / "ids.txt", again),
                                       d / "approx-repeat")
        if code != 0:
            return [f"repeated approx exited {code}: {err[-300:]!r}"]
        return [f"repeated approx changed {name}"
                for name in ("seed.csv", "keys.csv", "approximation.csv",
                             "summary.json")
                if (d / "approx" / name).read_bytes() != (again / name).read_bytes()]

    def quality(self, out):
        return out.quality

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb

    def digest_item(self, out):
        return {str(p.relative_to(out.dir)): sha256_file(p)
                for p in self.artifacts(out.dir)}

    def counts(self, out) -> dict:
        record, keys, result = out.inproc
        members = len(result)
        candidates = out.report["top_candidates"]
        scored = [c for c in candidates
                  if c["key_coverage_of_approximation"] is not None]
        return {
            **approx_counts(self.corpus, record, keys, result, self.window_ids),
            "keys.unsatisfiable": len(candidates) - len(scored),
            "analytics.candidates": len(candidates),
            # reviewers: members x scored candidates; coverage: members for
            # mutual coverage plus the peer record for coverage_of_record
            "analytics.profiles_evaluated": members * (len(scored) + 1)
                                            + out.coverage["record_size"],
            "cli.bytes_written": sum(p.stat().st_size
                                     for p in self.artifacts(out.dir)),
        }


WORKLOADS = {w.name: w for w in (QueryWorkload, ReviewersWorkload,
                                 CliChainWorkload)}

