"""Command-line interface.

Subcommands mirror the pipeline phases plus the downstream tools:

* ``ingest``     parse and index a corpus, report malformed lines
* ``seed``       resolve and extend a seed record
* ``keys``       seed + per-field key-value selection
* ``approx``     full pipeline: seed -> keys -> approximation -> histogram
* ``reviewers``  prominent-author shortlist from an ``approx`` run
* ``coverage``   coverage of an arbitrary record by an ``approx`` run's keys
* ``generate``   synthesize a corpus with ground-truth labels
* ``evaluate``   precision/recall of an ``approx`` run against ground truth

Commands open with ``_load`` (corpus plus input digests) and derive
through ``_derive`` (seed -> keys -> approximation); ``approx`` is
``keys`` plus a window, extending its artifacts and ``summary.json``.
``reviewers``, ``coverage`` and ``evaluate`` re-derive an ``approx`` run
from the initial ids in its ``seed.csv`` plus ``summary.json["config"]``,
and exit 2 when a stored CSV artifact differs from the re-derivation.
Their ``share_in_approximation`` is over the record's own publications.

Every command has one lifecycle.  ``main`` makes the ``_Run`` record
(command, ``arguments``: every parsed option but ``--out``) and calls
``cmd_x(run, args)``, which records inputs, stats and warnings and
stages outputs by name through ``run.emit`` in a hidden directory
inside ``--out``: ``--out`` is made on the first write, or before
``generate`` starts generating (exit 2 if it cannot be), and nothing is
written without it.  Then ``run.finish()`` adds ``manifest.json``
(arguments, sha256 input digests, outputs, stats, warnings, wall time)
if anything was written, checks every target, moves the outputs into
``--out`` with the manifest last, and prints each warning once.  The
stats of every command that reads a corpus include
``phases["corpus.ingest"]``: the ingest's seconds and its ``lines``,
``accepted`` and ``rejected`` counts.  A run that fails leaves ``--out``
as it found it: a failed move puts back the files it had already
replaced.  Lenient ``ingest`` (without
``--strict``) is the one command that exits 2 with its outputs written:
when it rejects lines, it still writes ``ingest_report.json``, which
lists them, and ``manifest.json``.  Primary outputs are
byte-deterministic for identical inputs and flags; the manifest embeds
the wall time and is not.

Exit codes: 0 success; 1 pipeline failure on valid input (empty seed,
unsatisfiable threshold, ...); 2 unusable input (unreadable file,
malformed corpus line, duplicate id, bad flag value, mismatched run),
also from a lenient ``ingest`` that rejected lines and wrote its report.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from . import analytics, approx, corpus as corpus_mod, keys as keys_mod
from . import seed as seed_mod, syngen
from .errors import (CorpusInputError, EmptyRecord, FileUnreadable,
                     InvalidConfig, RunMismatch, SchemaError,
                     SpecialtyApproxError, Unsatisfiable)

_SCOPE_CHOICES = {
    "auto": keys_mod.AuthorScope.AUTO,
    "all": keys_mod.AuthorScope.ALL_AUTHORS,
    "reprint": keys_mod.AuthorScope.REPRINT_ONLY,
}

DEFAULT_CONFLICT_SPAN = 5


# ---------------------------------------------------------------- helpers

def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("threshold must lie in (0, 1]")
    return value


def _window(text: str) -> approx.YearWindow:
    try:
        return approx.YearWindow.parse(text)
    except SpecialtyApproxError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _min_fields(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 1 <= value <= 4:
        raise argparse.ArgumentTypeError("min-fields must lie in 1..4")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _conflict_window(text: str) -> approx.YearWindow | int:
    """``START:END``, or a span in years ending at the run's window end."""
    return _window(text) if ":" in text else _positive_int(text)


def _author_key(text: str) -> str:
    """An author ``'Surname I'``, checked but passed on as written."""
    try:
        corpus_mod.normalize_author_key(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def _json_writer(payload):
    return lambda path: path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


class _Run:
    """One command run: its arguments, inputs, outputs and warnings.

    ``main`` makes it from the parsed arguments, calls ``finish`` once
    the command returns and ``discard`` in any case.  ``emit`` writes
    into a staging directory inside ``--out``, made on the first write
    (``--out`` is made then too, through ``make_out``), so only ``--out``
    has to be writable and every move stays on its filesystem; ``finish``
    moves the staged files into ``--out``, ``manifest.json`` last.
    Without ``--out`` nothing is written.
    """

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.arguments = {
            name: (value if value is None
                   or isinstance(value, (str, int, float)) else str(value))
            for name, value in vars(args).items()
            if name not in ("func", "command", "out")
        }
        self.out = None if args.out is None else Path(args.out)
        self.inputs: dict[str, dict] = {}
        self.outputs: list[str] = []
        self.warnings: list[str] = []
        self.stats: dict = {}
        self._staging: Path | None = None
        self._t0 = time.perf_counter()

    def add_input(self, name: str, path: str | Path) -> None:
        path = Path(path)
        self.inputs[name] = {"path": str(path), "sha256": _sha256(path)}

    def emit(self, name: str, write_fn) -> None:
        """Stage ``--out``/``name``, written by ``write_fn(path)``."""
        if self.out is None:
            return
        self._write(name, write_fn)
        self.outputs.append(name)

    def emit_json(self, name: str, payload) -> None:
        self.emit(name, _json_writer(payload))

    def finish(self) -> None:
        """Move the staged outputs into ``--out``; print the warnings.

        ``manifest.json`` is written only if anything else was, and moves
        last.
        """
        if self.outputs:
            self._write("manifest.json", _json_writer({
                "command": self.command,
                "arguments": self.arguments,
                "inputs": self.inputs,
                "outputs": sorted(self.outputs),
                "stats": self.stats,
                "warnings": self.warnings,
                "wall_time_seconds": round(time.perf_counter() - self._t0, 6),
            }))
            self._move_in([*self.outputs, "manifest.json"])
        for warning in self.warnings:
            print(f"warning: {warning}", file=sys.stderr)

    def _move_in(self, names: list[str]) -> None:
        """Move the staged ``names`` into ``--out``, all of them or none.

        A target that is a directory fails the run before the first move.
        Each file a move replaces is kept in the staging directory until
        every move is done; if one fails, the files already moved in are
        taken out and the replaced ones put back before the error is
        raised.
        """
        for name in names:
            if (self.out / name).is_dir():
                raise CorpusInputError(
                    f"cannot write {self.out / name}: it is a directory")
        replaced = self._staging / ".replaced"
        replaced.mkdir()
        moved: list[str] = []
        try:
            for name in names:
                if os.path.lexists(self.out / name):
                    os.replace(self.out / name, replaced / name)
                moved.append(name)
                os.replace(self._staging / name, self.out / name)
        except OSError as exc:
            for back in reversed(moved):
                with contextlib.suppress(OSError):
                    if os.path.lexists(replaced / back):
                        os.replace(replaced / back, self.out / back)
                    elif not os.path.lexists(self._staging / back):
                        os.unlink(self.out / back)
            raise CorpusInputError(
                f"cannot write {self.out / name}: {exc}") from exc

    def discard(self) -> None:
        """Remove the staging directory and whatever is left in it."""
        if self._staging is not None:
            shutil.rmtree(self._staging, ignore_errors=True)
            self._staging = None

    def make_out(self) -> None:
        """Create ``--out`` (and its parents) if it does not exist yet."""
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CorpusInputError(
                f"cannot create output directory {self.out}: {exc}") from exc

    def _write(self, name: str, write_fn) -> None:
        """Write ``name`` into the staging directory, made on first use."""
        if self._staging is None:
            self.make_out()
            try:
                self._staging = Path(
                    tempfile.mkdtemp(prefix=".staging-", dir=self.out))
            except OSError as exc:
                raise CorpusInputError(
                    f"cannot stage output in {self.out}: {exc}") from exc
        try:
            write_fn(self._staging / name)
        except OSError as exc:
            raise CorpusInputError(
                f"cannot write {self.out / name}: {exc}") from exc


def _read_ids(path: str | Path) -> list[str]:
    """Read newline-delimited publication ids ('#' starts a comment)."""
    out = []
    for line in corpus_mod.read_lines(path):
        text = line.split("#", 1)[0].strip()
        if text:
            out.append(text)
    return out


def _ingest(run: _Run, path: str | Path,
            strict: bool = False) -> corpus_mod.Corpus:
    """Ingest the corpus, recording the phase in ``run.stats["phases"]``
    under the name of its benchmark span, ``corpus.ingest``.

    The loaded corpus is frozen out of the cyclic collector's reach: a
    command runs once per process and keeps its corpus to the end, so
    later collections need not walk it again.
    """
    started = time.perf_counter()
    loaded = corpus_mod.ingest(path, strict=strict)
    seconds = time.perf_counter() - started
    gc.freeze()
    report = loaded.ingest_report
    run.stats.setdefault("phases", {})["corpus.ingest"] = {
        "seconds": round(seconds, 6),
        "lines": report.total_lines,
        "accepted": report.accepted,
        "rejected": len(report.rejected),
    }
    return loaded


def _load(run: _Run, args: argparse.Namespace,
          *input_names: str) -> corpus_mod.Corpus:
    """Load ``args.corpus`` for a pipeline command, where any malformed
    line is fatal (exit 2); record its digest and the named inputs'."""
    loaded = _ingest(run, args.corpus)
    report = loaded.ingest_report
    if report.rejected:
        shown = ", ".join(
            f"line {r.line_no} ({r.reason})" for r in report.rejected[:10]
        )
        more = len(report.rejected) - 10
        if more > 0:
            shown += f", and {more} more"
        raise SchemaError(
            report.rejected[0].line_no,
            f"{len(report.rejected)} malformed corpus line(s): {shown}",
        )
    for name in ("corpus", *input_names):
        run.add_input(name, getattr(args, name))
    return loaded


def _derive(loaded, initial_ids, extend, keys_config, window=None,
            min_fields=3):
    """Seed -> key values -> approximation, as far as the arguments go.

    Returns ``(seed, keys, approximation)``: keys are None without a
    ``keys_config``, the approximation is None without a ``window``.
    """
    record = seed_mod.build_seed_record(loaded, initial_ids, extend=extend)
    if keys_config is None:
        return record, None, None
    keys = keys_mod.compute_all_keys(loaded, record, keys_config)
    result = (None if window is None
              else approx.build_approximation(loaded, keys, window, min_fields))
    return record, keys, result


def _keys_config(args: argparse.Namespace) -> keys_mod.KeysConfig:
    return keys_mod.KeysConfig(
        **{spec.threshold: getattr(args, spec.threshold)
           for spec in keys_mod.FIELD_SPECS.values()},
        min_word_len=args.min_word_len,
        required_title_words=args.title_words_required,
        author_scope=_SCOPE_CHOICES[args.author_scope],
        doi_only_references=args.doi_only_refs,
    )


def _seed_block(record: seed_mod.SeedRecord) -> dict:
    return {
        "initial": len(record.initial_ids),
        "added_via_reference": len(record.extended_ids),
        "unresolved_references": record.unresolved_reference_count,
    }


def _field_block(kvs: keys_mod.KeyValueSet) -> dict:
    return {
        "threshold": kvs.threshold,
        "achieved_coverage": kvs.achieved_coverage,
        "n_selected": len(kvs),
        "n_unique_values": kvs.n_unique_values,
        "n_eligible_values": kvs.n_eligible_values,
        "n_excluded_homonyms": kvs.n_excluded_homonyms,
        "descended_to_frequency_one": kvs.descended_to_frequency_one,
        "key_share_of_unique": kvs.key_share_of_unique,
    }


# ------------------------------------------------------------- subcommands

def cmd_ingest(run: _Run, args: argparse.Namespace) -> int:
    loaded = _ingest(run, args.corpus, strict=args.strict)
    run.add_input("corpus", args.corpus)
    report = loaded.ingest_report
    years = sorted(loaded.by_year)
    payload = {
        "total_lines": report.total_lines,
        "accepted": report.accepted,
        "rejected": [
            {"line_no": r.line_no, "reason": r.reason} for r in report.rejected
        ],
        "n_publications": len(loaded),
        "year_range": [years[0], years[-1]] if years else None,
        "index_sizes": {
            spec.attr: len(spec.index(loaded, keys_mod.AuthorScope.ALL_AUTHORS))
            for spec in keys_mod.FIELD_SPECS.values()
        },
    }
    run.stats.update(accepted=report.accepted, rejected=len(report.rejected))
    run.emit_json("ingest_report.json", payload)
    print(f"accepted {report.accepted} of {report.total_lines} line(s), "
          f"{len(report.rejected)} rejected")
    for r in report.rejected[:20]:
        print(f"  rejected line {r.line_no}: {r.reason}", file=sys.stderr)
    if len(report.rejected) > 20:
        print(f"  ... and {len(report.rejected) - 20} more", file=sys.stderr)
    return 2 if report.rejected else 0


def cmd_seed(run: _Run, args: argparse.Namespace) -> int:
    loaded = _load(run, args, "ids")
    record, _, _ = _derive(loaded, _read_ids(args.ids), args.extend, None)
    run.emit("seed.csv", lambda p: seed_mod.write_seed_csv(record, p))
    run.stats.update(_seed_block(record))
    print(f"seed: {len(record.initial_ids)} initial + "
          f"{len(record.extended_ids)} added via references "
          f"({record.unresolved_reference_count} unresolved reference(s))")
    return 0


def _artifacts(loaded, record, keys, result=None) -> dict:
    """The writers of a run's CSV artifacts, by file name."""
    writers = {
        "seed.csv": lambda p: seed_mod.write_seed_csv(record, p),
        "keys.csv": lambda p: keys_mod.write_key_values_csv(keys, p),
    }
    if result is not None:
        writers["approximation.csv"] = (
            lambda p: approx.write_approximation_csv(result, loaded, p))
    return writers


def cmd_keys(run: _Run, args: argparse.Namespace) -> int:
    """``keys``, and ``approx``: its ``--window`` adds the approximation."""
    window = getattr(args, "window", None)
    config = {"extend": args.extend}
    if window is not None:
        config.update(window=str(window), min_fields=args.min_fields)
    loaded = _load(run, args, "ids")
    record, keys, result = _derive(loaded, _read_ids(args.ids), args.extend,
                                   _keys_config(args), window,
                                   config.get("min_fields", 3))
    for name, write in _artifacts(loaded, record, keys, result).items():
        run.emit(name, write)
    run.warnings.extend(keys.warnings())
    summary = {
        "config": {"keys": keys.config.to_dict(), **config},
        "seed": _seed_block(record),
        "fields": {kvs.field.value: _field_block(kvs) for kvs in keys},
    }
    if result is not None:
        histogram = approx.seed_coverage_histogram(loaded, record, keys)
        summary["seed_coverage_histogram"] = {
            str(k): v for k, v in histogram.items()}
        summary["approximation"] = {
            "window": str(result.window),
            "min_fields": result.min_fields,
            "n_members": len(result),
            "n_in_window": result.n_in_window,
            "histogram": {str(k): v for k, v in result.histogram.items()},
            "subset_sizes": dict(result.subset_sizes),
            "expected_inclusion_rate": approx.expected_inclusion_rate(
                [kvs.threshold for kvs in keys], result.min_fields),
        }
        summary["key_author_match_counts"] = approx.key_author_match_counts(
            loaded, keys, result.window)
        run.stats.update(n_members=len(result),
                         n_in_window=result.n_in_window)
    run.emit_json("summary.json", summary)
    if result is None:
        for kvs in keys:
            print(f"{kvs.field.value}: {len(kvs)} key value(s), coverage "
                  f"{kvs.achieved_coverage:.4f} (threshold {kvs.threshold})")
    else:
        print(f"approximation: {len(result)} member(s) of "
              f"{result.n_in_window} in window {result.window} "
              f"(min_fields={result.min_fields})")
    return 0


def _rederive_run(run: _Run, run_dir: Path, loaded: corpus_mod.Corpus):
    """Re-derive an approx run and check its stored CSVs byte for byte.

    A corpus whose digest differs from the run manifest's only warns.
    Returns the key values, the approximation and the extend flag.
    """
    _check_corpus_matches_run(run, run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise InvalidConfig(f"not an approx run dir: no {summary_path}")
    try:
        summary = json.loads(summary_path.read_bytes())
    except (OSError, ValueError, RecursionError) as exc:
        raise FileUnreadable(f"cannot read {summary_path}: {exc}") from exc
    if not isinstance(summary, dict) or "approximation" not in summary:
        raise InvalidConfig(f"{run_dir} holds no approximation "
                            "(run the approx command first)")
    try:
        config = summary["config"]
        keys_config = keys_mod.KeysConfig.from_dict(config["keys"])
        window = approx.YearWindow.parse(config["window"])
        min_fields, extend = config["min_fields"], config["extend"]
        if type(min_fields) is not int or not 1 <= min_fields <= 4:
            raise ValueError(f"min_fields {min_fields!r}")
        if type(extend) is not bool:
            raise TypeError(f"extend {extend!r}")
    except (AttributeError, LookupError, TypeError, ValueError,
            SpecialtyApproxError) as exc:
        raise FileUnreadable(
            f"{summary_path} holds no usable run config: {exc!r}") from exc

    seed_path = run_dir / "seed.csv"
    try:
        with open(seed_path, encoding="utf-8", newline="") as handle:
            initial = [r[0] for r in csv.reader(handle) if r[1:] == ["initial"]]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FileUnreadable(f"cannot read {seed_path}: {exc}") from exc
    try:
        record, keys, result = _derive(loaded, initial, extend, keys_config,
                                       window, min_fields)
    except SpecialtyApproxError as exc:
        raise RunMismatch(
            f"{run_dir} cannot be re-derived on this corpus: {exc}") from exc

    with tempfile.TemporaryDirectory() as tmp:
        for name, write in _artifacts(loaded, record, keys, result).items():
            write(Path(tmp) / name)
            if _sha256(Path(tmp) / name) != _sha256(run_dir / name):
                raise RunMismatch(
                    f"{run_dir / name} does not match the run re-derived "
                    f"from seed.csv and summary.json"
                )
    return keys, result, extend


def _check_corpus_matches_run(run: _Run, run_dir: Path) -> None:
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        return
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        recorded = manifest["inputs"]["corpus"]["sha256"]
    except (OSError, ValueError, RecursionError, KeyError, TypeError):
        recorded = None
    if not isinstance(recorded, str):
        run.warnings.append(
            f"{manifest_path} records no corpus digest; corpus not checked")
    elif recorded != run.inputs["corpus"]["sha256"]:
        run.warnings.append(
            "corpus digest differs from the one recorded in the run manifest"
        )


def cmd_reviewers(run: _Run, args: argparse.Namespace) -> int:
    loaded = _load(run, args)
    keys, approximation, extend = _rederive_run(run, Path(args.run), loaded)

    conflict_window = args.conflict_window
    if isinstance(conflict_window, int):
        end = approximation.window.end
        conflict_window = approx.YearWindow(end - conflict_window + 1, end)

    source = (approximation if args.source == "approximation"
              else keys.authors)
    ranking = analytics.rank_authors(
        source, loaded,
        focal=args.focal,
        conflict_window=conflict_window,
        scope=_SCOPE_CHOICES[args.scope],
    )
    run.warnings.extend(ranking.warnings)

    candidates = []
    for rank, entry in enumerate(ranking.top(args.top), start=1):
        # every ranked key is an author key of some corpus publication
        record_ids = loaded.by_author_key[entry.author_key]
        item = {
            "rank": rank,
            "author_key": entry.author_key,
            "publication_count": entry.publication_count,
            "record_size": len(record_ids),
            "share_in_approximation": (
                len(record_ids & approximation.member_set) / len(record_ids)),
            "key_coverage_of_approximation": None,
            "key_derivation_warning": None,
        }
        try:
            _, cand_keys, _ = _derive(loaded, record_ids, extend, keys.config)
            mutual = analytics.mutual_coverage(
                entry.author_key, record_ids, cand_keys, approximation, loaded,
            )
            item["key_coverage_of_approximation"] = {
                f.value: v
                for f, v in mutual.key_coverage_of_approximation.items()
            }
        except Unsatisfiable as exc:
            item["key_derivation_warning"] = str(exc)
        candidates.append(item)

    run.emit("rankings.csv",
             lambda p: analytics.write_rankings_csv(ranking, p))
    report = {
        "source": ranking.source.value,
        "focal": args.focal,
        "conflict_window": str(conflict_window),
        "scope": args.scope,
        "n_ranked": len(ranking.entries),
        "excluded": [
            {"author_key": e.author_key, "reason": e.reason.value,
             "publication_count": e.publication_count}
            for e in ranking.excluded
        ],
        "top_candidates": candidates,
        "warnings": list(ranking.warnings),
    }
    run.emit_json("reviewer_report.json", report)
    run.stats.update(n_ranked=len(ranking.entries),
                     n_excluded=len(ranking.excluded))
    print(f"ranked {len(ranking.entries)} author(s), "
          f"excluded {len(ranking.excluded)}; top {min(args.top, len(ranking.entries))} "
          f"written to {run.out / 'rankings.csv'}")
    return 0


def cmd_coverage(run: _Run, args: argparse.Namespace) -> int:
    loaded = _load(run, args, "ids")
    keys, approximation, _ = _rederive_run(run, Path(args.run), loaded)

    ids = _read_ids(args.ids)
    if not ids:
        raise EmptyRecord(f"no publication ids in {args.ids}")
    min_fields = (args.min_fields if args.min_fields is not None
                  else approximation.min_fields)
    covered = analytics.coverage_of_record_by_keys(
        ids, keys, min_fields, loaded
    )
    mutual = analytics.mutual_coverage(
        Path(args.ids).stem, ids, keys, approximation, loaded
    )
    payload = {
        "record_size": len(set(ids)),
        "min_fields": min_fields,
        "covered_share": covered,
        "share_in_approximation": mutual.share_in_approximation,
        "key_coverage_of_approximation": {
            f.value: v
            for f, v in mutual.key_coverage_of_approximation.items()
        },
    }
    run.emit_json("coverage.json", payload)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_generate(run: _Run, args: argparse.Namespace) -> int:
    config = syngen.GeneratorConfig.load(args.config)
    run.add_input("config", args.config)
    run.make_out()   # fail before the generator runs, not after
    records, truth = syngen.build_records(config)
    run.emit("corpus.jsonl", lambda p: syngen.write_corpus(records, p))
    run.emit("truth.jsonl", lambda p: truth.write_jsonl(p))
    per_label = {
        sp.label: sp.n_publications for sp in config.specialties
    }
    run.stats = {"n_publications": len(records), "specialties": per_label}
    print(f"generated {len(records)} publication(s) across "
          f"{len(config.specialties)} specialt(ies) into {run.out}")
    return 0


def cmd_evaluate(run: _Run, args: argparse.Namespace) -> int:
    loaded = _load(run, args, "truth")
    _, approximation, _ = _rederive_run(run, Path(args.run), loaded)
    truth = syngen.GroundTruth.read_jsonl(args.truth)
    precision, recall = syngen.evaluate_recovery(
        approximation, truth, args.target, loaded
    )
    payload = {
        "target": args.target,
        "n_members": len(approximation),
        "precision": precision,
        "recall": recall,
    }
    run.emit_json("evaluation.json", payload)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


# ------------------------------------------------------------------ parser

def _add_seed_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ids", required=True,
                        help="file of newline-delimited publication ids")
    parser.add_argument("--extend", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="extend the seed one hop via references "
                             "(default: on)")


def _add_keys_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold-cell", type=_threshold, default=0.8,
                        help="cell coverage threshold (default 0.8)")
    parser.add_argument("--threshold-title", type=_threshold, default=0.8,
                        help="title-word coverage threshold (default 0.8)")
    parser.add_argument("--threshold-author", type=_threshold, default=0.8,
                        help="author coverage threshold (default 0.8)")
    parser.add_argument("--threshold-ref", type=_threshold, default=0.8,
                        dest="threshold_reference", metavar="THRESHOLD_REF",
                        help="reference coverage threshold (default 0.8)")
    parser.add_argument("--min-word-len", type=_positive_int, default=5,
                        help="minimum title word length (default 5)")
    parser.add_argument("--title-words-required", type=_positive_int,
                        default=2,
                        help="key title words needed for coverage (default 2)")
    parser.add_argument("--author-scope", choices=sorted(_SCOPE_CHOICES),
                        default="auto",
                        help="which authors count (default auto: reprint "
                             "authors when >=90%% of the seed has them)")
    parser.add_argument("--doi-only-refs", action="store_true",
                        help="restrict reference candidates to DOI-like ids")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specialty-approx",
        description="Approximate the scientific specialty of a publication "
                    "record and run downstream analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and index a corpus file")
    p.add_argument("corpus", help="JSON-lines corpus file")
    p.add_argument("--strict", action="store_true",
                   help="fail on the first malformed line")
    p.add_argument("--out", help="directory for ingest_report.json")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("seed", help="resolve and extend a seed record")
    p.add_argument("corpus")
    _add_seed_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("keys", help="select per-field key values for a seed")
    p.add_argument("corpus")
    _add_seed_args(p)
    _add_keys_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_keys)

    p = sub.add_parser(
        "approx",
        help="full pipeline: seed, keys, approximation, histograms",
    )
    p.add_argument("corpus")
    _add_seed_args(p)
    _add_keys_args(p)
    p.add_argument("--window", type=_window, required=True,
                   help="publication-year window START:END (or one year)")
    p.add_argument("--min-fields", type=_min_fields, default=3,
                   help="fields that must cover a member (default 3)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_keys)

    p = sub.add_parser(
        "reviewers",
        help="rank prominent authors of an approx run, with exclusions",
    )
    p.add_argument("corpus")
    p.add_argument("--run", required=True,
                   help="directory written by the approx command")
    p.add_argument("--focal", type=_author_key,
                   help="focal author ('Surname I') to exclude along with "
                        "conflicted co-authors")
    p.add_argument("--conflict-window", type=_conflict_window,
                   default=str(DEFAULT_CONFLICT_SPAN),
                   help="conflict span in years ending at the window end, "
                        "or an explicit START:END (default 5)")
    p.add_argument("--top", type=_positive_int, default=10,
                   help="candidates to detail in the report (default 10)")
    p.add_argument("--source", choices=("approximation", "key-authors"),
                   default="approximation",
                   help="rank over approximation members or key authors")
    p.add_argument("--scope", choices=("all", "reprint"), default="all",
                   help="author scope for counting (default all)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reviewers)

    p = sub.add_parser(
        "coverage",
        help="coverage of an arbitrary record by an approx run's key values",
    )
    p.add_argument("corpus")
    p.add_argument("--run", required=True,
                   help="directory written by the approx command")
    p.add_argument("--ids", required=True,
                   help="file of newline-delimited publication ids")
    p.add_argument("--min-fields", type=_min_fields, default=None,
                   help="coverage rule (default: the run's min_fields)")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("generate",
                       help="synthesize a labeled corpus for validation")
    p.add_argument("--config", required=True,
                   help="generator config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "evaluate",
        help="precision/recall of an approx run against ground truth",
    )
    p.add_argument("corpus")
    p.add_argument("--run", required=True)
    p.add_argument("--truth", required=True,
                   help="ground-truth JSONL written by generate")
    p.add_argument("--target", required=True, help="target specialty label")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args)
    try:
        code = args.func(run, args)
        run.finish()
        return code
    except CorpusInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecialtyApproxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.discard()


if __name__ == "__main__":
    sys.exit(main())
