"""End-to-end command-line tests (each command run as a subprocess)."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specialty_approx
from specialty_approx import (GeneratorConfig, KeysConfig, SpecialtyParams,
                              cli, ingest)
from test_corpus import minimal_record

ROOT = Path(__file__).resolve().parent.parent
CLI = (sys.executable, "-m", "specialty_approx")
WINDOW = "2010:2012"


def run_cli(*argv, cwd=None):
    return subprocess.run([*CLI, *argv], capture_output=True, text=True,
                          cwd=cwd)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated two-specialty corpus plus a completed approx run."""
    root = tmp_path_factory.mktemp("cli")
    config = GeneratorConfig(
        rng_seed=6,
        specialties=(
            SpecialtyParams(label="alpha", n_publications=150,
                            internal_reference_fraction=0.4),
            SpecialtyParams(label="beta", n_publications=150,
                            internal_reference_fraction=0.4),
        ),
        cross_contamination=0.1,
    )
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")

    gen_dir = root / "generated"
    result = run_cli("generate", "--config", str(config_path),
                     "--out", str(gen_dir))
    assert result.returncode == 0, result.stderr
    corpus_path = gen_dir / "corpus.jsonl"
    truth_path = gen_dir / "truth.jsonl"

    labels = {}
    for line in truth_path.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        labels[obj["id"]] = obj["specialty"]
    years = {}
    for line in corpus_path.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        years[obj["id"]] = obj["year"]
    alpha_in_window = sorted(
        pid for pid, label in labels.items()
        if label == "alpha" and 2010 <= years[pid] <= 2012
    )
    ids_path = root / "alpha_ids.txt"
    ids_path.write_text(
        "# focal record\n" + "\n".join(alpha_in_window[:25]) + "\n",
        encoding="utf-8",
    )

    run_dir = root / "run"
    result = run_cli("approx", str(corpus_path), "--ids", str(ids_path),
                     "--window", WINDOW, "--out", str(run_dir))
    assert result.returncode == 0, result.stderr
    return {
        "root": root,
        "config_path": config_path,
        "corpus": corpus_path,
        "truth": truth_path,
        "ids": ids_path,
        "run": run_dir,
        "labels": labels,
    }


# ---------------------------------------------------------------- pipeline

def test_generate_writes_manifest_and_files(workspace):
    gen_dir = workspace["corpus"].parent
    manifest = json.loads((gen_dir / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert (gen_dir / "truth.jsonl").exists()
    assert workspace["corpus"].stat().st_size > 0


def test_ingest_reports_counts(workspace):
    out_dir = workspace["root"] / "ingest_out"
    result = run_cli("ingest", str(workspace["corpus"]),
                     "--out", str(out_dir))
    assert result.returncode == 0
    assert "accepted 300 of 300" in result.stdout
    report = json.loads((out_dir / "ingest_report.json").read_text())
    assert report["n_publications"] == 300
    assert report["rejected"] == []
    assert report["index_sizes"]["cells"] > 0


def test_seed_command_writes_csv(workspace):
    out_dir = workspace["root"] / "seed_out"
    result = run_cli("seed", str(workspace["corpus"]),
                     "--ids", str(workspace["ids"]), "--out", str(out_dir))
    assert result.returncode == 0
    lines = (out_dir / "seed.csv").read_text().splitlines()
    assert lines[0] == "pub_id,provenance"
    assert sum(1 for l in lines[1:] if l.endswith(",initial")) == 25
    assert "seed: 25 initial" in result.stdout


def test_seed_no_extend(workspace):
    out_dir = workspace["root"] / "seed_noext"
    result = run_cli("seed", str(workspace["corpus"]),
                     "--ids", str(workspace["ids"]), "--no-extend",
                     "--out", str(out_dir))
    assert result.returncode == 0
    lines = (out_dir / "seed.csv").read_text().splitlines()
    assert len(lines) == 26                       # header + initial ids only
    assert all(l.endswith(",initial") for l in lines[1:])


def test_keys_command_writes_selection(workspace):
    out_dir = workspace["root"] / "keys_out"
    result = run_cli("keys", str(workspace["corpus"]),
                     "--ids", str(workspace["ids"]), "--out", str(out_dir))
    assert result.returncode == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["fields"]) == {"cell", "title_word", "author",
                                      "reference"}
    for block in summary["fields"].values():
        assert block["achieved_coverage"] >= block["threshold"]
    header = (out_dir / "keys.csv").read_text().splitlines()[0]
    assert header == "field,rank,value,frequency,cumulative_coverage"


def test_threshold_flags_reach_their_own_config_fields(workspace):
    out_dir = workspace["root"] / "keys_thresholds"
    flags = {"--threshold-cell": ("threshold_cell", 0.31),
             "--threshold-title": ("threshold_title", 0.42),
             "--threshold-author": ("threshold_author", 0.53),
             "--threshold-ref": ("threshold_reference", 0.64)}
    argv = [arg for flag, (_, value) in flags.items()
            for arg in (flag, str(value))]
    result = run_cli("keys", str(workspace["corpus"]),
                     "--ids", str(workspace["ids"]), *argv,
                     "--out", str(out_dir))
    assert result.returncode == 0, result.stderr
    config = json.loads((out_dir / "summary.json").read_text())["config"]
    assert {name: config["keys"][name] for name, _ in flags.values()} == \
        dict(flags.values())
    assert "--threshold-ref THRESHOLD_REF" in run_cli("approx",
                                                      "--help").stdout


def test_approx_run_dir_contents(workspace):
    run_dir = workspace["run"]
    for name in ("manifest.json", "seed.csv", "keys.csv",
                 "approximation.csv", "summary.json"):
        assert (run_dir / name).exists(), name
    summary = json.loads((run_dir / "summary.json").read_text())
    approximation = summary["approximation"]
    assert approximation["window"] == WINDOW
    assert approximation["min_fields"] == 3
    assert approximation["n_members"] > 0
    histogram = summary["seed_coverage_histogram"]
    assert set(histogram) == {"0", "1", "2", "3", "4"}
    assert sum(histogram.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(approximation["histogram"].values()) == \
        approximation["n_in_window"]
    assert len(approximation["subset_sizes"]) == 16
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["inputs"]["corpus"]["sha256"]


def test_approx_is_deterministic(workspace):
    dirs = []
    for tag in ("det_a", "det_b"):
        out_dir = workspace["root"] / tag
        result = run_cli("approx", str(workspace["corpus"]),
                         "--ids", str(workspace["ids"]),
                         "--window", WINDOW, "--out", str(out_dir))
        assert result.returncode == 0
        dirs.append(out_dir)
    for name in ("seed.csv", "keys.csv", "approximation.csv", "summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_reviewers_report(workspace):
    out_dir = workspace["root"] / "reviewers_out"
    result = run_cli("reviewers", str(workspace["corpus"]),
                     "--run", str(workspace["run"]), "--top", "5",
                     "--out", str(out_dir))
    assert result.returncode == 0, result.stderr
    report = json.loads((out_dir / "reviewer_report.json").read_text())
    assert report["n_ranked"] > 0
    assert len(report["top_candidates"]) == 5
    for item in report["top_candidates"]:
        assert item["share_in_approximation"] is not None
    lines = (out_dir / "rankings.csv").read_text().splitlines()
    assert lines[0] == "rank,author_key,publication_count"
    assert len(lines) == 1 + report["n_ranked"]


def test_reviewers_excludes_focal_author(workspace):
    report_dir = workspace["root"] / "reviewers_focal"
    plain = json.loads(
        (workspace["root"] / "reviewers_out" / "reviewer_report.json")
        .read_text()
    )
    focal_key = plain["top_candidates"][0]["author_key"]
    result = run_cli("reviewers", str(workspace["corpus"]),
                     "--run", str(workspace["run"]),
                     "--focal", focal_key, "--top", "5",
                     "--out", str(report_dir))
    assert result.returncode == 0, result.stderr
    report = json.loads((report_dir / "reviewer_report.json").read_text())
    excluded = {e["author_key"]: e["reason"] for e in report["excluded"]}
    assert excluded.get(focal_key) == "focal"
    kept = {c["author_key"] for c in report["top_candidates"]}
    assert focal_key not in kept


def test_reviewer_share_is_the_coverage_share_of_own_ids(workspace, tmp_path):
    # both reports measure share_in_approximation over the record's own
    # publications, whatever the run's seed extension did
    result = run_cli("reviewers", str(workspace["corpus"]),
                     "--run", str(workspace["run"]), "--top", "5",
                     "--out", str(tmp_path / "reviewers"))
    assert result.returncode == 0, result.stderr
    report = json.loads(
        (tmp_path / "reviewers" / "reviewer_report.json").read_text())
    by_author_key = ingest(workspace["corpus"]).by_author_key
    for item in report["top_candidates"]:
        ids_path = tmp_path / "own_ids.txt"
        ids_path.write_text(
            "\n".join(sorted(by_author_key[item["author_key"]])) + "\n")
        result = run_cli("coverage", str(workspace["corpus"]),
                         "--run", str(workspace["run"]),
                         "--ids", str(ids_path))
        assert result.returncode == 0, result.stderr
        coverage = json.loads(result.stdout)
        assert coverage["record_size"] == item["record_size"]
        assert coverage["share_in_approximation"] == \
            item["share_in_approximation"], item["author_key"]


def test_coverage_command(workspace):
    out_dir = workspace["root"] / "coverage_out"
    result = run_cli("coverage", str(workspace["corpus"]),
                     "--run", str(workspace["run"]),
                     "--ids", str(workspace["ids"]), "--out", str(out_dir))
    assert result.returncode == 0, result.stderr
    payload = json.loads((out_dir / "coverage.json").read_text())
    assert payload["record_size"] == 25
    assert 0.0 <= payload["covered_share"] <= 1.0
    assert 0.0 <= payload["share_in_approximation"] <= 1.0
    assert set(payload["key_coverage_of_approximation"]) == \
        {"cell", "title_word", "author", "reference"}
    printed = json.loads(result.stdout)
    assert printed == payload


def test_evaluate_command(workspace):
    out_dir = workspace["root"] / "evaluate_out"
    result = run_cli("evaluate", str(workspace["corpus"]),
                     "--run", str(workspace["run"]),
                     "--truth", str(workspace["truth"]),
                     "--target", "alpha", "--out", str(out_dir))
    assert result.returncode == 0, result.stderr
    payload = json.loads((out_dir / "evaluation.json").read_text())
    assert 0.0 <= payload["precision"] <= 1.0
    assert 0.0 <= payload["recall"] <= 1.0
    assert payload["n_members"] > 0
    assert payload["target"] == "alpha"


# ---------------------------------------------- cross-command consistency

def read_csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def test_coverage_of_the_seed_matches_the_seed_histogram(workspace, tmp_path):
    run = workspace["run"]
    summary = json.loads((run / "summary.json").read_text())
    min_fields = summary["approximation"]["min_fields"]
    seed_ids = [row["pub_id"] for row in read_csv_rows(run / "seed.csv")]
    ids_path = tmp_path / "seed_ids.txt"
    ids_path.write_text("\n".join(seed_ids) + "\n", encoding="utf-8")
    result = run_cli("coverage", str(workspace["corpus"]), "--run", str(run),
                     "--ids", str(ids_path))
    assert result.returncode == 0, result.stderr
    coverage = json.loads(result.stdout)
    assert coverage["min_fields"] == min_fields
    assert coverage["record_size"] == len(seed_ids)
    histogram = summary["seed_coverage_histogram"]
    share = sum(histogram[str(k)] for k in range(min_fields, 5))
    # the two shares are summed in different orders, so compare counts
    assert round(coverage["covered_share"] * len(seed_ids)) == \
        round(share * len(seed_ids))


def test_approximation_csv_counts_are_the_member_bins(workspace):
    run = workspace["run"]
    approximation = json.loads(
        (run / "summary.json").read_text())["approximation"]
    counts = Counter(int(row["count"])
                     for row in read_csv_rows(run / "approximation.csv"))
    min_fields = approximation["min_fields"]
    assert set(counts) <= set(range(min_fields, 5))
    assert {k: counts[k] for k in range(min_fields, 5)} == \
        {k: approximation["histogram"][str(k)] for k in range(min_fields, 5)}


def test_ranked_counts_are_member_publications(workspace, tmp_path):
    run = workspace["run"]
    result = run_cli("reviewers", str(workspace["corpus"]), "--run", str(run),
                     "--out", str(tmp_path / "reviewers"))
    assert result.returncode == 0, result.stderr
    members = {row["pub_id"]
               for row in read_csv_rows(run / "approximation.csv")}
    by_author_key = ingest(workspace["corpus"]).by_author_key
    rows = read_csv_rows(tmp_path / "reviewers" / "rankings.csv")
    assert rows
    for row in rows:
        assert int(row["publication_count"]) == \
            len(by_author_key[row["author_key"]] & members), row


def test_readme_command_examples_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1]
    block = block.split("```bash\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)
                for line in block.replace("\\\n", " ").splitlines()
                if line.strip()]
    assert len(examples) >= 8
    parser = cli.build_parser()
    for argv in examples:
        assert argv[0] == "specialty-approx", argv
        parser.parse_args(argv[1:])


def test_approx_window_span_costs_nothing(workspace, tmp_path):
    # the window's ids come from the corpus's own years, so a window of a
    # trillion years runs as fast as one spanning the corpus
    years = sorted({json.loads(line)["year"] for line in
                    workspace["corpus"].read_text(encoding="utf-8")
                    .splitlines()})
    written = []
    for tag, window in (("span", f"{years[0]}:{years[-1]}"),
                        ("huge", "1:1000000000000")):
        out = tmp_path / tag
        result = subprocess.run(
            [*CLI, "approx", str(workspace["corpus"]),
             "--ids", str(workspace["ids"]), f"--window={window}",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        written.append((out / "approximation.csv").read_bytes())
    assert written[0] == written[1]


def test_approx_window_reaches_years_beyond_int64(workspace, tmp_path):
    far = [minimal_record(id=f"far{sign}", year=sign * 10**20)
           for sign in (-1, 1)]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(workspace["corpus"].read_text(encoding="utf-8")
                      + "".join(json.dumps(r) + "\n" for r in far),
                      encoding="utf-8")
    out = tmp_path / "out"
    result = run_cli("approx", str(corpus), "--ids", str(workspace["ids"]),
                     "--window", f"1:{10**20}", "--out", str(out))
    assert result.returncode == 0, result.stderr
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    # every generated year is positive: all of them, and far1, but not far-1
    n_generated = len(workspace["labels"])
    assert summary["approximation"]["n_in_window"] == n_generated + 1


# --------------------------------------------------------------- lifecycle

LIFECYCLE = {
    "generate": lambda ws: ["generate", "--config", str(ws["config_path"])],
    "ingest": lambda ws: ["ingest", str(ws["corpus"])],
    "seed": lambda ws: ["seed", str(ws["corpus"]), "--ids", str(ws["ids"]),
                        "--no-extend"],
    "keys": lambda ws: ["keys", str(ws["corpus"]), "--ids", str(ws["ids"]),
                        "--threshold-ref", "0.7", "--author-scope", "all"],
    "approx": lambda ws: ["approx", str(ws["corpus"]), "--ids", str(ws["ids"]),
                          "--window", WINDOW, "--min-fields", "2"],
    "reviewers": lambda ws: ["reviewers", str(ws["corpus"]),
                             "--run", str(ws["run"])],
    "reviewers-window": lambda ws: ["reviewers", str(ws["corpus"]),
                                    "--run", str(ws["run"]),
                                    "--conflict-window", WINDOW,
                                    "--scope", "reprint"],
    "coverage": lambda ws: ["coverage", str(ws["corpus"]),
                            "--run", str(ws["run"]), "--ids", str(ws["ids"])],
    "evaluate": lambda ws: ["evaluate", str(ws["corpus"]),
                            "--run", str(ws["run"]),
                            "--truth", str(ws["truth"]), "--target", "alpha"],
}


@pytest.mark.parametrize("case", sorted(LIFECYCLE))
def test_manifest_records_parsed_options_and_outputs(workspace, tmp_path,
                                                     case):
    out = tmp_path / "out"
    argv = [*LIFECYCLE[case](workspace), "--out", str(out)]
    result = run_cli(*argv)
    assert result.returncode == 0, result.stderr
    parsed = vars(cli.build_parser().parse_args(argv))
    options = {name: value for name, value in parsed.items()
               if name not in ("func", "command", "out")}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == argv[0]
    assert manifest["arguments"] == json.loads(json.dumps(options,
                                                          default=str))
    assert manifest["outputs"]
    assert sorted(p.name for p in out.iterdir()) == \
        sorted([*manifest["outputs"], "manifest.json"])


INGEST_READERS = ("ingest", "seed", "keys", "approx", "reviewers",
                  "coverage", "evaluate")


def _ingest_phase(manifest):
    phase = manifest["stats"]["phases"]["corpus.ingest"]
    assert isinstance(phase.pop("seconds"), float)   # its value varies
    return phase


@pytest.mark.parametrize("command", INGEST_READERS)
def test_every_corpus_reader_records_its_ingest_phase(workspace, tmp_path,
                                                      command):
    out = tmp_path / "out"
    result = run_cli(*LIFECYCLE[command](workspace), "--out", str(out))
    assert result.returncode == 0, result.stderr
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert _ingest_phase(manifest) == {"lines": 300, "accepted": 300,
                                       "rejected": 0}


def test_ingest_phase_counts_merge_into_the_command_stats(workspace,
                                                          tmp_path):
    manifest = json.loads((workspace["run"] / "manifest.json").read_text(
        encoding="utf-8"))
    assert _ingest_phase(manifest) == {"lines": 300, "accepted": 300,
                                       "rejected": 0}
    assert {"n_members", "n_in_window"} <= manifest["stats"].keys()

    bad = tmp_path / "bad.jsonl"
    good_line = workspace["corpus"].read_text().splitlines()[0]
    bad.write_text(f"{good_line}\n\n{{not json\n[]\n", encoding="utf-8")
    out = tmp_path / "out"
    result = run_cli("ingest", str(bad), "--out", str(out))
    assert result.returncode == 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert _ingest_phase(manifest) == {"lines": 3, "accepted": 1,
                                       "rejected": 2}
    assert (manifest["stats"]["accepted"], manifest["stats"]["rejected"]) == \
        (1, 2)


@pytest.mark.parametrize("command", ["ingest", "coverage", "evaluate"])
def test_without_out_nothing_is_written(workspace, tmp_path, command):
    result = subprocess.run([*CLI, *LIFECYCLE[command](workspace)],
                            capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["reviewers", "coverage", "evaluate"])
def test_warning_is_printed_and_recorded_once(workspace, tmp_path, command):
    argv = on_run(command)(workspace, tmp_path)
    (tmp_path / "run" / "manifest.json").write_bytes(b"[]")
    out = tmp_path / "out"
    result = run_cli(*argv, "--out", str(out))
    assert result.returncode == 0, result.stderr
    [warning] = json.loads((out / "manifest.json").read_text())["warnings"]
    assert "records no corpus digest" in warning
    assert result.stderr.splitlines() == [f"warning: {warning}"]


def test_unwritable_output_file_exits_2(workspace, tmp_path):
    out = tmp_path / "out"
    (out / "seed.csv").mkdir(parents=True)
    result = run_cli("seed", str(workspace["corpus"]),
                     "--ids", str(workspace["ids"]), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: cannot write {out / 'seed.csv'}")
    assert "Traceback" not in result.stderr
    assert not (out / "manifest.json").exists()
    assert not (out / "seed.csv.tmp").exists()


def test_failed_last_write_leaves_nothing_new_in_out(workspace, tmp_path):
    # keys writes seed.csv and keys.csv before summary.json; a summary.json
    # that cannot be written must not strand the two CSVs
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    result = run_cli("keys", str(workspace["corpus"]),
                     "--ids", str(workspace["ids"]), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(
        f"error: cannot write {out / 'summary.json'}")
    assert "Traceback" not in result.stderr
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    assert not any((out / "summary.json").iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_outputs_are_staged_inside_out(workspace, tmp_path, monkeypatch):
    # staging inside --out needs only --out to be writable and keeps every
    # move on its filesystem (the parent's mode binds only non-root users)
    out = tmp_path / "parent" / "out"
    out.mkdir(parents=True)
    out.parent.chmod(0o555)
    moves = []
    real_replace = os.replace

    def replace(src, dst):
        moves.append((Path(src), Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace)
    try:
        code = cli.main(["keys", str(workspace["corpus"]),
                         "--ids", str(workspace["ids"]), "--out", str(out)])
    finally:
        out.parent.chmod(0o755)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "keys.csv", "manifest.json", "seed.csv", "summary.json"]
    assert [dst.name for _, dst in moves] == [
        "seed.csv", "keys.csv", "summary.json", "manifest.json"]
    assert all(src.parent.parent == out and dst.parent == out
               for src, dst in moves)


def test_failed_move_puts_back_the_files_it_replaced(workspace, tmp_path,
                                                     monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    old = {"seed.csv": "old seed\n", "keys.csv": "old keys\n",
           "manifest.json": "{}\n"}
    for name, text in old.items():
        (out / name).write_text(text, encoding="utf-8")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == out / "summary.json":
            raise OSError(18, "Invalid cross-device link")
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace)
    code = cli.main(["keys", str(workspace["corpus"]),
                     "--ids", str(workspace["ids"]), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {out / 'summary.json'}")
    assert {p.name: p.read_text(encoding="utf-8")
            for p in out.iterdir()} == old


def test_generate_checks_out_before_generating(workspace, tmp_path,
                                               monkeypatch, capsys):
    (tmp_path / "out").write_text("", encoding="utf-8")

    def build_records(config):
        raise AssertionError("generated before --out was made")

    monkeypatch.setattr(cli.syngen, "build_records", build_records)
    code = cli.main(["generate", "--config", str(workspace["config_path"]),
                     "--out", str(tmp_path / "out" / "result")])
    assert code == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_importing_the_cli_does_not_load_numpy():
    probe = "import sys, specialty_approx.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_every_export_resolves_once():
    names = specialty_approx.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(specialty_approx, n)] == []
    namespace = {}
    exec("from specialty_approx import *", namespace)
    assert set(names) <= namespace.keys()


# exported names that nothing outside their definition uses, each with
# the reason it stays exported
UNUSED_EXPORTS = {
    "field_frequencies": "the public raw frequency table; the forward-index "
                         "test in test_corpus.py checks the counts by it",
}


def test_every_export_has_a_use_outside_its_definition():
    sources = [*ROOT.glob("src/specialty_approx/*.py"),
               *ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py"),
               ROOT / "README.md"]
    texts = [path.read_text(encoding="utf-8") for path in sources
             if path.name != "__init__.py"]
    unused = set()
    for name in specialty_approx.__all__:
        definition = re.compile(
            rf"^[ \t]*(?:def|class)[ \t]+{name}\b|^{name}[ \t]*[:=]", re.M)
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(definition.sub("", text)) for text in texts):
            unused.add(name)
    assert unused == set(UNUSED_EXPORTS)


# -------------------------------------------------------------- exit codes

def test_malformed_corpus_exits_2(workspace, tmp_path):
    bad = tmp_path / "bad.jsonl"
    good_line = workspace["corpus"].read_text().splitlines()[0]
    bad.write_text(good_line + "\n{not json\n", encoding="utf-8")
    result = run_cli("seed", str(bad), "--ids", str(workspace["ids"]),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "malformed" in result.stderr


def test_ingest_lenient_mode_reports_but_exits_2(workspace, tmp_path):
    bad = tmp_path / "bad.jsonl"
    good_line = workspace["corpus"].read_text().splitlines()[0]
    bad.write_text(good_line + "\n{not json\n", encoding="utf-8")
    result = run_cli("ingest", str(bad))
    assert result.returncode == 2
    assert "accepted 1 of 2" in result.stdout
    assert "rejected line 2" in result.stderr


@pytest.mark.parametrize("line", ["1" * 5000, "[" * 100_000],
                         ids=["5000-digit-int", "deep-nesting"])
@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_ingest_undecodable_line_exits_2(workspace, tmp_path, line, strict):
    bad = tmp_path / "bad.jsonl"
    good_line = workspace["corpus"].read_text().splitlines()[0]
    bad.write_text(good_line + "\n" + line + "\n", encoding="utf-8")
    result = run_cli("ingest", str(bad), *(["--strict"] if strict else []))
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    if strict:
        assert result.stderr.startswith("error: line 2: invalid JSON")
    else:
        assert "accepted 1 of 2" in result.stdout
        assert "rejected line 2: invalid JSON" in result.stderr


@pytest.mark.parametrize("command", ["coverage", "evaluate"])
def test_corpus_digest_warning_is_printed(workspace, tmp_path, command):
    # drop one publication the run does not depend on (outside the
    # window and not in the seed, so the run still re-derives) and its label
    seed_ids = {row.split(",")[0] for row in
                (workspace["run"] / "seed.csv").read_text().splitlines()}
    records = [json.loads(line) for line in
               workspace["corpus"].read_text(encoding="utf-8").splitlines()]
    dropped = next(r["id"] for r in records if r["id"] not in seed_ids
                   and not 2010 <= r["year"] <= 2012)
    corpus, truth = tmp_path / "corpus.jsonl", tmp_path / "truth.jsonl"
    for path, source in ((corpus, workspace["corpus"]),
                         (truth, workspace["truth"])):
        path.write_text("".join(
            line + "\n" for line in source.read_text(encoding="utf-8")
            .splitlines() if json.loads(line)["id"] != dropped),
            encoding="utf-8")
    extra = {"coverage": ["--ids", str(workspace["ids"])],
             "evaluate": ["--truth", str(truth), "--target", "alpha"]}
    result = run_cli(command, str(corpus), "--run", str(workspace["run"]),
                     *extra[command])
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [
        "warning: corpus digest differs from the one recorded in the run "
        "manifest"]


@pytest.mark.parametrize("manifest", [
    b"[]", b'{"inputs": {"corpus": 5}}', b'{"inputs": "\xff\xfe"}',
], ids=["list", "corpus-not-an-object", "not-utf8"])
def test_unusable_run_manifest_skips_the_digest_check(workspace, tmp_path,
                                                      manifest):
    run = tmp_path / "run"
    shutil.copytree(workspace["run"], run)
    (run / "manifest.json").write_bytes(manifest)
    result = run_cli("coverage", str(workspace["corpus"]), "--run", str(run),
                     "--ids", str(workspace["ids"]))
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    [warning] = result.stderr.splitlines()
    assert warning.startswith("warning: ")


def test_unknown_seed_id_exits_1(workspace, tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("ghost-publication\n", encoding="utf-8")
    result = run_cli("seed", str(workspace["corpus"]), "--ids", str(ids),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "unknown publication id" in result.stderr


def test_missing_corpus_file_exits_2(workspace, tmp_path):
    result = run_cli("ingest", str(tmp_path / "absent.jsonl"))
    assert result.returncode == 2
    assert "error" in result.stderr


def test_bad_flag_value_exits_2(workspace, tmp_path):
    result = run_cli("approx", str(workspace["corpus"]),
                     "--ids", str(workspace["ids"]),
                     "--window", "2012:2010", "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    result = run_cli("approx", str(workspace["corpus"]),
                     "--ids", str(workspace["ids"]),
                     "--window", WINDOW, "--min-fields", "9",
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 2


def test_reviewers_needs_an_approx_run(workspace, tmp_path):
    result = run_cli("reviewers", str(workspace["corpus"]),
                     "--run", str(tmp_path),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "approx" in result.stderr


# --------------------------------------------------------- unusable input

def truncate(path):
    path.write_bytes(path.read_bytes()[:40])


def drop_last_row(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def edit_first_row(path):
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(
        keepends=True)
    path.write_text("".join([header, first.replace(",1,", ",2,", 1), *rest]),
                    encoding="utf-8")


def set_config(**values):
    """Overwrite entries of a run's ``summary.json["config"]``."""
    def damage(path):
        summary = json.loads(path.read_text(encoding="utf-8"))
        summary["config"].update(values)
        path.write_text(json.dumps(summary), encoding="utf-8")
    return damage


def on_run(command, name=None, damage=None):
    """``command`` against a copy of the approx run with one file damaged."""
    def argv(ws, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(ws["run"], run)
        if damage is not None:
            damage(run / name)
        extra = {
            "reviewers": [],
            "coverage": ["--ids", str(ws["ids"])],
            "evaluate": ["--truth", str(ws["truth"]), "--target", "alpha"],
        }[command]
        return [command, str(ws["corpus"]), "--run", str(run), *extra]
    return argv


def out_under_file(ws, tmp_path):
    (tmp_path / "out").write_text("", encoding="utf-8")
    return ["seed", str(ws["corpus"]), "--ids", str(ws["ids"])]


def seed_with_corpus_line(line):
    """``seed`` on the workspace corpus with ``line`` appended."""
    def argv(ws, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(ws["corpus"].read_text(encoding="utf-8")
                          + line + "\n", encoding="utf-8")
        return ["seed", str(corpus), "--ids", str(ws["ids"])]
    return argv


def generate_with_config(text):
    def argv(ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        return ["generate", "--config", str(config)]
    return argv


def evaluate_with_truth(text):
    def argv(ws, tmp_path):
        truth = tmp_path / "truth.jsonl"
        truth.write_text(text, encoding="utf-8")
        return ["evaluate", str(ws["corpus"]), "--run", str(ws["run"]),
                "--truth", str(truth), "--target", "alpha"]
    return argv


@pytest.mark.parametrize("argv,code", [
    pytest.param(on_run("evaluate", "summary.json", truncate), 2,
                 id="truncated-summary"),
    pytest.param(on_run("reviewers", "summary.json",
                        lambda p: p.write_text("[" * 100_000,
                                               encoding="utf-8")),
                 2, id="summary-deep-nesting"),
    pytest.param(on_run("coverage", "keys.csv", lambda p: p.unlink()), 2,
                 id="missing-keys-csv"),
    pytest.param(on_run("evaluate", "approximation.csv", drop_last_row), 2,
                 id="deleted-approximation-row"),
    pytest.param(on_run("reviewers", "keys.csv", edit_first_row), 2,
                 id="edited-keys-row"),
    pytest.param(lambda ws, tmp: ["approx", str(ws["corpus"]), "--ids",
                                  str(tmp / "absent.txt"), "--window", WINDOW],
                 2, id="missing-ids"),
    pytest.param(lambda ws, tmp: ["evaluate", str(ws["corpus"]), "--run",
                                  str(ws["run"]), "--truth",
                                  str(tmp / "absent.jsonl"), "--target",
                                  "alpha"],
                 2, id="missing-truth"),
    pytest.param(lambda ws, tmp: [*on_run("reviewers")(ws, tmp),
                                  "--conflict-window", "abc"],
                 2, id="conflict-window-abc"),
    pytest.param(lambda ws, tmp: [*on_run("reviewers")(ws, tmp),
                                  "--conflict-window", "0"],
                 2, id="conflict-window-0"),
    pytest.param(lambda ws, tmp: [*on_run("reviewers")(ws, tmp),
                                  "--focal", "x"],
                 2, id="focal-not-an-author-key"),
    pytest.param(lambda ws, tmp: [*on_run("reviewers")(ws, tmp),
                                  "--focal", ""],
                 2, id="focal-empty"),
    pytest.param(out_under_file, 2, id="out-under-regular-file"),
    pytest.param(seed_with_corpus_line("1" * 5000), 2,
                 id="corpus-5000-digit-int"),
    pytest.param(seed_with_corpus_line("[" * 100_000), 2,
                 id="corpus-deep-nesting"),
    pytest.param(seed_with_corpus_line(json.dumps(
                     minimal_record(id="lone", references=["\ud800x"]))), 2,
                 id="corpus-lone-surrogate"),
    pytest.param(generate_with_config('{"rng_seed": ' + "1" * 5000 + "}"), 2,
                 id="config-5000-digit-int"),
    pytest.param(generate_with_config("{not json"), 2,
                 id="config-invalid-json"),
    pytest.param(generate_with_config('{"rng_seed": 1e400, "specialties": []}'),
                 2, id="config-infinite-seed"),
    pytest.param(generate_with_config('{"specialties": [{"label": "a"}]}'),
                 2, id="config-missing-rng-seed"),
    pytest.param(generate_with_config('{"rng_seed": 1, "specialties": 5}'),
                 2, id="config-specialties-not-a-list"),
    pytest.param(on_run("evaluate", "summary.json", set_config(extend="no")),
                 2, id="run-extend-string"),
    pytest.param(on_run("coverage", "summary.json", set_config(extend=1)),
                 2, id="run-extend-int"),
    pytest.param(on_run("reviewers", "summary.json",
                        set_config(min_fields=3.0)),
                 2, id="run-min-fields-float"),
    pytest.param(evaluate_with_truth('{"id": "x"}\n'), 2,
                 id="truth-not-a-label"),
    pytest.param(evaluate_with_truth("{not json\n"), 2,
                 id="truth-invalid-json"),
    pytest.param(lambda ws, tmp: ["reviewers", str(ws["corpus"]),
                                  "--run", str(tmp)],
                 1, id="no-approx-run"),
])
def test_unusable_input_fails_cleanly(workspace, tmp_path, argv, code):
    out = tmp_path / "out" / "result"
    result = run_cli(*argv(workspace, tmp_path), "--out", str(out))
    assert result.returncode == code, result.stderr
    assert sum("error:" in line for line in result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr
    assert not out.exists()


# ------------------------------------------------------ fuzzed run directory

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text()
    | st.integers(0, 4000).map(lambda n: 10**n),   # ints of up to 4001 digits
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=8,
)


def edit_config(config_edits, keys_edits):
    """Replace entries of ``summary.json["config"]`` and of its ``keys``."""
    def damage(run):
        path = run / "summary.json"
        summary = json.loads(path.read_text(encoding="utf-8"))
        summary["config"]["keys"].update(keys_edits)
        summary["config"].update(config_edits)
        path.write_text(json.dumps(summary), encoding="utf-8")
    return damage


def truncate_at(name, share):
    """Cut the run's file ``name`` to ``share`` of its bytes."""
    def damage(run):
        raw = (run / name).read_bytes()
        (run / name).write_bytes(raw[:int(len(raw) * share)])
    return damage


RUN_DAMAGE = (
    st.builds(edit_config,
              st.dictionaries(st.sampled_from(
                  ["keys", "extend", "window", "min_fields"]),
                  JSON_VALUES, max_size=2),
              st.dictionaries(st.sampled_from(sorted(KeysConfig().to_dict())),
                              JSON_VALUES, max_size=2))
    | st.builds(truncate_at, st.sampled_from(["summary.json", "seed.csv"]),
                st.floats(0, 1, exclude_max=True))
)


@settings(max_examples=60, deadline=None)
@given(damage=RUN_DAMAGE)
def test_damaged_run_dir_fails_cleanly(workspace, damage):
    with tempfile.TemporaryDirectory() as tmp:
        run, out = Path(tmp) / "run", Path(tmp) / "out"
        shutil.copytree(workspace["run"], run)
        damage(run)
        out.mkdir()
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main([
                    "coverage", str(workspace["corpus"]), "--run", str(run),
                    "--ids", str(workspace["ids"]), "--out", str(out)])
        finally:
            gc.unfreeze()   # main's corpus load froze the heap
        assert code in (0, 1, 2)
        lines = stderr.getvalue().splitlines()
        assert sum("error:" in line for line in lines) <= 1
        if code:
            assert list(out.iterdir()) == []


# ------------------------------------------------------- fuzzed corpus lines

CORPUS_KEYS = ("id", "year", "doc_type", "source_id", "subject_categories",
               "title", "authors", "reprint_author", "references")
# a placeholder value that to_lines swaps for raw JSON text
RAW = "\0raw\0"

VALID_RECORDS = st.fixed_dictionaries({
    # a small pool, so that generated corpora repeat ids
    "id": st.integers(0, 15).map("p{}".format),
    "year": st.integers(1990, 2030),
    "doc_type": st.sampled_from(["Article", "review", "oddity"]),
    "source_id": st.text(max_size=4),
    "subject_categories": st.lists(st.text("ABC xy", min_size=1, max_size=5),
                                   min_size=1, max_size=3),
    "title": st.text(max_size=30),
    "authors": st.lists(st.fixed_dictionaries({
        "surname": st.text(min_size=1, max_size=8),
        "initials": st.text("AB. j", min_size=1, max_size=3)}), max_size=3),
    "reprint_author": st.none() | st.integers(0, 3),
    "references": st.lists(st.text(min_size=1, max_size=8), max_size=3),
})


def drop(key):
    def mutate(record):
        del record[key]
    return mutate


def retype(key, value):
    return lambda record: record.__setitem__(key, value)


def add_surrogate(key, surrogate):
    """Put a lone surrogate into the string or list of strings at ``key``."""
    def mutate(record):
        value = record[key]
        if key == "authors" and value:
            value[0]["surname"] += surrogate
        elif isinstance(value, list):
            value.append(surrogate)
        else:
            record[key] = f"{value}{surrogate}"
    return mutate


def raw_value(key, text):
    def mutate(record):
        record[key] = RAW
        return text
    return mutate


KEY = st.sampled_from(CORPUS_KEYS)
MUTATIONS = (
    st.builds(drop, KEY)
    | st.builds(retype, KEY, JSON_VALUES)
    | st.builds(add_surrogate, st.sampled_from(
        ["id", "title", "source_id", "subject_categories", "authors",
         "references"]), st.sampled_from(["\ud800", "\udfff"]))
    | st.builds(raw_value, st.sampled_from(["year", "reprint_author"]),
                st.sampled_from([4000, 5000]).map(lambda n: "1" * n))
    | st.builds(raw_value, KEY, st.sampled_from([30, 100_000]).map(
        lambda depth: "[" * depth + "]" * depth))
)
CORPUS_LINES = st.lists(
    st.tuples(VALID_RECORDS, st.none() | MUTATIONS,
              st.sampled_from([None, "", " \t"])),
    max_size=6)


def to_lines(items) -> list[str]:
    """One JSON line per record, mutated or not, each after its blank
    line if any.

    ``json.dumps`` writes a lone surrogate as a ``\\ud800`` escape, so
    the file itself stays valid UTF-8.
    """
    lines = []
    for record, mutate, blank in items:
        raw = mutate(record) if mutate else None
        if blank is not None:
            lines.append(blank)
        line = json.dumps(record)
        lines.append(line.replace(json.dumps(RAW), raw) if raw else line)
    return lines


@settings(max_examples=150, deadline=None)
@given(items=CORPUS_LINES, strict=st.booleans())
def test_fuzzed_corpus_lines_ingest_cleanly(items, strict):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus.jsonl", Path(tmp) / "out"
        corpus.write_text("".join(f"{line}\n" for line in to_lines(items)),
                          encoding="utf-8")
        out.mkdir()
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(["ingest", str(corpus), "--out", str(out),
                                 *(["--strict"] if strict else [])])
        finally:
            gc.unfreeze()
        assert code in (0, 1, 2)
        errors = [line for line in stderr.getvalue().splitlines()
                  if line.startswith("error:")]
        assert len(errors) <= 1
        if errors:
            assert code and list(out.iterdir()) == []
        else:
            # lenient ingest reports the lines it rejected and exits 2
            report = json.loads((out / "ingest_report.json").read_text())
            assert code == (2 if report["rejected"] else 0)
            assert report["accepted"] + len(report["rejected"]) == \
                report["total_lines"]


# ------------------------------------------- generator configs numpy rejects

def one_specialty_config(rng_seed=1, **params):
    return {"rng_seed": rng_seed,
            "specialties": [{"label": "a", "n_publications": 5, **params}]}


@pytest.mark.parametrize("config", [
    pytest.param(one_specialty_config(title_length=[1, 1e30]),
                 id="pair-bound-beyond-int64"),
    pytest.param(one_specialty_config(rng_seed=-1), id="negative-rng-seed"),
    pytest.param(one_specialty_config(year_range=[2000, 1e20]),
                 id="year-beyond-int64"),
    pytest.param(one_specialty_config(n_core_cells=2.5), id="float-count"),
    pytest.param(one_specialty_config(n_reference_targets=7.0),
                 id="integral-float-count"),
    pytest.param(one_specialty_config(n_publications=True), id="bool-count"),
    pytest.param(one_specialty_config(n_publications=1,
                                      refs_per_pub=[2**62, 2**62]),
                 id="refs-over-the-item-budget"),
    pytest.param(one_specialty_config(n_publications=10**9),
                 id="publications-over-the-item-budget"),
])
def test_generate_config_numpy_cannot_draw_exits_2(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    result = run_cli("generate", "--config", str(path), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert sum("error:" in line for line in result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr
    assert list(out.iterdir()) == []


# ------------------------------------------ fuzzed ids, truth and configs

def main_fails_cleanly(argv, out: Path) -> int:
    """Run ``cli.main(argv)`` into a new, empty ``out``; check the exit
    code, the single ``error:`` line and that a failed run left ``out``
    empty."""
    out.mkdir()
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", str(out)])
    finally:
        gc.unfreeze()   # main's corpus load froze the heap
    assert code in (0, 1, 2)
    lines = stderr.getvalue().splitlines()
    assert sum("error:" in line for line in lines) <= 1
    if code:
        assert list(out.iterdir()) == []
    return code


# ids of the workspace corpus (150 per label) and some just past its end
WORKSPACE_IDS = st.builds("{}p{:06d}".format,
                          st.sampled_from(["alpha", "beta"]),
                          st.integers(0, 160))
ODD_LINES = st.sampled_from([b"", b"  ", b"# comment", b"\0", b"a\0b", b"\xff",
                             b"\xc3", b"\xed\xa0\x80", b"alphap000001 # x",
                             b"\r", b"[" * 1000])
ID_LINES = st.lists(WORKSPACE_IDS.map(str.encode)
                    | st.text(max_size=8).map(str.encode) | ODD_LINES,
                    max_size=8)


@settings(max_examples=40, deadline=None)
@given(lines=ID_LINES, command=st.sampled_from(["approx", "coverage"]),
       as_directory=st.booleans())
def test_fuzzed_ids_file_fails_cleanly(workspace, lines, command,
                                       as_directory):
    with tempfile.TemporaryDirectory() as tmp:
        ids = Path(tmp) / "ids.txt"
        if as_directory:
            ids.mkdir()
        else:
            ids.write_bytes(b"\n".join(lines))
        where = (["--window", WINDOW] if command == "approx"
                 else ["--run", str(workspace["run"])])
        main_fails_cleanly([command, str(workspace["corpus"]), *where,
                            "--ids", str(ids)], Path(tmp) / "out")


LABEL_LINES = st.builds(
    lambda pid, label: json.dumps({"id": pid, "specialty": label}).encode(),
    WORKSPACE_IDS, st.sampled_from(["alpha", "beta", "gamma"]))
TRUTH_LINES = st.lists(
    LABEL_LINES | JSON_VALUES.map(lambda v: json.dumps(v).encode())
    | ODD_LINES | st.just(b"[" * 100_000) | st.just(b"{not json"),
    max_size=8)


@settings(max_examples=30, deadline=None)
@given(lines=TRUTH_LINES, labeled=st.booleans())
def test_fuzzed_truth_file_fails_cleanly(workspace, lines, labeled):
    with tempfile.TemporaryDirectory() as tmp:
        truth = Path(tmp) / "truth.jsonl"
        # the whole workspace truth first, so that some files label
        # every member and the damage is in the added lines alone
        head = workspace["truth"].read_bytes() if labeled else b""
        truth.write_bytes(head + b"\n".join(lines))
        main_fails_cleanly(["evaluate", str(workspace["corpus"]), "--run",
                            str(workspace["run"]), "--truth", str(truth),
                            "--target", "alpha"], Path(tmp) / "out")


# An accepted size is at most 50: a count must be an int, and every value
# drawn here that int() turns into an int lies in -5..50 or at 2**63 and
# above.  A larger accepted size would generate a larger corpus.
SIZES = st.integers(-5, 50) | st.integers(2**63, 2**70)
NON_INTS = (st.none() | st.booleans() | st.floats(-5, 50)
            | st.sampled_from([math.nan, math.inf, -math.inf, 1e19, 1e300,
                               "7", " -3 ", "1" * 20, "x", "", "2.5"])
            | st.lists(st.integers(0, 3), max_size=2)
            | st.dictionaries(st.just("k"), st.none(), max_size=1))
PAIRS = st.lists(SIZES | NON_INTS, max_size=3) | SIZES | NON_INTS
SHARES = st.floats() | NON_INTS
SPECIALTY_EDITS = {
    **{name: SIZES | NON_INTS for name in (
        "n_publications", "n_core_cells", "vocab_size", "n_authors",
        "n_reference_targets")},
    **{name: PAIRS for name in (
        "title_length", "refs_per_pub", "authors_per_pub", "year_range")},
    **{name: SHARES for name in (
        "cell_concentration", "zipf_exponent", "lotka_exponent",
        "reference_skew_exponent", "internal_reference_fraction")},
    "label": st.text(max_size=3) | NON_INTS,
    "reprint_author_rule": st.sampled_from(["first", "random", "x"])
                           | NON_INTS,
    "unknown": NON_INTS,
}
SMALL_SPECIALTY = {"n_publications": 20, "n_core_cells": 3, "vocab_size": 20,
                   "n_authors": 20, "n_reference_targets": 20}


# at most two edits, so that some configs still generate
EDITS = st.lists(st.sampled_from(sorted(SPECIALTY_EDITS)).flatmap(
    lambda name: st.tuples(st.just(name), SPECIALTY_EDITS[name])),
    max_size=2).map(dict)


@settings(max_examples=60, deadline=None)
@given(edits=EDITS,
       rng_seed=st.integers(0, 50) | SIZES | NON_INTS
       | st.integers(-2**70, -1),
       contamination=st.none() | SHARES)
def test_fuzzed_generator_config_fails_cleanly(edits, rng_seed,
                                               contamination):
    config = {"rng_seed": rng_seed, "specialties": [
        {"label": "a", **SMALL_SPECIALTY, **edits},
        {"label": "b", **SMALL_SPECIALTY}]}
    if contamination is not None:
        config["cross_contamination"] = contamination
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        main_fails_cleanly(["generate", "--config", str(path)],
                           Path(tmp) / "out")
