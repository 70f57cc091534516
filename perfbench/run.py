"""Benchmark of specialty-approx: three closed-loop workloads, one client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query-100k --seed 77 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` records spans around calls into each layer and reports the
per-layer metrics, plus the tracing overhead measured on paired traced and
untraced operations.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is the result object; the line before
it, starting with ``report``, holds run metadata, sample counts, digests
and the metrics no single layer list covers.  The same report is written
to ``.bench_out/`` in the checkout.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (GcMeter, ProgramMissing, Tracer, child_env, clock,  # noqa: E402
                     load_program, run_child, sha256_file, sha256_json,
                     span_self_times, tail_latency)

LAYERS = ("corpus", "seed", "keys", "approx", "analytics", "syngen", "cli")
FIELDS = ("cell", "title_word", "author", "reference")


def run_metadata(root: Path, src: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    import numpy
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class Op:
    """One executed operation and what the checks made of it."""

    def __init__(self, tag, label, traced, latency, problems, quality,
                 gc_delta):
        self.tag = tag
        self.label = label
        self.traced = traced
        self.latency = latency
        self.problems = problems
        self.quality = quality
        self.gc_delta = gc_delta


def run_op(wl, params, tag, traced, gc_meter):
    tracer = wl.bench.tracer if traced else None
    before = gc_meter.snapshot()
    out, problems = None, []
    with (tracer or contextlib.nullcontext()):
        if tracer:
            tracer.op = tag
        started = clock()
        try:
            out = wl.run_op(params, tag)
        except Exception:  # an operation that raises counts as failed
            problems = [traceback.format_exc(limit=3)]
        latency = clock() - started
    delta = tuple(a - b for a, b in zip(gc_meter.snapshot(), before))
    quality = None
    if not problems:
        try:
            problems = wl.check(params, out)
            quality = None if problems else wl.quality(out)
        except Exception:  # a check that cannot run is a failed check
            problems = [traceback.format_exc(limit=3)]
    return Op(tag, wl.describe(params), traced, latency, problems, quality,
              delta), out


def measure(wl, seconds, gc_meter):
    """Run whole passes until ``seconds`` have elapsed and at least
    ``count_ops`` operations have run.  Traced runs execute every operation
    twice, traced and untraced, alternating which goes first.

    The first ``count_ops`` operations also give the digest entries and,
    when traced, the exact counts; outputs are dropped right after, so the
    benchmark keeps no operation's objects alive."""
    trace = wl.bench.trace
    ops, digests, counts = [], [], []
    started = clock()
    n = 0
    while clock() - started < seconds or n < wl.count_ops:
        for params in wl.next_pass():
            order = (False, True) if n % 2 == 0 else (True, False)
            for traced in (order if trace else (False,)):
                op, out = run_op(wl, params, f"op{n}{'t' if traced else ''}",
                                 traced, gc_meter)
                ops.append(op)
                if n < wl.count_ops and traced == trace and not op.problems:
                    digests.append(wl.digest_item(out))
                    if trace:
                        counts.append(wl.counts(out))
                del out
            n += 1
    return ops, digests, counts, clock() - started


def layer_metrics(wl, ops, op_counts, inputs, tracer) -> tuple[dict, dict]:
    """Per-layer metrics (BENCHMARK.json's per_layer) and the trace detail."""
    spans = tracer.spans
    self_s = span_self_times(spans)
    durations: dict[str, list[float]] = {}
    for name, start, end, _, _ in spans:
        durations.setdefault(name, []).append(end - start)

    def per_call(name, default=None):
        values = durations.get(name)
        return sum(values) / len(values) if values else default

    traced = [op for op in ops if op.traced]
    by_tag = {op.tag: op for op in traced}
    layer_self = {layer: 0.0 for layer in LAYERS}
    top_level = {op.tag: 0.0 for op in traced}
    ingest_calls = {op.tag: 0 for op in traced}
    for (name, start, end, parent, tag), own in zip(spans, self_s):
        if tag not in by_tag:
            continue
        layer_self[name.split(".")[0]] += own
        if parent < 0:
            top_level[tag] += end - start
        if name == "corpus.ingest":
            ingest_calls[tag] += 1
    n_traced = max(len(traced), 1)
    unaccounted = [op.latency - top_level[op.tag] for op in traced]
    pairs = {}
    for op in ops:
        pairs.setdefault(op.tag.rstrip("t"), {})[op.traced] = op.latency
    overhead = [p[True] - p[False] for p in pairs.values() if len(p) == 2]

    counts: dict[str, float] = {}
    for entry in op_counts:
        for name, value in entry.items():
            counts[name] = counts.get(name, 0) + value
    k = max(len(op_counts), 1)
    per_op = {name: value / k for name, value in counts.items()}
    n_ingest = len(durations.get("corpus.ingest", ())) or 1
    selected = sum(per_op.get(f"keys.selected.{f}", 0) for f in FIELDS)
    eligible = sum(per_op.get(f"keys.eligible.{f}", 0) for f in FIELDS)
    def count(name):
        """A per-operation count, else the run's own (set-up) count."""
        return per_op.get(name, wl.static_counts.get(name, 0))

    seeds = per_op.get("seed.count", 0)
    members = count("approx.members")
    in_window = count("approx.in_window")
    candidates = per_op.get("analytics.candidates", 0)
    gc_pause = sum(op.gc_delta[0] for op in ops) / max(len(ops), 1)

    metrics = {
        "corpus.ingest_s": per_call("corpus.ingest"),
        "corpus.parse_s": sum(durations.get("corpus.parse_record", ())) / n_ingest,
        "corpus.index_s": per_call("corpus.from_publications"),
        "corpus.lines": wl.static_counts["corpus.lines"],
        "corpus.postings": wl.static_counts["corpus.postings"],
        "corpus.calls": sum(ingest_calls.values()) / n_traced,
        "seed.build_s": per_call("seed.build_seed_record"),
        "seed.size": per_op.get("seed.size", 0) / seeds if seeds else 0.0,
        "seed.extended_share": (per_op.get("seed.extended", 0)
                                / per_op["seed.size"]) if seeds else 0.0,
        "keys.compute_s": per_call("keys.compute_all_keys"),
        "keys.selected": selected,
        "keys.eligible": eligible,
        "keys.selected_share": selected / eligible if eligible else 0.0,
        "keys.unsatisfiable": per_op.get("keys.unsatisfiable", 0),
        **{f"keys.{kind}.{f}": per_op.get(f"keys.{kind}.{f}", 0)
           for kind in ("selected", "eligible") for f in FIELDS},
        "approx.build_s": per_call("approx.build_approximation"),
        "approx.histogram_s": per_call("approx.seed_coverage_histogram"),
        "approx.in_window": in_window,
        "approx.postings_touched": count("approx.postings_touched"),
        "approx.member_share": members / in_window if in_window else 0.0,
        "analytics.rank_s": per_call("analytics.rank_authors"),
        "analytics.mutual_coverage_s": per_call("analytics.mutual_coverage"),
        "analytics.coverage_of_record_s": per_call(
            "analytics.coverage_of_record_by_keys"),
        "analytics.profiles_evaluated": per_op.get("analytics.profiles_evaluated", 0),
        "analytics.unsatisfiable_share": (per_op.get("keys.unsatisfiable", 0)
                                          / candidates) if candidates else 0.0,
        "syngen.generate_s": per_call("syngen.build_records",
                                      inputs.get("syngen.generate_s")),
        "syngen.records": inputs.get("syngen.records",
                                     wl.static_counts["corpus.lines"]),
        "cli.start_s": cli_start_s(wl),
        "cli.bytes_written": per_op.get("cli.bytes_written", 0),
        "gc.pause_s": gc_pause,
        "gc.gen2_collections": sum(op.gc_delta[2] for op in ops),
        "trace.overhead_s": statistics.median(overhead),
        "trace.unaccounted_s": statistics.median(unaccounted),
    }
    detail = {
        "self_s_per_op": {layer: v / n_traced for layer, v in layer_self.items()},
        "traced_latency_p50_s": statistics.median(op.latency for op in traced),
        "untraced_latency_p50_s": statistics.median(
            op.latency for op in ops if not op.traced),
        "unaccounted_share": statistics.median(
            u / op.latency for u, op in zip(unaccounted, traced)),
        "spans": {name: {"calls": len(v), "total_s": sum(v)}
                  for name, v in sorted(durations.items())},
        "counted_ops": len(op_counts),
        "counts_per_op": per_op,
        "cli_command_s": cli_command_times(wl),
    }
    return metrics, detail


def cli_start_s(wl) -> float:
    """Median wall time of a process that only imports the CLI module."""
    times = []
    for i in range(3):
        child = run_child([sys.executable, "-c", "import specialty_approx.cli"],
                          wl.bench.env, wl.work / f"start{i}")
        if child.returncode != 0:
            raise RuntimeError(f"import-only process failed: {child.stderr}")
        times.append(child.wall_s)
    return statistics.median(times)


def cli_command_times(wl) -> dict:
    """cli.<command>_s: mean seconds per chain command (cli-chain only)."""
    steps = getattr(wl, "step_log", {})
    return {f"cli.{name}_s": sum(v) / len(v) for name, v in steps.items() if v}


def end_to_end(wl, ops, loop_s, setup_times) -> tuple[dict, dict]:
    timed = [op for op in ops if not op.traced]
    latencies = [op.latency for op in timed]
    tail, pct = tail_latency(latencies)
    scored = [op.quality for op in timed if op.quality]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "throughput_ops_s": len(timed) / loop_s,
        "peak_rss_mb": wl.peak_rss_mb(),
        "recall": statistics.fmean(q[0] for q in scored) if scored else 0.0,
        "precision": statistics.fmean(q[1] for q in scored) if scored else 0.0,
    }
    detail = {
        "samples": {"setup_s": len(setup_times),
                    "latency_p50_s": len(latencies),
                    "latency_tail_s": len(latencies),
                    "throughput_ops_s": len(latencies),
                    "peak_rss_mb": 1, "recall": len(scored),
                    "precision": len(scored)},
        "latency_tail_percentile": pct,
        "latency_tail_beyond": sum(1 for v in latencies if v > tail),
        "setup_times_s": setup_times,
        "ops": [[op.label, op.latency, op.gc_delta[0]] for op in timed],
        "measure_s": loop_s,
        "cli_command_s": cli_command_times(wl),
    }
    return metrics, detail


def execute(wl, args, spec, gc_meter) -> tuple[dict, dict]:
    bench = wl.bench
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds,
              "meta": run_metadata(bench.root, bench.src)}
    inputs = wl.make_inputs()
    setup_times = [wl.setup_rep(last=i == wl.setup_reps - 1)
                   for i in range(wl.setup_reps)]
    check_ops = [wl.prepare()]
    report["inputs"] = {
        "corpus_bytes": wl.corpus_path.stat().st_size,
        "corpus_sha256": sha256_file(wl.corpus_path),
        "truth_sha256": sha256_file(wl.truth_path),
        **inputs, **wl.static_counts,
    }
    # Move the set-up heap out of the collector's reach.  Otherwise every
    # few operations a full collection walks the whole heap (~1.5 s on
    # query-100k) and lands on whichever operation is running, which makes
    # the median and the tail bimodal.  Set-up pays its collections in
    # full, and gc.pause_s still counts every pause during the loop.
    gc.collect()
    gc.freeze()
    gc_before = gc_meter.snapshot()
    ops, digests, op_counts, loop_s = measure(wl, args.seconds, gc_meter)
    gc_ops = [b - a for a, b in zip(gc_before, gc_meter.snapshot())]
    check_ops.append(wl.finish())

    failures = [p for op in ops for p in op.problems]
    failures += [p for problems in check_ops for p in problems]
    failed = sum(1 for op in ops if op.problems) + sum(1 for c in check_ops if c)
    attempted = len(ops) + len(check_ops)
    report.update({
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:20],
        "digest": sha256_json(digests),
        "digest_ops": len(digests),
        "gc": {"pause_s": gc_ops[0], "collections": gc_ops[1],
               "gen2_collections": gc_ops[2], "ops": len(ops),
               "run_pause_s": gc_meter.pause_s,
               "run_gen2_collections": gc_meter.gen2_collections},
    })
    if bench.trace:
        bench.tracer.op = "probe"
        with bench.tracer:
            wl.probe()
        values, detail = layer_metrics(wl, ops, op_counts, inputs,
                                       bench.tracer)
        names = spec["per_layer"]
    else:
        values, detail = end_to_end(wl, ops, loop_s, setup_times)
        names = spec["end_to_end"]
    report["detail"] = detail
    missing = [m["name"] for m in names if values.get(m["name"]) is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    report["metrics"] = metrics
    report["other_metrics"] = {k: v for k, v in values.items()
                               if k not in metrics}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("query-100k", "reviewers-10k", "cli-chain-10k"))
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        src = load_program(root)
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (ProgramMissing, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    out_dir = root / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = workloads.Bench(root=root, src=src, work=work, seed=args.seed,
                            trace=bool(args.trace), env=child_env(src))
    if bench.trace:
        bench.tracer = Tracer(workloads.TRACE_TARGETS)
    try:
        with GcMeter() as gc_meter:
            report, result = execute(workloads.WORKLOADS[args.workload](bench),
                                     args, spec, gc_meter)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n",
                                          encoding="utf-8")
    if bench.trace:
        bench.tracer.write(out_dir / f"{stem}.spans.jsonl.gz")
    for name, metric in {**report["metrics"]}.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_rate':32s} {report['error_rate']:>16.6g} failed/attempted")
    print("report " + json.dumps(report, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
