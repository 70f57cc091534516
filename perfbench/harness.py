"""Measurement primitives shared by the workloads.

* :class:`GcMeter` records collector pauses through ``gc.callbacks``.
* :class:`Tracer` records spans by wrapping the program's public module
  attributes; nothing inside the program is changed.
* :func:`tail_latency` applies the tail rule: the highest percentile that
  leaves at least ten samples beyond it.
* :func:`run_child` runs a child process and returns its wall time and
  peak RSS, read from ``wait4``.
"""

from __future__ import annotations

import functools
import gc
import gzip
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

clock = time.perf_counter

TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


class ProgramMissing(Exception):
    """The checkout holds no ``src/specialty_approx`` to benchmark."""


def load_program(root: Path) -> Path:
    """Put ``root/src`` first on ``sys.path`` and import the package from it.

    Refuses an installed copy elsewhere, so the benchmark always measures
    the sources of the checkout it runs in.
    """
    src = (root / "src").resolve()
    if not (src / "specialty_approx" / "__init__.py").is_file():
        raise ProgramMissing(f"no src/specialty_approx under {root}")
    sys.path.insert(0, str(src))
    import specialty_approx
    if src not in Path(specialty_approx.__file__).resolve().parents:
        raise ProgramMissing(
            f"specialty_approx imported from {specialty_approx.__file__}, "
            f"not from {src}"
        )
    return src


def child_env(src: Path) -> dict:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    return env


def tail_latency(samples) -> tuple[float, float]:
    """(value, percentile) of the highest grid percentile with at least
    ten samples beyond it (nearest rank); the maximum, as percentile 100,
    when the run is too short for any grid percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_GRID:
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ChildResult:
    def __init__(self, returncode, wall_s, maxrss_mb, stdout, stderr):
        self.returncode = returncode
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_child(argv, env, log_stem: Path, timeout_s: float = 170.0) -> ChildResult:
    """Run one child to completion; stdout/stderr go to files beside
    ``log_stem``.  The child is killed and reaped if it outlives
    ``timeout_s``."""
    out_path = log_stem.with_suffix(".out")
    err_path = log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL)
        deadline = started + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if clock() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = clock() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode, wall, usage.ru_maxrss / 1024,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


class GcMeter:
    """Collector pause time and collections, from ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self.gen2_collections = 0
        self._started = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._started = clock()
            return
        self.pause_s += clock() - self._started
        self.collections += 1
        if info["generation"] == 2:
            self.gen2_collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)

    def snapshot(self) -> tuple[float, int, int]:
        return self.pause_s, self.collections, self.gen2_collections


class Tracer:
    """Spans around calls to the program's public functions.

    ``targets`` lists ``(owner, attribute, span name)``; the owner is a
    module or a class.  While the tracer is entered, each attribute is
    replaced by a wrapper that records a span (name, start, end, parent
    index, op id); leaving restores the originals.  ``op`` is set by the
    caller before each operation.  Spans live in flat arrays, so recording
    one allocates no object the garbage collector tracks.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.names: list[str] = []
        self.ops: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        names, ops, starts, ends, parents = (
            self.names, self.ops, self.starts, self.ends, self.parents)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    @property
    def spans(self) -> list[tuple]:
        """``(name, start, end, parent index, op id)`` per span."""
        return list(zip(self.names, self.starts, self.ends, self.parents,
                        self.ops))

    def __enter__(self):
        for owner, attr, name in self.targets:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def span_self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    self_s = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s
