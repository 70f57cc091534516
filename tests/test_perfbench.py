"""The benchmark's tracer targets exist where its traced run looks for them."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_is_in_its_owners_namespace(monkeypatch):
    # ``perfbench/run.py --trace 1`` wraps each target it reads from
    # ``owner.__dict__``, so a renamed or moved target is a KeyError there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # write nothing
    monkeypatch.syspath_prepend(str(PERFBENCH))             # its ``harness``
    monkeypatch.delitem(sys.modules, "harness", raising=False)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for dataclasses
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.modules.pop("harness", None)
    assert workloads.TRACE_TARGETS
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in workloads.TRACE_TARGETS
               if attr not in vars(owner)]
    assert not missing
