"""Child-process entry points of the benchmark.

    python3 perfbench/child.py generate WORKLOAD SEED DIR
    python3 perfbench/child.py setup WORKLOAD SEED DIR

``generate`` writes the workload's corpus and truth files into DIR, so
the measuring process sees only files.  ``setup`` repeats the workload's
timed set-up in a fresh process, on the files in DIR.  Each prints one JSON object
as its last line.  Run from the root of a checkout.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import load_program  # noqa: E402


def main(argv) -> int:
    mode, name, seed, work = argv
    root = Path.cwd()
    src = load_program(root)
    import workloads
    bench = workloads.Bench(root=root, src=src, work=Path(work),
                            seed=int(seed), trace=False)
    workload = workloads.WORKLOADS[name](bench)
    if mode == "generate":
        out = workload.generate_here()
    elif mode == "setup":
        out = {"setup_s": workload.setup()}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
