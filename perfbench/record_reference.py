"""Record the reference outputs that the benchmark checks every command against.

References come from the seed code, the program as it was when the
benchmark was defined. Recording them from a changed program would make the
check compare that program with itself. Run from the root of a checkout:

    python3 perfbench/record_reference.py --workload sweep_static --seeds 0-20,1000

Each seed runs one set-up and one repetition; the outputs are merged into
perfbench/reference/<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import HERE, THREADS, machine_info, measure
from workloads import TOLERANCE, WORKLOADS


def parse_seeds(spec: str) -> list[int]:
    """'0-3,10' -> [0, 1, 2, 3, 10]"""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    opts = parser.parse_args(args)
    root = Path.cwd()
    if not (root / "src" / "mipipe" / "cli.py").is_file():
        print("record_reference: run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update(THREADS)

    path = HERE / "reference" / f"{opts.workload}.json"
    doc = json.loads(path.read_text()) if path.exists() else {
        "workload": opts.workload, "tolerance": TOLERANCE, "seeds": {}}
    machine = machine_info(root)
    doc["recorded_from"] = {k: machine[k] for k in ("git_commit", "src_sha256")}
    for seed in opts.seeds:
        work = root / ".perfbench" / "work" / f"record-{opts.workload}-{seed}-{os.getpid()}"
        try:
            result = measure(WORKLOADS[opts.workload], seed, 0, root, work, setups=1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result["failed"]:
            print(f"seed {seed}: " + "; ".join(result["problems"]), file=sys.stderr)
            return 1
        doc["seeds"][str(seed)] = result["outputs"]
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{opts.workload} seed {seed}: recorded "
              f"(accuracy {result['metrics']['accuracy_pct']:.2f}%, "
              f"wall {result['metrics']['wall_s']:.2f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
