"""tehnet benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload graph-analysis --seed 1 --seconds 55 --trace 0

Run from the root of a tehnet checkout.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload again with spans around
tehnet's public functions and prints the per-layer metrics.  The workload
runs in a child process of its own, which with ``--trace 0`` also times
the import in fresh interpreters between its batches.  The last
line of stdout is the result; the line before it records the seed and
the sample counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# The metrics to print, with their units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "tehnet" / "__init__.py").is_file():
        print(f"error: no tehnet sources under {SRC}", file=sys.stderr)
        return 2

    child = subprocess.run(
        [sys.executable, "-I", str(HERE / "measure.py"), str(ROOT), args.workload,
         str(args.seed), str(args.seconds), str(args.trace)],
        capture_output=True, text=True, timeout=args.seconds + 150,
    )
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        print(f"error: workload process exited {child.returncode}", file=sys.stderr)
        return 2
    run = json.loads(child.stdout.splitlines()[-1])
    for problem in run["errors"]:
        print(f"op failed or wrong: {problem}", file=sys.stderr)

    if args.trace:
        values, listed = run["per_layer"], SPEC["per_layer"]
    else:
        values, listed = run, SPEC["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"ops={run['attempted']} ops_per_s={run['ops_per_s']:.6g} "
        f"tail=p{run['tail_percentile']:g} with {run['tail_beyond']} samples beyond"
    )
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
