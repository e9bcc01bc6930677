"""One workload in its own process: run the timed loop, check, time imports.

Started by run.py as
``python3 -I perfbench/measure.py <root> <workload> <seed> <seconds> <trace>``.
Prints one JSON line with the measured figures.
"""

from __future__ import annotations

import array
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402


# Each probe times the import of the module a workload calls into (tehnet,
# or tehnet.cli for cli-session) inside a fresh interpreter, so the
# interpreter's own start is not counted.
IMPORT_PROBE = """
import importlib, sys, time
from pathlib import Path
src = Path(sys.argv[1])
sys.path.insert(0, str(src))
start = time.perf_counter()
importlib.import_module(sys.argv[2])
elapsed = time.perf_counter() - start
tehnet = sys.modules["tehnet"]
if Path(tehnet.__file__).resolve().parent != (src / "tehnet").resolve():
    sys.exit(f"tehnet imported from {tehnet.__file__}, not from {src}")
print(elapsed)
"""
# The probes are spread evenly over the run, between batches, so that their
# median samples the shared machine throughout the run.  Each costs about
# 0.1 s of the run's time.
IMPORT_PROBES = 24


def import_seconds(src: Path, module: str) -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(src), module],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def import_tehnet(src: Path):
    """Import tehnet, its CLI included, from the checkout's own sources and
    nowhere else."""
    sys.path.insert(0, str(src))
    import tehnet
    import tehnet.cli  # noqa: F401

    if Path(tehnet.__file__).resolve().parent != (src / "tehnet").resolve():
        raise SystemExit(f"tehnet imported from {tehnet.__file__}, not from {src}")
    return tehnet


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def main() -> None:
    root, name, seed, seconds, trace = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    src = Path(root) / "src"
    tehnet = import_tehnet(src)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(tehnet)
    workload = workloads.WORKLOADS[name](tehnet, random.Random(seed))

    clock = time.perf_counter
    # Eight bytes per op, so that the benchmark's own record adds little to
    # the peak resident memory it reports.
    latencies = array.array("d")
    imports: list[float] = []
    busy_s = 0.0
    attempted = failed = wrong = 0
    errors: list[str] = []
    started = clock()
    deadline = started + seconds
    while clock() < deadline:
        probes_due = 0 if trace else IMPORT_PROBES * (clock() - started) / seconds
        if len(imports) < probes_due:
            imports.append(import_seconds(src, workload.module))
        inputs = workload.batch()
        if not inputs:
            break
        outputs = []
        gc.collect()
        batch_start = clock()
        for item in inputs:
            span = tracer.open(ROOT) if tracer else None
            t0 = clock()
            try:
                outputs.append(workload.op(item))
            except Exception as exc:  # an op that raises counts as failed
                outputs.append(exc)
            latencies.append(clock() - t0)
            if tracer:
                tracer.close(span)
        busy_s += clock() - batch_start
        for item, output in zip(inputs, outputs):
            attempted += 1
            if isinstance(output, Exception):
                problem = f"{type(output).__name__}: {output}"
            else:
                problem = workload.failure(item, output)
            if problem:
                failed += 1
            else:
                problem = workload.check(item, output)
                wrong += bool(problem)
            if problem and len(errors) < 5:
                errors.append(problem)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    latencies = sorted(latencies)
    tail_q = workloads.TAIL_PERCENTILE[name]
    tail, beyond = percentile(latencies, tail_q)
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "setup_s": statistics.median(imports) if imports else None,
        "ops_per_s": attempted / busy_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_percentile": tail_q,
        "tail_beyond": beyond,
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
        result["per_layer"] = tracer.per_layer()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
