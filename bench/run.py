"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root:

    python3 bench/run.py --workload stream --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, recorded by wrapping the
package's public functions from outside (see ``spans.py``) and written as
spans to ``.bench_work/``. Every output is checked; a failed check counts
as a failed operation and makes the exit code 1. The line before the last
records the environment, sample counts and a digest of the checked outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(1, NPROC)
# The run is single-threaded. Unpinned, the scheduler moves it between CPUs
# whose speeds differ from moment to moment on a shared host, and one run
# mixes both; pinned to one CPU, the spread over runs was about half.
PINNED_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})
# BLAS reads its thread count when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="toy sizes, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "dhge").is_dir() or not spec_path.is_file():
        print("bench: run from a checkout that holds src/dhge and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    import harness  # after the BLAS pin and the path set-up
    if args.workload not in harness.workloads.WORKLOADS:
        print("bench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    return harness.run(args, spec, ROOT, SETUP_REPEATS,
                       {"nproc": NPROC, "blas_threads": BLAS_THREADS,
                        "pinned_cpu": PINNED_CPU})


if __name__ == "__main__":
    sys.exit(main())
