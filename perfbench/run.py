"""Entry point of the hadcl benchmark.

    python3 perfbench/run.py --workload reference_run --seed 0 --seconds 20 --trace 0

Runs one workload at one workload seed from the root of a source checkout:
set-up, then units of work for about --seconds seconds, then the output
checks. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones from a
traced unit. The line before it records the environment and per-unit
figures. Exit code 0 only if every cell and every check passed; 2 if the
checkout lacks the program.

--smoke swaps every config for configs/smoke.yaml, so the benchmark's own
tests can run each workload path in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reference_run", "large_batch", "report_plots")
# BLAS and OpenMP size their thread pools when NumPy loads, so these are set
# before the first import of NumPy: the benchmark measures the program single
# threaded, the way the harness and its --workers flag assume.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REQUIRED = ("src/hadcl/__init__.py", "configs/reference.yaml",
            "configs/full_scale.yaml", "configs/smoke.yaml")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run at configs/smoke.yaml scale (for tests)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    missing = [r for r in REQUIRED if not (ROOT / r).is_file()]
    if missing:
        print(f"error: not a hadcl source checkout, missing {missing}",
              file=sys.stderr)
        return 2

    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    from perfbench import bench
    import_s = time.perf_counter() - t0

    result = bench.run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), smoke=args.smoke,
                                import_s=import_s)
    detail = result.pop("detail")
    record = {"environment": bench.environment(), "detail": detail}
    bench.OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(bench.OUT / name, "w") as f:
        json.dump(dict(record, result=result), f, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
