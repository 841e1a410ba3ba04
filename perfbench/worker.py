"""Run one benchmark job in a fresh interpreter and print its record.

    python3 perfbench/worker.py --workload NAME --seed N [--job I] [--trace]

A fresh process starts with empty module caches, as every CLI invocation
does.  Set-up is the import of sdcodes plus its first `named_code` call;
the job's wall time runs from its first library call to its checked
result.  The record is one JSON line on standard output.  Every library
call gets THREADS threads; the worker refuses to start if the machine has
fewer CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The first named_code call of every worker; it loads and checksums the
# registry.
SETUP_CODE = "D60_3"
# One thread keeps all of a job's work in this process, where the traced
# run records it.
THREADS = 1


def _import_sdcodes():
    sys.path.insert(0, str(SRC))
    import sdcodes
    from sdcodes import tables

    where = Path(sdcodes.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"sdcodes was imported from {where}, not from {SRC}")
    return tables


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--job", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    nproc = os.cpu_count() or 1
    if THREADS > nproc:
        print(f"refusing {THREADS} threads: this machine has {nproc} CPUs", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    tables = _import_sdcodes()
    t1 = time.perf_counter()
    tables.named_code(SETUP_CODE)
    t2 = time.perf_counter()
    import numpy
    import workloads

    record = {
        "setup_s": t2 - t0,
        "import_s": t1 - t0,
        "named_code_s": t2 - t1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    job = workloads.JOBS[args.workload]
    rng = workloads.job_rng(args.workload, args.seed, args.job)
    checks = workloads.Checks()
    if args.trace:
        import spans

        tracer = spans.Tracer(f"{args.workload}:{args.seed}:{args.job}")
        spans.install(tracer)
        job = tracer.wrap(spans.ROOT_SPAN, job)
    t3 = time.perf_counter()
    job(rng, checks, THREADS)
    record.update(
        traced=args.trace,
        threads=THREADS,
        wall_s=time.perf_counter() - t3,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=checks.attempted,
        failed=checks.failed,
        layers=spans.layer_metrics(tracer) if args.trace else None,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
