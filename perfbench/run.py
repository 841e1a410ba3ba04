"""sdcodes benchmark: published-table checks, whole-space circulant search,
and a neighbour survey that ends in classification.

    python3 perfbench/run.py --workload {tables,search,survey} --seed N \\
        --seconds S --trace {0,1} [--out results.jsonl]

Run from the root of a source checkout; the package is imported from its
`src/`, which is byte-compiled first.  The parent starts one worker process
at a time (a closed loop with a single caller) and keeps starting jobs
until the next one would end past `--seconds` from the start of the run,
with at least MIN_JOBS jobs.  Job inputs come from the seed and the job
index only.

With `--trace 0` no job is traced and the metrics are the end-to-end ones
of BENCHMARK.json: medians over the run's jobs.  With `--trace 1` traced
and untraced jobs alternate, starting with a traced one; the metrics are
the per-layer ones, medians over the traced jobs (`setup.*` over all
jobs), and `trace.overhead_s` is the traced median wall time minus the
untraced one.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `attempted` and `failed`
count output checks, so their quotient is the run's fail ratio.  The two
lines before it print the end-to-end metrics and the run's stamp.  `--out` also appends the run, its stamp and
every job's samples to a JSON-lines file that `compare.py` reads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "search", "survey")
# One job of the slowest workload takes about 10 s, and up to twice that
# while the machine is slow, so MIN_JOBS jobs fit in BENCHMARK.json's
# run_seconds.
MIN_JOBS = 2
RUN_LIMIT_S = 170.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(flags: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + flags
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd[1:])}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_jobs(args, t0: float, deadline: float) -> list:
    jobs = []
    while True:
        flags = ["--workload", args.workload, "--seed", str(args.seed), "--job", str(len(jobs))]
        if args.trace and len(jobs) % 2 == 0:
            flags.append("--trace")
        jobs.append(_worker(flags, deadline))
        for name in jobs[-1]["failed"]:
            print(f"check failed: job {len(jobs) - 1}: {name}", file=sys.stderr)
        elapsed = time.monotonic() - t0
        if len(jobs) >= MIN_JOBS and elapsed * (len(jobs) + 1) / len(jobs) > args.seconds:
            return jobs


def summarize(args, jobs: list, bench: dict) -> dict:
    plain = [j for j in jobs if not j["traced"]]
    values = {
        "wall_s": statistics.median(j["wall_s"] for j in plain),
        "setup_s": statistics.median(j["setup_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
    }
    specs = bench["end_to_end"]
    if args.trace:
        traced = [j for j in jobs if j["traced"]]
        for name in traced[0]["layers"]:
            values[name] = statistics.median(j["layers"][name] for j in traced)
        values["setup.import_s"] = statistics.median(j["import_s"] for j in jobs)
        values["setup.named_code_s"] = statistics.median(j["named_code_s"] for j in jobs)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
        specs = bench["per_layer"]
        unreached = [m["name"] for m in specs if values[m["name"]] == 0]
        print(f"{args.workload}: layers not reached (reported as 0): {' '.join(unreached) or 'none'}")
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(len(j["failed"]) for j in jobs)
    print(
        f"{args.workload}: wall_s={values['wall_s']:.4f} setup_s={values['setup_s']:.4f} "
        f"peak_rss_mb={values['peak_rss_mb']:.2f} fail_ratio={failed}/{attempted}={failed / attempted:.4g}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run to a JSON-lines result file")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "sdcodes").is_dir():
            raise RuntimeError(f"no sdcodes package under {ROOT / 'src'}")
        if not compileall.compile_dir(ROOT / "src", quiet=1):
            raise RuntimeError(f"could not byte-compile {ROOT / 'src'}")
        jobs = run_jobs(args, t0, deadline)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    result = summarize(args, jobs, bench)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "threads": jobs[0]["threads"],
        "jobs": len(jobs),
        "run_s": round(time.monotonic() - t0, 3),
        "python": jobs[0]["python"],
        "numpy": jobs[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }
    if args.out:
        samples = {k: [j[k] for j in jobs] for k in ("traced", "wall_s", "setup_s", "peak_rss_mb", "attempted")}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"stamp": stamp, "result": result, "samples": samples}) + "\n")
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
