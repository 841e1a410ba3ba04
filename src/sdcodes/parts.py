"""The ordered parts of a split scan, run in this process or in a pool.

A scan cuts its range into the same contiguous parts for every thread
count and concatenates their results in order, so its output never
depends on the thread count.
"""

import os


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_parts(fn, jobs, threads):
    """Yield fn(*job) for each job, in job order.

    A pool forks all its workers at once, so at most min(threads,
    len(jobs), usable CPUs) are started; with one, jobs run in this
    process.  The pool module is imported only when a pool starts.
    """
    workers = min(threads, len(jobs), _usable_cpus())
    if workers <= 1:
        yield from map(fn, *zip(*jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, *zip(*jobs))
