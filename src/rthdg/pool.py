"""Element worker threads: how many to use, and one persistent pool per count.

The solvers' dense kernels (LAPACK factorizations and inverses, BLAS
products) release the interpreter lock, so contiguous blocks of independent
elements run in parallel on threads. A pool is made on the first call that
needs it and kept for the life of the process: starting threads on every
skeleton matvec would cost more than the split saves. Importing this module
starts no thread.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

#: environment variables that set the BLAS thread pool, in the order OpenBLAS reads them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_workers() -> int:
    """Element workers that never oversubscribe: usable cores / BLAS threads.

    The BLAS thread count comes from the first of BLAS_THREAD_VARS that is
    set. When none is set (or it does not parse), BLAS owns every core and
    the default is 1 worker.
    """
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value:
            break
    else:
        return 1
    try:
        blas_threads = int(value)
    except ValueError:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without affinity masks
        cores = os.cpu_count() or 1
    return max(1, cores // max(blas_threads, 1))


#: multiply-adds (or the like) below which a batched kernel stays one block on
#: the calling thread. On a 2-core Xeon with BLAS pinned, a paper-scale
#: skeleton matvec (8.3M) took 2.25 -> 1.27 ms on two threads; a desk-scale
#: one (0.9M, 0.32 ms) gained nothing.
MIN_BLOCK_WORK = 1 << 20

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"rthdg-{workers}")
        return pool


def split(n: int, parts: int) -> list:
    """Bounds of `parts` contiguous blocks of range(n), sizes differing by at most one."""
    parts = max(1, min(parts, n))
    size, extra = divmod(n, parts)
    return [k * size + min(k, extra) for k in range(parts + 1)]


def element_bounds(n: int, work_per_element: int, workers: int | None,
                   min_work: int | None = None) -> list:
    """Split n elements into at most `workers` blocks of at least `min_work`
    (None: MIN_BLOCK_WORK) each."""
    workers = default_workers() if workers is None else workers
    min_work = MIN_BLOCK_WORK if min_work is None else min_work
    return split(n, min(workers, n * work_per_element // min_work))


def run_blocks(kernel, bounds, workers: int | None) -> list:
    """kernel(lo, hi) for each pair of consecutive bounds; results in block order.

    With more than one worker (None: `default_workers()`) and more than one
    block, the blocks run on the persistent pool of `workers` threads, else
    on the calling thread. Every block finishes before the first exception,
    in block order, is raised. A kernel must not call run_blocks itself: its
    block would wait on a pool that it occupies.
    """
    workers = default_workers() if workers is None else workers
    blocks = list(zip(bounds[:-1], bounds[1:]))
    if workers <= 1 or len(blocks) <= 1:
        return [kernel(lo, hi) for lo, hi in blocks]
    futures = [_pool(workers).submit(kernel, lo, hi) for lo, hi in blocks]
    wait(futures)
    return [f.result() for f in futures]
