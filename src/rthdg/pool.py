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

#: the element worker count of the process, set by `cli.main`; None: the rule below
fixed_workers: int | None = None


def default_workers() -> int:
    """Element workers: `fixed_workers` when set, else usable cores / BLAS threads.

    The BLAS thread count comes from the first of BLAS_THREAD_VARS that is
    set. When none is set (or it does not parse), BLAS owns every core and
    the default is 1 worker.
    """
    if fixed_workers is not None:
        return fixed_workers
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


def _pool(count: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(count)
        if pool is None:
            pool = _pools[count] = ThreadPoolExecutor(
                max_workers=count, thread_name_prefix=f"rthdg-{count}")
        return pool


def _split(n: int, parts: int) -> list:
    """Bounds of `parts` contiguous blocks of range(n), sizes differing by at most one."""
    parts = max(1, min(parts, n))
    size, extra = divmod(n, parts)
    return [k * size + min(k, extra) for k in range(parts + 1)]


def element_bounds(n: int, work_per_element: int, min_work: int | None = None) -> list:
    """Split n elements into at most `default_workers()` blocks of at least
    `min_work` (None: MIN_BLOCK_WORK) each."""
    min_work = MIN_BLOCK_WORK if min_work is None else min_work
    return _split(n, min(default_workers(), n * work_per_element // min_work))


def run_blocks(kernel, bounds) -> list:
    """kernel(lo, hi) for each pair of consecutive bounds; results in block order.

    With more than one worker (`default_workers()`) and more than one block,
    the blocks run on the persistent pool of that many threads, else on the
    calling thread. Every block finishes before the first exception, in
    block order, is raised. A kernel must not call run_blocks itself: its
    block would wait on a pool that it occupies.
    """
    count = default_workers()
    blocks = list(zip(bounds[:-1], bounds[1:]))
    if count <= 1 or len(blocks) <= 1:
        return [kernel(lo, hi) for lo, hi in blocks]
    futures = [_pool(count).submit(kernel, lo, hi) for lo, hi in blocks]
    wait(futures)
    return [f.result() for f in futures]
