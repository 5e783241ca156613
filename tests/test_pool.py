import sys
import threading

import pytest

from rthdg import pool


@pytest.mark.parametrize("n, parts", [(10, 3), (3, 5), (54, 2), (1, 1), (7, 7)])
def test_split_covers_the_range_in_near_equal_blocks(n, parts):
    bounds = pool.split(n, parts)
    sizes = [hi - lo for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert bounds[0] == 0 and bounds[-1] == n
    assert len(sizes) == min(parts, n) and max(sizes) - min(sizes) <= 1 and min(sizes) >= 1


def test_element_bounds_keep_small_work_on_one_block():
    assert pool.element_bounds(216, 64 * 64, 2) == [0, 216]  # desk skeleton matvec
    assert pool.element_bounds(54, 392 * 392, 2) == [0, 27, 54]  # paper skeleton matvec
    assert pool.element_bounds(54, 392 * 392, 1) == [0, 54]
    assert pool.element_bounds(54, 392 * 392, 2, min_work=1 << 23) == [0, 54]


def test_run_blocks_order_and_threads():
    names = {}

    def kernel(lo, hi):
        names[lo] = threading.current_thread().name
        return list(range(lo, hi))

    bounds = pool.split(10, 4)
    assert pool.run_blocks(kernel, bounds, 1) == [list(range(lo, hi)) for lo, hi
                                                  in zip(bounds[:-1], bounds[1:])]
    assert set(names.values()) == {threading.current_thread().name}
    names.clear()
    assert sum(pool.run_blocks(kernel, bounds, 3), []) == list(range(10))
    assert all(name.startswith("rthdg-3") for name in names.values())


def test_run_blocks_finishes_every_block_before_raising():
    done = []
    lock = threading.Lock()

    def kernel(lo, hi):
        if lo in (2, 6):
            raise ValueError(f"block {lo}")
        with lock:
            done.append(lo)

    with pytest.raises(ValueError, match="block 2"):
        pool.run_blocks(kernel, [0, 2, 4, 6, 8, 10], 2)
    assert sorted(done) == [0, 4, 8]


def test_concurrent_callers_share_one_pool_per_count():
    # more callers and workers than cores, with frequent thread switches:
    # every caller gets its own results and each count has one pool
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results, pools = {}, set()

    def caller(k):
        pools.add(id(pool._pool(3)))
        results[k] = pool.run_blocks(lambda lo, hi: (k, lo, hi), pool.split(9, 3), 3)

    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(pools) == 1
    assert results == {k: [(k, 0, 3), (k, 3, 6), (k, 6, 9)] for k in range(6)}
