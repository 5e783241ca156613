import importlib
import inspect
import pkgutil
import sys
import threading

import pytest

import rthdg
from rthdg import pool


@pytest.mark.parametrize("n, parts", [(10, 3), (3, 5), (54, 2), (1, 1), (7, 7)])
def test_split_covers_the_range_in_near_equal_blocks(n, parts):
    bounds = pool._split(n, parts)
    sizes = [hi - lo for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert bounds[0] == 0 and bounds[-1] == n
    assert len(sizes) == min(parts, n) and max(sizes) - min(sizes) <= 1 and min(sizes) >= 1


def test_element_bounds_keep_small_work_on_one_block(set_workers):
    set_workers(2)
    assert pool.element_bounds(216, 64 * 64) == [0, 216]  # desk skeleton matvec
    assert pool.element_bounds(54, 392 * 392) == [0, 27, 54]  # paper skeleton matvec
    assert pool.element_bounds(54, 392 * 392, min_work=1 << 23) == [0, 54]
    set_workers(1)
    assert pool.element_bounds(54, 392 * 392) == [0, 54]


def test_run_blocks_order_and_threads(set_workers):
    names = {}

    def kernel(lo, hi):
        names[lo] = threading.current_thread().name
        return list(range(lo, hi))

    bounds = pool._split(10, 4)
    set_workers(1)
    assert pool.run_blocks(kernel, bounds) == [list(range(lo, hi)) for lo, hi
                                               in zip(bounds[:-1], bounds[1:])]
    assert set(names.values()) == {threading.current_thread().name}
    names.clear()
    set_workers(3)
    assert sum(pool.run_blocks(kernel, bounds), []) == list(range(10))
    assert all(name.startswith("rthdg-3") for name in names.values())


def test_run_blocks_finishes_every_block_before_raising(set_workers):
    done = []
    lock = threading.Lock()

    def kernel(lo, hi):
        if lo in (2, 6):
            raise ValueError(f"block {lo}")
        with lock:
            done.append(lo)

    set_workers(2)
    with pytest.raises(ValueError, match="block 2"):
        pool.run_blocks(kernel, [0, 2, 4, 6, 8, 10])
    assert sorted(done) == [0, 4, 8]


def test_concurrent_callers_share_one_pool_per_count(set_workers):
    # more callers and workers than cores, with frequent thread switches:
    # every caller gets its own results and each count has one pool
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results, pools = {}, set()

    def caller(k):
        pools.add(id(pool._pool(3)))
        results[k] = pool.run_blocks(lambda lo, hi: (k, lo, hi), pool._split(9, 3))

    set_workers(3)
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


def _functions(module):
    """Every function and method defined in `module`, properties' getters included."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
            fn = getattr(member, "fget", getattr(member, "__func__", member))
            if inspect.isfunction(fn):
                yield fn


def _nested_code(code):
    for const in code.co_consts:
        if inspect.iscode(const):
            yield const
            yield from _nested_code(const)


def test_no_function_takes_a_workers_parameter():
    # the element worker count belongs to the process (`pool.default_workers()`),
    # so no function, method or closure of the package passes one down
    found = []
    for info in pkgutil.iter_modules(rthdg.__path__):
        module = importlib.import_module(f"rthdg.{info.name}")
        for fn in _functions(module):
            names = list(inspect.signature(fn).parameters)
            names += [name for code in _nested_code(fn.__code__)
                      for name in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]]
            if "workers" in names:
                found.append(f"{module.__name__}.{fn.__qualname__}")
    assert len(list(pkgutil.iter_modules(rthdg.__path__))) >= 10
    assert found == []
