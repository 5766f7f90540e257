"""The threaded table loop: Light's test, the check of a table given by
its rows, cuts its row blocks into one run per usable CPU (run_blocks).
A table built from its action (the member tables) is filled and proved
in one pass on the calling thread.

Tables up to order 2047 are checked on one thread, so these tests lower
THREAD_ROWS to put orders 1536 and 2688 on threads, and fix the usable
CPUs through os.sched_getaffinity, so the runs do not depend on the
machine the tests run on.
"""

import functools
import inspect
import os
import re
import sys
import threading

import numpy as np
import pytest

from glsemi import cli, errors, gf_linalg, gl_restriction, isomorphism, semigroup_core
from glsemi.cli import DEFAULT_RANK_CAP, InstanceConfig, cmd_eggbox, cmd_verify
from glsemi.errors import PreconditionError
from glsemi.gl_restriction import DEFAULT_ENUM_CAP, enumerate_semigroup, make_instance
from glsemi.semigroup_core import ROW_BLOCK, SemigroupTable, row_threads, run_blocks

from helpers import one_thread_light, rows_of, with_product


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def threaded(monkeypatch):
    """Three usable CPUs and a row threshold low enough that orders 1536
    and 2688 both run on three threads."""
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(semigroup_core, "THREAD_ROWS", 256)


def _triple(err):
    return tuple(map(int, re.search(r"\((\d+), (\d+), (\d+)\)", str(err.value)).groups()))


def _runs(n, block, threads):
    """The runs run_blocks hands out, in run order, and the threads they ran on."""
    seen = []

    def work(starts):
        seen.append(threading.get_ident())
        return starts

    return run_blocks(n, block, threads, work), set(seen)


@pytest.mark.parametrize(
    ("cpus", "n", "threads"),
    [(1, 4096, 1), (2, 1536, 1), (2, 2047, 1), (2, 2048, 2), (2, 4096, 2), (3, 4096, 3), (8, 4096, 4), (3, 5000, 3)],
)
def test_a_thread_per_usable_cpu_each_with_thread_rows(monkeypatch, cpus, n, threads):
    _cpus(monkeypatch, cpus)
    assert row_threads(n) == threads


def test_no_affinity_api_means_one_thread(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert row_threads(4096) == 1


def test_one_thread_runs_one_pass_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(threading, "Thread", None)  # starting a thread would fail
    runs, idents = _runs(4096, ROW_BLOCK, 1)
    assert runs == [range(0, 4096, ROW_BLOCK)]
    assert idents == {threading.get_ident()}


@pytest.mark.parametrize(("n", "block", "threads"), [(4096, 64, 2), (4096, 42, 3), (2688, 12, 2), (5000, 32, 4), (7, 3, 3)])
def test_runs_cut_the_rows_into_whole_blocks_one_run_a_thread(n, block, threads):
    # Together the runs are the blocks of one pass, in order, and no run
    # holds more than one block more than another.
    runs, _ = _runs(n, block, threads)
    assert len(runs) == threads
    assert all(run.step == block for run in runs)
    assert [lo for run in runs for lo in run] == list(range(0, n, block))
    assert max(len(run) for run in runs) - min(len(run) for run in runs) <= 1


def test_an_exception_in_a_later_run_reaches_the_caller():
    before = threading.active_count()

    def work(starts):
        if starts.start:
            raise ValueError(f"run at {starts.start}")
        return starts

    with pytest.raises(ValueError, match="run at"):
        run_blocks(4096, ROW_BLOCK, 3, work)
    assert threading.active_count() == before


def test_the_cayley_fill_starts_no_thread(threaded, monkeypatch):
    # Light's test is the one loop that threads; the build of a member
    # table, fill and proof, runs one pass on the calling thread even
    # where Light's test would go to threads.
    assert row_threads(1536) == 3
    monkeypatch.setattr(threading, "Thread", None)  # starting a thread would fail
    assert len(enumerate_semigroup(make_instance(2, 4, 2)).table) == 1536


def test_more_threads_than_cores_pass_a_correct_table(monkeypatch):
    # Eight threads on blocks of a few rows, switching as often as the
    # interpreter allows: a correct table must still pass Light's test,
    # with no failure made up by runs that interleave, and build from its
    # action alike.
    s = enumerate_semigroup(make_instance(2, 4, 2))
    _cpus(monkeypatch, 8)
    monkeypatch.setattr(semigroup_core, "THREAD_ROWS", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        SemigroupTable(s.table.mul)
        built = SemigroupTable(action=s.act, product_row=rows_of(s.table.mul))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(built.mul, s.table.mul)


def test_threaded_table_check_names_the_one_thread_triple(threaded, monkeypatch):
    # Each run reports its own first failure; the one raised must be the
    # failure a single pass over the generators and blocks meets first.
    s = enumerate_semigroup(make_instance(2, 4, 2))
    t = s.table
    used = []
    real = semigroup_core._light
    monkeypatch.setattr(semigroup_core, "_light", lambda mul, gens: used.append(gens) or real(mul, gens))
    rng = np.random.default_rng(20)
    changes = 0
    while changes < 40:
        i, j, k = rng.integers(len(t), size=3).tolist()
        if t.identity_idx in (i, j) or k == t.mul[i, j]:
            continue  # a changed identity row or column fails another check
        bad = with_product(s, i, j, k).table.mul
        with pytest.raises(PreconditionError, match="not associative") as err:
            SemigroupTable(bad, identity_idx=t.identity_idx, check=True)
        assert _triple(err) == one_thread_light(bad, used.pop())
        changes += 1


def _wrap_package(monkeypatch, entered):
    """Wrap every function of the package's modules, and every method of
    their classes, so each call records the thread that made it."""
    wrapped = {}

    def wrap(fn):
        if fn not in wrapped:

            @functools.wraps(fn)
            def recording(*args, **kwargs):
                entered.add(threading.get_ident())
                return fn(*args, **kwargs)

            wrapped[fn] = recording
        return wrapped[fn]

    def ours(obj):
        return getattr(obj, "__module__", "").startswith("glsemi")

    for module in (cli, errors, gf_linalg, gl_restriction, isomorphism, semigroup_core):
        for name, value in vars(module).items():
            if inspect.isfunction(value) and ours(value):
                monkeypatch.setattr(module, name, wrap(value))
            elif inspect.isclass(value) and ours(value):
                for attr, member in vars(value).items():
                    if inspect.isfunction(member):
                        monkeypatch.setattr(value, attr, wrap(member))
                    elif isinstance(member, functools.cached_property):
                        monkeypatch.setattr(member, "func", wrap(member.func))
    return len(wrapped)


def test_only_the_calling_thread_enters_package_code(threaded, monkeypatch):
    # The layer tracer keeps one span stack a process, so a package
    # function entered from a worker thread would corrupt its spans: the
    # workers run numpy alone.
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    entered = set()
    assert _wrap_package(monkeypatch, entered) > 100
    cfg = InstanceConfig(p=2, n=4, r=2)
    assert not cmd_verify(cfg, DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP).failed
    assert cmd_eggbox(cfg, DEFAULT_ENUM_CAP).startswith("digraph")
    SemigroupTable(enumerate_semigroup(make_instance(2, 4, 2)).table.mul)
    assert started  # Light's test did go to threads
    assert entered == {threading.get_ident()}
