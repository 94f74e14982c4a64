"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the verifier's process pool by one that maps in-process.

    The machine reports 4 CPUs for the duration of the test.  Returns
    the list of pool sizes requested, so a test can check the job count
    that reached the pool without starting a process; its ``tasks``
    attribute lists the tasks the pools mapped, in the order mapped.
    """

    class PoolLog(list):
        tasks: list

    sizes = PoolLog()
    sizes.tasks = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, tasks, chunksize=1):
            for task in tasks:
                sizes.tasks.append(task)
                yield fn(task)

    monkeypatch.setattr("multiprocessing.Pool", SerialPool)
    monkeypatch.setattr("revtour.theorems.os.cpu_count", lambda: 4)
    return sizes
