"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the verifier's process pool by one that maps in-process.

    The machine reports 4 CPUs for the duration of the test.  Returns
    the list of pool sizes requested, so a test can check the job count
    that reached the pool without starting a process.
    """
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks, chunksize=1):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr("revtour.theorems.multiprocessing.Pool", SerialPool)
    monkeypatch.setattr("revtour.theorems.os.cpu_count", lambda: 4)
    return sizes
