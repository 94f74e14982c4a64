"""Fixtures shared by the test modules."""

import os

import pytest

import revtour.theorems


@pytest.fixture(autouse=True)
def reaps_every_child():
    """Fail a test that leaves a child of the test process unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped: waitpid(-1, WNOHANG) gave {left}")


@pytest.fixture
def fake_shards(monkeypatch):
    """Replace the verifier's shard runner by an in-process map.

    The machine reports 4 CPUs for the duration of the test.  Returns
    the list of shard counts N > 1 that reached the runner, so a test can
    check the job count without starting a process; its ``tasks``
    attribute lists the shards of those runs, in the order mapped.
    """

    class ShardLog(list):
        tasks: list

    sizes = ShardLog()
    sizes.tasks = []

    def in_process(plan, jobs):
        shards = [(i, jobs) for i in range(jobs)]
        if jobs > 1:
            sizes.append(jobs)
            sizes.tasks += shards
        return [revtour.theorems._check_shard(plan, shard) for shard in shards]

    monkeypatch.setattr("revtour.theorems._run_shards", in_process)
    monkeypatch.setattr("revtour.theorems.os.cpu_count", lambda: 4)
    return sizes
