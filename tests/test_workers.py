"""`fork_map`: results in index order, the hand-out of indices, framing
of large results, and no child left behind."""

import os
import time

import pytest

from depnet import DepnetError, run_batch
from depnet import detect
from depnet.workers import fork_map

from conftest import use_cpus


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
def test_sleeping_index_zero_runs_in_a_child(monkeypatch, workers):
    """Index 0 goes to a child, and the other indices complete elsewhere
    while it sleeps: with one child, all of them in this process."""
    forks = use_cpus(monkeypatch, workers)

    def pid_of(index):
        if index == 0:
            time.sleep(0.5)
        return os.getpid()

    pids = fork_map(pid_of, 8, workers)
    assert len(forks) == workers - 1
    assert pids[0] in forks
    assert pids[0] not in pids[1:]
    if workers == 2:
        assert set(pids[1:]) == {os.getpid()}
    assert_no_child()


def test_values_and_exceptions_in_index_order(monkeypatch):
    forks = use_cpus(monkeypatch, 3)

    def square_or_fail(index):
        if index % 3 == 1:
            raise ValueError(f"no square for {index}")
        return index * index

    results = fork_map(square_or_fail, 40, 3)
    assert len(forks) == 2
    for index, result in enumerate(results):
        if index % 3 == 1:
            assert type(result) is ValueError
            assert str(result) == f"no square for {index}"
        else:
            assert result == index * index
    assert_no_child()


def test_large_results_cross_the_pipes_intact(monkeypatch):
    """200 KB results, well past a 64 KB pipe buffer, from 2 children."""
    forks = use_cpus(monkeypatch, 3)
    results = fork_map(lambda index: bytes([index]) * 200_000, 6, 3)
    assert len(forks) == 2
    assert results == [bytes([index]) * 200_000 for index in range(6)]
    assert_no_child()


@pytest.mark.parametrize("count", [1, 2, 3])
def test_fewer_indices_than_workers_fork_fewer_children(monkeypatch, count):
    forks = use_cpus(monkeypatch, 8)
    assert fork_map(lambda index: -index, count, 8) == \
        [-index for index in range(count)]
    assert len(forks) == count - 1
    assert_no_child()


def test_a_child_that_dies_raises(monkeypatch):
    own = os.getpid()

    def die_in_child(index):
        if os.getpid() != own:
            os._exit(3)
        return index

    forks = use_cpus(monkeypatch, 2)
    with pytest.raises(DepnetError, match="a worker process died in mid-run"):
        fork_map(die_in_child, 4, 2)
    assert len(forks) == 1
    assert_no_child()


def test_interrupt_in_own_run_stops_every_child(monkeypatch, two_triangles):
    """The child sleeps on its first run, so this process takes the second,
    which is interrupted."""
    own = os.getpid()
    real = detect.detect_lp

    def detect_lp(graph, seed):
        if os.getpid() == own:
            raise KeyboardInterrupt
        time.sleep(0.5)
        return real(graph, seed)

    monkeypatch.setattr(detect, "detect_lp", detect_lp)
    forks = use_cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        run_batch(two_triangles, ("lp",), 4, 0, (0,) * 6)
    assert len(forks) == 1
    assert_no_child()
