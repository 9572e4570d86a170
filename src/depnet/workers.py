"""`fork_map`: the parse shares and seeded runs, on forked processes."""

from __future__ import annotations

import os
from typing import Callable, NoReturn

from .errors import DepnetError

_DIED = "a worker process died in mid-run"


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where unknown (as on macOS)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _serve(call: Callable[[int], object], task_fd: int, result_fd: int,
           inherited: list) -> NoReturn:
    """A forked child's life: close the `inherited` pipe ends (an earlier
    child's task pipe held open here would never close); for each task
    index (4 bytes) read from `task_fd`, write the pickled outcome behind
    its length (8 bytes, both little-endian) to `result_fd`; once the task
    pipe closes, leave with status 0, by `os._exit`: no atexit hook runs."""
    import pickle  # already loaded by `fork_map`

    status = 1
    try:
        for end in inherited:
            end.close()
        while index := os.read(task_fd, 4):
            payload = pickle.dumps(call(int.from_bytes(index, "little")))
            view = memoryview(len(payload).to_bytes(8, "little") + payload)
            while view:
                view = view[os.write(result_fd, view):]
        status = 0
    finally:
        os._exit(status)


def fork_map(func: Callable[[int], object], count: int,
             workers: int) -> list:
    """[func(0), ..., func(count - 1)] in index order, each entry the call's
    value or the Exception it raised, run on min(workers, count) processes:
    this one and the rest forked from it, each child with a pipe each way.
    An idle child is sent the next index; this process runs the next index
    itself only while every child is busy, so index 0 always goes to a
    child. A child that dies, or sends part of a result, raises DepnetError.
    Every child is reaped before this returns or raises; on an error,
    including KeyboardInterrupt, those left are killed first. Forking is
    safe only while no other thread runs; the CLI runs none.
    """
    def call(index: int) -> object:
        try:
            return func(index)
        except Exception as exc:
            return exc

    if min(workers, count) <= 1:
        return [call(index) for index in range(count)]
    # Imported here: a command that forks nothing loads none of them.
    import pickle
    import select
    import signal

    results: list = [None] * count
    pids: list[int] = []
    children: list = []  # each child's (task end, result end)
    busy: dict = {}  # result end -> the index its child was sent
    next_index, finished = 0, False
    try:
        for _ in range(min(workers, count) - 1):
            task_fd, task_end = os.pipe()
            result_end, result_fd = os.pipe()
            children.append((open(task_end, "wb", buffering=0),
                             open(result_end, "rb")))
            try:
                if (pid := os.fork()) == 0:
                    _serve(call, task_fd, result_fd, sum(children, ()))
                pids.append(pid)
            finally:
                os.close(task_fd)
                os.close(result_fd)
        while next_index < count or busy:
            for task_end, result_end in children:
                if next_index < count and result_end not in busy:
                    task_end.write(next_index.to_bytes(4, "little"))
                    busy[result_end] = next_index
                    next_index += 1
            timeout = None if next_index == count else 0
            ready = select.select(list(busy), [], [], timeout)[0]
            if not ready:
                results[next_index] = call(next_index)
                next_index += 1
            for result_end in ready:
                size = int.from_bytes(result_end.read(8), "little")
                payload = result_end.read(size)
                if not size or len(payload) < size:  # a short frame
                    raise DepnetError(_DIED)
                results[busy.pop(result_end)] = pickle.loads(payload)
        finished = True
    except BrokenPipeError:  # only a task pipe's write raises it
        raise DepnetError(_DIED) from None
    finally:
        for end in sum(children, ()):
            end.close()  # a child with no task left then leaves, status 0
        for pid in () if finished else pids:
            os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise DepnetError(_DIED)
    return results
