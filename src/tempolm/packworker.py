"""One forked worker process, per process, that takes a share of its caller's work, and the arena of its runs.

A task is any picklable callable with a picklable result; the worker answers
each with ``(result, error)``, so an error keeps its type and message.
``pretrain.train_step`` hands it a share of a step's packs by cost, as tasks
``task(params, slot) -> (loss, parts)`` that write a gradient into one of two
shared slots, and adds the gradients in pack order; ``AdamW.step`` hands it
half of the update; ``map_ordered`` hands it every other chunk of its items
and yields the results in input order. The output is byte-identical to one
process's, whichever process ran which task.

The arena is one anonymous shared mapping per process, inherited by a worker
at its fork. A training run's optimizer claims its first part, ``[params |
grad | m | v | slots]``, after the previous run's pages go back to the system
(``MADV_REMOVE``); a run sends the worker only its layout, dtype and size.

The worker is forked bare at its first use, pinned to the last usable CPU
(unpinned, it ran packs slower and less steadily) and reused until
interpreter exit, its parent's death (it reads EOF), ``shutdown()``, a growth
of the arena, or any exception either caller sees; the next use forks afresh,
and a use whose fork fails runs here.

It is used only when at least 2 CPUs are usable and no other Python thread
runs (``forkable``); training also needs OpenBLAS pinned to one thread
(``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, is ``1``), or two
processes oversubscribe the CPUs (``usable``).
"""

from __future__ import annotations

import atexit
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
import traceback
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .encoder import flat_views
from .errors import PackWorkerError

SLOTS = 2  # gradient slots: the worker computes one task while the parent adds the other
CHUNK = 64  # items per task of ``map_ordered``
_CLAIM = -1  # the slot of a message that gives the layout, dtype and size of the arena's new claim
_UPDATE = -2  # the slot of a task called with the run's flat parameters, gradient, m and v

# this process's worker, the parent's end of its pipe, and the number of the claim the worker has been sent
_proc = None
_conn = None
_told = 0
# the step's worker tasks not yet sent, each with its slot, and how many results the parent has added
_queue: Iterator[tuple[int, Callable]] = iter(())
_added = 0
# this process's arena, shared with a worker forked after it was made, and the number of claims made on it so far
arena = mmap.mmap(-1, mmap.PAGESIZE)
claims = 0


def claim(count: int, dtype: np.dtype) -> tuple[np.ndarray, int]:
    """The arena's first ``count`` elements of ``dtype``, all zero, for a new run, and the claim's number.

    The previous claim's pages go back first. An arena too small is replaced, and the worker, which maps it, stops.
    """
    global arena, claims
    give_back(0)  # views of the arena may outlive it: they read zeros
    if count * dtype.itemsize > len(arena):
        shutdown()
        arena = mmap.mmap(-1, count * dtype.itemsize)
    claims += 1
    return np.frombuffer(arena, dtype, count), claims


def give_back(nbytes: int) -> None:
    """Return the arena's whole pages past its first ``nbytes`` to the system; they read as zeros."""
    start = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
    if start < len(arena):
        arena.madvise(mmap.MADV_REMOVE, start)


def forkable() -> bool:
    """At least 2 usable CPUs, and no other Python thread to fork under."""
    return len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def usable() -> bool:
    """``forkable()``, and OpenBLAS pinned to one thread: the worker may run a step's packs."""
    return os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "")).strip() == "1" and forkable()


def shutdown(kill: bool = False) -> None:
    """Stop this process's worker (at once with ``kill``); the next use forks afresh."""
    global _proc, _conn, _told
    proc, conn = _proc, _conn
    _proc, _conn, _told = None, None, 0
    if proc is not None and kill:
        proc.kill()
    if conn is not None:
        conn.close()  # the worker reads EOF and exits
    if proc is not None:
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        proc.close()


def _forget() -> None:
    """In a forked child: the worker is the parent's, and its pipe must close when the parent dies."""
    global _proc, _conn, _told
    if _conn is not None:
        _conn.close()
    _proc, _conn, _told = None, None, 0


atexit.register(shutdown)
os.register_at_fork(after_in_child=_forget)


def _start() -> None:
    """Fork the worker, bare: it maps the arena as of the fork, and each run sends it its claim."""
    global _proc, _conn
    ctx = multiprocessing.get_context("fork")
    _conn, child_end = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(child_end, max(os.sched_getaffinity(0))), daemon=True)
    try:
        proc.start()
    finally:
        child_end.close()
    _proc = proc


def _attach(optimizer, *messages) -> bool:
    """Send ``messages`` once the worker, forked if need be, maps ``optimizer``'s claim; ``False`` if it cannot."""
    global _told
    if not usable() or not optimizer.flat.size:
        return False
    if _told != optimizer.claim:
        if not _hand_out((_CLAIM, (optimizer.layout, optimizer.flat.dtype.str, optimizer.buffer.size))):
            return False
        _told = optimizer.claim
    for message in messages:
        _send(message)
    return True


def begin(optimizer, tasks: Sequence[Callable], costs: Sequence[float], other: float = 0.0) -> list[bool]:
    """Share a step's ``tasks`` out by cost, send the worker its first; for each task, whether the worker runs it.

    This process also has ``other`` work, in the unit of ``costs``. Of the splits where it takes a prefix and at most
    one later task, held until the worker's before it are added, and the one giving each task in turn to the process
    with less work so far, the one whose longer side costs least wins, then the one leaving this process less. None
    goes to the worker if it is not usable, there are fewer than two tasks, or no process is to be had.
    """
    global _queue, _added
    n = len(tasks)
    load, greedy = [0.0, 0.0], []
    for cost in costs:
        greedy.append(load[1] < load[0])
        load[greedy[-1]] += cost

    def rank(remote: list[bool]) -> tuple[float, float]:
        theirs = [cost for cost, away in zip(costs, remote) if away]
        mine = other + sum(costs) - sum(theirs)
        # a split adds no worker task before its own are done, so the worker waits once its SLOTS are full
        return max(mine, sum(theirs), 0.0 if remote is greedy else mine - other + sum(theirs[SLOTS:])), mine

    remote = min([[k <= i != j for i in range(n)] for k in range(n, -1, -1) for j in (n, *range(k + 1, n))] + [greedy],
                 key=rank)
    _queue = ((i % SLOTS, task) for i, task in enumerate(t for t, away in zip(tasks, remote) if away))
    _added = 0
    return remote if n > 1 and _attach(optimizer, *islice(_queue, SLOTS)) else [False] * n


def update_half(optimizer, task: Callable) -> bool:
    """Hand the worker ``task``, called with ``optimizer``'s flat buffers, for ``result()``; ``False`` if it cannot."""
    return _attach(optimizer, (_UPDATE, task))


def map_ordered(fn: Callable[[list], list], items: Iterator) -> Iterator:
    """Every result of ``fn`` over ``items``, taken ``CHUNK`` at a time, in input order.

    When ``forkable()``, the worker computes every other chunk; this process
    takes the first, so it forks only when a second exists. ``fn``, the items
    and the results must pickle. Any exception, and closing the generator
    early, stops the worker, so that no stale reply stays in its pipe.
    """
    chunks = iter(lambda: list(islice(items, CHUNK)), [])
    away = False  # the worker holds the previous pair's second chunk
    try:
        for mine in chunks:
            theirs = next(chunks, None)
            if away:
                yield from result()
            away = theirs is not None and forkable() and _hand_out((None, partial(fn, theirs)))
            yield from fn(mine)
            if theirs is not None and not away:
                yield from fn(theirs)
        if away:
            yield from result()
    except BaseException:
        shutdown(kill=True)
        raise


def _hand_out(message) -> bool:
    """Send ``message`` to the worker, forked first if need be; ``False`` if the fork fails (the next use retries)."""
    if _proc is None:
        try:
            _start()
        except OSError:
            shutdown()
            return False
    _send(message)
    return True


def _send(message) -> None:
    try:
        _conn.send(message)
    except OSError:
        raise _died() from None


def result():
    """The result of the worker's next task; the error it sent back is raised."""
    try:
        result, error = _conn.recv()
    except (EOFError, OSError):
        raise _died() from None
    if error is not None:
        raise error
    return result


def add_next(optimizer, first: bool, wait: bool = True) -> tuple[float, dict[str, float]] | None:
    """Add (if ``first``, copy) the worker's next pack gradient into ``optimizer.grad``; its loss and parts, or
    ``None`` if it is not done and not ``wait``."""
    global _added
    if not (wait or _conn.poll()):
        return None
    loss, parts = result()
    slot = optimizer.grad_slots[_added % SLOTS]
    if first:  # copied, not added: 0.0 + -0.0 is 0.0
        np.copyto(optimizer.grad, slot)
    else:
        np.add(optimizer.grad, slot, out=optimizer.grad)
    _added += 1
    for message in islice(_queue, 1):  # into the slot just added
        _send(message)
    return loss, parts


def _died() -> PackWorkerError:
    _proc.join(1.0)
    return PackWorkerError(f"pack worker {_proc.pid} exited with code {_proc.exitcode} during a task")


def _serve(conn, cpu: int) -> None:
    """The worker: answer each ``(slot, task)`` with ``(result, error)``. A task without a slot is called bare, a
    pack's with the run's parameters and its gradient slot, an update's with the run's flat buffers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    os.sched_setaffinity(0, {cpu})
    rows = params = slots = None
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            slot, task = pickle.loads(message)
            if slot == _CLAIM:  # the run's [params | grad | m | v | slots], in the arena inherited at the fork
                rows = np.frombuffer(arena, task[1], task[2]).reshape(4 + SLOTS, -1)
                params, slots = flat_views(rows[0], task[0]), [flat_views(row, task[0]) for row in rows[4:]]
                continue
            out = task() if slot is None else task(*rows[:4]) if slot == _UPDATE else task(params, slots[slot])
            conn.send((out, None))
        except Exception as exc:  # noqa: BLE001 - every failure goes back to the parent
            conn.send((None, _portable(exc)))


def _portable(exc: Exception) -> Exception:
    """``exc`` with the worker's traceback as a note, or a ``PackWorkerError`` if it does not survive pickling."""
    exc.add_note("raised in the pack worker:\n" + "".join(traceback.format_exception(exc)).rstrip())
    try:
        back = pickle.loads(pickle.dumps(exc))
        if type(back) is type(exc) and str(back) == str(exc):
            return exc
    except Exception:  # noqa: BLE001
        pass
    return PackWorkerError(f"{type(exc).__name__}: {exc}")
