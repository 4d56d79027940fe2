"""One forked worker process, per process, that computes every other task of its caller.

A task is any picklable callable with a picklable result; the worker answers
each with ``(result, error)``, so an error keeps its type and message.
``pretrain.train_step`` hands it every other pack of a step, as tasks
``task(params, slot) -> (loss, parts)`` that write a gradient into one of two
shared slots, and adds the gradients in pack order; ``map_ordered`` hands it
every other chunk of its items and yields the results in input order. Either
way the output is byte-identical to one process's.

The worker is forked bare at its first use, pinned to the last usable CPU
(unpinned, it ran packs slower and less steadily) and reused until
interpreter exit, its parent's death (it reads EOF), ``shutdown()``, or any
exception either caller sees; the next use forks afresh, and a use whose
fork fails runs here. Each training run sends it, once, the ``memfd``
descriptor of its optimizer's buffer, parameters then gradient slots; it
closes the descriptors it inherited from the fork, but keeps the mappings.

It is used only when at least 2 CPUs are usable and no other Python thread
runs (``forkable``); packs also need OpenBLAS pinned to one thread
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
import socket
import threading
import traceback
import weakref
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .encoder import Params, flat_views
from .errors import PackWorkerError

SLOTS = 2  # gradient slots: the worker computes one task while the parent adds the other
CHUNK = 64  # items per task of ``map_ordered``
_BUFFERS = -1  # the slot of a message that announces a run, whose buffers follow as memfds

# this process's worker, the parent's end of its pipe, and the optimizer whose buffers it has mapped
_proc = None
_conn = None
_holder: weakref.ref | None = None
# the step's worker tasks not yet sent, each with its slot, and how many results the parent has added
_queue: Iterator[tuple[int, Callable]] = iter(())
_added = 0
_mappings: weakref.WeakSet = weakref.WeakSet()  # every live ``shared_zeros`` mapping of this process


class _Memfd(mmap.mmap):
    """A shared mapping of a memfd whose descriptor stays open as long as the mapping lives."""

    fd = -1

    def __del__(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)


def shared_zeros(size: int, dtype) -> np.ndarray:
    """A zeroed flat array in a memfd mapping, which the pack worker can map at any time."""
    dtype = np.dtype(dtype)
    if size == 0:
        return np.zeros(0, dtype=dtype)
    fd = os.memfd_create("tempolm", os.MFD_CLOEXEC)
    try:
        os.ftruncate(fd, size * dtype.itemsize)
        mapping = _Memfd(fd, size * dtype.itemsize)
    except BaseException:
        os.close(fd)
        raise
    mapping.fd = fd
    _mappings.add(mapping)
    return np.frombuffer(mapping, dtype=dtype)


def forkable() -> bool:
    """At least 2 usable CPUs, and no other Python thread to fork under."""
    return len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def usable() -> bool:
    """``forkable()``, and OpenBLAS pinned to one thread: the worker may run a step's packs."""
    return os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "")).strip() == "1" and forkable()


def shutdown(kill: bool = False) -> None:
    """Stop this process's worker (at once with ``kill``); the next use forks afresh."""
    global _proc, _conn, _holder
    proc, conn = _proc, _conn
    _proc = _conn = _holder = None
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
    global _proc, _conn, _holder
    if _conn is not None:
        _conn.close()
    _proc = _conn = _holder = None


atexit.register(shutdown)
os.register_at_fork(after_in_child=_forget)


def _start() -> None:
    """Fork the worker, bare: each run sends it its buffers."""
    global _proc, _conn
    ctx = multiprocessing.get_context("fork")
    _conn, child_end = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(child_end, max(os.sched_getaffinity(0))), daemon=True)
    try:
        proc.start()
    finally:
        child_end.close()
    _proc = proc


def begin(optimizer, tasks: Sequence[Callable]) -> set[int]:
    """Hand the odd-numbered ``tasks`` of a step to the worker; returns their indices.

    Each task writes its gradient into the slot it is given, laid out like
    ``optimizer``'s parameters. No index, and the step runs in this process,
    when the worker is not usable, the step has fewer than two tasks, or no
    process is to be had.
    """
    global _holder, _queue, _added
    if len(tasks) < 2 or not usable():
        return set()
    if _holder is None or _holder() is not optimizer:
        mapping = optimizer.buffer.base.obj  # np.frombuffer holds the mapping through a memoryview
        if not _hand_out((_BUFFERS, (optimizer.layout, optimizer.flat.dtype.str))):
            return set()
        try:
            with socket.fromfd(_conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                socket.send_fds(sock, [b"\0"], [mapping.fd])
        except OSError:
            raise _died() from None
        _holder = weakref.ref(optimizer)
        # views of the parameters may outlive the optimizer: the whole pages of its slots go back with it
        start = -(-optimizer.flat.nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        if start < len(mapping):
            weakref.finalize(optimizer, mapping.madvise, mmap.MADV_REMOVE, start)
    _queue = ((i % SLOTS, task) for i, task in enumerate(tasks[1::2]))
    _added = 0
    for message in islice(_queue, SLOTS):
        _send(message)
    return set(range(1, len(tasks), 2))


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
                yield from _reply()
            away = theirs is not None and forkable() and _hand_out((None, partial(fn, theirs)))
            yield from fn(mine)
            if theirs is not None and not away:
                yield from fn(theirs)
        if away:
            yield from _reply()
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


def _reply():
    """The result of the worker's next task; the error it sent back is raised."""
    try:
        result, error = _conn.recv()
    except (EOFError, OSError):
        raise _died() from None
    if error is not None:
        raise error
    return result


def add_next(optimizer) -> tuple[float, dict[str, float]]:
    """Wait for the worker's next task, add its gradient into ``optimizer.grad``; returns its loss and parts."""
    global _added
    loss, parts = _reply()
    np.add(optimizer.grad, optimizer.grad_slots[_added % SLOTS], out=optimizer.grad)
    _added += 1
    for message in islice(_queue, 1):  # into the slot just added
        _send(message)
    return loss, parts


def _died() -> PackWorkerError:
    _proc.join(1.0)
    return PackWorkerError(f"pack worker {_proc.pid} exited with code {_proc.exitcode} during a task")


def _serve(conn, cpu: int) -> None:
    """The worker: answer each ``(slot, task)`` with ``(result, error)``. A task without a slot is called bare,
    a pack's with the current run's parameters and its gradient slot; the slot ``_BUFFERS`` announces a run,
    whose buffer follows as a memfd and replaces the previous run's."""
    for mapping in list(_mappings):  # inherited: mmap keeps its own duplicate, closed with the mapping
        os.close(mapping.fd)
        mapping.fd = -1
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    os.sched_setaffinity(0, {cpu})
    params = slots = None
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            slot, task = pickle.loads(message)
            if slot == _BUFFERS:
                params = slots = None
                params, slots = _map_buffers(conn, *task)
                continue
            conn.send((task() if slot is None else task(params, slots[slot]), None))
        except Exception as exc:  # noqa: BLE001 - every failure goes back to the parent
            conn.send((None, _portable(exc)))


def _map_buffers(conn, layout, dtype: str) -> tuple[Params, list[Params]]:
    """Receive a run's buffer as a memfd, map it, close the descriptor; the parameters' and each slot's views."""
    with socket.fromfd(conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        (fd,) = socket.recv_fds(sock, 1, 1)[1]
    try:
        buffer = np.frombuffer(mmap.mmap(fd, os.fstat(fd).st_size), dtype=dtype).reshape(1 + SLOTS, -1)
    finally:
        os.close(fd)
    return flat_views(buffer[0], layout), [flat_views(slot, layout) for slot in buffer[1:]]


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
