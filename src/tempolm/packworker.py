"""One forked worker process, per process, that runs half of a training step's packs.

A step's gradient is the sum of independent per-pack gradients. Every stage
calls ``pretrain.train_step`` alike, and the worker stays behind it: the
step hands the odd-numbered packs of a step with at least two packs to the
worker, as tasks ``task(params, slot) -> (loss, parts)`` that write a pack's
gradient into one of two shared slots, and runs the even-numbered ones
itself. The parent adds every pack's gradient strictly in pack order, so
the sum, and every artifact after it, is byte-identical to one process.

Lifecycle. A process has at most one worker, forked bare at the first step
with at least two packs and pinned to the last usable CPU (unpinned, it ran
packs slower and less steadily); every later step of every run reuses it.
It stops at interpreter exit, when its parent dies (it reads EOF: processes
forked later drop their copy of the pipe), on ``shutdown()``, and on every
exception ``train_step`` raises, a ``DivergenceError`` included. The next
step that needs a worker forks afresh; a step whose fork fails runs in this
process, and the next multi-pack step tries again.

Buffers. An optimizer's parameter buffer (``shared_zeros``) and its gradient
slots (``AdamW.grad_slots``, made here at its first multi-pack step and
freed with it) are ``memfd`` mappings, each keeping its descriptor open as
long as it lives. Every run sends both descriptors over the pipe at its
first multi-pack step, and again to a fresh worker after a kill; the worker
maps them, closes its copies and unmaps the previous run's buffers. Nothing
appears in ``/dev/shm``. The worker is a copy-on-write fork: it keeps the
parent's pages as of the fork for as long as it lives.

The worker is used only when at least 2 CPUs are usable and OpenBLAS is
pinned to one thread (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``,
is ``1``): with multi-threaded BLAS two processes oversubscribe the CPUs.
A fork is safe only in a single-threaded process, so a step also stays in
one process while any other Python thread runs.
"""

from __future__ import annotations

import atexit
import math
import mmap
import multiprocessing
import os
import pickle
import signal
import socket
import threading
import traceback
import weakref
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .encoder import Params
from .errors import PackWorkerError

SLOTS = 2  # gradient slots: the worker computes one task while the parent adds the other

# this process's worker, the parent's end of its pipe, and the optimizer whose buffers it has mapped
_proc = None
_conn = None
_holder: weakref.ref | None = None
# the step's worker tasks not yet sent, each with its slot, and how many results the parent has added
_queue: Iterator[tuple[int, Callable]] = iter(())
_added = 0


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
    return np.frombuffer(mapping, dtype=dtype)


def _fd(array: np.ndarray) -> int:
    """The memfd under ``array``, a view of a ``shared_zeros`` buffer."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj.fd  # np.frombuffer holds the mapping through a memoryview


def flat_views(flat: np.ndarray, layout: list[tuple[str, tuple[int, ...], int]]) -> Params:
    """Each tensor's view into ``flat``, a buffer laid out as ``(name, shape, start)`` entries."""
    return {name: flat[start : start + math.prod(shape)].reshape(shape) for name, shape, start in layout}


def usable() -> bool:
    """At least 2 usable CPUs, OpenBLAS pinned to one thread, and no other Python thread to fork under."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    return (threads is not None and threads.strip() == "1" and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def shutdown(kill: bool = False) -> None:
    """Stop this process's worker (at once with ``kill``); the next step that needs one forks afresh."""
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

    Each task is ``task(params, slot) -> (loss, parts)`` and writes its
    gradient into ``slot``, both laid out like ``optimizer``'s parameters.
    Returns no index, and the step runs in this process, when the worker is
    not usable, the step has fewer than two tasks, or no process or memfd is
    to be had.
    """
    global _holder, _queue, _added
    if len(tasks) < 2 or not usable():
        return set()
    if _holder is None or _holder() is not optimizer:
        flat = optimizer.flat
        try:
            if optimizer.grad_slots is None:
                optimizer.grad_slots = shared_zeros(SLOTS * flat.size, flat.dtype).reshape(SLOTS, -1)
            if _proc is None:
                _start()
        except OSError:  # the next multi-pack step tries again
            shutdown()
            return set()
        _send((None, (optimizer.layout, flat.dtype.str)))
        try:
            with socket.fromfd(_conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                socket.send_fds(sock, [b"\0"], [_fd(flat), _fd(optimizer.grad_slots)])
        except OSError:
            raise _died() from None
        _holder = weakref.ref(optimizer)
    _queue = ((i % SLOTS, task) for i, task in enumerate(tasks[1::2]))
    _added = 0
    for message in islice(_queue, SLOTS):
        _send(message)
    return set(range(1, len(tasks), 2))


def _send(message) -> None:
    try:
        _conn.send(message)
    except OSError:
        raise _died() from None


def add_next(optimizer) -> tuple[float, dict[str, float]]:
    """Wait for the worker's next task, add its gradient into ``optimizer.grad``; returns its loss and parts."""
    global _added
    try:
        loss, parts, error = _conn.recv()
    except (EOFError, OSError):
        raise _died() from None
    if error is not None:
        raise error
    np.add(optimizer.grad, optimizer.grad_slots[_added % SLOTS], out=optimizer.grad)
    _added += 1
    for message in islice(_queue, 1):  # into the slot just added
        _send(message)
    return loss, parts


def _died() -> PackWorkerError:
    proc = _proc
    proc.join(1.0)
    return PackWorkerError(f"pack worker {proc.pid} exited with code {proc.exitcode} during a step")


def _serve(conn, cpu: int) -> None:
    """The worker: run each received task against the current run's buffers, into the given slot.

    A message without a slot announces a run, whose buffers follow as
    memfds; the previous run's buffers are unmapped with their last views.
    """
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
            if slot is None:
                params = slots = None
                params, slots = _map_buffers(conn, *task)
                continue
            conn.send((*task(params, slots[slot]), None))
        except Exception as exc:  # noqa: BLE001 - every failure goes back to the parent
            conn.send((None, None, _portable(exc)))


def _map_buffers(conn, layout, dtype: str) -> tuple[Params, list[Params]]:
    """Receive a run's parameter buffer and gradient slots as memfds, map them and close the descriptors."""
    with socket.fromfd(conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        fds = socket.recv_fds(sock, 1, 2)[1]
    try:
        flat, slots = (np.frombuffer(mmap.mmap(fd, os.fstat(fd).st_size), dtype=dtype) for fd in fds)
    finally:
        for fd in fds:
            os.close(fd)
    return flat_views(flat, layout), [flat_views(slot, layout) for slot in slots.reshape(SLOTS, -1)]


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
