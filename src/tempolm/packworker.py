"""One forked worker process, per process, that runs half of a training step's packs.

A step's gradient is the sum of independent per-pack gradients. With a
``PackWorker`` open around a training run, ``pretrain.train_step`` hands the
odd-numbered packs of every step with at least two packs to the worker and
runs the even-numbered ones itself. The worker reads the parameters from the
optimizer's shared flat buffer, writes each pack's gradient into one of the
run's two shared slots, and the parent adds every pack's gradient into the
step's sum strictly in pack order, so the sum, and every artifact after it,
is byte-identical to running all packs in one process.

Lifecycle. A process has at most one worker. It is forked at the first step
with at least two packs, pinned to the last usable CPU (an unpinned worker,
which sleeps between packs, ran them slower and less steadily), and every
later training run of the process (``pretrain`` and each fine-tuning grid
point) reuses it. It stops at interpreter exit, when its parent dies (it
reads EOF: processes forked later drop their copy of the pipe), on
``shutdown()``, and on every exception ``train_step`` raises, a
``DivergenceError`` included; the next step that needs a worker forks
afresh.

Buffers. Each run's parameter buffer (``shared_zeros``, made by the
optimizer) and its two gradient slots are ``memfd`` mappings, so a worker
forked before them can map them too. A fresh fork inherits the mappings of
the run that forks it; a running worker is sent the run's file descriptors
once, over its pipe, at the run's first step with two packs, and unmaps the
previous run's buffers when they arrive. Both sides close a descriptor once
they have mapped it, and nothing appears in ``/dev/shm``.

Memory. A run maps two gradient slots of its parameter count (2.1 MiB on the
toy config), freed in the parent when the run ends and in the worker when
the next run's buffers arrive. The worker is a copy-on-write fork: what it
computes is its own private memory, and it keeps the parent's pages as of
the fork, the forking run's buffers among them, for as long as it lives.

The worker is used only when at least 2 CPUs are usable and OpenBLAS is
pinned to one thread (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``,
is ``1``): with multi-threaded BLAS two processes oversubscribe the CPUs.
A fork is safe only in a single-threaded process, so a run is also kept in
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
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .encoder import Params, collect_grads, wrap_params
from .errors import PackWorkerError

SLOTS = 2  # gradient slots: the worker computes one pack while the parent adds the other

# this process's worker, the parent's end of its pipe, and the run whose buffers it has mapped
_proc = None
_conn = None
_holder: "PackWorker | None" = None


class _Memfd(mmap.mmap):
    """A shared mapping of a memfd whose descriptor stays open until the worker has the mapping."""

    fd = -1

    def release(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    __del__ = release


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


def _mapping(array: np.ndarray) -> _Memfd:
    """The memfd mapping under ``array``, a view of a ``shared_zeros`` buffer."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj  # np.frombuffer holds the mapping through a memoryview


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


class PackWorker:
    """One training run's use of the process's worker, against ``optimizer``'s shared parameters.

    Open it around a training run; ``begin`` and ``add_next`` are called by
    ``train_step`` only.
    """

    def __init__(self, optimizer):
        self.optimizer = optimizer
        self.enabled = usable()
        self._slots: np.ndarray | None = None
        self._packs: list[Callable] = []  # the step's packs for the worker; the i-th uses slot i % SLOTS
        self._sent = self._added = 0

    def __enter__(self) -> "PackWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _start(self) -> None:
        """Fork the worker; it inherits this run's buffers."""
        global _proc, _conn
        opt = self.optimizer
        ctx = multiprocessing.get_context("fork")
        _conn, child_end = ctx.Pipe()
        cpu = max(os.sched_getaffinity(0))
        proc = ctx.Process(target=_serve, args=(child_end, cpu, opt.views(opt.flat),
                                                [opt.views(slot) for slot in self._slots]), daemon=True)
        try:
            proc.start()
        finally:
            child_end.close()
        _proc = proc

    def close(self, kill: bool = False) -> None:
        """End the run: release its slots, and with ``kill`` stop the worker at once."""
        global _holder
        if kill:
            shutdown(kill=True)
        if _holder is self:
            _holder = None
        self._slots = None
        self._packs = []

    def _attach(self) -> None:
        """Give the worker this run's buffers: sent as memfds to a running one, or inherited by a fresh fork."""
        global _holder
        opt = self.optimizer
        if self._slots is None:
            self._slots = shared_zeros(SLOTS * opt.flat.size, opt.flat.dtype).reshape(SLOTS, -1)
        mappings = [_mapping(opt.flat), _mapping(self._slots)]
        if _proc is not None and all(m.fd >= 0 for m in mappings):
            self._send((None, (opt.layout, opt.flat.dtype.str)))
            try:
                with socket.fromfd(_conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    socket.send_fds(sock, [b"\0"], [m.fd for m in mappings])
            except OSError:
                raise self._died() from None
        else:  # no worker yet, or buffers already handed to an earlier one: a fork inherits them
            shutdown()
            self._start()
        for m in mappings:
            m.release()
        _holder = self

    def begin(self, pack_losses: Sequence[Callable]) -> set[int]:
        """Hand the odd-numbered packs to the worker; returns their indices."""
        if not self.enabled or len(pack_losses) < 2:
            return set()
        if _holder is not self:
            try:
                self._attach()
            except OSError:  # no process or memfd to be had: the run goes on in this one
                shutdown()
                self.enabled = False
                return set()
        self._packs = list(pack_losses[1::2])
        self._sent = self._added = 0
        while self._sent < min(SLOTS, len(self._packs)):
            self._send((self._sent % SLOTS, self._packs[self._sent]))
            self._sent += 1
        return set(range(1, len(pack_losses), 2))

    def _send(self, message) -> None:
        try:
            _conn.send(message)
        except OSError:
            raise self._died() from None

    def add_next(self, grad: np.ndarray) -> tuple[float, dict[str, float]]:
        """Wait for the worker's next pack, add its gradient into ``grad``; returns its loss and parts."""
        try:
            loss, parts, error = _conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        if error is not None:
            raise error
        np.add(grad, self._slots[self._added % SLOTS], out=grad)
        self._added += 1
        if self._sent < len(self._packs):  # into the slot just added
            self._send((self._sent % SLOTS, self._packs[self._sent]))
            self._sent += 1
        return loss, parts

    def _died(self) -> PackWorkerError:
        proc = _proc
        proc.join(1.0)
        return PackWorkerError(f"pack worker {proc.pid} exited with code {proc.exitcode} during a step")


def _serve(conn, cpu: int, params: Params, slots: list[Params]) -> None:
    """The worker: run each received pack loss and write its gradient into the given slot.

    A message without a slot announces a new run, whose buffers follow as
    memfds; the previous run's buffers are unmapped with their last views.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    os.sched_setaffinity(0, {cpu})
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
            conn.send((*_run_pack(task, params, slots[slot]), None))
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


def _run_pack(loss_of: Callable, params: Params, slot: Params) -> tuple[float, dict[str, float]]:
    """One pack's loss and parts, its gradient written into ``slot``."""
    pvars = wrap_params(params)
    total, parts = loss_of(pvars)
    ad.backward(total)
    for name, g in collect_grads(pvars).items():
        slot[name][...] = g
    return float(total.value), parts


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
