"""One forked worker process that runs half of a training step's packs.

A step's gradient is the sum of independent per-pack gradients. With a
``PackWorker`` open around a training run, ``pretrain.train_step`` hands the
odd-numbered packs of every step with at least two packs to one child
process and runs the even-numbered ones itself. The child reads the
parameters from the optimizer's shared flat buffer, writes each pack's
gradient into one of two shared slots, and the parent adds every pack's
gradient into the step's sum strictly in pack order, so the sum, and every
artifact after it, is byte-identical to running all packs in one process.

The child is forked on the first step that uses it, pinned to one CPU (an
unpinned child, which sleeps between packs, ran them slower and less
steadily), and stopped when the ``with`` block exits, whether the run
returns or raises. Shared memory is anonymous, so nothing is left in
``/dev/shm``.

The worker is used only when at least 2 CPUs are usable and OpenBLAS is
pinned to one thread (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``,
is ``1``): with multi-threaded BLAS two processes oversubscribe the CPUs.
The child is forked, not spawned, because it must inherit the anonymous
shared buffers; a fork is safe only in a single-threaded process, so the
worker is also left unused while any other Python thread runs.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import signal
import threading
import traceback
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .encoder import Params, collect_grads, wrap_params
from .errors import PackWorkerError

SLOTS = 2  # gradient slots: the child computes one pack while the parent adds the other


def shared_zeros(size: int, dtype) -> np.ndarray:
    """A zeroed flat array in anonymous shared memory, seen by forked children."""
    dtype = np.dtype(dtype)
    if size == 0:
        return np.zeros(0, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, size * dtype.itemsize), dtype=dtype)


def usable() -> bool:
    """At least 2 usable CPUs, OpenBLAS pinned to one thread, and no other Python thread to fork under."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    return (threads is not None and threads.strip() == "1" and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


class PackWorker:
    """Runs pack losses in one forked child against ``optimizer``'s shared parameters.

    Open it around a training run; ``begin`` and ``add_next`` are called by
    ``train_step`` only.
    """

    def __init__(self, optimizer):
        self.optimizer = optimizer
        self.enabled = usable()
        self._proc = None
        self._conn = None
        self._slots: np.ndarray | None = None
        self._packs: list[Callable] = []  # the step's packs for the child; the i-th uses slot i % SLOTS
        self._sent = self._added = 0

    def __enter__(self) -> "PackWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _start(self) -> None:
        opt = self.optimizer
        self._slots = shared_zeros(SLOTS * opt.flat.size, opt.flat.dtype).reshape(SLOTS, -1)
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        cpu = max(os.sched_getaffinity(0))
        proc = ctx.Process(target=_serve, args=(child_end, self._conn, opt.views(opt.flat),
                                                [opt.views(slot) for slot in self._slots], cpu), daemon=True)
        try:
            proc.start()
        finally:
            child_end.close()
        self._proc = proc

    def close(self, kill: bool = False) -> None:
        """Stop the child (at once with ``kill``) and release the slots."""
        proc, conn = self._proc, self._conn
        self._proc = self._conn = self._slots = None
        self._packs = []
        if proc is not None and kill:
            proc.kill()
        if conn is not None:
            conn.close()  # the child reads EOF and exits
        if proc is not None:
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            proc.close()

    def begin(self, pack_losses: Sequence[Callable]) -> set[int]:
        """Hand the odd-numbered packs to the child; returns their indices."""
        if not self.enabled or len(pack_losses) < 2:
            return set()
        if self._proc is None:
            try:
                self._start()
            except OSError:  # no process to be had: the run goes on in this one
                self.close()
                self.enabled = False
                return set()
        self._packs = list(pack_losses[1::2])
        self._sent = self._added = 0
        while self._sent < min(SLOTS, len(self._packs)):
            self._send_next()
        return set(range(1, len(pack_losses), 2))

    def _send_next(self) -> None:
        try:
            self._conn.send((self._sent % SLOTS, self._packs[self._sent]))
        except OSError:
            raise self._died() from None
        self._sent += 1

    def add_next(self, grad: np.ndarray) -> tuple[float, dict[str, float]]:
        """Wait for the child's next pack, add its gradient into ``grad``; returns its loss and parts."""
        try:
            loss, parts, error = self._conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        if error is not None:
            raise error
        np.add(grad, self._slots[self._added % SLOTS], out=grad)
        self._added += 1
        if self._sent < len(self._packs):  # into the slot just added
            self._send_next()
        return loss, parts

    def _died(self) -> PackWorkerError:
        proc = self._proc
        proc.join(1.0)
        return PackWorkerError(f"pack worker {proc.pid} exited with code {proc.exitcode} during a step")


def _serve(conn, parent_end, params: Params, slots: list[Params], cpu: int) -> None:
    """The child: run each received pack loss and write its gradient into the given slot."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    os.sched_setaffinity(0, {cpu})
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            slot, loss_of = pickle.loads(message)
            pvars = wrap_params(params)
            total, parts = loss_of(pvars)
            ad.backward(total)
            for name, g in collect_grads(pvars).items():
                slots[slot][name][...] = g
            conn.send((float(total.value), parts, None))
        except Exception as exc:  # noqa: BLE001 - every failure goes back to the parent
            conn.send((None, None, _portable(exc)))


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
