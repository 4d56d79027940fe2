"""AdamW with decoupled weight decay and bias-corrected moments.

The optimizer claims the first part of this process's arena
(``packworker.claim``), ``[params | grad | m | v | slots]``, each part laid out
by ``encoder.param_layout`` in sorted name order, and rebinds every entry of
the caller's ``params`` dict to a view of the first. The pack worker maps the
same pages. The next claim reuses them, so a run takes its weights out with
``copy_out``; an optimizer whose claim was taken raises ``StaleOptimizerError``.
The checkpoint writes ``m`` and ``v`` as they are. An update runs over the flat
buffers in cache-sized chunks; each value equals the per-tensor update's, as
each element sees the same operations in the same order in either process.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import packworker
from .encoder import Params, flat_views, param_layout
from .errors import ConfigError, StaleOptimizerError

# elements per chunk of the update: two scratch rows of this size stay in
# cache (0.83 ms per toy-config update of 277k floats, against 1.1 ms unchunked)
_CHUNK = 1 << 16


class AdamW:
    def __init__(
        self,
        params: Params,
        lr: float = 3e-5,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        dtypes = {np.asarray(v).dtype for v in params.values()}
        if len(dtypes) > 1:
            raise ConfigError(f"parameters of mixed dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self.layout, size = param_layout((name, np.shape(params[name])) for name in sorted(params))
        # an entry still in the arena, from an earlier optimizer, is copied before the claim reuses its pages
        kept = {name: np.array(v) for name, v in params.items() if np.may_share_memory(v, packworker.arena)}
        self.buffer, self.claim = packworker.claim((4 + packworker.SLOTS) * size, dtype)
        rows = self.buffer.reshape(4 + packworker.SLOTS, size)
        (self.flat, self.grad, self.m, self.v), self.grad_slots = rows[:4], rows[4:]
        for name, view in flat_views(self.flat, self.layout).items():
            view[...] = kept.get(name, params[name])
            params[name] = view
        self.grads = flat_views(self.grad, self.layout)
        self.spare = np.empty(size, dtype=dtype)  # a gradient ``train_step`` holds until its turn in the sum
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0

    def step(self) -> None:
        """One decoupled-decay Adam update from ``self.grad``; a usable pack worker updates the second half."""
        self.own()
        self.t += 1
        update = partial(_update, self.t, self.lr, self.beta1, self.beta2, self.eps, self.weight_decay)
        half, size = self.flat.size // 2, self.flat.size
        away = packworker.update_half(self, partial(update, half, size))
        update(0, half if away else size, self.flat, self.grad, self.m, self.v)
        if away:
            packworker.result()

    def own(self) -> None:
        """Raise ``StaleOptimizerError`` if a later optimizer has claimed the arena: the buffers are its now."""
        if self.claim != packworker.claims:
            raise StaleOptimizerError(f"optimizer of claim {self.claim} used after claim {packworker.claims}")

    def copy_out(self, params: Params) -> Params:
        """Rebind every entry of ``params`` to a copy of its weights out of the arena, and return ``params``; the
        slots' pages go back to the system first, so the copy adds no peak memory."""
        self.own()
        packworker.give_back(4 * self.flat.nbytes)
        params.update(flat_views(self.flat.copy(), self.layout))
        return params

    def first_nonfinite(self) -> str | None:
        """Name of the first parameter, in sorted order, whose gradient holds a non-finite entry."""
        if np.isfinite(self.grad).all():
            return None
        return next(name for name, g in self.grads.items() if not np.isfinite(g).all())


def _update(t: int, lr: float, b1: float, b2: float, eps: float, weight_decay: float, start: int, stop: int,
            params: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray) -> None:
    """The update of elements ``start:stop`` of the flat buffers, at step ``t``, in place."""
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    decay = lr * weight_decay
    scratch = np.empty((2, min(stop - start, _CHUNK)), dtype=params.dtype)
    for lo in range(start, stop, _CHUNK):
        chunk = slice(lo, min(lo + _CHUNK, stop))
        p, g, mc, vc = params[chunk], grad[chunk], m[chunk], v[chunk]
        s, u = scratch[0, : p.size], scratch[1, : p.size]
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        np.multiply(mc, b1, out=mc)
        np.add(mc, np.multiply(g, 1.0 - b1, out=s), out=mc)
        np.multiply(vc, b2, out=vc)
        np.multiply(np.multiply(g, 1.0 - b2, out=s), g, out=s)
        np.add(vc, s, out=vc)
        # p -= (lr * m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(np.divide(mc, bc1, out=s), lr, out=s)
        np.add(np.sqrt(np.divide(vc, bc2, out=u), out=u), eps, out=u)
        np.subtract(p, np.divide(s, u, out=s), out=p)
        if weight_decay > 0.0:
            np.subtract(p, np.multiply(p, decay, out=s), out=p)
