"""AdamW with decoupled weight decay and bias-corrected moments.

The optimizer keeps the parameters, their gradient and both moments each in
one flat buffer, laid out by ``encoder.param_layout`` in sorted name order,
and rebinds every entry of the caller's ``params`` dict to a view of the
parameter buffer. The parameter buffer and the pack worker's ``SLOTS``
gradient slots share one memfd mapping, so the worker (``packworker``)
reads the current weights without a copy; a slot's pages are touched only
when the worker writes it, and are freed with the optimizer. The
checkpoint writes ``m`` and ``v`` as they are. One update runs over the flat
buffers in cache-sized chunks; every value equals that of the per-tensor
update, because each element sees the same operations in the same order.
"""

from __future__ import annotations

import numpy as np

from .encoder import Params, flat_views, param_layout
from .errors import ConfigError
from .packworker import SLOTS, shared_zeros

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
        self.buffer = shared_zeros((1 + SLOTS) * size, dtype)  # the parameters, then the pack worker's slots
        self.flat = self.buffer[:size]
        self.grad_slots = self.buffer[size:].reshape(SLOTS, size)
        self.grad = np.zeros(size, dtype=dtype)
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)
        for name, view in flat_views(self.flat, self.layout).items():
            view[...] = params[name]
            params[name] = view
        self.grads = flat_views(self.grad, self.layout)
        self._scratch = np.empty((2, min(size, _CHUNK)), dtype=dtype)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0

    def step(self) -> None:
        """One decoupled-decay Adam update from the gradient buffer ``self.grad``."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        decay = self.lr * self.weight_decay
        for start in range(0, self.flat.size, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            p, g, m, v = self.flat[chunk], self.grad[chunk], self.m[chunk], self.v[chunk]
            s, u = self._scratch[0, : p.size], self._scratch[1, : p.size]
            # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
            np.multiply(m, b1, out=m)
            np.add(m, np.multiply(g, 1.0 - b1, out=s), out=m)
            np.multiply(v, b2, out=v)
            np.multiply(np.multiply(g, 1.0 - b2, out=s), g, out=s)
            np.add(v, s, out=v)
            # p -= (lr * m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(np.divide(m, bc1, out=s), self.lr, out=s)
            np.add(np.sqrt(np.divide(v, bc2, out=u), out=u), self.eps, out=u)
            np.subtract(p, np.divide(s, u, out=s), out=p)
            if self.weight_decay > 0.0:
                np.subtract(p, np.multiply(p, decay, out=s), out=p)

    def first_nonfinite(self) -> str | None:
        """Name of the first parameter, in sorted order, whose gradient holds a non-finite entry."""
        if np.isfinite(self.grad).all():
            return None
        return next(name for name, g in self.grads.items() if not np.isfinite(g).all())
