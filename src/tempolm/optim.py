"""AdamW with decoupled weight decay and bias-corrected moments."""

from __future__ import annotations

import numpy as np

from .encoder import Params


class AdamW:
    def __init__(
        self,
        params: Params,
        lr: float = 3e-5,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: Params) -> None:
        """One decoupled-decay Adam update, parameters visited in name order."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name in sorted(self.params):
            p = self.params[name]
            g = grads[name].astype(p.dtype)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay > 0.0:
                p -= self.lr * self.weight_decay * p

    def state_tensors(self) -> Params:
        out: Params = {}
        for name in sorted(self.params):
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out
