"""Minimal reverse-mode automatic differentiation over numpy arrays.

Forward passes build a graph of ``Var`` nodes; ``backward`` walks it once in
reverse topological order with a fixed traversal, so gradient accumulation
order is deterministic. Only the operations the encoder needs are provided;
each op's adjoint is written out by hand and validated against central
finite differences in the test suite. Inside ``no_grad()`` the same ops
record nothing: every node they make is a leaf, so inference builds no tape.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Within the block, ops keep neither parents nor adjoints; recording resumes after it.

    The switch is process-wide, not per thread.
    """
    global _recording
    before, _recording = _recording, False
    try:
        yield
    finally:
        _recording = before


class Var:
    """A graph node holding a value and, after backward, its gradient."""

    __slots__ = ("value", "grad", "parents", "backward_fn")

    def __init__(
        self,
        value: np.ndarray,
        parents: Sequence["Var"] = (),
        backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
    ):
        self.value = np.asarray(value)
        self.grad: np.ndarray | None = None
        if _recording:
            self.parents = tuple(parents)
            self.backward_fn = backward_fn
        else:
            self.parents = ()
            self.backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Var, b: Var) -> Var:
    out = a.value + b.value
    return Var(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def scale(a: Var, s: float) -> Var:
    return Var(a.value * s, (a,), lambda g: (g * s,))


def matmul(a: Var, b: Var) -> Var:
    out = a.value @ b.value

    def backward(g):
        ga = g @ np.swapaxes(b.value, -1, -2)
        gb = np.swapaxes(a.value, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Var(out, (a, b), backward)


def swapaxes(a: Var, ax1: int, ax2: int) -> Var:
    return Var(np.swapaxes(a.value, ax1, ax2), (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    old = a.value.shape
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def gather_rows(table: Var, indices: np.ndarray) -> Var:
    """Row lookup (embeddings, position selection); scatter-add adjoint.

    Both adjoint forms add each row's gradients in index order, so they equal
    ``np.add.at(zeros, indices, g)`` bit for bit, signed zeros included.
    """
    indices = np.asarray(indices)

    def backward(g):
        gt = np.zeros(table.shape, table.value.dtype)
        flat = indices.reshape(-1)
        if flat.size < 2 or (flat[0] >= 0 and (flat[1:] > flat[:-1]).all()):
            gt[indices] += g  # distinct rows: one add each
        else:
            width = math.prod(table.shape[1:])
            elements = (flat.astype(np.intp)[:, None] * width + np.arange(width)).reshape(-1)
            np.add.at(gt.reshape(-1), elements, g.reshape(-1))  # a 1-D scatter is 3-7x faster than rows
        return (gt,)

    return Var(table.value[indices], (table,), backward)


def concat(parts: Sequence[Var], axis: int = -1) -> Var:
    sizes = [p.value.shape[axis] for p in parts]
    out = np.concatenate([p.value for p in parts], axis=axis)

    def backward(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return Var(out, tuple(parts), backward)


def gelu(a: Var) -> Var:
    # tanh approximation and its exact derivative
    x = a.value
    c = np.sqrt(2.0 / np.pi).astype(x.dtype) if hasattr(x, "dtype") else np.sqrt(2.0 / np.pi)
    # x*x*x, not x**3: numpy's float power is ~60x slower on these arrays
    x2 = x * x
    inner = c * (x + 0.044715 * x2 * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = c * (1.0 + 3 * 0.044715 * x2)
        dt = (1.0 - t**2) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return Var(out, (a,), backward)


def layer_norm(x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Normalization over the last axis with learned scale and shift."""
    # sum / d, not np.mean: the same values, without mean's per-call overhead
    d = x.value.shape[-1]
    xc = x.value - x.value.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.value + beta.value

    def backward(g):
        gg = g * gamma.value
        gx = inv * (
            gg
            - gg.sum(axis=-1, keepdims=True) / d
            - xhat * ((gg * xhat).sum(axis=-1, keepdims=True) / d)
        )
        ggamma = _unbroadcast(g * xhat, gamma.shape)
        gbeta = _unbroadcast(g, beta.shape)
        return gx, ggamma, gbeta

    return Var(out, (x, gamma, beta), backward)


def softmax(a: Var, axis: int = -1, mask: np.ndarray | None = None) -> Var:
    """Softmax along ``axis``; ``mask`` is a constant added to the input first.

    A mask entry of -1e9 drives its probability to exactly 0, which also
    zeroes its gradient; the mask itself receives none.
    """
    z = a.value if mask is None else a.value + mask
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return Var(s, (a,), backward)


def cross_entropy(logits: Var, targets: np.ndarray, weights: np.ndarray | None = None) -> Var:
    """Cross-entropy of integer targets against logit rows.

    The mean over rows, or with ``weights`` the weighted sum of the per-row
    losses.
    """
    targets = np.asarray(targets, dtype=np.int64)
    z = logits.value - logits.value.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - logsumexp
    k = targets.shape[0]
    rows = np.arange(k)
    picked = logp[rows, targets]
    if weights is None:
        loss = -picked.mean()
    else:
        w = np.asarray(weights, dtype=logp.dtype)
        loss = -(picked * w).sum()

    def backward(g):
        probs = np.exp(logp)
        probs[rows, targets] -= 1.0
        return (g * probs / k if weights is None else g * probs * w[:, None],)

    return Var(np.asarray(loss, dtype=logits.value.dtype), (logits,), backward)


def add_all(parts: Sequence[Var]) -> Var:
    out = parts[0].value
    for p in parts[1:]:
        out = out + p.value
    return Var(out, tuple(parts), lambda g: tuple(g for _ in parts))


def backward(root: Var) -> None:
    """Accumulate gradients of ``root`` (a scalar) into every reachable Var.

    Consumes the graph: once a node has passed its gradient on, its gradient,
    adjoint and parent links are dropped, so activations are freed as the
    walk goes. Only leaves (nodes without an adjoint) keep their gradient.
    A gradient may be the very array another node holds, so gradients are
    never updated in place.
    """
    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node.backward_fn is None or node.grad is None:
            continue
        grads = node.backward_fn(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g
        node.grad = None
        node.backward_fn = None
        node.parents = ()
