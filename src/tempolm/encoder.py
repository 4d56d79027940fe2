"""Desk-scale transformer encoder with multi-task heads.

A standard bidirectional self-attention stack (pre-norm by default,
post-norm selectable in the config) with learned positional embeddings,
plus three linear heads: token prediction at masked positions, time-class
prediction from position 0, and binary replaced/not-replaced prediction
from concatenated span-boundary states. Joint loss is the unweighted sum
of the per-task mean cross-entropies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, SequenceTooLongError, SpanBoundsError

Params = dict[str, np.ndarray]
Layout = list[tuple[str, tuple[int, ...], slice]]


def param_layout(shapes: Iterable[tuple[str, Sequence[int]]]) -> tuple[Layout, int]:
    """One flat buffer for tensors of these names and shapes, in the order given: each one's part, and the size."""
    layout: Layout = []
    size = 0
    for name, shape in shapes:
        start, size = size, size + math.prod(shape)
        layout.append((name, tuple(shape), slice(start, size)))
    return layout, size


def flat_views(flat: np.ndarray, layout: Layout) -> Params:
    """Each tensor's view into ``flat``, a buffer laid out by ``param_layout``."""
    return {name: flat[part].reshape(shape) for name, shape, part in layout}


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    hidden_dim: int = 128
    heads: int = 4
    ffn_dim: int = 256
    max_len: int = 128
    vocab_size: int = 0
    dd_classes: int = 0
    seed: int = 0
    pre_norm: bool = True
    dtype: str = "float32"

    def __post_init__(self):
        for name, least in (("layers", 0), ("heads", 1), ("hidden_dim", 1), ("ffn_dim", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.hidden_dim % self.heads != 0:
            raise ConfigError(f"hidden_dim {self.hidden_dim} not divisible by heads {self.heads}")
        if self.max_len < 2:
            raise ConfigError("max_len must be >= 2")
        if self.max_len > 512:
            raise ConfigError("max_len is capped at 512")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @property
    def pack_len(self) -> int:
        """Token budget of one packed training sequence (see ``pack_sequences``)."""
        return 2 * self.max_len

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "EncoderConfig":
        return EncoderConfig(**data)


def init_params(config: EncoderConfig) -> Params:
    """Deterministic random initialization from the config seed."""
    if config.vocab_size <= 0:
        raise ConfigError("vocab_size must be set before initializing parameters")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    dt = config.np_dtype
    std = 0.02
    h, f, v = config.hidden_dim, config.ffn_dim, config.vocab_size

    params: Params = {}

    def normal(name, shape):
        params[name] = rng.normal(0.0, std, size=shape).astype(dt)

    def zeros(name, shape):
        params[name] = np.zeros(shape, dtype=dt)

    def ones(name, shape):
        params[name] = np.ones(shape, dtype=dt)

    normal("tok_emb", (v, h))
    normal("pos_emb", (config.max_len, h))
    for l in range(config.layers):
        p = f"layer{l}."
        for m in ("wq", "wk", "wv", "wo"):
            normal(p + "attn." + m, (h, h))
            zeros(p + "attn.b" + m[-1], (h,))
        ones(p + "ln1.gamma", (h,))
        zeros(p + "ln1.beta", (h,))
        normal(p + "ffn.w1", (h, f))
        zeros(p + "ffn.b1", (f,))
        normal(p + "ffn.w2", (f, h))
        zeros(p + "ffn.b2", (h,))
        ones(p + "ln2.gamma", (h,))
        zeros(p + "ln2.beta", (h,))
    ones("final_ln.gamma", (h,))
    zeros("final_ln.beta", (h,))
    normal("mlm.w", (h, v))
    zeros("mlm.b", (v,))
    if config.dd_classes > 0:
        normal("dd.w", (h, config.dd_classes))
        zeros("dd.b", (config.dd_classes,))
    normal("repl.w", (2 * h, 2))
    zeros("repl.b", (2,))
    return params


def _attention(xq: Var, x: Var, pv: dict[str, Var], config: EncoderConfig, mask: np.ndarray | None) -> Var:
    """Self-attention of the rows ``xq`` over keys and values from every row of ``x``."""
    h, heads = config.hidden_dim, config.heads
    dh = h // heads

    def proj(t, w, b):
        return ad.add(ad.matmul(t, pv[w]), pv[b])

    def split_heads(t: Var) -> Var:
        return ad.swapaxes(ad.reshape(t, (t.shape[0], heads, dh)), 0, 1)

    q = split_heads(proj(xq, "attn.wq", "attn.bq"))
    k = split_heads(proj(x, "attn.wk", "attn.bk"))
    v = split_heads(proj(x, "attn.wv", "attn.bv"))
    # a Python float: a numpy float64 scalar would promote float32 scores to float64
    scores = ad.scale(ad.matmul(q, ad.swapaxes(k, 1, 2)), 1.0 / math.sqrt(dh))
    probs = ad.softmax(scores, axis=-1, mask=mask)
    ctx = ad.reshape(ad.swapaxes(ad.matmul(probs, v), 0, 1), (xq.shape[0], h))
    return ad.add(ad.matmul(ctx, pv["attn.wo"]), pv["attn.bo"])


def _ffn(x: Var, pv: dict[str, Var]) -> Var:
    hidden = ad.gelu(ad.add(ad.matmul(x, pv["ffn.w1"]), pv["ffn.b1"]))
    return ad.add(ad.matmul(hidden, pv["ffn.w2"]), pv["ffn.b2"])


_LAYER_PARAMS = tuple(
    f"attn.{kind}{m}" for m in "qkvo" for kind in ("w", "b")
) + ("ln1.gamma", "ln1.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln2.gamma", "ln2.beta")


def _layer(x: Var, pv: dict[str, Var], config: EncoderConfig, mask: np.ndarray | None,
           rows: np.ndarray | None) -> Var:
    """One encoder layer; with ``rows``, the outputs of those rows only, attending over every row."""
    if rows is None:
        xq = x
    else:
        xq = ad.gather_rows(x, rows)
        mask = None if mask is None else mask[rows]
    if config.pre_norm:
        normed = ad.layer_norm(x, pv["ln1.gamma"], pv["ln1.beta"])
        nq = normed if rows is None else ad.gather_rows(normed, rows)
        x = ad.add(xq, _attention(nq, normed, pv, config, mask))
        return ad.add(x, _ffn(ad.layer_norm(x, pv["ln2.gamma"], pv["ln2.beta"]), pv))
    x = ad.layer_norm(ad.add(xq, _attention(xq, x, pv, config, mask)), pv["ln1.gamma"], pv["ln1.beta"])
    return ad.layer_norm(ad.add(x, _ffn(x, pv)), pv["ln2.gamma"], pv["ln2.beta"])


def wrap_params(params: Params) -> dict[str, Var]:
    return {name: Var(arr) for name, arr in params.items()}


def pack_sequences(lengths: Sequence[int], budget: int) -> list[list[int]]:
    """Group sequence indices, in order, into packs of at most ``budget`` tokens.

    A pack closes when the next sequence would overflow it; a sequence longer
    than the budget forms a pack of its own.
    """
    packs: list[list[int]] = []
    used = budget
    for i, n in enumerate(lengths):
        if used + n > budget:
            packs.append([])
            used = 0
        packs[-1].append(i)
        used += n
    return packs


def encode_forward(
    input_ids: list[int] | np.ndarray,
    config: EncoderConfig,
    pvars: dict[str, Var],
    segments: Sequence[int] | None = None,
    rows: Sequence[int] | np.ndarray | None = None,
) -> Var:
    """Hidden states (seq_len, hidden_dim) for one id sequence or a pack of them.

    ``segments`` gives the lengths of the sequences packed end to end into
    ``input_ids``; by default the ids are one sequence. Each segment has its
    own positions from 0 and attends only within itself, so its states equal
    those of the segment encoded alone, up to rounding.

    With ``rows``, the result holds only the states of those rows, in that
    order: the last layer still reads keys and values from every row, but
    its queries, FFN and the final norm run on ``rows`` alone. The states
    equal the matching rows of the full result, up to rounding.
    """
    ids = np.asarray(input_ids, dtype=np.int64)
    n = ids.shape[0]
    lengths = np.asarray([n] if segments is None else segments, dtype=np.int64)
    if lengths.sum() != n or (lengths < 0).any():
        raise ConfigError(f"segment lengths {lengths.tolist()} do not partition {n} ids")
    longest = int(lengths.max()) if lengths.size else 0
    if longest > config.max_len:
        raise SequenceTooLongError(f"sequence of length {longest} exceeds max_len {config.max_len}")
    if n and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise ConfigError("input id outside vocabulary")
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise SpanBoundsError(f"row outside sequence of length {n}")
    starts = np.cumsum(lengths) - lengths
    positions = np.arange(n) - np.repeat(starts, lengths)
    mask = None
    if lengths.size > 1:
        segment_of = np.repeat(np.arange(lengths.size), lengths)
        mask = np.where(segment_of[:, None] == segment_of[None, :], 0.0, -1e9).astype(config.np_dtype)

    x = ad.add(ad.gather_rows(pvars["tok_emb"], ids), ad.gather_rows(pvars["pos_emb"], positions))
    for l in range(config.layers):
        p = f"layer{l}."
        layer = {name: pvars[p + name] for name in _LAYER_PARAMS}
        x = _layer(x, layer, config, mask, rows if l == config.layers - 1 else None)
    if config.layers == 0 and rows is not None:
        x = ad.gather_rows(x, rows)
    if config.pre_norm and config.layers > 0:
        x = ad.layer_norm(x, pvars["final_ln.gamma"], pvars["final_ln.beta"])
    return x


def multitask_heads(
    hidden: Var,
    pvars: dict[str, Var],
    mlm_positions: list[int] | None = None,
    replacement_spans: list[tuple[int, int]] | None = None,
    with_dd: bool = False,
    cls_rows: Sequence[int] = (0,),
) -> dict[str, Var]:
    """Logits for the requested heads.

    ``replacement_spans`` are (first, last) token positions, inclusive, of
    each span; their states are concatenated as the boundary representation.
    A single-token span uses the same state twice. The dating head reads the
    states at ``cls_rows``: position 0 of a single sequence, or the start of
    each dated segment of a pack. All positions are rows of ``hidden``.
    """
    n = hidden.shape[0]
    out: dict[str, Var] = {}
    if mlm_positions:
        pos = np.asarray(mlm_positions, dtype=np.int64)
        if pos.min() < 0 or pos.max() >= n:
            raise SpanBoundsError(f"mlm position outside sequence of length {n}")
        states = ad.gather_rows(hidden, pos)
        out["mlm"] = ad.add(ad.matmul(states, pvars["mlm.w"]), pvars["mlm.b"])
    if with_dd:
        rows = np.asarray(cls_rows, dtype=np.int64)
        if rows.min() < 0 or rows.max() >= n:
            raise SpanBoundsError(f"dating row outside sequence of length {n}")
        out["dd"] = ad.add(ad.matmul(ad.gather_rows(hidden, rows), pvars["dd.w"]), pvars["dd.b"])
    if replacement_spans:
        firsts = np.asarray([s[0] for s in replacement_spans], dtype=np.int64)
        lasts = np.asarray([s[1] for s in replacement_spans], dtype=np.int64)
        if firsts.min() < 0 or lasts.max() >= n or (lasts < firsts).any():
            raise SpanBoundsError(f"replacement span outside sequence of length {n}")
        boundary = ad.concat([ad.gather_rows(hidden, firsts), ad.gather_rows(hidden, lasts)], axis=1)
        out["repl"] = ad.add(ad.matmul(boundary, pvars["repl.w"]), pvars["repl.b"])
    return out


def joint_loss(
    heads: dict[str, Var],
    mlm_targets: list[int] | None = None,
    dd_target: int | Sequence[int] | None = None,
    replacement_labels: list[int] | None = None,
    weights: dict[str, Sequence[float]] | None = None,
) -> tuple[Var, dict[str, float]]:
    """Unweighted sum of per-task cross-entropies; absent tasks add 0.

    Each task's loss is the mean over its rows, or, when ``weights`` has an
    entry for the head, the weighted sum of its per-row losses. A pack uses
    the weights to keep the per-example means. ``dd_target`` is one class,
    or one class per dating row. Returns the total and each present head's
    loss as a float.
    """
    weights = weights or {}
    parts: list[Var] = []
    logged: dict[str, float] = {}
    for head, targets in (("mlm", mlm_targets), ("dd", dd_target), ("repl", replacement_labels)):
        rows = np.atleast_1d(np.asarray([] if targets is None else targets, dtype=np.int64))
        if not rows.size:
            continue
        ce = ad.cross_entropy(heads[head], rows, weights.get(head))
        parts.append(ce)
        logged[head] = float(ce.value)
    if not parts:
        zero = Var(np.asarray(0.0))
        return zero, {}
    total = parts[0] if len(parts) == 1 else ad.add_all(parts)
    return total, logged


def collect_grads(pvars: dict[str, Var]) -> Params:
    return {name: var.grad if var.grad is not None else np.zeros_like(var.value) for name, var in pvars.items()}
