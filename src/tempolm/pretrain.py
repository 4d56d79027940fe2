"""Joint multi-task pre-training loop.

Examples are generated dynamically per epoch (fresh masking stream per
(document, epoch) pair), losses averaged over the effective batch, and
parameters updated with AdamW. Each optimizer step builds all
``batch_size * grad_accum`` of its examples, drops the target-free ones and
packs the rest, in stream order, into sequences of at most
``config.pack_len`` tokens, one forward and backward pass per pack. The loss
stays a mean within each example, then a mean over the step's examples, and
the packs do not depend on how the step splits into micro-batches.
``train_step`` is the optimizer step; fine-tuning and period adaptation use
it with their own pack losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .annotate import AnnotatedDocument
from .autodiff import Var
from .corpus import EntityCalendar
from .encoder import (
    EncoderConfig,
    Params,
    collect_grads,
    encode_forward,
    init_params,
    joint_loss,
    multitask_heads,
    pack_sequences,
    wrap_params,
)
from .errors import ConfigError, DivergenceError
from .lexicon import SignalLexicon
from .objectives import Objective, SamplingRates, TrainingExample, build_training_example
from .optim import AdamW
from .timescale import CorpusSpan


@dataclass
class PretrainSettings:
    objectives: frozenset[Objective]
    rates: SamplingRates = SamplingRates()
    seed: int = 0
    steps: int = 50
    batch_size: int = 8
    grad_accum: int = 1
    lr: float = 3e-5
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.01

    def __post_init__(self):
        if not self.objectives:
            raise ConfigError("pre-training requires a non-empty objective set")


@dataclass
class StepLog:
    step: int
    loss: float
    parts: dict[str, float] = field(default_factory=dict)


def _has_targets(ex: TrainingExample) -> bool:
    return bool(ex.mlm_targets) or ex.dd_index is not None or bool(ex.replacement_targets)


def pack_loss(
    pack: list[TrainingExample], n_eff: int, config: EncoderConfig, pvars: dict[str, Var],
) -> tuple[Var, dict[str, float]]:
    """Forward pass and joint loss of examples packed into one sequence.

    Each row of a head is weighted ``1 / (k * n_eff)``, with ``k`` the
    example's rows on that head, so the loss is the sum over the pack of each
    example's mean per-task loss, divided by the step's ``n_eff`` examples.
    """
    ids: list[int] = []
    mlm_rows, mlm_targets, mlm_weights = [], [], []
    dd_rows, dd_targets = [], []
    spans, labels, repl_weights = [], [], []
    for ex in pack:
        start = len(ids)
        ids.extend(ex.input_ids)
        for p in sorted(ex.mlm_targets):
            mlm_rows.append(start + p)
            mlm_targets.append(ex.mlm_targets[p])
            mlm_weights.append(1.0 / (len(ex.mlm_targets) * n_eff))
        if ex.dd_index is not None:
            dd_rows.append(start)
            dd_targets.append(ex.dd_index)
        for d in ex.replacement_targets:
            spans.append((start + d.sub_start, start + d.sub_end - 1))
            labels.append(d.label)
            repl_weights.append(1.0 / (len(ex.replacement_targets) * n_eff))
    hidden = encode_forward(np.asarray(ids, dtype=np.int64), config, pvars,
                            segments=[len(ex.input_ids) for ex in pack])
    heads = multitask_heads(
        hidden, pvars,
        mlm_positions=mlm_rows or None,
        replacement_spans=spans or None,
        with_dd=bool(dd_rows),
        cls_rows=dd_rows,
    )
    return joint_loss(
        heads,
        mlm_targets=mlm_targets or None,
        dd_target=dd_targets or None,
        replacement_labels=labels or None,
        weights={"mlm": mlm_weights, "dd": [1.0 / n_eff] * len(dd_rows), "repl": repl_weights},
    )


def _example_stream(
    docs: list[AnnotatedDocument],
    settings: PretrainSettings,
    vocab,
    span: CorpusSpan | None,
    calendar: EntityCalendar | None,
    lexicon: SignalLexicon | None,
    max_len: int,
):
    epoch = 0
    while True:
        order_rng = np.random.Generator(np.random.PCG64(hash_order(settings.seed, epoch)))
        for i in order_rng.permutation(len(docs)):
            yield build_training_example(
                docs[int(i)], settings.objectives, vocab,
                span=span, calendar=calendar, lexicon=lexicon,
                rates=settings.rates, seed=settings.seed, epoch=epoch,
                max_len=max_len,
            )
        epoch += 1


def hash_order(seed: int, epoch: int) -> int:
    import hashlib

    digest = hashlib.sha256(f"order|{seed}|{epoch}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def pretrain(
    docs: list[AnnotatedDocument],
    vocab,
    config: EncoderConfig,
    settings: PretrainSettings,
    span: CorpusSpan | None = None,
    calendar: EntityCalendar | None = None,
    lexicon: SignalLexicon | None = None,
    params: Params | None = None,
) -> tuple[Params, AdamW, list[StepLog]]:
    """Run ``settings.steps`` optimizer steps; returns params and loss log."""
    if not docs:
        raise ConfigError("pre-training requires a non-empty corpus")
    if params is None:
        params = init_params(config)
    optimizer = AdamW(params, lr=settings.lr, betas=settings.betas, weight_decay=settings.weight_decay)
    stream = _example_stream(docs, settings, vocab, span, calendar, lexicon, config.max_len)
    logs: list[StepLog] = []
    per_step = settings.batch_size * settings.grad_accum

    for step in range(settings.steps):
        examples = [ex for ex in (next(stream) for _ in range(per_step)) if _has_targets(ex)]
        n_eff = max(len(examples), 1)
        packs = pack_sequences([len(ex.input_ids) for ex in examples], config.pack_len)
        loss, parts = train_step(params, optimizer, step, [
            partial(pack_loss, [examples[i] for i in pack], n_eff, config) for pack in packs
        ])
        logs.append(StepLog(step=step, loss=loss, parts=parts))
    return params, optimizer, logs


def train_step(
    params: Params, optimizer: AdamW, step: int,
    pack_losses: Sequence[Callable[[dict[str, Var]], tuple[Var, dict[str, float]]]],
) -> tuple[float, dict[str, float]]:
    """One optimizer step: the summed gradients of every pack's loss, then AdamW.

    Each of ``pack_losses`` takes freshly wrapped parameters and returns the
    loss of one pack and its per-head parts; the step's loss and parts are
    their sums. A non-finite loss or gradient raises ``DivergenceError``
    before the update, so ``params`` are left as they were.
    """
    grads: Params = {}
    loss = 0.0
    parts_sum: dict[str, float] = {}
    for loss_of in pack_losses:
        pvars = wrap_params(params)
        total, parts = loss_of(pvars)
        ad.backward(total)
        for name, g in collect_grads(pvars).items():
            # never in place: a gradient may be the very array another leaf holds
            grads[name] = grads[name] + g if name in grads else g
        loss += float(total.value)
        for k, v in parts.items():
            parts_sum[k] = parts_sum.get(k, 0.0) + v
    if not grads:  # no pack: the update still decays the moments and weights
        grads = {k: np.zeros_like(v) for k, v in params.items()}
    _check_finite(step, loss, parts_sum, grads)
    optimizer.step(grads)
    return loss, parts_sum


def _check_finite(step: int, loss: float, parts: dict[str, float], grads: Params) -> None:
    """Raise ``DivergenceError`` before a non-finite loss or gradient reaches the weights."""
    if not math.isfinite(loss):
        head = next((k for k, v in sorted(parts.items()) if not math.isfinite(v)), "total")
        raise DivergenceError(step, "loss", f"head '{head}'")
    # the global norm is finite exactly when every entry is
    for name in sorted(grads):
        if not np.isfinite(grads[name]).all():
            raise DivergenceError(step, "gradient norm", f"parameter '{name}'")
