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
from .objectives import Objective, SamplingRates, TrainingExample, build_training_example, example_rng
from .optim import AdamW
from .packworker import PackWorker
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
        check_schedule(self.lr, steps=self.steps, batch_size=self.batch_size, grad_accum=self.grad_accum)


def check_schedule(lr: float, where: str = "", **counts: int) -> None:
    """A training run's settings: every count at least 1, ``lr`` finite and above 0."""
    for name, value in counts.items():
        if value < 1:
            raise ConfigError(f"{where}{name} must be >= 1, got {value}")
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigError(f"{where}lr must be finite and > 0, got {lr}")


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
    firsts = [a for a, _ in spans]
    lasts = [b for _, b in spans]
    # only the rows some head reads, sorted (np.unique would import numpy.ma); head positions index them
    read = np.asarray(sorted({*mlm_rows, *dd_rows, *firsts, *lasts}), dtype=np.int64)
    hidden = encode_forward(np.asarray(ids, dtype=np.int64), config, pvars,
                            segments=[len(ex.input_ids) for ex in pack], rows=read)

    def at(positions):
        return np.searchsorted(read, positions).tolist()

    heads = multitask_heads(
        hidden, pvars,
        mlm_positions=at(mlm_rows) or None,
        replacement_spans=list(zip(at(firsts), at(lasts))) or None,
        with_dd=bool(dd_rows),
        cls_rows=at(dd_rows),
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
        for i in example_rng("order", settings.seed, epoch).permutation(len(docs)):
            yield build_training_example(
                docs[int(i)], settings.objectives, vocab,
                span=span, calendar=calendar, lexicon=lexicon,
                rates=settings.rates, seed=settings.seed, epoch=epoch,
                max_len=max_len,
            )
        epoch += 1


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

    with PackWorker(optimizer) as worker:
        for step in range(settings.steps):
            examples = [ex for ex in (next(stream) for _ in range(per_step)) if _has_targets(ex)]
            n_eff = max(len(examples), 1)
            packs = pack_sequences([len(ex.input_ids) for ex in examples], config.pack_len)
            loss, parts = train_step(params, optimizer, step, [
                partial(pack_loss, [examples[i] for i in pack], n_eff, config) for pack in packs
            ], worker)
            logs.append(StepLog(step=step, loss=loss, parts=parts))
    return params, optimizer, logs


def train_step(
    params: Params, optimizer: AdamW, step: int,
    pack_losses: Sequence[Callable[[dict[str, Var]], tuple[Var, dict[str, float]]]],
    worker: PackWorker | None = None,
) -> tuple[float, dict[str, float]]:
    """One optimizer step: the summed gradients of every pack's loss, then AdamW.

    Each of ``pack_losses`` takes freshly wrapped parameters and returns the
    loss of one pack and its per-head parts; the step's loss and parts are
    their sums. The gradients are summed in pack order into the optimizer's
    flat gradient buffer; with a ``worker``, its child computes every other
    pack of the step, and the sum is the same to the bit. A non-finite loss
    or gradient raises ``DivergenceError`` before the update, so ``params``
    are left as they were. Every error stops the worker, so a failed run
    leaves no process behind and the next step forks afresh.
    """
    grads = optimizer.grads
    loss = 0.0
    parts_sum: dict[str, float] = {}
    remote: set[int] = set()
    try:
        if worker is not None:
            remote = worker.begin(pack_losses)
        for j, loss_of in enumerate(pack_losses):
            if j in remote:
                total, parts = worker.add_next(optimizer.grad)
            else:
                pvars = wrap_params(params)
                root, parts = loss_of(pvars)
                ad.backward(root)
                for name, g in collect_grads(pvars).items():
                    if j:
                        np.add(grads[name], g, out=grads[name])
                    else:  # copied, not added to zeros: 0.0 + -0.0 is 0.0
                        np.copyto(grads[name], g)
                total = float(root.value)
            loss += total
            for k, v in parts.items():
                parts_sum[k] = parts_sum.get(k, 0.0) + v
        if not pack_losses:  # no pack: the update still decays the moments and weights
            optimizer.grad.fill(0.0)
        _check_finite(step, loss, parts_sum, optimizer)
    except BaseException:
        if worker is not None:
            worker.close(kill=True)  # its pipe may also hold the aborted step
        raise
    optimizer.step()
    return loss, parts_sum


def _check_finite(step: int, loss: float, parts: dict[str, float], optimizer: AdamW) -> None:
    """Raise ``DivergenceError`` before a non-finite loss or gradient reaches the weights."""
    if not math.isfinite(loss):
        head = next((k for k, v in sorted(parts.items()) if not math.isfinite(v)), "total")
        raise DivergenceError(step, "loss", f"head '{head}'")
    # the global norm is finite exactly when every entry is
    name = optimizer.first_nonfinite()
    if name is not None:
        raise DivergenceError(step, "gradient norm", f"parameter '{name}'")
