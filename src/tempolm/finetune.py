"""Time-classification fine-tuning with grid search.

A softmax head over the position-0 state is appended to a pre-trained
encoder and the whole model is trained with cross-entropy. Hyperparameters
are selected by grid search on validation accuracy; ties resolve to the
earlier grid point, so selection is deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .checkpoint import EncoderCheckpoint
from .encoder import EncoderConfig, Params, encode_forward, pack_sequences, wrap_params
from .encoder import collect_grads  # noqa: F401  # perfbench/layers.py traces this module's binding
from .errors import ConfigError
from .objectives import example_rng
from .optim import AdamW
from .packworker import PackWorker
from .pretrain import train_step
from .timescale import TimeLabel
from .vocab import Vocabulary


@dataclass(frozen=True)
class LabeledInstance:
    """A text with a gold time label; optionally a retrieved context."""

    text: str
    gold: TimeLabel
    context_timestamp: str | None = None
    context_text: str | None = None

    def full_text(self) -> str:
        return model_text(self.text, self.context_timestamp, self.context_text)


def model_text(text: str, context_timestamp: str | None, context_text: str | None) -> str:
    """The text a model reads: ``text``, then the context's timestamp and text if a context is attached."""
    if context_text is None:
        return text
    stamp = f" {context_timestamp}" if context_timestamp else ""
    return f"{text}{stamp} {context_text}"


DEFAULT_GRID: tuple[tuple[int, float, int], ...] = tuple(
    (bs, lr, ep) for bs, lr, ep in product((16, 32), (2e-5, 5e-5), (5, 10, 15))
)


def instance_ids(vocab: Vocabulary, text: str, max_len: int) -> list[int]:
    from .annotate import tokenize_raw

    ids = [vocab.cls_id]
    for tok in tokenize_raw(text):
        ids.extend(vocab.encode_word(tok.text))
    ids.append(vocab.sep_id)
    return ids[:max_len]


@dataclass
class FinetunedModel:
    config: EncoderConfig
    vocab: Vocabulary
    params: Params           # encoder weights plus cls.w / cls.b head
    n_classes: int
    selected: tuple[int, float, int] | None = None
    val_acc: float | None = None

    def predict_proba(self, text: str) -> np.ndarray:
        ids = instance_ids(self.vocab, text, self.config.max_len)
        with ad.no_grad():
            pvars = wrap_params(self.params)
            cls_state = encode_forward(ids, self.config, pvars, rows=[0])
            logits = ad.add(ad.matmul(cls_state, pvars["cls.w"]), pvars["cls.b"]).value[0]
        z = logits - logits.max()
        e = np.exp(z)
        return e / e.sum()

    def predict(self, text: str) -> int:
        return int(np.argmax(self.predict_proba(text)))


def _train_one(
    base_params: Params,
    config: EncoderConfig,
    train_ids: list[list[int]],
    train_golds: list[int],
    n_classes: int,
    batch_size: int,
    lr: float,
    epochs: int,
    seed: int,
) -> Params:
    params = {k: v.copy() for k, v in base_params.items()}
    head_rng = example_rng("finetune", seed, "head")
    params["cls.w"] = head_rng.normal(0.0, 0.02, size=(config.hidden_dim, n_classes)).astype(config.np_dtype)
    params["cls.b"] = np.zeros(n_classes, dtype=config.np_dtype)
    optimizer = AdamW(params, lr=lr, weight_decay=0.01)
    n = len(train_ids)
    with PackWorker(optimizer) as worker:
        for epoch in range(epochs):
            order = example_rng("finetune", seed, f"order{epoch}").permutation(n).tolist()
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                packs = pack_sequences([len(train_ids[i]) for i in batch], config.pack_len)
                # each example's loss weighted 1/len(batch): the batch mean
                train_step(params, optimizer, optimizer.t, [
                    partial(_cls_loss, [train_ids[batch[j]] for j in pack], [train_golds[batch[j]] for j in pack],
                            1.0 / len(batch), config)
                    for pack in packs
                ], worker)
    return params


def _cls_loss(
    seqs: list[list[int]], golds: list[int], weight: float, config: EncoderConfig, pvars: dict[str, Var],
) -> tuple[Var, dict[str, float]]:
    """Cross-entropy of the CLS head over sequences packed into one, each row weighted ``weight``."""
    segments = [len(ids) for ids in seqs]
    cls_state = encode_forward(np.concatenate(seqs), config, pvars, segments=segments,
                               rows=np.cumsum(segments) - segments)
    logits = ad.add(ad.matmul(cls_state, pvars["cls.w"]), pvars["cls.b"])
    loss = ad.cross_entropy(logits, golds, np.full(len(seqs), weight))
    return loss, {"cls": float(loss.value)}


def _accuracy(model: FinetunedModel, instances: list[LabeledInstance]) -> float:
    if not instances:
        return 0.0
    correct = sum(1 for inst in instances if model.predict(inst.full_text()) == inst.gold.index)
    return 100.0 * correct / len(instances)


def finetune_classifier(
    checkpoint: EncoderCheckpoint,
    train: list[LabeledInstance],
    val: list[LabeledInstance],
    n_classes: int,
    grid: tuple[tuple[int, float, int], ...] = DEFAULT_GRID,
    seed: int = 0,
) -> FinetunedModel:
    """Grid search (batch size, learning rate, epochs) on validation ACC."""
    if not train:
        raise ConfigError("fine-tuning requires a non-empty training set")
    if n_classes < 1:
        raise ConfigError("n_classes must be >= 1")
    config = checkpoint.config
    vocab = checkpoint.vocab
    train_ids = [instance_ids(vocab, inst.full_text(), config.max_len) for inst in train]
    train_golds = [inst.gold.index for inst in train]
    if any(g >= n_classes for g in train_golds):
        raise ConfigError("gold label outside the class range")

    best: FinetunedModel | None = None
    for combo_idx, (batch_size, lr, epochs) in enumerate(grid):
        params = _train_one(
            checkpoint.params, config, train_ids, train_golds,
            n_classes, batch_size, lr, epochs, seed,
        )
        model = FinetunedModel(config, vocab, params, n_classes, (batch_size, lr, epochs))
        model.val_acc = _accuracy(model, val)
        if best is None or model.val_acc > best.val_acc:
            best = model
    return best
