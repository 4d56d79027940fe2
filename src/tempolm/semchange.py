"""Semantic change scoring between two period corpora.

A word's period representation is the mean over its occurrences of the mean
of its subword states; the change score is the cosine distance between the
two period representations. Scores are evaluated against gold shift indices
with the correlation metrics. Period adaptation uses plain uniform masking
(time-aware masking needs document-level temporal annotation that these
sentence corpora lack).
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .annotate import tokenize_raw
from .autodiff import Var
from .encoder import EncoderConfig, Params, encode_forward, multitask_heads, wrap_params
from .encoder import collect_grads  # noqa: F401  # perfbench/layers.py traces this module's binding
from .errors import MissingOccurrencesError, ParseError
from .finetune import instance_ids
from .metrics import metric_pearson, metric_spearman
from .objectives import apply_mask_policy, example_rng, mask_action
from .optim import AdamW
from .pretrain import train_step
from .similarity import cosine_similarity
from .vocab import Vocabulary


class _Sentence:
    """A sentence's case-folded tokens and, once a word needs them, its subword ranges and states."""

    def __init__(self, text: str):
        self.tokens = tokenize_raw(text)
        self.folded = [t.text.lower() for t in self.tokens]
        self.ranges: list[tuple[int, int]] = []
        self.hidden: np.ndarray | None = None

    def states(self, params: Params, config: EncoderConfig, vocab: Vocabulary) -> np.ndarray:
        if self.hidden is None:
            ids = [vocab.cls_id]
            for tok in self.tokens:
                piece = vocab.encode_word(tok.text)
                self.ranges.append((len(ids), len(ids) + len(piece)))
                ids.extend(piece)
            ids.append(vocab.sep_id)
            with ad.no_grad():
                self.hidden = encode_forward(ids[: config.max_len], config, wrap_params(params)).value
        return self.hidden


def word_representation(
    params: Params,
    config: EncoderConfig,
    vocab: Vocabulary,
    word: str,
    sentences: list[str],
    encoded: dict[str, _Sentence] | None = None,
) -> np.ndarray:
    """Mean contextual state of a word over its occurrences (case-folded).

    ``encoded`` keeps each sentence's tokens and states across calls with
    the same parameters: a sentence is encoded the first time a word occurs
    in it, and never again.
    """
    encoded = {} if encoded is None else encoded
    states = []
    target = word.lower()
    for text in sentences:
        sentence = encoded.get(text)
        if sentence is None:
            sentence = encoded[text] = _Sentence(text)
        hits = [i for i, w in enumerate(sentence.folded) if w == target]
        if not hits:
            continue
        hidden = sentence.states(params, config, vocab)
        for i in hits:
            a, b = sentence.ranges[i]
            if b <= len(hidden):
                states.append(hidden[a:b].mean(axis=0))
    if not states:
        raise MissingOccurrencesError(f"{word!r} does not occur in the period corpus")
    return np.mean(states, axis=0)


def semantic_change_score(
    params: Params,
    config: EncoderConfig,
    vocab: Vocabulary,
    word: str,
    sentences_t1: list[str],
    sentences_t2: list[str],
    encoded: dict[str, _Sentence] | None = None,
) -> float:
    """Cosine distance between the two period representations, in [0, 2]."""
    rep1 = word_representation(params, config, vocab, word, sentences_t1, encoded)
    rep2 = word_representation(params, config, vocab, word, sentences_t2, encoded)
    return 1.0 - cosine_similarity(rep1, rep2)


def evaluate_semantic_change(
    params: Params,
    config: EncoderConfig,
    vocab: Vocabulary,
    gold: dict[str, float],
    sentences_t1: list[str],
    sentences_t2: list[str],
) -> tuple[dict[str, float], float, float]:
    """Scores per word plus correlation of scores with the gold indices.

    Each distinct sentence is encoded once, when the first word that occurs
    in it is scored; the scores equal those of separate
    ``semantic_change_score`` calls.
    """
    encoded: dict[str, _Sentence] = {}
    words = sorted(gold)
    scores = {
        word: semantic_change_score(params, config, vocab, word, sentences_t1, sentences_t2, encoded)
        for word in words
    }
    pearson = metric_pearson([scores[w] for w in words], [gold[w] for w in words])
    spearman = metric_spearman([scores[w] for w in words], [gold[w] for w in words])
    return scores, pearson, spearman


def read_gold_shifts(path: str | Path) -> dict[str, float]:
    """Load a ``word<TAB>shift_index`` gold file."""
    gold: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise ParseError("expected word<TAB>shift_index", lineno)
            word, value = line.split("\t", 1)
            try:
                gold[word] = float(value)
            except ValueError:
                raise ParseError(f"bad shift index {value!r}", lineno) from None
    return gold


def adapt_mlm(
    params: Params,
    config: EncoderConfig,
    vocab: Vocabulary,
    sentences: list[str],
    lr: float = 1e-6,
    epochs: int = 1,
    seed: int = 0,
) -> Params:
    """Continual plain-masking adaptation on a period corpus (in place), one step per sentence.

    Each sentence masks 15% of its content positions (at least one) under the 80/10/10 draw.
    """
    optimizer = AdamW(params, lr=lr, weight_decay=0.0)
    for epoch in range(epochs):
        for si, sentence in enumerate(sorted(sentences)):
            rng = example_rng(seed, f"adapt{si}", epoch)
            ids = instance_ids(vocab, sentence, config.max_len)
            content = list(range(1, len(ids) - 1))
            if not content:
                continue
            k = max(1, int(round(0.15 * len(content))))
            picked = sorted(rng.choice(len(content), size=min(k, len(content)), replace=False).tolist())
            actions = {content[idx]: mask_action(rng) for idx in picked}
            corrupted, targets = apply_mask_policy(ids, actions, vocab, rng)
            train_step(params, optimizer, optimizer.t, [partial(_mlm_loss, corrupted, targets, config)])
    return params


def _mlm_loss(
    ids: list[int], targets: dict[int, int], config: EncoderConfig, pvars: dict[str, Var],
) -> tuple[Var, dict[str, float]]:
    """Mean cross-entropy of the MLM head at the ``targets`` positions of one sequence."""
    positions = sorted(targets)
    hidden = encode_forward(ids, config, pvars, rows=positions)
    heads = multitask_heads(hidden, pvars, mlm_positions=list(range(len(positions))))
    loss = ad.cross_entropy(heads["mlm"], np.asarray([targets[p] for p in positions]))
    return loss, {"mlm": float(loss.value)}
