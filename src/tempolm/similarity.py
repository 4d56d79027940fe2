"""Zero-shot temporal similarity and time-scope estimation.

Zero-shot ranking renders each candidate time point as standalone text
("1994"), takes the position-0 state for it and for the event description,
and ranks candidates by cosine similarity; the top candidate is the
estimated event time. Time-scope estimation takes the two most probable
month classes of a fine-tuned classifier as the (start, end) interval.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .encoder import EncoderConfig, Params, encode_forward, wrap_params
from .errors import ConfigError
from .finetune import FinetunedModel, instance_ids
from .timescale import CorpusSpan, Granularity, TimeLabel, TimePoint, label_to_timepoint
from .vocab import Vocabulary


def embed_text(params: Params, config: EncoderConfig, vocab: Vocabulary, text: str) -> np.ndarray:
    """Position-0 contextual representation of a raw text."""
    ids = instance_ids(vocab, text, config.max_len)
    with ad.no_grad():
        return encode_forward(ids, config, wrap_params(params), rows=[0]).value[0]


def year_vocabulary(first: int, last: int) -> list[TimePoint]:
    """Yearly time points first..last inclusive, e.g. the 1987-2007 21-vector."""
    if last < first:
        raise ConfigError("year range must be ascending")
    return [TimePoint(y, granularity=Granularity.YEAR) for y in range(first, last + 1)]


def zero_shot_similarity(
    params: Params,
    config: EncoderConfig,
    vocab: Vocabulary,
    event_text: str,
    time_vocabulary: list[TimePoint],
) -> list[tuple[TimePoint, float]]:
    """Full descending-similarity ranking over the time vocabulary.

    Ties break toward the earlier time point; the first entry is the
    estimated event time.
    """
    if not time_vocabulary:
        raise ConfigError("time vocabulary must be non-empty")
    event_vec = embed_text(params, config, vocab, event_text)
    scored = []
    for tp in time_vocabulary:
        vec = embed_text(params, config, vocab, tp.render())
        scored.append((tp, cosine_similarity(event_vec, vec)))
    scored.sort(key=lambda pair: (-pair[1], pair[0].sort_key()))
    return scored


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two vectors, computed in float64; 0 if either is zero."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def scope_from_probs(probs: np.ndarray, span: CorpusSpan) -> tuple[TimePoint, TimePoint]:
    """(start, end) months from the two most probable classes.

    Equal probabilities resolve toward the earlier class; a one-hot
    distribution collapses the scope to a single month.
    """
    if len(probs) < 2:
        raise ConfigError("time-scope estimation needs at least two classes")
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    if probs[order[0]] == 1.0:
        peak = label_to_timepoint(TimeLabel(Granularity.MONTH, order[0]), span)
        return peak, peak
    first, second = sorted(order[:2])
    start = label_to_timepoint(TimeLabel(Granularity.MONTH, first), span)
    end = label_to_timepoint(TimeLabel(Granularity.MONTH, second), span)
    return start, end


def estimate_time_scope(
    model: FinetunedModel,
    text: str,
    span: CorpusSpan,
) -> tuple[TimePoint, TimePoint]:
    """Scope of a question from a month-granularity fine-tuned model."""
    if model.n_classes < 2:
        raise ConfigError("time-scope estimation needs at least two classes")
    return scope_from_probs(model.predict_proba(text), span)
