"""Multi-task training examples with deterministic sampling.

Turns an annotated document into a corrupted model input plus targets for
up to five objectives:

- time-aware masking (``etamlm``): choose 30% of temporal-expression spans
  and 30% of temporal-signal spans, mask every token of the chosen spans,
  then fill up with ordinary tokens until 15% of the sequence is sampled;
  unchosen temporal spans are off limits for the fill.
- person masking (``tsemlm``): additionally chooses 30% of person spans,
  same budget logic.
- document dating (``dd``): month class of the publication timestamp.
- entity replacement (``tser``): among person spans untouched by masking,
  replace half with another person from the same publication month and
  ask for a binary replaced/not-replaced decision per span.
- signal replacement (``trwr``): same shape, but temporal signals replaced
  by a lexicon phrase of a different relation class.

All randomness flows from one stream keyed by (seed, document id, epoch),
consumed in a fixed order, so example generation is reproducible and safe
to parallelize over documents.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .annotate import AnnotatedDocument, Span, SpanKind, tokenize_raw
from .corpus import EntityCalendar
from .errors import CalendarMissError, ConfigError
from .lexicon import Relation, SignalLexicon
from .timescale import CorpusSpan, Granularity, timestamp_to_label
from .vocab import Vocabulary


class Objective(str, Enum):
    ETAMLM = "etamlm"
    DD = "dd"
    TSER = "tser"
    TSEMLM = "tsemlm"
    TRWR = "trwr"


class MaskAction(str, Enum):
    MASK = "mask"
    RANDOM_REPLACE = "random"
    KEEP = "keep"


class MaskSource(str, Enum):
    TEMPORAL_EXPRESSION = "expression"
    TEMPORAL_SIGNAL = "signal"
    PERSON = "person"
    ORDINARY = "ordinary"


@dataclass(frozen=True)
class SamplingRates:
    expression: float = 0.30
    signal: float = 0.30
    total: float = 0.15
    person: float = 0.30
    tser_replace: float = 0.50
    trwr_replace: float = 0.50

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"rate {name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class MaskDecision:
    position: int          # subword position, pre-replacement coordinates
    action: MaskAction
    original_id: int
    source: MaskSource


@dataclass(frozen=True)
class EntityDecision:
    """A replaced/not-replaced target over a (person or signal) span."""

    token_index: int       # surface-token start of the span
    surface: str
    label: int             # 1 = replaced
    replacement_surface: str | None
    source: MaskSource
    sub_start: int = -1    # final-sequence subword range, set at assembly
    sub_end: int = -1

    def __post_init__(self):
        if (self.replacement_surface is not None) != (self.label == 1):
            raise ConfigError("replacement surface present iff the span was replaced")


@dataclass
class TrainingExample:
    doc_id: str
    epoch: int
    input_ids: list[int]
    mlm_targets: dict[int, int]            # final position -> original id
    dd_index: int | None
    replacement_targets: list[EntityDecision]
    objectives: frozenset[Objective]


def example_rng(*key) -> np.random.Generator:
    """Stream keyed by the ``|``-joined key, e.g. (seed, doc id, epoch); parallel order cannot matter.

    The one keyed stream of the package: examples use (seed, doc id, epoch),
    pre-training's document order ("order", seed, epoch), fine-tuning
    ("finetune", seed, tag) and period adaptation (seed, "adapt<i>", epoch).
    """
    digest = hashlib.sha256("|".join(map(str, key)).encode("utf-8")).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


def mask_action(rng: np.random.Generator) -> MaskAction:
    """BERT's 80/10/10 draw for one sampled position: mask, random replacement or keep."""
    u = rng.random()
    return MaskAction.MASK if u < 0.8 else MaskAction.RANDOM_REPLACE if u < 0.9 else MaskAction.KEEP


def ceil_rate(count: int, rate: float) -> int:
    """Exact ceil(rate * count) guarded against float representation error."""
    if count <= 0:
        return 0
    return math.ceil(count * rate - 1e-9)


@dataclass
class SubwordView:
    """A document's surface tokens encoded to subwords, spans re-mapped."""

    doc: AnnotatedDocument
    vocab: Vocabulary
    pieces: list[list[int]] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)
    n_content: int = 0

    @staticmethod
    def build(doc: AnnotatedDocument, vocab: Vocabulary) -> "SubwordView":
        view = SubwordView(doc, vocab)
        pos = 0
        for tok in doc.tokens:
            ids = vocab.encode_word(tok.text)
            view.pieces.append(ids)
            view.starts.append(pos)
            pos += len(ids)
        view.n_content = pos
        return view

    def span_range(self, span: Span) -> tuple[int, int]:
        """Subword [start, end) of a token span, pre-replacement coordinates."""
        start = self.starts[span.token_start]
        last = span.token_end - 1
        return start, self.starts[last] + len(self.pieces[last])

    def flat_id(self, position: int) -> int:
        for i in range(len(self.starts) - 1, -1, -1):
            if self.starts[i] <= position:
                return self.pieces[i][position - self.starts[i]]
        raise ConfigError(f"position {position} outside document")


def _choose_spans(spans: list[Span], rate: float, rng: np.random.Generator) -> list[Span]:
    k = ceil_rate(len(spans), rate)
    if k == 0:
        return []
    idx = sorted(rng.choice(len(spans), size=k, replace=False).tolist())
    return [spans[i] for i in idx]


def _sample_masks(
    view: SubwordView,
    rates: SamplingRates,
    rng: np.random.Generator,
    include_persons: bool,
) -> list[MaskDecision]:
    doc = view.doc
    expressions = doc.spans_of_kind(SpanKind.TEMPORAL_EXPRESSION)
    signals = doc.spans_of_kind(SpanKind.TEMPORAL_SIGNAL)
    persons = doc.spans_of_kind(SpanKind.PERSON) if include_persons else []

    chosen: list[tuple[Span, MaskSource]] = []
    chosen += [(s, MaskSource.TEMPORAL_EXPRESSION) for s in _choose_spans(expressions, rates.expression, rng)]
    chosen += [(s, MaskSource.TEMPORAL_SIGNAL) for s in _choose_spans(signals, rates.signal, rng)]
    if include_persons:
        chosen += [(s, MaskSource.PERSON) for s in _choose_spans(persons, rates.person, rng)]

    source_at: dict[int, MaskSource] = {}
    for span, source in chosen:
        a, b = view.span_range(span)
        for p in range(a, b):
            source_at[p] = source

    # unchosen temporal (and, under person masking, person) spans are
    # excluded from the ordinary fill entirely
    blocked: set[int] = set()
    for span in [*expressions, *signals, *persons]:
        a, b = view.span_range(span)
        blocked.update(range(a, b))

    budget = ceil_rate(view.n_content, rates.total)
    extra = max(0, budget - len(source_at))
    pool = [p for p in range(view.n_content) if p not in blocked]
    if extra > 0 and pool:
        take = min(extra, len(pool))
        picked = sorted(rng.choice(len(pool), size=take, replace=False).tolist())
        for i in picked:
            source_at[pool[i]] = MaskSource.ORDINARY

    return [MaskDecision(p, mask_action(rng), view.flat_id(p), source_at[p]) for p in sorted(source_at)]


def sample_etamlm(
    view: SubwordView, rates: SamplingRates, rng: np.random.Generator
) -> list[MaskDecision]:
    """Time-aware masking decisions; empty temporal sets degrade to plain 15%."""
    return _sample_masks(view, rates, rng, include_persons=False)


def sample_tsemlm(
    view: SubwordView, rates: SamplingRates, rng: np.random.Generator
) -> list[MaskDecision]:
    """Person masking on top of time-aware masking, same budget logic."""
    return _sample_masks(view, rates, rng, include_persons=True)


def _replace_spans(
    view: SubwordView,
    decisions: list[MaskDecision],
    kind: SpanKind,
    source: MaskSource,
    alternatives_of: Callable[[Span], list[str]],
    rng: np.random.Generator,
    p_replace: float,
) -> list[EntityDecision]:
    """One replaced/not-replaced decision per ``kind`` span untouched by masking.

    A span replaced with probability ``p_replace`` takes a uniform pick from
    its alternatives; a span without alternatives is not replaced and draws
    nothing.
    """
    sampled = {d.position for d in decisions}
    out: list[EntityDecision] = []
    for span in view.doc.spans_of_kind(kind):
        a, b = view.span_range(span)
        if any(p in sampled for p in range(a, b)):
            continue
        alternatives = alternatives_of(span)
        replaced = bool(alternatives) and rng.random() < p_replace
        replacement = alternatives[int(rng.integers(len(alternatives)))] if replaced else None
        out.append(EntityDecision(span.token_start, span.surface, int(replaced), replacement, source))
    return out


def apply_tser(
    view: SubwordView,
    decisions: list[MaskDecision],
    calendar: EntityCalendar,
    rng: np.random.Generator,
    p_replace: float = 0.5,
) -> list[EntityDecision]:
    """Replacement decisions for person spans untouched by masking.

    Replacements are drawn uniformly from the document month's entity set
    minus the original surface; a span whose month set offers no
    alternative is forced not-replaced.
    """
    month = view.doc.month_key
    if month not in calendar.months:
        raise CalendarMissError(f"no calendar entry for month {month}")
    pool = calendar.months[month]
    return _replace_spans(view, decisions, SpanKind.PERSON, MaskSource.PERSON,
                          lambda span: sorted(pool - {span.surface}), rng, p_replace)


def apply_trwr(
    view: SubwordView,
    decisions: list[MaskDecision],
    lexicon: SignalLexicon,
    rng: np.random.Generator,
    p_replace: float = 0.5,
) -> list[EntityDecision]:
    """Replacement decisions for signal spans untouched by masking.

    A replaced signal takes a uniformly chosen lexicon phrase of a
    different relation class, so the replacement always flips the
    expressed temporal relation.
    """
    by_class: dict[Relation, list[str]] = {}
    for key, relation in sorted(lexicon.entries.items()):
        by_class.setdefault(relation, []).append(" ".join(key))
    relations = sorted(by_class, key=lambda r: r.value)
    return _replace_spans(
        view, decisions, SpanKind.TEMPORAL_SIGNAL, MaskSource.TEMPORAL_SIGNAL,
        lambda span: [phrase for r in relations if r is not span.relation for phrase in by_class[r]],
        rng, p_replace,
    )


def apply_mask_policy(
    input_ids: list[int],
    positions_to_action: dict[int, MaskAction],
    vocab: Vocabulary,
    rng: np.random.Generator,
) -> tuple[list[int], dict[int, int]]:
    """Execute mask/random/keep at the given positions.

    Returns the corrupted ids and a position -> original id target map;
    all three actions record a target. Random replacements draw a uniform
    non-special vocabulary id.
    """
    ids = list(input_ids)
    targets: dict[int, int] = {}
    n_specials = 5
    for position in sorted(positions_to_action):
        action = positions_to_action[position]
        targets[position] = ids[position]
        if action is MaskAction.MASK:
            ids[position] = vocab.mask_id
        elif action is MaskAction.RANDOM_REPLACE:
            ids[position] = n_specials + int(rng.integers(vocab.size - n_specials))
    return ids, targets


def build_training_example(
    doc: AnnotatedDocument,
    objectives: Iterable[Objective],
    vocab: Vocabulary,
    span: CorpusSpan | None = None,
    calendar: EntityCalendar | None = None,
    lexicon: SignalLexicon | None = None,
    rates: SamplingRates = SamplingRates(),
    seed: int = 0,
    epoch: int = 0,
    max_len: int = 128,
) -> TrainingExample:
    """Compose the selected objectives into one training example.

    Order: masking (time-aware, person-extended if requested), then signal
    replacement, then entity replacement, then the dating label. The final
    sequence is [CLS] + corrupted subwords + [SEP], truncated to
    ``max_len``; targets beyond the truncation point are dropped.
    """
    objective_set = frozenset(Objective(o) for o in objectives)
    rng = example_rng(seed, doc.id, epoch)
    view = SubwordView.build(doc, vocab)

    decisions: list[MaskDecision] = []
    if Objective.TSEMLM in objective_set:
        decisions = sample_tsemlm(view, rates, rng)
    elif Objective.ETAMLM in objective_set:
        decisions = sample_etamlm(view, rates, rng)

    trwr_targets: list[EntityDecision] = []
    if Objective.TRWR in objective_set:
        trwr_targets = apply_trwr(view, decisions, lexicon or SignalLexicon.default(), rng, rates.trwr_replace)

    tser_targets: list[EntityDecision] = []
    if Objective.TSER in objective_set:
        if calendar is None:
            raise ConfigError("entity replacement requires an entity calendar")
        tser_targets = apply_tser(view, decisions, calendar, rng, rates.tser_replace)

    targets = trwr_targets + tser_targets
    # a target's span: the first with the target's (token start, surface)
    span_at = {(s.token_start, s.surface): s for s in reversed(doc.spans)}
    replaced = {d.token_index: d for d in targets if d.label}

    # rebuild the subword sequence with replacements; ``at`` is where each
    # surface token, and the end, lands in it
    new_ids: list[int] = []
    old_to_new: dict[int, int] = {}
    at = [0] * (len(view.pieces) + 1)
    pos = resume = 0
    for i, piece in enumerate(view.pieces):
        if i < resume:
            continue
        at[i] = pos
        d = replaced.get(i)
        if d is None:
            base = view.starts[i]
            for _ in piece:
                old_to_new[base] = pos
                base += 1
                pos += 1
            new_ids += piece
        else:
            for tok in tokenize_raw(d.replacement_surface):
                new_ids += vocab.encode_word(tok.text)
            pos = len(new_ids)
            resume = span_at[(i, d.surface)].token_end
    at[-1] = pos

    offset = 1  # [CLS]
    input_ids = [vocab.cls_id] + new_ids + [vocab.sep_id]
    actions = {
        old_to_new[d.position] + offset: d.action
        for d in decisions
        if d.position in old_to_new
    }
    input_ids, mlm_targets = apply_mask_policy(input_ids, actions, vocab, rng)

    dd_index: int | None = None
    if Objective.DD in objective_set:
        if span is None:
            raise ConfigError("document dating requires a corpus span")
        dd_index = timestamp_to_label(doc.timestamp, Granularity.MONTH, span).index

    replacement_targets = [
        EntityDecision(d.token_index, d.surface, d.label, d.replacement_surface, d.source,
                       at[d.token_index] + offset, at[span_at[(d.token_index, d.surface)].token_end] + offset)
        for d in sorted(targets, key=lambda d: d.token_index)
    ]

    if len(input_ids) > max_len:
        input_ids = input_ids[:max_len]
        mlm_targets = {p: t for p, t in mlm_targets.items() if p < max_len}
        replacement_targets = [d for d in replacement_targets if d.sub_end <= max_len]

    return TrainingExample(
        doc_id=doc.id,
        epoch=epoch,
        input_ids=input_ids,
        mlm_targets=mlm_targets,
        dd_index=dd_index,
        replacement_targets=replacement_targets,
        objectives=objective_set,
    )


# -- wire format ------------------------------------------------------------

def example_to_record(ex: TrainingExample) -> dict:
    return {
        "doc_id": ex.doc_id,
        "epoch": ex.epoch,
        "input_ids": ex.input_ids,
        "mlm_targets": [[p, t] for p, t in sorted(ex.mlm_targets.items())],
        "dd_index": ex.dd_index,
        "tser": [[d.sub_start, d.sub_end, d.label] for d in ex.replacement_targets],
        "objectives": sorted(o.value for o in ex.objectives),
    }

