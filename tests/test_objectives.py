import math

import numpy as np
import pytest

from tempolm.annotate import SpanKind, annotate_document
from tempolm.corpus import EntityCalendar, build_entity_calendar
from tempolm.errors import CalendarMissError, ConfigError
from tempolm.lexicon import SignalLexicon
from tempolm.objectives import (
    EntityDecision,
    MaskAction,
    MaskSource,
    Objective,
    SamplingRates,
    SubwordView,
    apply_mask_policy,
    apply_trwr,
    apply_tser,
    build_training_example,
    ceil_rate,
    example_rng,
    example_to_record,
    mask_action,
    sample_etamlm,
    sample_tsemlm,
)
from tempolm.timescale import CorpusSpan, TimePoint, Granularity
from tempolm.vocab import build_vocab

SPAN = CorpusSpan(
    TimePoint(1987, 1, granularity=Granularity.MONTH),
    TimePoint(2007, 6, granularity=Granularity.MONTH),
)

DOC_TEXT = (
    "Before 2006, Tupac Shakur was clear about his plans. "
    "During the 1990s, Mr. Smith played music in 1999. "
    "After 2001, Carol King sang with Bob Dylan on stage."
)


@pytest.fixture(scope="module")
def vocab():
    return build_vocab([DOC_TEXT, "replacement names Antonin Scalia Dan Rather"], target_size=240)


@pytest.fixture()
def doc():
    return annotate_document("doc-1", "2007-05-04", DOC_TEXT)


@pytest.fixture()
def calendar(doc):
    cal = build_entity_calendar([doc])
    cal.add("2007-05", "Antonin Scalia")
    cal.add("2007-05", "Dan Rather")
    return cal


def test_ceil_rate_exact():
    assert ceil_rate(4, 0.3) == 2
    assert ceil_rate(2, 0.3) == 1
    assert ceil_rate(10, 0.3) == 3       # float noise must not push to 4
    assert ceil_rate(20, 0.15) == 3
    assert ceil_rate(0, 0.3) == 0
    assert ceil_rate(1, 0.3) == 1        # at least one span whenever any exists
    assert ceil_rate(200, 0.15) == 30


def test_span_choice_counts(doc, vocab):
    view = SubwordView.build(doc, vocab)
    n_expr = len(doc.spans_of_kind(SpanKind.TEMPORAL_EXPRESSION))
    n_sig = len(doc.spans_of_kind(SpanKind.TEMPORAL_SIGNAL))
    assert n_expr >= 3 and n_sig >= 2
    for seed in range(20):
        decisions = sample_etamlm(view, SamplingRates(), example_rng(seed, doc.id, 0))
        expr_positions = {d.position for d in decisions if d.source is MaskSource.TEMPORAL_EXPRESSION}
        sig_positions = {d.position for d in decisions if d.source is MaskSource.TEMPORAL_SIGNAL}
        chosen_expr = _covering_spans(view, doc, SpanKind.TEMPORAL_EXPRESSION, expr_positions)
        chosen_sig = _covering_spans(view, doc, SpanKind.TEMPORAL_SIGNAL, sig_positions)
        assert len(chosen_expr) == math.ceil(0.3 * n_expr)
        assert len(chosen_sig) == math.ceil(0.3 * n_sig)
        # chosen spans are fully sampled
        for span in chosen_expr | chosen_sig:
            a, b = view.span_range(span)
            assert all(p in expr_positions | sig_positions for p in range(a, b))


def _covering_spans(view, doc, kind, positions):
    chosen = set()
    for span in doc.spans_of_kind(kind):
        a, b = view.span_range(span)
        if any(p in positions for p in range(a, b)):
            chosen.add(span)
    return chosen


def test_budget_is_exact_ceiling(doc, vocab):
    view = SubwordView.build(doc, vocab)
    for seed in range(20):
        decisions = sample_etamlm(view, SamplingRates(), example_rng(seed, doc.id, 0))
        budget = math.ceil(view.n_content * 0.15 - 1e-9)
        span_positions = sum(1 for d in decisions if d.source is not MaskSource.ORDINARY)
        assert len(decisions) == max(budget, span_positions)


def test_unchosen_spans_never_sampled(doc, vocab):
    view = SubwordView.build(doc, vocab)
    for seed in range(30):
        decisions = sample_etamlm(view, SamplingRates(), example_rng(seed, doc.id, 0))
        sampled = {d.position for d in decisions}
        for kind in (SpanKind.TEMPORAL_EXPRESSION, SpanKind.TEMPORAL_SIGNAL):
            for span in doc.spans_of_kind(kind):
                a, b = view.span_range(span)
                inside = [p for p in range(a, b) if p in sampled]
                assert inside == [] or len(inside) == b - a  # all or nothing


def test_ordinary_fill_counts(doc, vocab):
    # with huge temporal rates the budget is already met by spans
    view = SubwordView.build(doc, vocab)
    rates = SamplingRates(expression=1.0, signal=1.0, total=0.01)
    decisions = sample_etamlm(view, rates, example_rng(0, doc.id, 0))
    assert all(d.source is not MaskSource.ORDINARY for d in decisions)


def test_action_frequencies(doc, vocab):
    view = SubwordView.build(doc, vocab)
    counts = {a: 0 for a in MaskAction}
    total = 0
    for seed in range(2500):
        for d in sample_etamlm(view, SamplingRates(), example_rng(seed, doc.id, 0)):
            counts[d.action] += 1
            total += 1
    assert total >= 10000
    assert abs(counts[MaskAction.MASK] / total - 0.8) < 0.02
    assert abs(counts[MaskAction.RANDOM_REPLACE] / total - 0.1) < 0.02
    assert abs(counts[MaskAction.KEEP] / total - 0.1) < 0.02


def test_keyed_streams_first_draws_are_pinned():
    """Each stream keyed through ``example_rng`` draws pinned numbers: pre-training's
    document order, the fine-tuning head and order, and period adaptation."""
    assert example_rng("order", 3, 1).permutation(10).tolist() == [9, 7, 3, 0, 1, 5, 8, 6, 4, 2]
    assert example_rng("finetune", 3, "head").normal(0.0, 0.02, size=3).tolist() == [
        -0.00036760501893039345, -0.03140408761462228, 0.031080509042192127]
    assert example_rng("finetune", 3, "order1").permutation(10).tolist() == [7, 9, 4, 6, 2, 5, 8, 3, 1, 0]
    assert example_rng(3, "adapt0", 1).random(3).tolist() == [0.4740233627158338, 0.673317165116759, 0.78182729019116]
    assert example_rng("order", 3, 1).random() == example_rng("order|3|1").random()  # the key is |-joined


def test_mask_action_is_one_uniform_draw():
    """80/10/10 on one ``rng.random()`` per position: the stream stays in step with the draws."""
    rng, twin = example_rng(4, "d", 0), example_rng(4, "d", 0)
    for _ in range(200):
        u = twin.random()
        expected = MaskAction.MASK if u < 0.8 else MaskAction.RANDOM_REPLACE if u < 0.9 else MaskAction.KEEP
        assert mask_action(rng) is expected


def test_mask_policy_execution(vocab):
    rng = example_rng(3, "x", 0)
    ids = [vocab.cls_id, 10, 11, 12, vocab.sep_id]
    actions = {1: MaskAction.KEEP, 2: MaskAction.MASK, 3: MaskAction.RANDOM_REPLACE}
    new_ids, targets = apply_mask_policy(ids, actions, vocab, rng)
    assert new_ids[1] == 10                      # keep: unchanged, target recorded
    assert new_ids[2] == vocab.mask_id
    assert new_ids[3] != 12 or True              # random draw may collide, target is what matters
    assert not vocab.is_special(new_ids[3])
    assert targets == {1: 10, 2: 11, 3: 12}


def test_mask_policy_all_mask(vocab):
    rng = example_rng(3, "x", 0)
    ids = [7, 8, 9]
    actions = {i: MaskAction.MASK for i in range(3)}
    new_ids, _ = apply_mask_policy(ids, actions, vocab, rng)
    assert new_ids == [vocab.mask_id] * 3


def test_tsemlm_adds_person_spans(doc, vocab):
    view = SubwordView.build(doc, vocab)
    n_persons = len(doc.spans_of_kind(SpanKind.PERSON))
    assert n_persons >= 3
    found_person_mask = 0
    for seed in range(10):
        decisions = sample_tsemlm(view, SamplingRates(), example_rng(seed, doc.id, 0))
        person_positions = {d.position for d in decisions if d.source is MaskSource.PERSON}
        chosen = _covering_spans(view, doc, SpanKind.PERSON, person_positions)
        assert len(chosen) == math.ceil(0.3 * n_persons)
        found_person_mask += len(person_positions)
    assert found_person_mask > 0


def test_tsemlm_equals_etamlm_without_persons(vocab):
    text = "Before 2006 things happened and continued in 1999 without names."
    doc = annotate_document("np", "2007-05-04", text)
    assert doc.spans_of_kind(SpanKind.PERSON) == []
    view = SubwordView.build(doc, vocab)
    a = sample_etamlm(view, SamplingRates(), example_rng(5, doc.id, 0))
    b = sample_tsemlm(view, SamplingRates(), example_rng(5, doc.id, 0))
    assert a == b


def test_tser_eligibility_and_replacement_pool(doc, vocab, calendar):
    view = SubwordView.build(doc, vocab)
    month_set = calendar.get("2007-05")
    for seed in range(40):
        rng = example_rng(seed, doc.id, 0)
        decisions = sample_etamlm(view, SamplingRates(), rng)
        sampled = {d.position for d in decisions}
        targets = apply_tser(view, decisions, calendar, rng)
        persons = {s.surface: s for s in doc.spans_of_kind(SpanKind.PERSON)}
        for t in targets:
            span = persons[t.surface]
            a, b = view.span_range(span)
            assert not any(p in sampled for p in range(a, b))  # exclusion rule
            if t.label == 1:
                assert t.replacement_surface in month_set
                assert t.replacement_surface != t.surface
            else:
                assert t.replacement_surface is None


def test_tser_no_alternative_forced_not_replaced(vocab):
    text = "In 1999, Carol King sang."
    doc = annotate_document("solo", "2001-05-04", text)
    cal = EntityCalendar({"2001-05": {"Carol King"}})
    view = SubwordView.build(doc, vocab)
    for seed in range(10):
        rng = example_rng(seed, doc.id, 0)
        targets = apply_tser(view, [], cal, rng)
        assert all(t.label == 0 for t in targets)


def test_tser_missing_month_raises(doc, vocab):
    view = SubwordView.build(doc, vocab)
    with pytest.raises(CalendarMissError):
        apply_tser(view, [], EntityCalendar(), example_rng(0, doc.id, 0))


def test_trwr_replacement_class_differs(doc, vocab):
    lex = SignalLexicon.default()
    view = SubwordView.build(doc, vocab)
    saw_replacement = False
    for seed in range(30):
        rng = example_rng(seed, doc.id, 0)
        targets = apply_trwr(view, [], lex, rng)
        signals = {s.surface: s for s in doc.spans_of_kind(SpanKind.TEMPORAL_SIGNAL)}
        for t in targets:
            if t.label == 1:
                saw_replacement = True
                original_class = signals[t.surface].relation
                assert lex.classify(t.replacement_surface) is not original_class
    assert saw_replacement


def test_trwr_zero_probability(doc, vocab):
    view = SubwordView.build(doc, vocab)
    targets = apply_trwr(view, [], SignalLexicon.default(), example_rng(0, doc.id, 0), p_replace=1e-12)
    assert targets and all(t.label == 0 for t in targets)


def test_build_example_full_objectives(doc, vocab, calendar):
    ex = build_training_example(
        doc, {Objective.ETAMLM, Objective.DD, Objective.TSER},
        vocab, span=SPAN, calendar=calendar, seed=7, epoch=0,
    )
    assert ex.input_ids[0] == vocab.cls_id
    assert ex.dd_index == 244
    assert ex.mlm_targets
    for pos, original in ex.mlm_targets.items():
        assert 0 < pos < len(ex.input_ids)
    for d in ex.replacement_targets:
        assert 0 < d.sub_start < d.sub_end <= len(ex.input_ids)
        # replacement targets and mask targets never overlap
        assert not any(d.sub_start <= p < d.sub_end for p in ex.mlm_targets)


def test_build_example_replaced_tokens_present(doc, vocab, calendar):
    # force replacement of every eligible entity
    rates = SamplingRates(tser_replace=1.0)
    ex = build_training_example(
        doc, {Objective.ETAMLM, Objective.TSER}, vocab,
        calendar=calendar, rates=rates, seed=3,
    )
    replaced = [d for d in ex.replacement_targets if d.label == 1]
    assert replaced
    for d in replaced:
        segment = ex.input_ids[d.sub_start : d.sub_end]
        expected = []
        from tempolm.annotate import tokenize_raw
        for tok in tokenize_raw(d.replacement_surface):
            expected.extend(vocab.encode_word(tok.text))
        assert segment == expected


def test_build_example_empty_objectives(doc, vocab):
    ex = build_training_example(doc, set(), vocab)
    assert ex.mlm_targets == {} and ex.dd_index is None and ex.replacement_targets == []
    view = SubwordView.build(doc, vocab)
    flat = [i for piece in view.pieces for i in piece]
    assert ex.input_ids == [vocab.cls_id] + flat + [vocab.sep_id]


def test_build_example_deterministic(doc, vocab, calendar):
    kw = dict(vocab=vocab, span=SPAN, calendar=calendar, seed=11, epoch=4)
    a = build_training_example(doc, {Objective.ETAMLM, Objective.DD, Objective.TSER}, **kw)
    b = build_training_example(doc, {Objective.ETAMLM, Objective.DD, Objective.TSER}, **kw)
    assert example_to_record(a) == example_to_record(b)
    c = build_training_example(doc, {Objective.ETAMLM, Objective.DD, Objective.TSER},
                               vocab=vocab, span=SPAN, calendar=calendar, seed=11, epoch=5)
    assert example_to_record(a) != example_to_record(c)


def test_build_example_truncation(doc, vocab, calendar):
    ex = build_training_example(
        doc, {Objective.ETAMLM, Objective.TSER}, vocab,
        calendar=calendar, seed=2, max_len=16,
    )
    assert len(ex.input_ids) == 16
    assert all(p < 16 for p in ex.mlm_targets)
    assert all(d.sub_end <= 16 for d in ex.replacement_targets)


def test_replaced_rate_statistics(vocab):
    # many single-person docs; measure the replaced fraction
    names = ["Alice Walker", "Bob Dylan", "Carol King", "Dan Rather", "Emma Stone"]
    cal = EntityCalendar({"2001-05": set(names)})
    rng_labels = []
    for i in range(4000):
        text = f"In 1999, {names[i % len(names)]} sang."
        doc = annotate_document(f"d{i}", "2001-05-04", text)
        view = SubwordView.build(doc, vocab)
        rng = example_rng(i, doc.id, 0)
        targets = apply_tser(view, [], cal, rng)
        rng_labels.extend(t.label for t in targets)
    assert len(rng_labels) >= 4000
    rate = np.mean(rng_labels)
    assert abs(rate - 0.5) < 0.02


def test_invalid_rates():
    with pytest.raises(ConfigError):
        SamplingRates(total=0.0)
    with pytest.raises(ConfigError):
        SamplingRates(expression=1.5)


def test_entity_decision_invariant():
    with pytest.raises(ConfigError):
        EntityDecision(0, "x", 1, None, MaskSource.PERSON)
    with pytest.raises(ConfigError):
        EntityDecision(0, "x", 0, "y", MaskSource.PERSON)
