import os
import time
from dataclasses import replace

import numpy as np
import pytest

from tempolm import autodiff as ad
from tempolm import packworker
from tempolm import pretrain as pretrain_module
from tempolm.annotate import annotate_document
from tempolm.checkpoint import EncoderCheckpoint
from tempolm.corpus import build_entity_calendar, derive_corpus_span, refine_corpus, split_dataset
from tempolm.datasets import record_to_instance
from tempolm.encoder import (
    EncoderConfig,
    collect_grads,
    encode_forward,
    init_params,
    joint_loss,
    multitask_heads,
    pack_sequences,
    wrap_params,
)
from tempolm.errors import ConfigError, DivergenceError
from tempolm.finetune import LabeledInstance, finetune_classifier
from tempolm.metrics import metric_acc
from tempolm.objectives import Objective
from tempolm.pretrain import PretrainSettings, _example_stream, _has_targets, pack_loss, pretrain
from tempolm.synth import generate_corpus, generate_event_instances
from tempolm.timescale import CorpusSpan, Granularity, TimeLabel, TimePoint
from tempolm.vocab import build_vocab


PARENT = os.getpid()


def _slow_in_the_worker(*args):
    """``pack_loss``, 50 ms slower in the pack worker, so the parent waits for the worker in every step."""
    if os.getpid() != PARENT:
        time.sleep(0.05)
    return pack_loss(*args)


@pytest.fixture(scope="module")
def tiny_setup():
    records = generate_corpus(40, start_year=1999, end_year=2002, seed=2)
    docs = list(refine_corpus(
        annotate_document(r["id"], r["timestamp"], r["text"]) for r in records
    ))
    span = derive_corpus_span(docs)
    calendar = build_entity_calendar(docs)
    vocab = build_vocab([r["text"] for r in records], target_size=256)
    config = EncoderConfig(
        layers=1, hidden_dim=32, heads=2, ffn_dim=48, max_len=64,
        vocab_size=vocab.size, dd_classes=span.class_count(Granularity.MONTH), seed=5,
    )
    return docs, span, calendar, vocab, config


def test_pretrain_loss_decreases(tiny_setup):
    docs, span, calendar, vocab, config = tiny_setup
    settings = PretrainSettings(
        objectives=frozenset({Objective.ETAMLM, Objective.DD, Objective.TSER}),
        seed=1, steps=25, batch_size=8, lr=2e-3,
    )
    _, _, logs = pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
    assert len(logs) == 25
    assert logs[-1].loss < logs[0].loss
    assert all(np.isfinite(l.loss) for l in logs)


def test_pretrain_objective_parts_logged(tiny_setup):
    docs, span, calendar, vocab, config = tiny_setup
    settings = PretrainSettings(
        objectives=frozenset({Objective.ETAMLM, Objective.DD}),
        seed=1, steps=2, batch_size=4, lr=1e-3,
    )
    _, _, logs = pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
    assert "mlm" in logs[0].parts and "dd" in logs[0].parts
    assert "repl" not in logs[0].parts


def test_pretrain_deterministic(tiny_setup):
    docs, span, calendar, vocab, config = tiny_setup
    settings = PretrainSettings(
        objectives=frozenset({Objective.ETAMLM, Objective.DD, Objective.TSER}),
        seed=9, steps=4, batch_size=4, lr=1e-3,
    )
    p1, _, logs1 = pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
    p2, _, logs2 = pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
    assert [l.loss for l in logs1] == [l.loss for l in logs2]
    for name in p1:
        np.testing.assert_array_equal(p1[name], p2[name])


@pytest.mark.parametrize("parallel", [True, False], ids=["worker-on", "worker-off"])
def test_pretrain_builds_each_example_once(tiny_setup, monkeypatch, parallel):
    """Each step's examples are built during the step before; no example past the last step is built."""
    docs, span, calendar, vocab, config = tiny_setup
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1" if parallel else "2")
    packworker.shutdown()  # a worker an earlier test left running
    calls = []
    build = pretrain_module.build_training_example
    monkeypatch.setattr(pretrain_module, "build_training_example", lambda *a, **k: (calls.append(1), build(*a, **k))[1])
    monkeypatch.setattr(pretrain_module, "pack_loss", _slow_in_the_worker)
    settings = PretrainSettings(objectives=frozenset(Objective), seed=2, steps=3, batch_size=8, grad_accum=2, lr=1e-3)
    pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
    assert len(calls) == 3 * 8 * 2
    assert (packworker._proc is not None) == (parallel and len(os.sched_getaffinity(0)) >= 2)
    packworker.shutdown()


def test_pretrain_requires_objectives():
    with pytest.raises(ConfigError):
        PretrainSettings(objectives=frozenset())


def test_gradient_accumulation_matches_larger_batch(tiny_setup):
    docs, span, calendar, vocab, config = tiny_setup
    kw = dict(span=span, calendar=calendar)
    a = PretrainSettings(objectives=frozenset({Objective.DD}), seed=3, steps=3, batch_size=8, grad_accum=1, lr=1e-3)
    b = PretrainSettings(objectives=frozenset({Objective.DD}), seed=3, steps=3, batch_size=4, grad_accum=2, lr=1e-3)
    pa, _, la = pretrain(docs, vocab, config, a, **kw)
    pb, _, lb = pretrain(docs, vocab, config, b, **kw)
    assert [round(l.loss, 10) for l in la] == [round(l.loss, 10) for l in lb]
    for name in pa:
        np.testing.assert_allclose(pa[name], pb[name], rtol=1e-6, atol=1e-7)


def test_pretrain_divergence_raises_before_the_update(tiny_setup):
    docs, span, calendar, vocab, config = tiny_setup
    settings = PretrainSettings(
        objectives=frozenset({Objective.ETAMLM, Objective.DD, Objective.TSER}),
        seed=3, steps=6, batch_size=4, lr=1e4,
    )
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as caught:
        pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
    assert 0 < caught.value.step < 6
    assert f"step {caught.value.step}" in str(caught.value)


def test_packed_step_loss_equals_mean_of_per_example_losses(tiny_setup):
    docs, span, calendar, vocab, config = tiny_setup
    config = replace(config, dtype="float64")
    settings = PretrainSettings(
        objectives=frozenset({Objective.ETAMLM, Objective.DD, Objective.TSER}), seed=4, batch_size=12,
    )
    stream = _example_stream(docs, settings, vocab, span, calendar, None, config.max_len)
    examples = [ex for ex in (next(stream) for _ in range(12)) if _has_targets(ex)]
    params = init_params(config)

    # reference: each example alone, its per-task means summed, then the mean over examples
    losses, grads = [], {name: np.zeros_like(p) for name, p in params.items()}
    for ex in examples:
        pvars = wrap_params(params)
        positions = sorted(ex.mlm_targets)
        spans = [(d.sub_start, d.sub_end - 1) for d in ex.replacement_targets]
        heads = multitask_heads(encode_forward(ex.input_ids, config, pvars), pvars,
                                mlm_positions=positions or None, replacement_spans=spans or None,
                                with_dd=ex.dd_index is not None)
        loss, _ = joint_loss(heads, mlm_targets=[ex.mlm_targets[p] for p in positions] or None,
                             dd_target=ex.dd_index,
                             replacement_labels=[d.label for d in ex.replacement_targets] or None)
        ad.backward(loss)
        losses.append(float(loss.value))
        for name, g in collect_grads(pvars).items():
            grads[name] += g / len(examples)

    packs = pack_sequences([len(ex.input_ids) for ex in examples], config.pack_len)
    assert 1 < len(packs) < len(examples)
    packed, packed_grads = 0.0, {name: np.zeros_like(p) for name, p in params.items()}
    for pack in packs:
        pvars = wrap_params(params)
        loss, _ = pack_loss([examples[i] for i in pack], len(examples), config, pvars)
        ad.backward(loss)
        packed += float(loss.value)
        for name, g in collect_grads(pvars).items():
            packed_grads[name] += g
    assert packed == pytest.approx(np.mean(losses), rel=1e-10)
    for name in params:
        np.testing.assert_allclose(packed_grads[name], grads[name], rtol=1e-7, atol=1e-12, err_msg=name)


def _leak_checkpoint(tiny_setup, steps=60):
    docs, span, calendar, vocab, config = tiny_setup
    settings = PretrainSettings(
        objectives=frozenset({Objective.ETAMLM, Objective.DD}),
        seed=1, steps=steps, batch_size=8, lr=2e-3,
    )
    params, _, _ = pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
    return EncoderCheckpoint(config=config, vocab=vocab, params=params, step=steps)


def test_finetune_single_class_trivial(tiny_setup):
    ckpt = _leak_checkpoint(tiny_setup, steps=3)
    span = CorpusSpan(TimePoint(1999, granularity=Granularity.YEAR), TimePoint(1999, granularity=Granularity.YEAR))
    instances = [
        LabeledInstance(text=f"In 1999 thing {i} happened.", gold=TimeLabel(Granularity.YEAR, 0))
        for i in range(8)
    ]
    model = finetune_classifier(ckpt, instances, instances, n_classes=1, grid=((4, 1e-3, 1),), seed=0)
    assert model.val_acc == 100.0


def test_finetune_divergence_raises(tiny_setup):
    ckpt = _leak_checkpoint(tiny_setup, steps=3)
    instances = [
        LabeledInstance(text=f"In {1999 + i % 2} thing {i} happened.", gold=TimeLabel(Granularity.YEAR, i % 2))
        for i in range(8)
    ]
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        finetune_classifier(ckpt, instances, instances, n_classes=2, grid=((4, 1e6, 3),), seed=0)


def test_finetune_empty_train_raises(tiny_setup):
    ckpt = _leak_checkpoint(tiny_setup, steps=1)
    with pytest.raises(ConfigError):
        finetune_classifier(ckpt, [], [], n_classes=2)


def test_finetune_grid_selection_deterministic(tiny_setup):
    ckpt = _leak_checkpoint(tiny_setup, steps=10)
    year_span = CorpusSpan(
        TimePoint(1999, granularity=Granularity.YEAR), TimePoint(2002, granularity=Granularity.YEAR)
    )
    events = generate_event_instances(40, start_year=1999, end_year=2002, seed=5)
    instances = [record_to_instance(r, Granularity.YEAR, year_span) for r in events]
    train, val, _ = split_dataset(instances, seed=2)
    grid = ((4, 1e-3, 2), (8, 2e-3, 2))
    m1 = finetune_classifier(ckpt, train, val, n_classes=4, grid=grid, seed=3)
    m2 = finetune_classifier(ckpt, train, val, n_classes=4, grid=grid, seed=3)
    assert m1.selected == m2.selected
    assert m1.val_acc == m2.val_acc
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name], m2.params[name])


def test_finetune_learns_leakage_dataset(tiny_setup):
    ckpt = _leak_checkpoint(tiny_setup, steps=60)
    year_span = CorpusSpan(
        TimePoint(1999, granularity=Granularity.YEAR), TimePoint(2002, granularity=Granularity.YEAR)
    )
    events = generate_event_instances(80, start_year=1999, end_year=2002, seed=6)
    instances = [record_to_instance(r, Granularity.YEAR, year_span) for r in events]
    train, val, test = split_dataset(instances, seed=3)
    model = finetune_classifier(ckpt, train, val, n_classes=4, grid=((8, 1e-3, 6),), seed=1)
    preds = [model.predict(i.full_text()) for i in test]
    acc = metric_acc(preds, [i.gold.index for i in test])
    assert acc > 90.0


def test_instance_context_concatenation():
    inst = LabeledInstance(
        text="The summit happened.", gold=TimeLabel(Granularity.YEAR, 0),
        context_timestamp="1999-03-04", context_text="A summit was held.",
    )
    assert inst.full_text() == "The summit happened. 1999-03-04 A summit was held."
