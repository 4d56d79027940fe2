"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Training-based criteria share one session-scoped toy model.
"""

import math
import os
import time

import numpy as np
import pytest

from tempolm import autodiff as ad
from tempolm.annotate import SpanKind, annotate_document
from tempolm.checkpoint import EncoderCheckpoint
from tempolm.cli import main as cli_main
from tempolm.corpus import build_entity_calendar, derive_corpus_span, refine_corpus, split_dataset
from tempolm.datasets import record_to_instance
from tempolm.encoder import (
    EncoderConfig,
    collect_grads,
    encode_forward,
    init_params,
    joint_loss,
    multitask_heads,
    wrap_params,
)
from tempolm.finetune import finetune_classifier
from tempolm.manifest import sha256_file
from tempolm.metrics import (
    metric_map,
    metric_mrr,
    metric_pearson,
    metric_spearman,
    random_guess_baseline,
    two_tailed_ttest,
)
from tempolm.objectives import (
    MaskAction,
    MaskSource,
    Objective,
    SamplingRates,
    SubwordView,
    apply_tser,
    example_rng,
    sample_etamlm,
)
from tempolm.pretrain import PretrainSettings, pretrain
from tempolm.similarity import year_vocabulary, zero_shot_similarity
from tempolm.synth import generate_corpus, generate_event_instances
from tempolm.timescale import CorpusSpan, Granularity, TimePoint
from tempolm.vocab import build_vocab

import json


def report(n: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- shared toy pipeline -------------------------------------------------------

@pytest.fixture(scope="session")
def toy_pipeline():
    records = generate_corpus(200, month_of_year=1, seed=5, datelines_per_year=5)
    docs = list(refine_corpus(
        annotate_document(r["id"], r["timestamp"], r["text"]) for r in records
    ))
    span = derive_corpus_span(docs)
    calendar = build_entity_calendar(docs)
    vocab = build_vocab([r["text"] for r in records], target_size=512)
    config = EncoderConfig(
        layers=2, hidden_dim=96, heads=4, ffn_dim=192, max_len=64,
        vocab_size=vocab.size, dd_classes=span.class_count(Granularity.MONTH), seed=1,
    )
    return records, docs, span, calendar, vocab, config


@pytest.fixture(scope="session")
def trained_model(toy_pipeline):
    records, docs, span, calendar, vocab, config = toy_pipeline
    settings = PretrainSettings(
        objectives=frozenset({Objective.ETAMLM, Objective.DD, Objective.TSER}),
        seed=3, steps=600, batch_size=16, lr=3e-3,
    )
    params, _, logs = pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
    return params, logs


def test_criterion_1_random_guess_reproduction():
    started = time.time()
    rng = np.random.Generator(np.random.PCG64(0))

    golds_year = (np.arange(4200) % 21).tolist()          # uniform gold distribution
    year = random_guess_baseline(21, golds_year, trials=1000, seed=1)
    golds_month = rng.integers(0, 246, size=4000).tolist()
    month = random_guess_baseline(246, golds_month, trials=1000, seed=2)

    elapsed = time.time() - started
    checks = [
        abs(year.acc - 4.76) < 0.2,
        abs(year.mae - 6.98) < 0.3,
        abs(month.acc - 0.41) < 0.05,
        abs(month.mae - 82.0) < 2.0,
        # published random-guess rows fall inside the same tolerances
        abs(year.acc - 4.77) < 0.2,
        abs(year.mae - 6.92) < 0.3,
        abs(month.acc - 0.41) < 0.05,
        abs(month.mae - 81.60) < 2.0,
        elapsed < 10.0,
    ]
    report(1, all(checks),
           f"RG year ACC {year.acc:.2f} MAE {year.mae:.2f}; month ACC {month.acc:.3f} "
           f"MAE {month.mae:.1f}; {elapsed:.1f}s")


def test_criterion_2_class_counts_exact():
    months = CorpusSpan(
        TimePoint(1987, 1, granularity=Granularity.MONTH),
        TimePoint(2007, 6, granularity=Granularity.MONTH),
    ).class_count(Granularity.MONTH)
    days = CorpusSpan(
        TimePoint(1987, 1, 1, granularity=Granularity.DAY),
        TimePoint(2007, 6, 19, granularity=Granularity.DAY),
    ).class_count(Granularity.DAY)
    report(2, months == 246 and days == 7475, f"month classes {months}, day classes {days}")


def _ceil_frac(numer: int, denom: int) -> int:
    return -(-numer // denom)  # exact integer ceiling, independent oracle


def test_criterion_3_masking_statistics():
    started = time.time()
    records = generate_corpus(1000, seed=17, undated_sentence_rate=0.1)
    rates = SamplingRates()
    vocab = build_vocab([r["text"] for r in records[:200]], target_size=400)

    budget_violations = 0
    span_count_violations = 0
    exclusion_violations = 0
    action_counts = {a: 0 for a in MaskAction}
    total_sampled = 0

    docs_views = []
    for rec in records:
        doc = annotate_document(rec["id"], rec["timestamp"], rec["text"])
        docs_views.append((doc, SubwordView.build(doc, vocab)))

    # 25 masking epochs over 1000 docs pushes past 1e5 sampled tokens
    per_doc_checks = []
    for epoch in range(25):
        for i, (doc, view) in enumerate(docs_views):
            decisions = sample_etamlm(view, rates, example_rng(100 + i, doc.id, epoch))
            for d in decisions:
                action_counts[d.action] += 1
            total_sampled += len(decisions)
            if epoch == 0:
                per_doc_checks.append((doc, view, decisions))

    for doc, view, decisions in per_doc_checks:
        expr = doc.spans_of_kind(SpanKind.TEMPORAL_EXPRESSION)
        sig = doc.spans_of_kind(SpanKind.TEMPORAL_SIGNAL)
        sampled = {d.position for d in decisions}

        # exact span-choice counts: ceil(3|T|/10), ceil(3|S|/10)
        chosen_expr = sum(
            1 for s in expr if all(p in sampled for p in range(*view.span_range(s)))
            and any(p in sampled for p in range(*view.span_range(s)))
        )
        chosen_sig = sum(
            1 for s in sig if all(p in sampled for p in range(*view.span_range(s)))
            and any(p in sampled for p in range(*view.span_range(s)))
        )
        if chosen_expr != _ceil_frac(3 * len(expr), 10) or chosen_sig != _ceil_frac(3 * len(sig), 10):
            span_count_violations += 1

        # all-or-nothing per span; unchosen spans contain zero sampled tokens
        for s in expr + sig:
            a, b = view.span_range(s)
            hit = [p for p in range(a, b) if p in sampled]
            if hit and len(hit) != b - a:
                exclusion_violations += 1

        # exact total budget: max(ceil(15n/100), chosen span tokens)
        span_tokens = sum(1 for d in decisions if d.source is not MaskSource.ORDINARY)
        expected = max(_ceil_frac(15 * view.n_content, 100), span_tokens)
        if len(decisions) != expected:
            budget_violations += 1

    frac_mask = action_counts[MaskAction.MASK] / total_sampled
    frac_rand = action_counts[MaskAction.RANDOM_REPLACE] / total_sampled
    frac_keep = action_counts[MaskAction.KEEP] / total_sampled
    elapsed = time.time() - started
    ok = (
        budget_violations == 0
        and span_count_violations == 0
        and exclusion_violations == 0
        and abs(frac_mask - 0.80) < 0.02
        and abs(frac_rand - 0.10) < 0.02
        and abs(frac_keep - 0.10) < 0.02
        and elapsed < 60.0
    )
    report(3, ok,
           f"1000 docs, {total_sampled} sampled tokens, actions "
           f"{frac_mask:.3f}/{frac_rand:.3f}/{frac_keep:.3f}, violations "
           f"{budget_violations}/{span_count_violations}/{exclusion_violations}, {elapsed:.1f}s")


def test_criterion_4_tser_statistics():
    started = time.time()
    records = generate_corpus(4000, seed=23)
    vocab = build_vocab([r["text"] for r in records[:200]], target_size=400)
    docs = [annotate_document(r["id"], r["timestamp"], r["text"]) for r in records]
    calendar = build_entity_calendar(docs)
    rates = SamplingRates()

    eligible = 0
    replaced = 0
    pool_violations = 0
    overlap_violations = 0
    for i, doc in enumerate(docs):
        view = SubwordView.build(doc, vocab)
        rng = example_rng(i, doc.id, 0)
        decisions = sample_etamlm(view, rates, rng)
        sampled = {d.position for d in decisions}
        targets = apply_tser(view, decisions, calendar, rng)
        month_set = calendar.get(doc.month_key)
        persons = {(s.token_start, s.surface): s for s in doc.spans_of_kind(SpanKind.PERSON)}
        for t in targets:
            eligible += 1
            span = persons[(t.token_index, t.surface)]
            a, b = view.span_range(span)
            if any(p in sampled for p in range(a, b)):
                overlap_violations += 1
            if t.label == 1:
                replaced += 1
                if t.replacement_surface not in month_set or t.replacement_surface == t.surface:
                    pool_violations += 1

    rate = replaced / eligible
    elapsed = time.time() - started
    ok = (
        eligible >= 10_000
        and abs(rate - 0.50) < 0.02
        and pool_violations == 0
        and overlap_violations == 0
        and elapsed < 60.0
    )
    report(4, ok,
           f"{eligible} eligible entities, replaced rate {rate:.3f}, "
           f"pool violations {pool_violations}, overlap violations {overlap_violations}, {elapsed:.1f}s")


def test_criterion_5_gradient_check():
    started = time.time()
    config = EncoderConfig(
        layers=2, hidden_dim=32, heads=4, ffn_dim=64, max_len=32,
        vocab_size=64, dd_classes=8, seed=13, dtype="float64",
    )
    params = init_params(config)
    ids = [2, 30, 17, 45, 8, 61, 20, 9, 33, 5]
    mlm_pos, mlm_tgt = [1, 4, 8], [7, 12, 40]
    spans, labels = [(2, 3), (6, 6)], [1, 0]
    dd_tgt = 5

    def loss_of(p):
        pvars = wrap_params(p)
        hidden = encode_forward(ids, config, pvars)
        heads = multitask_heads(hidden, pvars, mlm_positions=mlm_pos,
                                replacement_spans=spans, with_dd=True)
        loss, _ = joint_loss(heads, mlm_targets=mlm_tgt, dd_target=dd_tgt, replacement_labels=labels)
        return loss, pvars

    loss, pvars = loss_of(params)
    ad.backward(loss)
    grads = collect_grads(pvars)

    rng = np.random.Generator(np.random.PCG64(99))
    names = sorted(params)
    h = 1e-5
    worst = 0.0
    for _ in range(60):
        name = names[int(rng.integers(len(names)))]
        idx = int(rng.integers(params[name].size))
        base = params[name].flat[idx]
        params[name].flat[idx] = base + h
        up, _ = loss_of(params)
        params[name].flat[idx] = base - h
        down, _ = loss_of(params)
        params[name].flat[idx] = base
        numeric = (float(up.value) - float(down.value)) / (2 * h)
        analytic = grads[name].flat[idx]
        # denominator floored where central differences hit cancellation noise
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
        worst = max(worst, rel)
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 60.0
    report(5, ok, f"60 coordinates, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_training_sanity():
    started = time.time()
    # 200 repetitive articles over 1999-2002, months embedded in the text
    records = generate_corpus(
        200, start_year=1999, end_year=2002, month_of_year=1, seed=5,
        datelines_per_year=5, compact_banks=True,
    )
    docs = list(refine_corpus(
        annotate_document(r["id"], r["timestamp"], r["text"]) for r in records
    ))
    span = derive_corpus_span(docs)
    calendar = build_entity_calendar(docs)
    vocab = build_vocab([r["text"] for r in records], target_size=512)
    config = EncoderConfig(
        layers=2, hidden_dim=96, heads=4, ffn_dim=192, max_len=64,
        vocab_size=vocab.size, dd_classes=span.class_count(Granularity.MONTH), seed=1,
    )
    settings = PretrainSettings(
        objectives=frozenset({Objective.ETAMLM, Objective.DD, Objective.TSER}),
        seed=3, steps=50, batch_size=32, lr=5e-3,
    )
    params, _, logs = pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
    drop = 1.0 - logs[-1].loss / logs[0].loss

    # subsequent fine-tune on a leakage dataset: gold year verbatim in text
    ckpt = EncoderCheckpoint(config=config, vocab=vocab, params=params, step=50)
    year_span = CorpusSpan(
        TimePoint(1999, granularity=Granularity.YEAR), TimePoint(2002, granularity=Granularity.YEAR)
    )
    events = generate_event_instances(120, start_year=1999, end_year=2002, seed=99)
    instances = [record_to_instance(r, Granularity.YEAR, year_span) for r in events]
    train, val, test = split_dataset(instances, seed=4)
    model = finetune_classifier(ckpt, train, val, n_classes=4, grid=((16, 1e-3, 6),), seed=2)

    elapsed = time.time() - started
    ok = drop >= 0.50 and model.val_acc > 90.0 and elapsed < 600.0
    report(6, ok,
           f"loss {logs[0].loss:.2f} -> {logs[-1].loss:.2f} ({100 * drop:.0f}% drop in 50 steps), "
           f"leakage val ACC {model.val_acc:.1f}, {elapsed:.0f}s")


def test_criterion_7_metric_oracles():
    # brute-force references, written independently of the implementations
    def brute_pearson(x, y):
        n = len(x)
        mx, my = sum(x) / n, sum(y) / n
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
        vx = sum((a - mx) ** 2 for a in x)
        vy = sum((b - my) ** 2 for b in y)
        return cov / math.sqrt(vx * vy)

    def brute_ranks(v):
        return [sum(1 for w in v if w < x) + (sum(1 for w in v if w == x) + 1) / 2.0 for x in v]

    def t_pdf(x, df):
        c = math.gamma((df + 1) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    rng = np.random.Generator(np.random.PCG64(2024))
    worst_corr = worst_rank = worst_mrr = worst_map = worst_p = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n).tolist()
        y = (np.asarray(x) * rng.normal() + rng.normal(size=n)).tolist()
        worst_corr = max(worst_corr, abs(metric_pearson(x, y) - brute_pearson(x, y)))
        worst_rank = max(worst_rank, abs(metric_spearman(x, y) - brute_pearson(brute_ranks(x), brute_ranks(y))))

        ranks = rng.integers(1, 25, size=int(rng.integers(1, 10))).tolist()
        worst_mrr = max(worst_mrr, abs(metric_mrr(ranks) - sum(1.0 / r for r in ranks) / len(ranks)))

        rels = []
        aps = []
        for _ in range(int(rng.integers(1, 5))):
            lst = rng.integers(0, 2, size=int(rng.integers(1, 12))).tolist()
            if not any(lst):
                lst[0] = 1
            rels.append(lst)
            hits, acc = 0, []
            for i, r in enumerate(lst, start=1):
                if r:
                    hits += 1
                    acc.append(hits / i)
            aps.append(sum(acc) / len(acc))
        worst_map = max(worst_map, abs(metric_map(rels) - sum(aps) / len(aps)))

    for _ in range(20):
        a = rng.normal(0, 1, size=int(rng.integers(3, 10))).tolist()
        b = rng.normal(0.5, 2, size=int(rng.integers(3, 10))).tolist()
        t, p = two_tailed_ttest(a, b)
        na, nb = len(a), len(b)
        ma, mb = sum(a) / na, sum(b) / nb
        va = sum((v - ma) ** 2 for v in a) / (na - 1)
        vb = sum((v - mb) ** 2 for v in b) / (nb - 1)
        se2 = va / na + vb / nb
        df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
        grid = np.linspace(-abs(t), abs(t), 200_001)
        p_ref = 1.0 - np.trapezoid([t_pdf(x, df) for x in grid], grid)
        worst_p = max(worst_p, abs(p - p_ref))

    ok = worst_corr < 1e-9 and worst_rank < 1e-9 and worst_mrr < 1e-9 and worst_map < 1e-9 and worst_p < 1e-3
    report(7, ok,
           f"max |err|: pearson {worst_corr:.1e}, spearman {worst_rank:.1e}, "
           f"mrr {worst_mrr:.1e}, map {worst_map:.1e}, p {worst_p:.1e}")


def test_criterion_8_determinism(tmp_path):
    records = generate_corpus(40, start_year=1999, end_year=2002, seed=31)
    raw = tmp_path / "raw.jsonl"
    raw.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")

    def stage(args):
        assert cli_main([str(a) for a in args]) == 0

    hashes = {}
    cpus = os.sched_getaffinity(0)
    for tag in ("a", "b", "c"):
        if tag == "c":  # one CPU: the worker is unusable for every stage
            os.sched_setaffinity(0, {min(cpus)})
        try:
            ann = tmp_path / f"ann_{tag}.jsonl"
            stage(["annotate", "--in", raw, "--out", ann])
            ref = tmp_path / f"ref_{tag}.jsonl"
            stage(["refine", "--in", ann, "--out", ref])
            ex = tmp_path / f"ex_{tag}.jsonl"
            stage(["examples", "--in", ref, "--out", ex, "--objectives", "etamlm,dd,tser", "--seed", 7])
            ckpt = tmp_path / f"model_{tag}.tlm"
            stage(["pretrain", "--in", ref, "--out", ckpt, "--steps", 5, "--batch-size", 4,
                   "--grad-accum", 1, "--lr", "1e-3", "--hidden-dim", 32, "--ffn-dim", 48,
                   "--layers", 1, "--max-len", 64, "--seed", 7])
        finally:
            os.sched_setaffinity(0, cpus)
        hashes[tag] = (sha256_file(ann), sha256_file(ex), sha256_file(ckpt))

    ok = hashes["a"] == hashes["b"] == hashes["c"]
    report(8, ok, f"annotated/example/checkpoint checksums identical across reruns and on one CPU: {ok}")


def test_criterion_9_zero_shot_contract(toy_pipeline, trained_model):
    records, docs, span, calendar, vocab, config = toy_pipeline
    params, _ = trained_model
    vocabulary = year_vocabulary(1987, 2007)

    # held-out event descriptions (separate generator stream from pre-training)
    events = generate_event_instances(42, seed=77)
    full_ranking_ok = True
    top3 = 0
    for ev in events:
        ranking = zero_shot_similarity(params, config, vocab, ev["text"], vocabulary)
        if len(ranking) != 21 or {tp.year for tp, _ in ranking} != set(range(1987, 2008)):
            full_ranking_ok = False
        if int(ev["time"]) in [tp.year for tp, _ in ranking[:3]]:
            top3 += 1
    rate = top3 / len(events)
    ok = full_ranking_ok and rate >= 0.70
    report(9, ok, f"full 21-entry ranking: {full_ranking_ok}, top-3 rate {rate:.2f} over {len(events)} events")
