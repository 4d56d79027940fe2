import math
import re
from collections import Counter

import numpy as np
import pytest

from tempolm.bm25 import BM25, attach_top_document
from tempolm.datasets import derive_task_span, read_task_records, record_to_instance, write_task_records
from tempolm.encoder import EncoderConfig, init_params
from tempolm.errors import ConfigError, MissingOccurrencesError, ParseError
import tempolm.semchange as semchange_mod
from tempolm.semchange import (
    adapt_mlm,
    evaluate_semantic_change,
    read_gold_shifts,
    semantic_change_score,
    word_representation,
)
from tempolm.similarity import (
    cosine_similarity,
    scope_from_probs,
    year_vocabulary,
    zero_shot_similarity,
)
from tempolm.synth import generate_corpus, generate_event_instances
from tempolm.timescale import CorpusSpan, Granularity, TimePoint
from tempolm.vocab import build_vocab

MONTH_SPAN = CorpusSpan(
    TimePoint(1987, 1, granularity=Granularity.MONTH),
    TimePoint(2007, 6, granularity=Granularity.MONTH),
)


@pytest.fixture(scope="module")
def toy_model():
    corpus = [
        "the plane flew over the field in 1994",
        "a chairman presided over the board meeting",
        "the plane was a flat surface for drawing",
        " ".join(str(y) for y in range(1987, 2008)),
    ]
    vocab = build_vocab(corpus, target_size=200)
    config = EncoderConfig(
        layers=1, hidden_dim=24, heads=2, ffn_dim=32, max_len=48,
        vocab_size=vocab.size, dd_classes=4, seed=11,
    )
    return init_params(config), config, vocab


def test_zero_shot_full_ranking(toy_model):
    params, config, vocab = toy_model
    vocabulary = year_vocabulary(1987, 2007)
    assert len(vocabulary) == 21
    ranking = zero_shot_similarity(params, config, vocab, "something happened in 1994", vocabulary)
    assert len(ranking) == 21
    assert {tp.year for tp, _ in ranking} == set(range(1987, 2008))
    sims = [s for _, s in ranking]
    assert sims == sorted(sims, reverse=True)


def test_zero_shot_self_similarity(toy_model):
    params, config, vocab = toy_model
    vocabulary = year_vocabulary(1987, 2007)
    ranking = zero_shot_similarity(params, config, vocab, "1994", vocabulary)
    assert ranking[0][0].year == 1994
    assert abs(ranking[0][1] - 1.0) < 1e-6


def test_zero_shot_empty_vocabulary(toy_model):
    params, config, vocab = toy_model
    with pytest.raises(ConfigError):
        zero_shot_similarity(params, config, vocab, "text", [])


def test_zero_shot_hundred_year_vocabulary(toy_model):
    params, config, vocab = toy_model
    vocabulary = year_vocabulary(1919, 2018)
    assert len(vocabulary) == 100
    ranking = zero_shot_similarity(params, config, vocab, "a thing", vocabulary)
    assert len(ranking) == 100


def test_random_model_zero_shot_near_chance():
    rng = np.random.Generator(np.random.PCG64(0))
    n_vocab, trials = 21, 400
    hits = 0
    for _ in range(trials):
        event = rng.normal(size=8)
        reps = rng.normal(size=(n_vocab, 8))
        sims = [cosine_similarity(event, r) for r in reps]
        gold = int(rng.integers(n_vocab))
        hits += int(np.argmax(sims)) == gold
    rate = hits / trials
    assert abs(rate - 1.0 / n_vocab) < 0.04


def test_cosine_ranking_scale_invariant():
    rng = np.random.Generator(np.random.PCG64(1))
    a = rng.normal(size=16)
    b = rng.normal(size=16)
    assert abs(cosine_similarity(a, b) - cosine_similarity(3.5 * a, 0.25 * b)) < 1e-12


def test_scope_from_probs_two_peaks():
    probs = np.zeros(246)
    # 1994-03 is index (1994-1987)*12 + 2 = 86; 1994-08 is 91
    probs[86] = 0.4
    probs[91] = 0.35
    probs[10] = 0.25
    start, end = scope_from_probs(probs, MONTH_SPAN)
    assert start.render() == "1994-03"
    assert end.render() == "1994-08"


def test_scope_tie_breaks_earlier():
    probs = np.zeros(246)
    probs[91] = 0.5
    probs[86] = 0.5
    start, end = scope_from_probs(probs, MONTH_SPAN)
    assert (start.render(), end.render()) == ("1994-03", "1994-08")


def test_scope_one_hot_collapses():
    probs = np.zeros(246)
    probs[86] = 1.0
    start, end = scope_from_probs(probs, MONTH_SPAN)
    assert start == end
    assert start.render() == "1994-03"


def test_scope_orders_chronologically():
    probs = np.zeros(246)
    probs[91] = 0.6
    probs[86] = 0.4
    start, end = scope_from_probs(probs, MONTH_SPAN)
    assert start.sort_key() <= end.sort_key()


def test_scope_needs_two_classes():
    with pytest.raises(ConfigError):
        scope_from_probs(np.ones(1), MONTH_SPAN)


def test_semantic_change_identical_corpora_zero(toy_model):
    params, config, vocab = toy_model
    sentences = ["the plane flew over the field", "the plane was late"]
    score = semantic_change_score(params, config, vocab, "plane", sentences, list(sentences))
    assert abs(score) < 1e-9


def test_semantic_change_ranks_shifted_word_higher(toy_model):
    params, config, vocab = toy_model
    t1 = [
        "the plane was a flat surface for drawing",
        "the chairman presided over the board",
    ]
    t2 = [
        "the plane flew over the field in 1994",
        "the chairman presided over the board",
    ]
    plane = semantic_change_score(params, config, vocab, "plane", t1, t2)
    chairman = semantic_change_score(params, config, vocab, "chairman", t1, t2)
    assert chairman < 1e-9
    assert plane > chairman


def test_semantic_change_bounds(toy_model):
    params, config, vocab = toy_model
    t1 = ["the plane was a flat surface"]
    t2 = ["the plane flew fast"]
    score = semantic_change_score(params, config, vocab, "plane", t1, t2)
    assert 0.0 <= score <= 2.0


def test_semantic_change_missing_word(toy_model):
    params, config, vocab = toy_model
    with pytest.raises(MissingOccurrencesError):
        word_representation(params, config, vocab, "zeppelin", ["no such word here"])


@pytest.mark.parametrize("lr, epochs, message", [
    (-1e-3, 1, "adaptation lr must be finite and > 0, got -0.001"),
    (0.0, 1, "adaptation lr must be finite and > 0, got 0.0"),
    (float("nan"), 1, "adaptation lr must be finite and > 0, got nan"),
    (float("inf"), 1, "adaptation lr must be finite and > 0, got inf"),
    (1e-3, -1, "adaptation epochs must be >= 0, got -1"),
], ids=["lr-negative", "lr-0", "lr-nan", "lr-inf", "epochs-negative"])
def test_adapt_mlm_refuses_a_bad_setting_before_any_update(toy_model, lr, epochs, message):
    params, config, vocab = toy_model
    params = {k: v.copy() for k, v in params.items()}
    before = {k: v.tobytes() for k, v in params.items()}
    with pytest.raises(ConfigError, match=re.escape(message)):
        adapt_mlm(params, config, vocab, ["the plane flew over the field in 1994"], lr=lr, epochs=epochs)
    assert {k: v.tobytes() for k, v in params.items()} == before


SEMCHANGE_T1 = [
    "the plane was a flat surface for drawing",
    "the chairman presided over the board",
    "the plane was a flat surface for drawing",
    "a meadow without any scored word",
]
SEMCHANGE_T2 = [
    "the plane flew over the field in 1994",
    "the chairman presided over the board",
    "the board met the chairman of the plane maker",
]
SEMCHANGE_GOLD = {"plane": 0.9, "chairman": 0.1, "board": 0.3, "over": 0.5}


def test_evaluate_semantic_change_equals_uncached_scores_bitwise(toy_model):
    params, config, vocab = toy_model
    scores, _, _ = evaluate_semantic_change(params, config, vocab, SEMCHANGE_GOLD, SEMCHANGE_T1, SEMCHANGE_T2)
    assert list(scores) == sorted(SEMCHANGE_GOLD)
    for word, score in scores.items():
        alone = semantic_change_score(params, config, vocab, word, SEMCHANGE_T1, SEMCHANGE_T2)
        assert np.float64(score).tobytes() == np.float64(alone).tobytes(), word


def test_evaluate_semantic_change_encodes_each_sentence_once(toy_model, monkeypatch):
    params, config, vocab = toy_model
    encoded = []
    forward = semchange_mod.encode_forward

    def counting(ids, *args, **kwargs):
        encoded.append(tuple(ids))
        return forward(ids, *args, **kwargs)

    monkeypatch.setattr(semchange_mod, "encode_forward", counting)
    evaluate_semantic_change(params, config, vocab, SEMCHANGE_GOLD, SEMCHANGE_T1, SEMCHANGE_T2)
    # the 4 distinct sentences that hold a gold word, once each; the meadow is never encoded
    assert len(encoded) == len(set(encoded)) == 4
    encoded.clear()
    semantic_change_score(params, config, vocab, "plane", SEMCHANGE_T1, SEMCHANGE_T2)
    # scored alone, "plane" encodes the 3 distinct sentences that hold it, the repeat in T1 once
    assert len(encoded) == len(set(encoded)) == 3


def test_gold_shift_file(tmp_path):
    p = tmp_path / "gold.tsv"
    p.write_text("plane\t0.882\nchairman\t0\n", encoding="utf-8")
    gold = read_gold_shifts(p)
    assert gold == {"plane": 0.882, "chairman": 0.0}
    bad = tmp_path / "bad.tsv"
    bad.write_text("plane 0.882\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_gold_shifts(bad)


def test_gold_shift_file_comments(tmp_path):
    p = tmp_path / "gold.tsv"
    p.write_text("# word<TAB>shift\nplane\t0.882  # from the survey\n\n   # indented note\nchairman\t0\n", encoding="utf-8")
    assert read_gold_shifts(p) == {"plane": 0.882, "chairman": 0.0}


def test_bm25_ranks_term_overlap_first():
    docs = [
        "the treaty was signed in 1994 by the leaders",
        "a festival of music opened in 1999",
        "the council debated the budget in 2001",
    ]
    ranker = BM25(docs)
    top = ranker.top_k("treaty signed leaders", k=3)
    assert top[0][0] == 0
    assert top[0][1] > top[1][1]


def _plain_scan_scores(docs, query, k1=1.2, b=0.75):
    """BM25 written as one pass over every document and every query term."""
    tfs = [Counter(re.findall(r"\w+", d.lower())) for d in docs]
    lens = [sum(tf.values()) for tf in tfs]
    avg = sum(lens) / len(docs)
    df = Counter(t for tf in tfs for t in tf)
    idf = {t: math.log((len(docs) - n + 0.5) / (n + 0.5) + 1.0) for t, n in df.items()}
    out = []
    for tf, dl in zip(tfs, lens):
        norm = k1 * (1.0 - b + b * dl / avg) if avg else k1
        s = 0.0
        for term in re.findall(r"\w+", query.lower()):
            f = tf.get(term)
            if f:
                s += idf.get(term, 0.0) * f * (k1 + 1.0) / (f + norm)
        out.append(s)
    return out


def test_bm25_scores_equal_the_plain_scan_bit_for_bit():
    records = generate_corpus(80, start_year=1990, end_year=2005, seed=5)
    docs = [r["text"] for r in records] + ["", "1999 1999 1999"]
    queries = [e["text"] for e in generate_event_instances(20, start_year=1990, end_year=2005, seed=6)]
    queries += ["the the THE 1999 1999", "zzyzx unknownterm", "", "1999 zzyzx in the 1999"]
    ranker = BM25(docs)
    for query in queries:
        expected = _plain_scan_scores(docs, query)
        assert ranker.scores(query) == expected
        best = sorted(range(len(docs)), key=lambda i: (-expected[i], i))[:3]
        assert ranker.top_k(query, 3) == [(i, expected[i]) for i in best]


def test_bm25_tie_goes_to_the_lower_index():
    ranker = BM25(["alpha beta", "gamma delta", "alpha beta"])
    assert ranker.top_k("alpha", 1)[0][0] == 0
    assert ranker.top_k("unknown", 2) == [(0, 0.0), (1, 0.0)]


def test_bm25_attach_top_document():
    corpus = [
        {"id": "a", "timestamp": "1994-05-01", "text": "the treaty was signed in 1994"},
        {"id": "b", "timestamp": "1999-07-01", "text": "a festival of music opened in 1999"},
    ]
    instances = [{"text": "when was the treaty signed", "time": "1994"}]
    out = attach_top_document(instances, corpus)
    assert out[0]["context_timestamp"] == "1994-05-01"
    assert "treaty" in out[0]["context_text"]


def test_task_records_roundtrip(tmp_path):
    records = [
        {"text": "a thing in 1994", "time": "1994"},
        {"text": "another in May 1999", "time": "1999-05", "context_timestamp": "1999-05-02", "context_text": "ctx"},
    ]
    p = tmp_path / "task.jsonl"
    write_task_records(records, p)
    back = list(read_task_records(p))
    assert back == records


def test_record_to_instance_and_span():
    records = [{"text": "x", "time": "1994"}, {"text": "y", "time": "1999"}]
    span = derive_task_span(records)
    assert span.class_count(Granularity.YEAR) == 6
    inst = record_to_instance(records[1], Granularity.YEAR, span)
    assert inst.gold.index == 5


def test_task_record_validation(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"text": "no time"}\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        list(read_task_records(p))
    assert "line 1" in str(err.value)
    p.write_text("5\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        list(read_task_records(p))
