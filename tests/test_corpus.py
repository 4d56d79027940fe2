import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from tempolm import objectives
from tempolm.annotate import SpanKind, annotate_document
from tempolm.corpus import (
    EntityCalendar,
    build_entity_calendar,
    derive_corpus_span,
    document_to_record,
    read_documents,
    read_raw_records,
    record_to_document,
    refine_corpus,
    refine_document,
    split_dataset,
    write_documents,
)
from tempolm.errors import ParseError
from tempolm.lexicon import SignalLexicon
from tempolm.synth import generate_corpus
from tempolm.timescale import Granularity
from tempolm.vocab import build_vocab


def make_doc(doc_id="d1", ts="2007-05-04", text="Before 2006, Tupac Shakur quit. No dates here. Again in 1999 he returned."):
    return annotate_document(doc_id, ts, text)


def test_refine_keeps_only_dated_sentences():
    doc = make_doc()
    assert len(doc.sentence_bounds) == 3
    refined = refine_document(doc)
    assert refined is not None
    assert len(refined.sentence_bounds) == 2  # middle sentence dropped
    n_expr = len(refined.spans_of_kind(SpanKind.TEMPORAL_EXPRESSION))
    assert n_expr == len(doc.spans_of_kind(SpanKind.TEMPORAL_EXPRESSION))


def test_refine_drops_undated_document():
    doc = make_doc(text="Nothing temporal at all. Truly nothing.")
    assert refine_document(doc) is None
    assert list(refine_corpus([doc])) == []


def test_refine_identity_when_all_sentences_dated():
    doc = make_doc(text="Before 2006 he quit. In 1999 he returned.")
    refined = refine_document(doc)
    assert [t.text for t in refined.tokens] == [t.text for t in doc.tokens]


def test_refine_idempotent():
    doc = make_doc()
    once = refine_document(doc)
    twice = refine_document(once)
    assert document_to_record(once) == document_to_record(twice)


def test_refine_rebases_spans():
    doc = make_doc()
    refined = refine_document(doc)
    for s in refined.spans:
        surface_from_tokens = refined.text[
            refined.tokens[s.token_start].char_start : refined.tokens[s.token_end - 1].char_end
        ]
        assert surface_from_tokens == s.surface


def test_calendar_single_doc():
    doc = make_doc(text="In 2006, Tupac Shakur met Mr. Smith.")
    cal = build_entity_calendar([doc])
    assert cal.get("2007-05") == {"Tupac Shakur", "Mr. Smith"}


def test_calendar_empty_corpus():
    assert build_entity_calendar([]).months == {}


def test_calendar_union_same_month():
    d1 = make_doc("a", text="In 2006 Alice Walker spoke.")
    d2 = make_doc("b", text="In 2007 Bob Dylan sang.")
    cal = build_entity_calendar([d1, d2])
    brute = set()
    for d in (d1, d2):
        for s in d.spans_of_kind(SpanKind.PERSON):
            brute.add(s.surface)
    assert cal.get("2007-05") == brute


def test_calendar_membership_invariant():
    docs = [
        make_doc("a", "2001-02-03", "In 1999 Alice Walker met Bob Dylan."),
        make_doc("b", "2001-02-20", "By 2000 Carol King left."),
        make_doc("c", "2001-03-05", "After 2000 Dan Aykroyd arrived."),
    ]
    cal = build_entity_calendar(docs)
    for d in docs:
        for s in d.spans_of_kind(SpanKind.PERSON):
            assert s.surface in cal.get(d.month_key)


def test_calendar_merge_is_keyed_union():
    a = EntityCalendar({"2001-02": {"X"}, "2001-03": {"Y"}})
    b = EntityCalendar({"2001-02": {"Z"}})
    merged = a.merge(b)
    assert merged.months == {"2001-02": {"X", "Z"}, "2001-03": {"Y"}}


def test_calendar_json_roundtrip(tmp_path):
    cal = EntityCalendar({"2001-02": {"B", "A"}})
    p = tmp_path / "cal.json"
    cal.save(p)
    assert EntityCalendar.load(p).months == cal.months


def test_annotated_record_roundtrip(tmp_path):
    doc = make_doc()
    rec = document_to_record(doc)
    back = record_to_document(json.loads(json.dumps(rec)))
    assert document_to_record(back) == rec
    p = tmp_path / "ann.jsonl"
    write_documents([doc], p)
    docs = list(read_documents(p))
    assert len(docs) == 1
    assert document_to_record(docs[0]) == rec


def test_raw_record_validation(tmp_path):
    p = tmp_path / "raw.jsonl"
    p.write_text('{"id": "a", "text": "x"}\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        list(read_raw_records(p))
    assert "line 1" in str(err.value)
    assert list(read_raw_records(p, skip_bad=True)) == []


def test_derive_corpus_span():
    docs = [make_doc("a", "1999-05-01"), make_doc("b", "2003-11-30")]
    span = derive_corpus_span(docs)
    assert span.start.render() == "1999-05"
    assert span.end.render() == "2003-11"
    assert span.class_count(Granularity.MONTH) == 55


def test_split_sizes_100():
    train, val, test = split_dataset(list(range(100)), seed=1)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    assert sorted(train + val + test) == list(range(100))


def test_split_sizes_7():
    train, val, test = split_dataset(list(range(7)), seed=1)
    assert (len(train), len(val), len(test)) == (5, 0, 2)


def test_split_deterministic():
    a = split_dataset(list(range(50)), seed=9)
    b = split_dataset(list(range(50)), seed=9)
    assert a == b
    c = split_dataset(list(range(50)), seed=10)
    assert a != c


# words that open every kind of span, mixed with arbitrary text
_texts = st.lists(
    st.sampled_from([
        "In", "in", "1999", "the", "1990s", "'", "90s", "May", "4th", ",", ".", "!", "of", "Mr.", "Dr", "J.",
        "U.S.", "Smith", "Tupac", "Shakur", "before", "prior", "to", "since", "early", "-", "summer", "Winter",
        "2006-05-04", "12/25/1999", "\n", "\u00e9t\u00e9",
    ]) | st.text(max_size=6),
    max_size=40,
).map(" ".join)


@given(_texts)
def test_annotated_record_round_trip_returns_an_equal_document(text):
    doc = annotate_document("d", "2001-02-03", text)
    assert record_to_document(json.loads(json.dumps(document_to_record(doc)))) == doc


@given(_texts)
def test_refine_is_idempotent_on_arbitrary_text(text):
    once = refine_document(annotate_document("d", "2001-02-03", text))
    if once is not None:
        assert refine_document(once) == once


def _sha256(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def pinned_corpus():
    """A seeded 150-doc corpus annotated, refined and read back from its records, with its calendar and vocabularies."""
    lexicon = SignalLexicon.default()
    records = generate_corpus(150, seed=11, sentences_per_doc=4, undated_sentence_rate=0.2)
    docs = [annotate_document(r["id"], r["timestamp"], r["text"], lexicon=lexicon) for r in records]
    lines = [json.dumps(document_to_record(d), sort_keys=True, ensure_ascii=False)
             for d in refine_corpus(docs)]
    kept = [record_to_document(json.loads(line)) for line in lines]
    span, calendar = derive_corpus_span(kept), build_entity_calendar(kept)
    below, above = (build_vocab([d.text for d in kept], target_size=size) for size in (200, 512))
    return dict(lexicon=lexicon, lines=lines, kept=kept, span=span, calendar=calendar, below=below, above=above)


def _example_lines(corpus, objective_set, rates=objectives.SamplingRates(), max_len=64):
    return [json.dumps(objectives.example_to_record(objectives.build_training_example(
        d, objective_set, corpus["above"], span=corpus["span"], calendar=corpus["calendar"], lexicon=corpus["lexicon"],
        rates=rates, seed=5, max_len=max_len)), sort_keys=True) for d in corpus["kept"]]


def test_ingest_pipeline_bytes_are_pinned(pinned_corpus):
    """Annotate, refine, record round trip, vocabulary and one epoch of examples on a
    seeded corpus write pinned bytes: a speed-up of any stage must leave them as they are."""
    lines, below, above = pinned_corpus["lines"], pinned_corpus["below"], pinned_corpus["above"]
    assert below.named_size == 200 and above.named_size < 512  # 512 lies past the last possible merge
    joint = {objectives.Objective.ETAMLM, objectives.Objective.DD, objectives.Objective.TSER}
    examples = _example_lines(pinned_corpus, joint)
    assert (len(lines), _sha256(lines)) == (150, "9123cff6ab9b13c5cdf4fbc32d10f123dd8880656d2675e243b1394eec8661a6")
    assert _sha256([below.dumps(), above.dumps()]) == "1dc5e8cb3bde418d854c5092a37d9730426dc3e59cceb492f8cffa19e00dfdd7"
    assert _sha256(examples) == "ca2f69887d4f1da00b893693f3b16d9588fef33d9adcb5bccb35a910bc4e9b36"


_FORCED = objectives.SamplingRates(tser_replace=1.0, trwr_replace=1.0)


@pytest.mark.parametrize("rates, max_len, kept_targets, digest", [
    (objectives.SamplingRates(), 64, 548, "62ec7ee09abefa91412ef7bb79f118575d1aebb1ea4ed1dc2c3f3bbd3ba9cf51"),
    (_FORCED, 64, 548, "87dc9fdc742ee82203d84008f4c0923aab06e28dd8c3d90bbf8825c30f2efae5"),
    (_FORCED, 24, 334, "54b7e66d4b9c63fae64081c811f88ab737823fd6c7f67109ebe60019a1b53619"),  # truncation drops 214
])
def test_all_objective_example_bytes_are_pinned(pinned_corpus, rates, max_len, kept_targets, digest):
    """All five objectives, so masking, signal and person replacement and the re-assembled
    sequence around replaced spans are pinned, at default and forced replacement rates."""
    examples = _example_lines(pinned_corpus, set(objectives.Objective), rates, max_len)
    assert sum(len(json.loads(line)["tser"]) for line in examples) == kept_targets
    assert _sha256(examples) == digest
