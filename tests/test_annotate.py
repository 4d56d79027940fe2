import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from tempolm.annotate import (
    SpanKind,
    annotate_document,
    split_sentences,
    tag_persons_heuristic,
    tag_temporal_expressions,
    tag_temporal_signals,
    tokenize_raw,
)
from tempolm.corpus import document_to_record, refine_document
from tempolm.errors import AnnotationAlignmentError, NotInLexiconError, TimestampParseError
from tempolm.lexicon import Relation, SignalLexicon
from tempolm.timescale import Granularity


def texts(tokens):
    return [t.text for t in tokens]


def test_tokenize_empty():
    assert tokenize_raw("") == []


def test_tokenize_sentence():
    assert texts(tokenize_raw("Before 2006, he quit.")) == ["Before", "2006", ",", "he", "quit", "."]


def test_tokenize_decade_phrase():
    assert texts(tokenize_raw("the 1990s")) == ["the", "1990s"]


def test_tokenize_initialism_kept_whole():
    assert texts(tokenize_raw("Notorious B.I.G. sang")) == ["Notorious", "B.I.G.", "sang"]


@given(st.text(max_size=200))
def test_tokenize_offsets_partition_nonspace(text):
    tokens = tokenize_raw(text)
    covered = []
    last_end = 0
    for t in tokens:
        assert t.char_start >= last_end
        assert text[t.char_start : t.char_end] == t.text
        assert text[last_end : t.char_start].strip() == ""  # only separators between tokens
        covered.append((t.char_start, t.char_end))
        last_end = t.char_end
    assert text[last_end:].strip() == ""
    # reconstruction with original separators
    rebuilt = []
    pos = 0
    for s, e in covered:
        rebuilt.append(text[pos:s])
        rebuilt.append(text[s:e])
        pos = e
    rebuilt.append(text[pos:])
    assert "".join(rebuilt) == text


@pytest.mark.parametrize(
    "text,expect_surface,expect_norm",
    [
        ("in 2006", "2006", "2006"),
        ("the 1990s", "the 1990s", "1990s"),
        ("May 4, 2007", "May 4, 2007", "2007-05-04"),
        ("May 2007", "May 2007", "2007-05"),
        ("2007-05-04", "2007-05-04", "2007-05-04"),
        ("on 5/4/2007", "5/4/2007", "2007-05-04"),
        ("summer 2006", "summer 2006", "2006"),
        ("early 1990s", "early 1990s", "1990s"),
        ("late 2006", "late 2006", "2006"),
    ],
)
def test_expression_patterns(text, expect_surface, expect_norm):
    tokens = tokenize_raw(text)
    spans = tag_temporal_expressions(tokens, text)
    assert len(spans) == 1
    assert spans[0].surface == expect_surface
    assert spans[0].normalized is not None
    assert spans[0].normalized.render() == expect_norm


def test_expression_granularities():
    spans = tag_temporal_expressions(tokenize_raw("in 2006"), "in 2006")
    assert spans[0].normalized.granularity is Granularity.YEAR
    spans = tag_temporal_expressions(tokenize_raw("the 1990s"), "the 1990s")
    assert spans[0].normalized.granularity is Granularity.DECADE
    assert spans[0].normalized.year == 1990
    spans = tag_temporal_expressions(tokenize_raw("May 4, 2007"), "May 4, 2007")
    assert spans[0].normalized.granularity is Granularity.DAY


def test_expression_unanchored_month_day():
    spans = tag_temporal_expressions(tokenize_raw("May 4"), "May 4")
    assert len(spans) == 1
    assert spans[0].normalized is None


def test_short_decade_tagged_unnormalized():
    text = "the '90s"
    spans = tag_temporal_expressions(tokenize_raw(text), text)
    assert len(spans) == 1
    assert spans[0].surface == "the '90s"
    assert spans[0].normalized is None


def test_no_expressions_in_plain_text():
    text = "he quit his job and moved away"
    assert tag_temporal_expressions(tokenize_raw(text), text) == []


def test_longest_match_wins():
    text = "in early 1990s bands formed"
    spans = tag_temporal_expressions(tokenize_raw(text), text)
    assert [s.surface for s in spans] == ["early 1990s"]


def test_signal_before_year():
    text = "Before 2006"
    tokens = tokenize_raw(text)
    spans = tag_temporal_signals(tokens, SignalLexicon.default(), text=text)
    signals = [s for s in spans if s.kind is SpanKind.TEMPORAL_SIGNAL]
    assert len(signals) == 1
    assert signals[0].surface == "Before"
    assert signals[0].relation is Relation.BEFORE


def test_signal_during_unrestricted():
    text = "during the war"
    spans = tag_temporal_signals(tokenize_raw(text), SignalLexicon.default(), text=text)
    assert [s.surface for s in spans] == ["during"]
    assert spans[0].relation is Relation.OVERLAP


def test_signal_multiword():
    text = "prior to the vote"
    spans = tag_temporal_signals(tokenize_raw(text), SignalLexicon.default(), text=text)
    assert [s.surface for s in spans] == ["prior to"]
    assert spans[0].relation is Relation.BEFORE


def test_overlapping_lexicon_phrases_match_leftmost_longest_without_overlap():
    lex = SignalLexicon()
    lex.add("at the", Relation.OVERLAP)
    lex.add("the end of", Relation.BEFORE)
    lex.add("of", Relation.AFTER)
    text = "at the end of the war, then the end of it"
    spans = tag_temporal_signals(tokenize_raw(text), lex, text=text)
    assert [(s.surface, s.relation) for s in spans] == [
        ("at the", Relation.OVERLAP), ("of", Relation.AFTER), ("the end of", Relation.BEFORE),
    ]


def test_restricted_preposition_requires_expression():
    lex = SignalLexicon.default()
    with_expr = "in 2006"
    spans = tag_temporal_signals(tokenize_raw(with_expr), lex, text=with_expr)
    assert [s.surface for s in spans] == ["in"]
    without = "in the house"
    assert tag_temporal_signals(tokenize_raw(without), lex, text=without) == []


def test_signals_suppressed_inside_expressions():
    # "May 4, 2007" contains no separate signal; "on" before it is restricted and fires
    text = "on May 4, 2007"
    spans = tag_temporal_signals(tokenize_raw(text), SignalLexicon.default(), text=text)
    assert [s.surface for s in spans] == ["on"]


def test_classify_signal():
    lex = SignalLexicon.default()
    assert lex.classify("after") is Relation.AFTER
    assert lex.classify("before") is Relation.BEFORE
    assert lex.classify("in") is Relation.OVERLAP
    with pytest.raises(NotInLexiconError):
        lex.classify("zweiundvierzig")


def test_lexicon_file_roundtrip(tmp_path):
    path = tmp_path / "signals.tsv"
    path.write_text("# comment\nbefore\tBEFORE\nprior to\tAFTER\n", encoding="utf-8")
    lex = SignalLexicon.load(path)
    assert lex.classify("prior to") is Relation.AFTER
    lex.save(tmp_path / "out.tsv")
    again = SignalLexicon.load(tmp_path / "out.tsv")
    assert again.entries == lex.entries


def test_person_heuristic_honorific():
    text = "Mr. Smith said so"
    spans = tag_persons_heuristic(tokenize_raw(text), text)
    assert [s.surface for s in spans] == ["Mr. Smith"]


def test_person_heuristic_bigram():
    text = "with Tupac Shakur on stage"
    spans = tag_persons_heuristic(tokenize_raw(text), text)
    assert [s.surface for s in spans] == ["Tupac Shakur"]


def test_person_heuristic_initialism_run():
    text = "then Notorious B.I.G. arrived"
    spans = tag_persons_heuristic(tokenize_raw(text), text)
    assert [s.surface for s in spans] == ["Notorious B.I.G."]


def test_person_heuristic_resumes_after_each_span():
    text = "John F. Kennedy met Mr. John Smith Jones"
    spans = tag_persons_heuristic(tokenize_raw(text), text)
    assert [s.surface for s in spans] == ["John F. Kennedy", "Mr. John Smith Jones"]


def test_person_heuristic_lowercase_yields_nothing():
    text = "all lowercase words here"
    assert tag_persons_heuristic(tokenize_raw(text), text) == []


def test_person_external_snapping():
    text = "A tribute to Tupac Shakur aired."
    start = text.index("Tupac")
    end = start + len("Tupac Shakur")
    doc = annotate_document("d1", "2007-05-04", text, persons=[(start, end, "Tupac Shakur")])
    persons = doc.spans_of_kind(SpanKind.PERSON)
    assert [p.surface for p in persons] == ["Tupac Shakur"]


def test_person_external_out_of_bounds():
    text = "short"
    with pytest.raises(AnnotationAlignmentError):
        annotate_document("d1", "2007-05-04", text, persons=[(0, 99, "x")])


def test_sentence_splitting_basic():
    tokens = tokenize_raw("He left in 1999. She stayed. All was well.")
    bounds = split_sentences(tokens)
    assert len(bounds) == 3


def test_sentence_splitting_abbreviation():
    tokens = tokenize_raw("Mr. Smith left. She stayed.")
    bounds = split_sentences(tokens)
    assert len(bounds) == 2


def test_annotate_document_composition():
    doc = annotate_document("d1", "2007-05-04", "Before 2006, he quit.")
    assert doc.timestamp.render() == "2007-05-04"
    assert len(doc.spans_of_kind(SpanKind.TEMPORAL_SIGNAL)) == 1
    assert len(doc.spans_of_kind(SpanKind.TEMPORAL_EXPRESSION)) == 1


def test_annotate_empty_text():
    doc = annotate_document("d1", "2007-05-04", "")
    assert doc.tokens == [] and doc.spans == [] and doc.sentence_bounds == []


def test_annotate_bad_timestamp():
    with pytest.raises(TimestampParseError):
        annotate_document("d1", "2007-13-01", "text")


def test_annotation_deterministic():
    text = "Before 2006, Mr. Smith quit his job in May 2007. The 1990s were better."
    a = annotate_document("d", "2007-05-04", text)
    b = annotate_document("d", "2007-05-04", text)
    assert a.tokens == b.tokens and a.spans == b.spans and a.sentence_bounds == b.sentence_bounds


def test_spans_disjoint_per_kind_and_signals_avoid_expressions():
    text = "Before 2006 and during May 4, 2007 the band played in 1999 with Tupac Shakur."
    doc = annotate_document("d", "2007-05-04", text)
    for kind in SpanKind:
        spans = doc.spans_of_kind(kind)
        positions = set()
        for s in spans:
            rng = set(range(s.token_start, s.token_end))
            assert not (rng & positions)
            positions |= rng
    expr = {
        i for s in doc.spans_of_kind(SpanKind.TEMPORAL_EXPRESSION)
        for i in range(s.token_start, s.token_end)
    }
    sig = {
        i for s in doc.spans_of_kind(SpanKind.TEMPORAL_SIGNAL)
        for i in range(s.token_start, s.token_end)
    }
    assert not (expr & sig)


def test_spans_confined_to_sentences():
    text = "He spoke of 1999. Smith Jones nodded."
    doc = annotate_document("d", "2007-05-04", text)
    for s in doc.spans:
        assert any(a <= s.token_start and s.token_end <= b for a, b in doc.sentence_bounds)


# Hand-written documents that reach every tagger and splitter branch: both date layouts (and
# impossible dates), month phrases, decades, seasons, edge modifiers, restricted and multi-word
# signals, honorifics, initialisms and initials, abbreviations, closers after terminal
# punctuation, curly quotes, non-ASCII capitals and digits, and empty text.
_COVERAGE_DOCS = [
    ("c01", "2007-05-04", "The deal closed on 2007-05-04 in Paris. A bad date, 2007-13-45, was ignored. "
                          "Nothing else happened that week."),
    ("c02", "1999-12-31", "Filed 5/4/2007 and again on 12/25/1999! Was 13/45/2001 a typo? "
                          "Smith Jones said 1/2/3 was not a date."),
    ("c03", "2007-06-01", "On May 4, 2007 the band played. They returned May 4th 2007 and on May 4. "
                          "In January of 1999 it rained, and by March 2005 it dried. Sept 31, 2001 never came."),
    ("c04", "2001-01-01", "Music of the 1990s and the 1980s faded. The '90s and the ’70s were loud; "
                          "'60s songs lasted. Prices rose in the 2000s."),
    ("c05", "2006-09-01", "In summer of 2006 and Winter 1999 we met. The autumn 2001 storms, the fall of 2004, "
                          "and spring were mild."),
    ("c06", "1995-03-03", "It grew in the mid-1980s, early 2006 and late the 1990s. Sales dipped in the "
                          "early-2000 slump and mid 1999. Late 1990s growth followed."),
    ("c07", "2008-02-02", "We stayed in the house. We left in 2006, by May 2007, from 1999 and at 5/4/2007. "
                          "The talks went on and on until 2001."),
    ("c08", "2003-04-05", "Prior to the 1990s and prior to May it was calm. It lasted throughout 2002, "
                          "amid 1998 and since 1997. Following 2003, they were before them."),
    ("c09", "2010-10-10", "Mr. Smith met Dr Jones and President Barack Obama. Judge Judy Sheindlin, Sen. "
                          "Ted Kennedy and Mrs. Clinton spoke in 2010."),
    ("c10", "1954-07-29", "J.R.R. Tolkien and George W. Bush met J. K. Rowling. U.S. officials and "
                          "Notorious B.I.G. came in 1954."),
    ("c11", "1977-08-16", "Gen. Lee left Acme Inc. on Monday. St. Louis beat Smith vs. Jones in 1977. "
                          "Dr. No. 5 was filmed e.g. in Jan. 1962 or so."),
    ("c12", "1999-01-01", "He said \"it ended in 1999.\" Then he left. (See 2001.) The end came in 2002! "
                          "“Bye in 2003.” She left in 2004. ‘It was 2005?’ Maybe."),
    ("c13", "2002-02-02", "Émile Zola wrote in Été 2002. ٣/4/2007 was written in "
                          "Arabic digits. É. Smith met Anna Karenina."),
    ("c14", "2005-05-05", "No dates here at all. Just Tupac Shakur singing. And nothing more."),
    ("c15", "2011-11-11", "Monday Smith and Winter Jones met The Beatles in March. Before 2011, John F. "
                          "Kennedy met Mr. John Smith Jones."),
    ("c16", "1985-06-15", "During the 1985 tour, after 1984 and until 1986, they played. by 1980 no. "
                          "4 they were done. see? 1987 was next."),
    ("c17", "2000-01-01", ""),
    ("c18", "2004-04-04", "   \n\t  "),
]
# external person annotations (character offsets), one of them overlapping another
_COVERAGE_PERSONS = {
    "c09": [[0, 9, "Mr. Smith"], [14, 22, "Dr Jones"], [14, 17, "Dr "]],
    "c14": [[24, 36, "Tupac Shakur"]],
    "c16": [],
}
# the default lexicon plus longer, overlapping, sentence-crossing and punctuation phrases
_EXTRA_PHRASES = [("in the wake of", "AFTER"), ("as of", "OVERLAP"), ("no", "BEFORE"), ("the end of", "BEFORE"),
                  ("of", "AFTER"), (".", "OVERLAP"), ("he left . (", "AFTER")]


def _custom_lexicon():
    lex = SignalLexicon.default()
    for phrase, relation in _EXTRA_PHRASES:
        lex.add(phrase, Relation(relation))
    return lex


def test_pattern_coverage_bytes_are_pinned():
    """Annotated and refined records of the coverage documents, in heuristic and external person
    mode and under both lexicons, keep the bytes the annotator wrote before it read token columns."""
    lines = []
    for lex in (None, _custom_lexicon()):
        for doc_id, timestamp, text in _COVERAGE_DOCS:
            for persons in [None] + ([_COVERAGE_PERSONS[doc_id]] if doc_id in _COVERAGE_PERSONS else []):
                doc = annotate_document(doc_id, timestamp, text, persons=persons, lexicon=lex)
                for d in (doc, refine_document(doc)):
                    lines.append(json.dumps(document_to_record(d), sort_keys=True, ensure_ascii=False) if d else "null")
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()
    assert (len(lines), digest) == (84, "33d12b4ce624e1c10684a786d1feb06075208a1eec5b420e92b4672356e3cc44")


def _composed(text, lexicon):
    """The spans ``annotate_document`` documents, composed from the public taggers."""
    tokens = tokenize_raw(text)
    bounds = split_sentences(tokens)
    expressions = tag_temporal_expressions(tokens, text)
    signals = tag_temporal_signals(tokens, lexicon, text, expressions)
    blocked = {k for s in expressions + signals for k in range(s.token_start, s.token_end)}
    persons = [p for p in tag_persons_heuristic(tokens, text, blocked)
               if not blocked & set(range(p.token_start, p.token_end))]
    spans = [s for s in expressions + signals + persons
             if any(a <= s.token_start and s.token_end <= b for a, b in bounds)]
    return sorted(spans, key=lambda s: (s.token_start, s.kind.value))


# pieces of every pattern, glued with or without a separator, so dates, decades and initials form
_PATTERN_TEXTS = st.lists(
    st.tuples(
        st.sampled_from([
            "2007", "-", "05", "04", "13", "/", "5", "12", "25", "1999", "٣", "May", "4", "4th", ",",
            "January", "Sept", "of", "the", "The", "1990s", "'", "’", "90s", "summer", "Winter", "fall", "mid",
            "early", "Late", "in", "on", "by", "at", "from", "prior", "to", "during", "Before", "no", ".", "!", "?",
            '"', "“", "”", "(", ")", "Mr", "Dr", "President", "Judge", "J", "K", "W", "J.R.R.", "U.S.",
            "e.g.", "Gen", "Inc", "St", "vs", "Smith", "Tupac", "Shakur", "Monday", "É", "war", "he",
        ]),
        st.sampled_from(["", " ", " ", "\n"]),
    ),
    max_size=40,
).map(lambda pieces: "".join(word + sep for word, sep in pieces))


@given(_PATTERN_TEXTS, st.booleans())
def test_annotation_equals_the_public_functions_composed(text, custom):
    lexicon = _custom_lexicon() if custom else SignalLexicon.default()
    doc = annotate_document("d", "2001-02-03", text, lexicon=lexicon)
    assert doc.tokens == tokenize_raw(text)
    assert doc.sentence_bounds == split_sentences(tokenize_raw(text))
    assert doc.spans == _composed(text, lexicon)
