"""BM25 ranking over an ingested corpus, used to attach retrieved context.

Fixed k1 = 1.2 and b = 0.75. The retrieval use case: for an event
description, find the best-matching news article and append its timestamp
and text to the instance, producing the with-retrieved-document variant of
a time-estimation dataset.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter

from .errors import ConfigError

_WORD_RE = re.compile(r"\w+")


def _terms(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


class BM25:
    def __init__(self, docs: list[str], k1: float = 1.2, b: float = 0.75):
        if not docs:
            raise ConfigError("BM25 needs a non-empty document collection")
        self.k1 = k1
        self.b = b
        term_freqs = [Counter(_terms(d)) for d in docs]
        doc_lens = [sum(tf.values()) for tf in term_freqs]
        self.n_docs = len(docs)
        avg_len = sum(doc_lens) / self.n_docs
        self.norms = [k1 * (1.0 - b + b * dl / avg_len) if avg_len else k1 for dl in doc_lens]
        # term -> [(doc index, term frequency)], in document order
        self.postings: dict[str, list[tuple[int, int]]] = {}
        for i, tf in enumerate(term_freqs):
            for t, f in tf.items():
                self.postings.setdefault(t, []).append((i, f))
        self.idf = {
            t: math.log((self.n_docs - len(p) + 0.5) / (len(p) + 0.5) + 1.0)
            for t, p in self.postings.items()
        }

    def scores(self, query: str) -> list[float]:
        """Each document's sum over the query terms it contains, added in query order."""
        out = [0.0] * self.n_docs
        k1_plus = self.k1 + 1.0
        norms = self.norms
        for term in _terms(query):
            idf = self.idf.get(term)
            for i, f in self.postings.get(term, ()):
                out[i] += idf * f * k1_plus / (f + norms[i])
        return out

    def top_k(self, query: str, k: int = 1) -> list[tuple[int, float]]:
        """(doc index, score) pairs, best first; ties go to the lower index."""
        scored = self.scores(query)
        order = heapq.nsmallest(k, range(self.n_docs), key=lambda i: (-scored[i], i))
        return [(i, scored[i]) for i in order]


def attach_top_document(
    instances: list[dict],
    corpus_records: list[dict],
) -> list[dict]:
    """Add ``context_timestamp``/``context_text`` from the BM25 top-1 article."""
    ranker = BM25([rec["text"] for rec in corpus_records])
    out = []
    for inst in instances:
        top_idx, _ = ranker.top_k(inst["text"], k=1)[0]
        rec = dict(inst)
        rec["context_timestamp"] = corpus_records[top_idx]["timestamp"]
        rec["context_text"] = corpus_records[top_idx]["text"]
        out.append(rec)
    return out
