"""The benchmark's three workloads: pretrain, ingest and evaluate.

Each workload is a closed loop with one caller in one process: ``setup``
once, then rounds until the time is up. ``inputs(r)`` draws round ``r``'s
inputs from the workload seed with ``tempolm.synth``, outside the timed
region, so no round repeats another's inputs and no cache can carry work
from one round to the next. ``run(inputs)`` is the timed part; it calls
tempolm only through module attributes, so the traced run's wrappers see
every call. ``summarize(inputs, out, traced)`` runs untimed right after a
round and keeps only what the checks and the report need. ``finish``
checks the outputs and returns the workload's own named metrics.

An operation fails when a layer raises or returns a non-finite loss or
score; a failed operation is counted, and the workload goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tempolm import (
    annotate,
    bm25,
    checkpoint,
    corpus,
    datasets,
    finetune,
    objectives,
    semchange,
    similarity,
    synth,
)
from tempolm import pretrain as pretrain_mod
from tempolm import vocab as vocab_mod
from tempolm.encoder import EncoderConfig
from tempolm.lexicon import SignalLexicon
from tempolm.objectives import Objective
from tempolm.timescale import CorpusSpan, Granularity, TimePoint

JOINT = frozenset({Objective.ETAMLM, Objective.DD, Objective.TSER})
YEARS = (1987, 2007)
YEAR_SPAN = CorpusSpan(TimePoint(YEARS[0], granularity=Granularity.YEAR), TimePoint(YEARS[1], granularity=Granularity.YEAR))
YEAR_CLASSES = YEARS[1] - YEARS[0] + 1
RANDOM_GUESS_ACC = 100.0 / YEAR_CLASSES


@dataclass
class Outcome:
    """What one round did: operations attempted and failed, plus its outputs."""

    ops: int
    failed: int = 0
    data: dict = field(default_factory=dict)


def round_seed(seed: int, r: int, salt: int = 0) -> int:
    digest = hashlib.sha256(f"{seed}|{r}|{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def toy_corpus(seed: int, lexicon: SignalLexicon):
    """The acceptance toy corpus, annotated and refined, with its span, calendar and vocabulary."""
    records = synth.generate_corpus(200, month_of_year=1, seed=seed, datelines_per_year=5)
    docs = list(corpus.refine_corpus(
        annotate.annotate_document(r["id"], r["timestamp"], r["text"], lexicon=lexicon) for r in records
    ))
    span = corpus.derive_corpus_span(docs)
    calendar = corpus.build_entity_calendar(docs)
    vocab = vocab_mod.build_vocab([r["text"] for r in records], target_size=512)
    config = EncoderConfig(
        layers=2, hidden_dim=96, heads=4, ffn_dim=192, max_len=64,
        vocab_size=vocab.size, dd_classes=span.class_count(Granularity.MONTH), seed=seed,
    )
    return records, docs, span, calendar, vocab, config


def example_stats(examples, untruncated=None, vocab=None) -> dict:
    """Counts over built training examples; ``untruncated`` gives the truncation count."""
    stats = dict(examples=0, useful=0, tokens=0, mlm_targets=0, tser_targets=0, tser_replaced=0,
                 ids=0, byte_ids=0, truncated=0)
    for ex in examples:
        stats["examples"] += 1
        if ex.mlm_targets or ex.dd_index is not None or ex.replacement_targets:
            stats["useful"] += 1
            stats["tokens"] += len(ex.input_ids)
        stats["mlm_targets"] += len(ex.mlm_targets)
        stats["tser_targets"] += len(ex.replacement_targets)
        stats["tser_replaced"] += sum(d.label for d in ex.replacement_targets)
        if vocab is not None:
            stats["ids"] += len(ex.input_ids)
            stats["byte_ids"] += sum(1 for i in ex.input_ids if vocab.is_byte(i))
    if untruncated is not None:
        stats["truncated"] = sum(1 for ex, full in zip(examples, untruncated) if len(full.input_ids) > len(ex.input_ids))
    return stats


def rate(rounds, key: str, seconds_key: str | None = None) -> float:
    """``data[key]`` summed over the untraced rounds, per second of their round
    time, or of ``data[seconds_key]`` when the round times its stages.

    Totals, not a median of per-round rates: the shared host switches between
    a fast and a slow speed for seconds at a time, so round times are bimodal,
    and a median jumps between the two modes as their mix changes from run to
    run, where a total moves with the mix."""
    kept = [r for r in rounds if not r.traced and key in r.data and (seconds_key is None or seconds_key in r.data)]
    seconds = sum(r.data[seconds_key] if seconds_key else r.seconds for r in kept)
    return sum(r.data[key] for r in kept) / seconds if seconds else math.nan


# -- pretrain -------------------------------------------------------------------

class Pretrain:
    """Joint ETAMLM+DD+TSER pre-training on the acceptance toy config, then one checkpoint save."""

    STEPS = 10
    BATCH = 16
    WINDOW = 3  # steps averaged for the first and final loss

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "pretrain.tlm"

    def setup(self) -> None:
        self.records, self.docs, self.span, self.calendar, self.vocab, self.config = toy_corpus(
            self.seed, SignalLexicon.default())

    def settings(self, seed: int) -> pretrain_mod.PretrainSettings:
        return pretrain_mod.PretrainSettings(objectives=JOINT, seed=seed, steps=self.STEPS,
                                             batch_size=self.BATCH, lr=3e-3)

    def inputs(self, r: int) -> int:
        return round_seed(self.seed, r)

    def run(self, seed: int) -> Outcome:
        examples = self.STEPS * self.BATCH
        try:
            params, _, logs = pretrain_mod.pretrain(
                self.docs, self.vocab, self.config, self.settings(seed), span=self.span, calendar=self.calendar)
            checkpoint.checkpoint_save(
                checkpoint.EncoderCheckpoint(config=self.config, vocab=self.vocab, params=params, step=self.STEPS),
                self.path)
        except Exception:
            report_failure(f"pre-training round with seed {seed}")
            return Outcome(examples, examples)
        losses = [log.loss for log in logs]
        return Outcome(examples, self.BATCH * sum(1 for x in losses if not math.isfinite(x)), {"losses": losses})

    def summarize(self, seed: int, out: Outcome, traced: bool) -> dict:
        """Rebuild the round's deterministic example stream to count its real tokens."""
        kept = {"losses": out.data.get("losses")}
        stream_of = getattr(pretrain_mod, "_example_stream", None)
        if stream_of is None:
            return {**kept, "examples": None}

        def stream(max_len):
            it = stream_of(self.docs, self.settings(seed), self.vocab, self.span, self.calendar, None, max_len)
            return [next(it) for _ in range(out.ops)]

        stats = example_stats(stream(self.config.max_len), stream(10**9) if traced else None, self.vocab)
        return {**kept, "examples": stats, "tokens": stats["tokens"]}

    def finish(self, rounds) -> tuple[list[str], dict]:
        problems = []
        for r in rounds:
            losses = r.data.get("losses")
            if not losses:
                problems.append(f"round {r.index} produced no loss log")
                continue
            if not all(math.isfinite(x) for x in losses):
                problems.append(f"round {r.index} has a non-finite step loss")
            elif not np.mean(losses[-self.WINDOW:]) < np.mean(losses[:self.WINDOW]):
                problems.append(f"round {r.index}: final-window loss is not below the first-window loss")
        again = self.path.with_suffix(".again.tlm")
        checkpoint.checkpoint_save(checkpoint.checkpoint_load(self.path), again)
        if again.read_bytes() != self.path.read_bytes():
            problems.append("checkpoint save -> load -> save is not byte-identical")

        tokens = rate(rounds, "tokens")
        finals = [np.mean(r.data["losses"][-self.WINDOW:]) for r in rounds if r.data["losses"]]
        named = {
            "train_examples_per_s": (rate(rounds, "done"), "examples/s"),
            "train_tokens_per_s": (None if math.isnan(tokens) else tokens, "tokens/s"),
            "train_loss_final": (statistics.median(finals) if finals else math.nan, "nats"),
        }
        return problems, named


# -- ingest ---------------------------------------------------------------------

def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class Ingest:
    """Annotate -> refine -> record round trip -> calendar -> vocab -> one epoch of examples."""

    DOCS = 1000
    WARMUP_DOCS = 100
    MAX_LEN = 64  # the toy encoder config's max_len, as in pretrain

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.lexicon = SignalLexicon.default()
        # a pass over a small corpus fills lazily built state before timing
        self.run(self.inputs(-1, self.WARMUP_DOCS))

    def inputs(self, r: int, docs: int = DOCS) -> tuple[int, list[dict]]:
        seed = round_seed(self.seed, r)
        return seed, synth.generate_corpus(docs, seed=seed, sentences_per_doc=4, undated_sentence_rate=0.2)

    def example(self, doc, corpus_state, seed: int, max_len: int):
        span, calendar, vocab = corpus_state
        return objectives.build_training_example(doc, JOINT, vocab, span=span, calendar=calendar,
                                                 lexicon=self.lexicon, seed=seed, max_len=max_len)

    def run(self, inputs) -> Outcome:
        seed, records = inputs
        failed: set[str] = set()

        def each(stage, fn, items):
            done = []
            for key, item in items:
                try:
                    done.append((key, fn(item)))
                except Exception:
                    failed.add(key)
                    report_failure(f"{stage} of document {key}")
            return done

        docs = each("annotate", lambda r: annotate.annotate_document(
            r["id"], r["timestamp"], r["text"], lexicon=self.lexicon), ((r["id"], r) for r in records))
        refined = [(k, d) for k, d in each("refine", corpus.refine_document, docs) if d is not None]
        lines = each("record write", lambda d: json.dumps(
            corpus.document_to_record(d), sort_keys=True, ensure_ascii=False), refined)
        back = each("record read", lambda line: corpus.record_to_document(json.loads(line)), lines)
        kept = [d for _, d in back]
        try:
            state = (corpus.derive_corpus_span(kept), corpus.build_entity_calendar(kept),
                     vocab_mod.build_vocab([d.text for d in kept], target_size=512))
        except Exception:
            report_failure("corpus-level stage")
            return Outcome(len(records), len(records))
        examples = each("examples", lambda d: self.example(d, state, seed, self.MAX_LEN), back)
        return Outcome(len(records), len(failed), {
            "seed": seed, "lines": [line for _, line in lines], "docs": kept,
            "corpus": state, "examples": [ex for _, ex in examples],
        })

    def summarize(self, inputs, out: Outcome, traced: bool) -> dict:
        """Digests of the annotated and example records; statistics of the examples."""
        if "lines" not in out.data:
            return {"examples": None}
        data = out.data
        rewritten = [json.dumps(corpus.document_to_record(d), sort_keys=True, ensure_ascii=False)
                     for d in data["docs"]]
        untruncated = [self.example(d, data["corpus"], data["seed"], 10**9) for d in data["docs"]] if traced else None
        return {
            "annotated_sha256": digest(data["lines"]),
            "examples_sha256": digest(json.dumps(objectives.example_to_record(ex), sort_keys=True)
                                      for ex in data["examples"]),
            "round_trip_lossless": rewritten == data["lines"],
            "examples": example_stats(data["examples"], untruncated, data["corpus"][2]),
        }

    def finish(self, rounds) -> tuple[list[str], dict]:
        problems = [f"round {r.index}: annotated-record round trip is not lossless"
                    for r in rounds if not r.data.get("round_trip_lossless", False)]
        first = rounds[0]
        again = self.summarize(None, self.run(self.inputs(first.index)), False)
        for key in ("annotated_sha256", "examples_sha256"):
            if again.get(key) != first.data.get(key):
                problems.append(f"{key} differs between two runs of round {first.index}")
        named = {
            "ingest_docs_per_s": (rate(rounds, "done"), "docs/s"),
            "annotated_sha256": (first.data.get("annotated_sha256"), "sha256, round 0"),
            "examples_sha256": (first.data.get("examples_sha256"), "sha256, round 0"),
        }
        return problems, named


# -- evaluate -------------------------------------------------------------------

def sentences_of(records: list[dict]) -> list[str]:
    return [s for rec in records for s in re.split(r"(?<=\.) ", rec["text"])]


def words_in(sentences: list[str]) -> set[str]:
    return {w for s in sentences for w in re.findall(r"\w+", s.lower())}


class Evaluate:
    """Checkpoint load, BM25 context, one-grid-point fine-tune and test predictions,
    zero-shot year ranking, and semantic-change scoring after one adaptation epoch."""

    SETUP_STEPS = 20
    # 6 per year class: the 80:10:10 split leaves 100 for training, about the
    # fewest from which one grid point reliably beats random guessing
    EVENTS = 126
    TRAIN = int(0.8 * EVENTS)
    TEST = EVENTS - TRAIN - int(0.1 * EVENTS)
    EPOCHS = 5
    GRID_POINT = (16, 2e-3, EPOCHS)
    QUERIES = 21
    PERIOD_DOCS = 15

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "evaluate.tlm"

    def setup(self) -> None:
        self.records, docs, span, calendar, vocab, config = toy_corpus(self.seed, SignalLexicon.default())
        settings = pretrain_mod.PretrainSettings(objectives=JOINT, seed=self.seed, steps=self.SETUP_STEPS,
                                                 batch_size=16, lr=3e-3)
        params, _, _ = pretrain_mod.pretrain(docs, vocab, config, settings, span=span, calendar=calendar)
        checkpoint.checkpoint_save(
            checkpoint.EncoderCheckpoint(config=config, vocab=vocab, params=params, step=self.SETUP_STEPS),
            self.path)

    def inputs(self, r: int) -> dict:
        seed = round_seed(self.seed, r)
        t1 = sentences_of(synth.generate_corpus(self.PERIOD_DOCS, start_year=1987, end_year=1996,
                                                seed=round_seed(self.seed, r, 1)))
        t2 = sentences_of(synth.generate_corpus(self.PERIOD_DOCS, start_year=1997, end_year=2007,
                                                seed=round_seed(self.seed, r, 2)))
        shared = words_in(t1) & words_in(t2)
        rng = np.random.Generator(np.random.PCG64(seed))
        gold = {w.lower(): float(rng.random()) for w in synth.NOUNS + synth.VERBS if w.lower() in shared}
        return {
            "seed": seed,
            "events": synth.generate_event_instances(self.EVENTS, *YEARS, seed=seed),
            "queries": synth.generate_event_instances(self.QUERIES, *YEARS, seed=round_seed(self.seed, r, 3)),
            "t1": t1, "t2": t2, "gold": gold,
        }

    def run(self, inp: dict) -> Outcome:
        clock = time.perf_counter
        queries, gold = inp["queries"], inp["gold"]
        tuned = self.TRAIN * self.EPOCHS
        ops = tuned + self.TEST + len(queries) + len(gold)
        try:
            ckpt = checkpoint.checkpoint_load(self.path)
            enriched = bm25.attach_top_document(inp["events"], self.records)
            instances = [datasets.record_to_instance(rec, Granularity.YEAR, YEAR_SPAN) for rec in enriched]
            train, val, test = corpus.split_dataset(instances, seed=inp["seed"])
        except Exception:
            report_failure("evaluation inputs")
            return Outcome(ops, ops)
        failed = 0
        data = {"finetune_examples": tuned, "queries": len(queries), "words": len(gold)}

        start = clock()
        try:
            model = finetune.finetune_classifier(ckpt, train, val, YEAR_CLASSES, grid=(self.GRID_POINT,),
                                                 seed=inp["seed"])
        except Exception:
            report_failure("fine-tuning")
            model = None
            failed += tuned + len(test)
        data["finetune_s"] = clock() - start
        predictions = []
        for inst in test if model is not None else ():
            try:
                probs = model.predict_proba(inst.full_text())
            except Exception:
                report_failure("prediction")
                failed += 1
                continue
            if np.all(np.isfinite(probs)):
                predictions.append((len(probs), int(np.argmax(probs)), inst.gold.index))
            else:
                failed += 1
        data["predictions"] = predictions

        start = clock()
        rankings = []
        years = similarity.year_vocabulary(*YEARS)
        for query in queries:
            try:
                ranking = similarity.zero_shot_similarity(ckpt.params, ckpt.config, ckpt.vocab, query["text"], years)
            except Exception:
                report_failure("zero-shot ranking")
                failed += 1
                continue
            if all(math.isfinite(score) for _, score in ranking):
                rankings.append([tp.year for tp, _ in ranking])
            else:
                failed += 1
        data["rank_s"] = clock() - start
        data["rankings"] = rankings

        start = clock()
        scores = {}
        try:
            params = semchange.adapt_mlm({k: v.copy() for k, v in ckpt.params.items()}, ckpt.config, ckpt.vocab,
                                         inp["t1"] + inp["t2"], epochs=1, seed=inp["seed"])
            scores, _, _ = semchange.evaluate_semantic_change(params, ckpt.config, ckpt.vocab, gold,
                                                              inp["t1"], inp["t2"])
        except Exception:
            report_failure("semantic-change scoring")
        failed += len(gold) - sum(1 for s in scores.values() if math.isfinite(s))
        data["semchange_s"] = clock() - start
        data["scores"] = list(scores.values())
        return Outcome(ops, failed, data)

    def summarize(self, inp, out: Outcome, traced: bool) -> dict:
        data = out.data
        years = list(range(YEARS[0], YEARS[1] + 1))
        problems = []
        if any(sorted(ranking) != years for ranking in data.get("rankings", ())):
            problems.append("a zero-shot ranking does not cover each year exactly once")
        if not all(0.0 <= s <= 2.0 for s in data.get("scores", ())):
            problems.append("a semantic-change score lies outside [0, 2]")
        if not all(size == YEAR_CLASSES and 0 <= pred < YEAR_CLASSES for size, pred, _ in data.get("predictions", ())):
            problems.append("a prediction lies outside the class range")
        predictions = data.get("predictions", [])
        kept = {k: data[k] for k in ("finetune_examples", "finetune_s", "queries", "rank_s", "words", "semchange_s")
                if k in data}
        return {**kept, "problems": problems, "tested": len(predictions),
                "right": sum(1 for _, pred, gold in predictions if pred == gold), "examples": {}}

    def finish(self, rounds) -> tuple[list[str], dict]:
        problems = [f"round {r.index}: {p}" for r in rounds for p in r.data["problems"]]
        tested = sum(r.data["tested"] for r in rounds)
        acc = 100.0 * sum(r.data["right"] for r in rounds) / tested if tested else 0.0
        if not acc > RANDOM_GUESS_ACC:
            problems.append(f"test ACC {acc:.2f} does not beat the random-guess ACC {RANDOM_GUESS_ACC:.2f}")
        named = {
            "finetune_examples_per_s": (rate(rounds, "finetune_examples", "finetune_s"), "examples/s"),
            "rank_queries_per_s": (rate(rounds, "queries", "rank_s"), "queries/s"),
            "semchange_words_per_s": (rate(rounds, "words", "semchange_s"), "words/s"),
            "eval_test_acc": (acc, "%"),
        }
        return problems, named


WORKLOADS = {"pretrain": Pretrain, "ingest": Ingest, "evaluate": Evaluate}
