"""Where the traced run hooks into tempolm, and the per-layer metrics it reports.

``WRAPS`` lists every wrap target at the place its caller looks it up: a
function imported by name into another module is a separate binding, so
``tempolm.pretrain.encode_forward`` and ``tempolm.finetune.encode_forward``
are wrapped one by one, while ops and ``backward`` are reached through the
``tempolm.autodiff`` module.

``PER_LAYER`` gives each per-layer metric its unit, its better direction,
the span it is measured from (absent span: the metric reads ``missing``),
and the end-to-end metric and workload it should move. Counts and busy times
are per traced round. The traced rounds draw their inputs from the seed, so
with the same seed a count repeats exactly from run to run and moves only
when the program does different work.
"""

from __future__ import annotations

import os
import statistics

from tempolm.autodiff import Var
from tracing import Tracer

OPS = (
    "add", "scale", "matmul", "swapaxes", "reshape", "gather_rows",
    "concat", "gelu", "layer_norm", "softmax", "cross_entropy", "add_all",
)


def _doc_id(args):
    return args[0].id


def _annotated(tracer: Tracer, args, doc) -> None:
    tracer.counts["annotate.tokens"] += len(doc.tokens)
    for span in doc.spans:
        tracer.counts[f"annotate.spans.{span.kind.value}"] += 1


def _refined(tracer: Tracer, args, doc) -> None:
    kept = len(doc.sentence_bounds) if doc is not None else 0
    tracer.counts["corpus.refine.sentences_dropped"] += len(args[0].sentence_bounds) - kept
    tracer.counts["corpus.refine.docs_dropped"] += doc is None


def _calendar(tracer: Tracer, args, calendar) -> None:
    tracer.counts["corpus.calendar.sparse_months"] += sum(
        1 for persons in calendar.months.values() if len(persons) < 2
    )


def _forwarded(tracer: Tracer, args, hidden) -> None:
    tracer.counts["encoder.forward.tokens"] += len(args[0])


def _saved(tracer: Tracer, args, result) -> None:
    tracer.counts["checkpoint.bytes"] = os.path.getsize(args[1])


# (target "module[:Class]", attribute, span name, keyword options)
WRAPS = (
    ("tempolm.annotate", "annotate_document", "annotate", dict(after=_annotated, op_key=lambda a: a[0])),
    ("tempolm.corpus", "refine_document", "corpus.refine", dict(after=_refined, op_key=_doc_id)),
    ("tempolm.corpus", "document_to_record", "corpus.records", dict(op_key=_doc_id)),
    ("tempolm.corpus", "record_to_document", "corpus.records", dict(op_key=lambda a: a[0]["id"])),
    ("tempolm.corpus", "build_entity_calendar", "corpus.calendar", dict(after=_calendar)),
    ("tempolm.vocab", "build_vocab", "vocab.build", {}),
    ("tempolm.objectives", "build_training_example", "objectives.build", dict(op_key=_doc_id)),
    ("tempolm.pretrain", "build_training_example", "objectives.build", dict(new_op=True)),
    ("tempolm.pretrain", "encode_forward", "encoder.forward", dict(after=_forwarded)),
    ("tempolm.finetune", "encode_forward", "encoder.forward", dict(after=_forwarded, new_op=True)),
    ("tempolm.similarity", "encode_forward", "encoder.forward", dict(after=_forwarded)),
    ("tempolm.semchange", "encode_forward", "encoder.forward", dict(after=_forwarded)),
    ("tempolm.pretrain", "multitask_heads", "encoder.heads", {}),
    ("tempolm.semchange", "multitask_heads", "encoder.heads", {}),
    ("tempolm.pretrain", "joint_loss", "encoder.loss", {}),
    ("tempolm.pretrain", "collect_grads", "encoder.collect_grads", {}),
    ("tempolm.finetune", "collect_grads", "encoder.collect_grads", {}),
    ("tempolm.semchange", "collect_grads", "encoder.collect_grads", {}),
    ("tempolm.autodiff", "backward", "autodiff.backward", {}),
    ("tempolm.optim:AdamW", "step", "optim.step", {}),
    ("tempolm.pretrain", "pretrain", "pretrain", {}),
    ("tempolm.finetune", "finetune_classifier", "finetune.train", {}),
    ("tempolm.finetune:FinetunedModel", "predict_proba", "finetune.predict", dict(new_op=True)),
    ("tempolm.similarity", "zero_shot_similarity", "similarity.query", dict(new_op=True)),
    ("tempolm.similarity", "embed_text", "similarity.embed", {}),
    ("tempolm.semchange", "adapt_mlm", "semchange.adapt", {}),
    ("tempolm.semchange", "word_representation", "semchange.represent", {}),
    ("tempolm.semchange", "semantic_change_score", "semchange.score", dict(new_op=True)),
    ("tempolm.bm25:BM25", "__init__", "bm25.index", {}),
    ("tempolm.bm25:BM25", "top_k", "bm25.query", {}),
    ("tempolm.checkpoint", "checkpoint_save", "checkpoint.save", dict(after=_saved)),
    ("tempolm.checkpoint", "checkpoint_load", "checkpoint.load", {}),
)


def install(tracer: Tracer) -> None:
    for target, attr, name, options in WRAPS:
        tracer.wrap(target, attr, name, **options)
    for op in OPS:
        tracer.wrap_op("tempolm.autodiff", op, Var)


_INGEST = "ops_per_s on ingest (ingest_docs_per_s)"
_TRAIN = "ops_per_s on pretrain (train_examples_per_s, train_tokens_per_s)"
_ENCODER = _TRAIN + "; ops_per_s on evaluate (finetune, rank and semchange rates)"
_FINETUNE = "ops_per_s on evaluate (finetune_examples_per_s)"
_SMALL = "small shares of ops_per_s on evaluate and pretrain"

# name, unit, better, span it is measured from, workload that exercises it, what it should move
PER_LAYER: tuple[tuple[str, str, str, str, str, str], ...] = (
    ("annotate.calls", "calls/round", "lower", "annotate", "ingest", _INGEST + "; setup_s on pretrain and evaluate"),
    ("annotate.busy_s", "s/round", "lower", "annotate", "ingest", _INGEST + "; setup_s on pretrain and evaluate"),
    ("annotate.tokens_per_s", "tokens/s", "higher", "annotate", "ingest", _INGEST),
    ("annotate.spans.expression", "spans/round", "higher", "annotate", "ingest", _INGEST),
    ("annotate.spans.signal", "spans/round", "higher", "annotate", "ingest", _INGEST),
    ("annotate.spans.person", "spans/round", "higher", "annotate", "ingest", _INGEST),
    ("corpus.refine.busy_s", "s/round", "lower", "corpus.refine", "ingest", _INGEST),
    ("corpus.refine.sentences_dropped", "sentences/round", "lower", "corpus.refine", "ingest", _INGEST),
    ("corpus.refine.docs_dropped", "docs/round", "lower", "corpus.refine", "ingest", _INGEST),
    ("corpus.records.busy_s", "s/round", "lower", "corpus.records", "ingest", _INGEST),
    ("corpus.calendar.busy_s", "s/round", "lower", "corpus.calendar", "ingest", _INGEST),
    ("corpus.calendar.sparse_months", "months/round", "lower", "corpus.calendar", "ingest", _INGEST),
    ("vocab.build.busy_s", "s/round", "lower", "vocab.build", "ingest", _INGEST),
    ("vocab.byte_fallback_rate", "ratio", "lower", "objectives.build", "ingest", _INGEST),
    ("objectives.examples", "examples/round", "lower", "objectives.build", "ingest", _INGEST + "; " + _TRAIN),
    ("objectives.busy_s", "s/round", "lower", "objectives.build", "ingest", _INGEST + "; " + _TRAIN),
    ("objectives.useful_ratio", "ratio", "higher", "objectives.build", "ingest", _INGEST + "; " + _TRAIN),
    ("objectives.truncated", "examples/round", "lower", "objectives.build", "ingest", _INGEST + "; " + _TRAIN),
    ("objectives.mlm_targets", "targets/round", "higher", "objectives.build", "ingest", _INGEST + "; " + _TRAIN),
    ("objectives.tser_replaced_rate", "ratio", "higher", "objectives.build", "ingest", _INGEST + "; " + _TRAIN),
    ("encoder.forward.calls", "calls/round", "lower", "encoder.forward", "pretrain", _ENCODER),
    ("encoder.forward.busy_s", "s/round", "lower", "encoder.forward", "pretrain", _ENCODER),
    ("encoder.forward.self_s", "s/round", "lower", "encoder.forward", "pretrain", _ENCODER),
    ("encoder.forward.tokens", "tokens/round", "lower", "encoder.forward", "pretrain", _ENCODER),
    ("encoder.heads.busy_s", "s/round", "lower", "encoder.heads", "pretrain", _ENCODER),
    ("encoder.loss.busy_s", "s/round", "lower", "encoder.loss", "pretrain", _TRAIN),
    ("encoder.collect_grads.busy_s", "s/round", "lower", "encoder.collect_grads", "pretrain", _ENCODER),
    ("autodiff.backward.calls", "calls/round", "lower", "autodiff.backward", "pretrain", _TRAIN + "; " + _FINETUNE),
    ("autodiff.backward.busy_s", "s/round", "lower", "autodiff.backward", "pretrain", _TRAIN + "; " + _FINETUNE),
    ("autodiff.backward.self_s", "s/round", "lower", "autodiff.backward", "pretrain", _TRAIN + "; " + _FINETUNE),
    ("autodiff.nodes_per_forward", "nodes/forward", "lower", "encoder.forward", "pretrain", _TRAIN + "; " + _FINETUNE),
) + tuple(
    (f"autodiff.op.{op}.{field}", unit, "lower", f"autodiff.op.{op}", "pretrain", _TRAIN + "; " + _FINETUNE)
    for op in OPS
    for field, unit in (("calls", "calls/round"), ("fwd_s", "s/round"), ("bwd_s", "s/round"))
) + (
    ("optim.step.calls", "calls/round", "lower", "optim.step", "pretrain", _TRAIN),
    ("optim.step.busy_s", "s/round", "lower", "optim.step", "pretrain", _TRAIN),
    ("pretrain.step_ms_p50", "ms", "lower", "optim.step", "pretrain", _TRAIN),
    ("pretrain.step_ms_p90", "ms", "lower", "optim.step", "pretrain", _TRAIN),
    ("pretrain.self_s", "s/round", "lower", "pretrain", "pretrain", _TRAIN),
    ("finetune.train.busy_s", "s/round", "lower", "finetune.train", "evaluate", _FINETUNE),
    ("finetune.predict.calls", "calls/round", "lower", "finetune.predict", "evaluate", _FINETUNE),
    ("finetune.predict.busy_s", "s/round", "lower", "finetune.predict", "evaluate", _FINETUNE),
    ("similarity.queries", "queries/round", "lower", "similarity.query", "evaluate", "ops_per_s on evaluate (rank_queries_per_s)"),
    ("similarity.embed.calls", "calls/query", "lower", "similarity.embed", "evaluate", "ops_per_s on evaluate (rank_queries_per_s)"),
    ("similarity.embed.busy_s", "s/round", "lower", "similarity.embed", "evaluate", "ops_per_s on evaluate (rank_queries_per_s)"),
    ("semchange.adapt.busy_s", "s/round", "lower", "semchange.adapt", "evaluate", "ops_per_s on evaluate (semchange_words_per_s)"),
    ("semchange.represent.calls", "calls/round", "lower", "semchange.represent", "evaluate", "ops_per_s on evaluate (semchange_words_per_s)"),
    ("semchange.forwards_per_word", "forwards/word", "lower", "semchange.score", "evaluate", "ops_per_s on evaluate (semchange_words_per_s)"),
    ("bm25.index.busy_s", "s/round", "lower", "bm25.index", "evaluate", _SMALL),
    ("bm25.query.calls", "calls/round", "lower", "bm25.query", "evaluate", _SMALL),
    ("bm25.query.busy_s", "s/round", "lower", "bm25.query", "evaluate", _SMALL),
    ("checkpoint.save.busy_s", "s/round", "lower", "checkpoint.save", "pretrain", _SMALL),
    ("checkpoint.load.busy_s", "s/round", "lower", "checkpoint.load", "evaluate", _SMALL),
    ("checkpoint.bytes", "bytes", "lower", "checkpoint.save", "pretrain", _SMALL),
    ("trace.overhead_pct", "%", "lower", "", "pretrain", "none: traced against untraced round time in the same run"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, rounds: int, examples: dict | None, overhead_pct: float) -> dict[str, float | None]:
    """Every ``PER_LAYER`` value, ``None`` where its span is missing.

    ``rounds`` is the number of traced rounds; ``examples`` holds the
    statistics of the training examples the traced rounds built, rebuilt
    after them, or None when the workload could not rebuild them.
    """
    t, c, n = tracer, tracer.counts, max(rounds, 1)
    values: dict[str, float] = {
        "annotate.calls": t.calls("annotate") / n,
        "annotate.busy_s": t.busy("annotate") / n,
        "annotate.tokens_per_s": _ratio(c["annotate.tokens"], t.busy("annotate")),
        "annotate.spans.expression": c["annotate.spans.expression"] / n,
        "annotate.spans.signal": c["annotate.spans.signal"] / n,
        "annotate.spans.person": c["annotate.spans.person"] / n,
        "corpus.refine.busy_s": t.busy("corpus.refine") / n,
        "corpus.refine.sentences_dropped": c["corpus.refine.sentences_dropped"] / n,
        "corpus.refine.docs_dropped": c["corpus.refine.docs_dropped"] / n,
        "corpus.records.busy_s": t.busy("corpus.records") / n,
        "corpus.calendar.busy_s": t.busy("corpus.calendar") / n,
        "corpus.calendar.sparse_months": c["corpus.calendar.sparse_months"] / n,
        "vocab.build.busy_s": t.busy("vocab.build") / n,
        "objectives.examples": t.calls("objectives.build") / n,
        "objectives.busy_s": t.busy("objectives.build") / n,
        "encoder.forward.calls": t.calls("encoder.forward") / n,
        "encoder.forward.busy_s": t.busy("encoder.forward") / n,
        "encoder.forward.self_s": t.self_time("encoder.forward") / n,
        "encoder.forward.tokens": c["encoder.forward.tokens"] / n,
        "encoder.heads.busy_s": t.busy("encoder.heads") / n,
        "encoder.loss.busy_s": t.busy("encoder.loss") / n,
        "encoder.collect_grads.busy_s": t.busy("encoder.collect_grads") / n,
        "autodiff.backward.calls": t.calls("autodiff.backward") / n,
        "autodiff.backward.busy_s": t.busy("autodiff.backward") / n,
        "autodiff.backward.self_s": t.self_time("autodiff.backward") / n,
        "autodiff.nodes_per_forward": _ratio(c["nodes_in.encoder.forward"], t.calls("encoder.forward")),
        "optim.step.calls": t.calls("optim.step") / n,
        "optim.step.busy_s": t.busy("optim.step") / n,
        "pretrain.self_s": t.self_time("pretrain") / n,
        "finetune.train.busy_s": t.busy("finetune.train") / n,
        "finetune.predict.calls": t.calls("finetune.predict") / n,
        "finetune.predict.busy_s": t.busy("finetune.predict") / n,
        "similarity.queries": t.calls("similarity.query") / n,
        "similarity.embed.calls": _ratio(t.calls("similarity.embed"), t.calls("similarity.query")),
        "similarity.embed.busy_s": t.busy("similarity.embed") / n,
        "semchange.adapt.busy_s": t.busy("semchange.adapt") / n,
        "semchange.represent.calls": t.calls("semchange.represent") / n,
        "semchange.forwards_per_word": _ratio(
            t.calls_under("encoder.forward", "semchange.score"), t.calls("semchange.score")),
        "bm25.index.busy_s": t.busy("bm25.index") / n,
        "bm25.query.calls": t.calls("bm25.query") / n,
        "bm25.query.busy_s": t.busy("bm25.query") / n,
        "checkpoint.save.busy_s": t.busy("checkpoint.save") / n,
        "checkpoint.load.busy_s": t.busy("checkpoint.load") / n,
        "checkpoint.bytes": c["checkpoint.bytes"],
        "trace.overhead_pct": overhead_pct,
    }
    for op in OPS:
        for field in ("calls", "fwd_s", "bwd_s"):
            key = f"autodiff.op.{op}.{field}"
            values[key] = c[key] / n
    steps = t.step_ms("pretrain", "optim.step")
    deciles = statistics.quantiles(steps, n=10) if len(steps) >= 2 else [0.0] * 9
    values["pretrain.step_ms_p50"], values["pretrain.step_ms_p90"] = deciles[4], deciles[8]
    stats = examples or {}
    values.update({
        "vocab.byte_fallback_rate": _ratio(stats.get("byte_ids", 0), stats.get("ids", 0)),
        "objectives.useful_ratio": _ratio(stats.get("useful", 0), stats.get("examples", 0)),
        "objectives.truncated": stats.get("truncated", 0) / n,
        "objectives.mlm_targets": stats.get("mlm_targets", 0) / n,
        "objectives.tser_replaced_rate": _ratio(stats.get("tser_replaced", 0), stats.get("tser_targets", 0)),
    })
    rebuilt = {"vocab.byte_fallback_rate", "objectives.useful_ratio", "objectives.truncated",
               "objectives.mlm_targets", "objectives.tser_replaced_rate"}
    return {
        name: None if source in tracer.missing or (name in rebuilt and examples is None) else values[name]
        for name, _unit, _better, source, _workload, _moves in PER_LAYER
    }
