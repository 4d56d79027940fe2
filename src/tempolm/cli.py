"""Command-line orchestration of the full pipeline.

Stages: annotate, refine, calendar, examples, pretrain, finetune, eval,
similarity, timescope. Each stage consumes and produces the documented
file formats. All randomness flows from the single run seed. Every stage
reads ``--config``; each value in ``CONFIG_OPTIONS`` comes from its flag,
else TEMPO_SEED (the seed only), else the config file, else the table's
default, and argparse types it. Every stage runs through ``_run_stage``,
which checks and hashes the files its ``InFile`` options name and writes
the ``<output>.manifest.json`` of every option value. Exit code 0 on
success, 2 on validation failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections import Counter
from contextlib import closing

import numpy as np

from . import __version__, packworker
from .annotate import annotate_document
from .checkpoint import EncoderCheckpoint, checkpoint_load, checkpoint_save
from .corpus import (
    EntityCalendar,
    build_entity_calendar,
    derive_corpus_span,
    document_to_record,
    read_documents,
    read_raw_records,
    refine_document,
)
from .datasets import derive_task_span, read_task_records, record_to_instance
from .encoder import EncoderConfig
from .errors import ConfigError, DependencyMissingError, TempoError
from .finetune import DEFAULT_GRID, FinetunedModel, finetune_classifier, model_text
from .lexicon import SignalLexicon
from .manifest import ManifestWriter, jsonl_line, parse_config_file, read_json, read_lines, write_atomic
from .metrics import MetricReport, metric_acc, metric_mae, two_tailed_ttest
from .objectives import Objective, build_training_example, example_to_record
from .pretrain import PretrainSettings, pretrain
from .semchange import adapt_mlm, check_adaptation, evaluate_semantic_change, read_gold_shifts
from .similarity import estimate_time_scope, year_vocabulary, zero_shot_similarity
from .timescale import CorpusSpan, Granularity
from .vocab import Vocabulary, build_vocab

# config key -> (type, default) of the option it sets; a stage takes the keys it has options for
CONFIG_OPTIONS: dict[str, tuple[type, int | float]] = {
    "seed": (int, 0),
    "vocab_size": (int, 512),
    "max_len": (int, 128),
    "layers": (int, 2),
    "hidden_dim": (int, 96),
    "heads": (int, 4),
    "ffn_dim": (int, 192),
    "steps": (int, 50),
    "batch_size": (int, 8),
    "grad_accum": (int, 8),
    "lr": (float, 3e-5),
}


class InFile(str):
    """Type of an option that names a file a stage reads: the stage runner checks and hashes it."""


class OutFile(str):
    """Type of an option that names a file a stage writes: it stays out of the manifest config."""


def _inputs(args) -> dict[str, InFile]:
    """The given input files by option, in the parser's order (``--config`` first); a missing one
    raises ``DependencyMissingError`` naming the stage."""
    inputs = {key: value for key, value in vars(args).items() if isinstance(value, InFile)}
    for path in inputs.values():
        if not os.path.exists(path):
            raise DependencyMissingError(args.command, path)
    return inputs


def _run_stage(body, args) -> int:
    """Check the options that need no input, check and hash the input files, record every other option value that
    is set, and run ``body(args, derived)``. The body adds to ``derived`` the values it works out from the data and
    returns the paths it wrote; their manifest goes beside the first. A body that wrote nothing gets no manifest."""
    if args.command == "similarity" and args.top < 1:
        raise ConfigError(f"--top must be >= 1, got {args.top}")
    if args.command == "eval" and args.task == "semantic-change":
        check_adaptation(args.adapt_lr, args.adapt_epochs)
    elif args.command == "eval" and args.runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {args.runs}")
    config = {key: value for key, value in vars(args).items()
              if key not in ("func", "command") and value is not None and not isinstance(value, (InFile, OutFile))}
    derived: dict = {}
    manifest = ManifestWriter(args.command, {**config, "derived": derived}, _inputs(args))
    outputs = body(args, derived)
    if outputs:
        manifest.write(*outputs)
    return 0


def _need(args, *keys: str) -> None:
    """Raise ``ConfigError`` unless each of ``keys``, the paths this eval mode reads, was given."""
    missing = [f"--{key.replace('_', '-')}" for key in keys if getattr(args, key) is None]
    if missing:
        raise ConfigError(f"stage 'eval' is missing a required path argument: {', '.join(missing)}")


def _parse_objectives(text: str) -> frozenset[Objective]:
    try:
        return frozenset(Objective(name.strip().lower()) for name in text.split(",") if name.strip())
    except ValueError as exc:
        raise ConfigError(f"unknown objective in {text!r}: {exc}") from None


def _annotate_lines(lexicon: SignalLexicon, records: list[tuple]) -> list[str]:
    """The annotated lines of ``(line number, id, timestamp, text, persons)`` records; an error names its line."""
    lines = []
    for lineno, doc_id, timestamp, text, persons in records:
        try:
            doc = annotate_document(doc_id, timestamp, text, persons=persons, lexicon=lexicon)
        except TempoError as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
        lines.append(jsonl_line(document_to_record(doc)))
    return lines


def cmd_annotate(args, derived) -> list[str]:
    lexicon = SignalLexicon.load(args.lexicon) if args.lexicon else SignalLexicon.default()
    sidecar = {}
    if args.persons_file:
        sidecar_records = read_task_records(args.persons_file, required=("doc_id", "persons"))
        sidecar = {rec["doc_id"]: rec["persons"] for rec in sidecar_records}
    records = ((lineno, rec["id"], rec["timestamp"], rec["text"],
                [tuple(p) for p in sidecar.get(rec["id"], rec.get("persons") or [])]
                if args.persons == "external" else None)
               for lineno, rec in read_raw_records(args.in_path, skip_bad=args.skip_bad))
    with closing(packworker.map_ordered(functools.partial(_annotate_lines, lexicon), records)) as lines:
        count = write_atomic(args.out_path, lines)  # a failed write closes the map, which stops the worker
    print(f"annotated {count} records -> {args.out_path}")
    return [args.out_path]


def cmd_refine(args, derived) -> list[str]:
    derived.update(docs_read=0, docs_kept=0, sentences_dropped=0, tokens_read=0, tokens_kept=0)

    def kept_lines():
        for doc in read_documents(args.in_path):
            refined = refine_document(doc)
            derived["docs_read"] += 1
            derived["tokens_read"] += len(doc.token_texts)
            derived["sentences_dropped"] += len(doc.sentence_bounds)
            if refined is not None:
                derived["docs_kept"] += 1
                derived["tokens_kept"] += len(refined.token_texts)
                derived["sentences_dropped"] -= len(refined.sentence_bounds)
                yield jsonl_line(document_to_record(refined))

    write_atomic(args.out_path, kept_lines())
    print(f"refined {derived['docs_read']} -> kept {derived['docs_kept']} documents -> {args.out_path}")
    return [args.out_path]


def cmd_calendar(args, derived) -> list[str]:
    calendar = build_entity_calendar(read_documents(args.in_path))
    calendar.save(args.out_path)
    print(f"calendar with {len(calendar.months)} months -> {args.out_path}")
    return [args.out_path]


def _corpus_setup(args, need_calendar: bool):
    docs = list(read_documents(args.in_path))
    if not docs:
        raise ConfigError("input corpus is empty")
    span = CorpusSpan.parse(args.span) if args.span else derive_corpus_span(docs)
    calendar = None
    if args.calendar:
        calendar = EntityCalendar.load(args.calendar)
    elif need_calendar:
        calendar = build_entity_calendar(docs)
    if args.vocab:
        vocab = Vocabulary.from_json(read_json(args.vocab))
    else:
        # the kept tokens only: a refined document's text still holds the sentences refine dropped
        vocab = build_vocab(Counter(w for d in docs for w in d.token_texts), target_size=args.vocab_size)
    return docs, span, calendar, vocab


def cmd_examples(args, derived) -> list[str]:
    objectives = _parse_objectives(args.objectives)
    docs, span, calendar, vocab = _corpus_setup(args, Objective.TSER in objectives)
    lexicon = SignalLexicon.default()
    count = write_atomic(args.out_path, (jsonl_line(example_to_record(build_training_example(
        doc, objectives, vocab, span=span, calendar=calendar, lexicon=lexicon, seed=args.seed,
        epoch=args.epoch, max_len=args.max_len))) for doc in docs))
    print(f"{count} training examples -> {args.out_path}")
    return [args.out_path]


def cmd_pretrain(args, derived) -> list[str]:
    objectives = _parse_objectives(args.objectives)
    docs, span, calendar, vocab = _corpus_setup(args, Objective.TSER in objectives)
    enc_config = EncoderConfig(
        layers=args.layers, hidden_dim=args.hidden_dim, heads=args.heads, ffn_dim=args.ffn_dim,
        max_len=args.max_len, vocab_size=vocab.size, dd_classes=span.class_count(Granularity.MONTH), seed=args.seed,
    )
    settings = PretrainSettings(
        objectives=objectives, seed=args.seed, steps=args.steps,
        batch_size=args.batch_size, grad_accum=args.grad_accum, lr=args.lr,
    )
    derived["encoder"] = enc_config.to_json()
    params, optimizer, logs = pretrain(docs, vocab, enc_config, settings, span=span, calendar=calendar)
    ckpt = EncoderCheckpoint(config=enc_config, vocab=vocab, params=params, step=settings.steps)
    if args.save_optimizer:
        ckpt.optimizer = (optimizer.m, optimizer.v)
        ckpt.optimizer_step = optimizer.t
    checkpoint_save(ckpt, args.out_path)
    loss_path = f"{args.out_path}.loss.jsonl"
    write_atomic(loss_path, (jsonl_line({"step": log.step, "loss": log.loss, **log.parts}) for log in logs))
    print(f"pre-trained {settings.steps} steps (loss {logs[0].loss:.3f} -> {logs[-1].loss:.3f}) -> {args.out_path}")
    return [args.out_path, loss_path]


def _parse_grid(text: str) -> tuple[tuple[int, float, int], ...]:
    combos = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            batch_size, lr, epochs = part.split(":")
            combos.append((int(batch_size), float(lr), int(epochs)))
        except ValueError:
            raise ConfigError(f"grid entry must be batch:lr:epochs, got {part!r}") from None
    if not combos:
        raise ConfigError("empty hyperparameter grid")
    return tuple(combos)


def _granularity(text: str) -> Granularity:
    try:
        return Granularity(text.lower())
    except ValueError:
        raise ConfigError(f"unknown granularity {text!r}") from None


def _load_instances(path, granularity, span):
    records = list(read_task_records(path))
    if span is None:
        span = derive_task_span(records)
    return [record_to_instance(r, granularity, span) for r in records], span


def cmd_finetune(args, derived) -> list[str]:
    ckpt = checkpoint_load(args.checkpoint)
    granularity = _granularity(args.granularity)
    span = CorpusSpan.parse(args.span) if args.span else None
    train, span = _load_instances(args.train, granularity, span)
    val, _ = _load_instances(args.val, granularity, span)
    grid = _parse_grid(args.grid) if args.grid else DEFAULT_GRID
    n_classes = span.class_count(granularity)
    derived.update(classes=n_classes, span=span.render(), grid=[list(g) for g in grid])
    model = finetune_classifier(ckpt, train, val, n_classes, grid=grid, seed=args.seed)
    out = EncoderCheckpoint(
        config=model.config, vocab=model.vocab, params=model.params, step=ckpt.step,
        task={
            "granularity": granularity.value,
            "span": span.render(),
            "n_classes": n_classes,
            "selected": list(model.selected),
            "val_acc": model.val_acc,
        },
    )
    checkpoint_save(out, args.out_path)
    print(
        f"fine-tuned ({granularity.value}, {n_classes} classes); "
        f"selected batch={model.selected[0]} lr={model.selected[1]} epochs={model.selected[2]}; "
        f"val ACC {model.val_acc:.2f} -> {args.out_path}"
    )
    return [args.out_path]


def _finetuned_from_checkpoint(ckpt: EncoderCheckpoint) -> FinetunedModel:
    if "cls.w" not in ckpt.params or ckpt.task is None:
        raise ConfigError("checkpoint has no fine-tuned classification head")
    return FinetunedModel(ckpt.config, ckpt.vocab, ckpt.params, ckpt.task["n_classes"])


def _score_model(model: FinetunedModel, test) -> tuple[float, float]:
    preds = [model.predict(inst.full_text()) for inst in test]
    golds = [inst.gold.index for inst in test]
    return metric_acc(preds, golds), metric_mae(preds, golds)


def _baseline_accs(args) -> list[float] | None:
    """The ``run_accs`` of ``--baseline-report``, checked before any run."""
    if not args.baseline_report:
        return None
    if args.runs < 2:
        raise ConfigError("--baseline-report needs --runs 2 or more")
    baseline = read_json(args.baseline_report)
    accs = baseline.get("run_accs") if isinstance(baseline, dict) else None
    if not (isinstance(accs, list) and len(accs) >= 2
            and all(type(a) in (int, float) and math.isfinite(a) for a in accs)):
        raise ConfigError(f"{args.baseline_report}: a baseline report needs 'run_accs', a list of 2 or more numbers")
    return accs


def cmd_eval(args, derived) -> list[str]:
    if args.task == "semantic-change":
        return _eval_semantic_change(args)
    baseline = _baseline_accs(args)
    _need(args, *(("base_checkpoint", "train", "val", "test") if args.runs > 1 else ("checkpoint", "test")))
    span = CorpusSpan.parse(args.span) if args.span else None
    if args.runs > 1:
        # 5-run protocol: refit with seed offsets 0..runs-1, average scores
        base = checkpoint_load(args.base_checkpoint)
        granularity = _granularity(args.granularity or "year")
        train, span = _load_instances(args.train, granularity, span)
        val, _ = _load_instances(args.val, granularity, span)
        test, _ = _load_instances(args.test, granularity, span)
        grid = _parse_grid(args.grid) if args.grid else DEFAULT_GRID
        n_classes = span.class_count(granularity)
        models = (finetune_classifier(base, train, val, n_classes, grid=grid, seed=args.seed + offset)
                  for offset in range(args.runs))
    else:
        ckpt = checkpoint_load(args.checkpoint)
        models = [_finetuned_from_checkpoint(ckpt)]
        granularity = _granularity(args.granularity or ckpt.task["granularity"])
        span = span or CorpusSpan.parse(ckpt.task["span"])
        test, _ = _load_instances(args.test, granularity, span)
    run_accs, run_maes = (list(scores) for scores in zip(*(_score_model(model, test) for model in models)))
    report = MetricReport(
        acc=float(np.mean(run_accs)),
        mae=float(np.mean(run_maes)),
        metadata={
            "task": args.task,
            "granularity": granularity.value,
            "span": span.render(),
            "n": len(test),
            "run_accs": run_accs,
            "run_maes": run_maes,
        },
    )
    if baseline is not None:
        _, report.p_value = two_tailed_ttest(run_accs, baseline)
    return _write_report(report, args)


def _write_report(report: MetricReport, args) -> list[str]:
    """Print ``report`` as a table and write it to ``--report`` if given; return what was written."""
    table = [("metric", "value")]
    for key, value in report.to_json().items():
        if isinstance(value, float):
            table.append((key, f"{value:.4f}"))
        elif value is not None and not isinstance(value, (dict, list)):
            table.append((key, str(value)))
    width = max(len(k) for k, _ in table)
    for key, value in table:
        print(f"{key:<{width}}  {value}")
    if not args.report:
        return []
    write_atomic(args.report, [report.dumps() + "\n"])
    return [args.report]


def _eval_semantic_change(args) -> list[str]:
    _need(args, "checkpoint", "gold", "corpus_t1", "corpus_t2")
    ckpt = checkpoint_load(args.checkpoint)
    gold = read_gold_shifts(args.gold)
    sentences_t1 = [line for _, line in read_lines(args.corpus_t1)]
    sentences_t2 = [line for _, line in read_lines(args.corpus_t2)]
    params = ckpt.params
    if args.adapt_epochs > 0:
        params = adapt_mlm(
            dict(params), ckpt.config, ckpt.vocab,
            sentences_t1 + sentences_t2, lr=args.adapt_lr, epochs=args.adapt_epochs, seed=args.seed,
        )
    scores, pearson, spearman = evaluate_semantic_change(
        params, ckpt.config, ckpt.vocab, gold, sentences_t1, sentences_t2,
    )
    report = MetricReport(
        pearson=pearson, spearman=spearman,
        metadata={"task": "semantic-change", "n_words": len(gold), "scores": scores},
    )
    return _write_report(report, args)


def cmd_similarity(args, derived) -> list[str]:
    try:
        first, last = (int(y) for y in args.years.split(":"))
    except ValueError:
        raise ConfigError(f"--years must be FIRST:LAST, got {args.years!r}") from None
    ckpt = checkpoint_load(args.checkpoint)
    vocabulary = year_vocabulary(first, last)
    records = list(read_task_records(args.events))
    top1 = topk = 0
    rows = []
    for rec in records:
        ranking = zero_shot_similarity(ckpt.params, ckpt.config, ckpt.vocab, rec["text"], vocabulary)
        years = [tp.year for tp, _ in ranking]
        gold_year = int(rec["time"][:4])
        top1 += years[0] == gold_year
        topk += gold_year in years[: args.top]
        rows.append({"text": rec["text"], "gold": gold_year, "ranking": years[: args.top]})
    n = len(records)
    report = MetricReport(
        acc=100.0 * top1 / n if n else 0.0,
        metadata={
            "task": "zero-shot-similarity",
            "vocabulary_size": len(vocabulary),
            "n": n,
            f"top{args.top}_rate": topk / n if n else 0.0,
            "rankings": rows,
        },
    )
    return _write_report(report, args)


def cmd_timescope(args, derived) -> list[str]:
    ckpt = checkpoint_load(args.checkpoint)
    model = _finetuned_from_checkpoint(ckpt)
    if ckpt.task["granularity"] != Granularity.MONTH.value:
        raise ConfigError("time-scope estimation needs a month-granularity model")
    span = CorpusSpan.parse(args.span or ckpt.task["span"])
    rows = []
    for rec in list(read_task_records(args.in_path, required=("text",))):
        text = model_text(rec["text"], rec.get("context_timestamp"), rec.get("context_text"))
        start, end = estimate_time_scope(model, text, span)
        rows.append({"text": rec["text"], "start": start.render(), "end": end.render()})
    write_atomic(args.out_path, (jsonl_line(row) for row in rows))
    print(f"estimated {len(rows)} time scopes -> {args.out_path}")
    return [args.out_path]


def build_parser(defaults: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` (config key -> value text) replace the table's defaults."""
    defaults = defaults or {}
    parser = argparse.ArgumentParser(
        prog="tempolm",
        description="Time-aware encoder pre-training pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, body, help, *keys):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=InFile,
                       help="key = value file of defaults for the options that name a config key")
        keys = dict.fromkeys(("seed", *keys))
        for key in keys:
            kind, default = CONFIG_OPTIONS[key]
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind, default=default,
                           help="default %(default)s; config key %(dest)s")
        p.set_defaults(func=functools.partial(_run_stage, body),
                       **{key: value for key, value in defaults.items() if key in keys})
        return p

    p = stage("annotate", cmd_annotate, "annotate a raw corpus")
    p.add_argument("--in", dest="in_path", type=InFile, required=True)
    p.add_argument("--out", dest="out_path", type=OutFile, required=True)
    p.add_argument("--persons", choices=("heuristic", "external"), default="heuristic")
    p.add_argument("--persons-file", type=InFile, help="sidecar JSONL with doc_id + persons")
    p.add_argument("--lexicon", type=InFile, help="signal lexicon file (phrase<TAB>CLASS)")
    p.add_argument("--skip-bad", action="store_true")

    p = stage("refine", cmd_refine, "drop sentences without content time")
    p.add_argument("--in", dest="in_path", type=InFile, required=True)
    p.add_argument("--out", dest="out_path", type=OutFile, required=True)

    p = stage("calendar", cmd_calendar, "build the monthly person-entity calendar")
    p.add_argument("--in", dest="in_path", type=InFile, required=True)
    p.add_argument("--out", dest="out_path", type=OutFile, required=True)

    p = stage("examples", cmd_examples, "emit training examples", "vocab_size", "max_len")
    p.add_argument("--in", dest="in_path", type=InFile, required=True)
    p.add_argument("--out", dest="out_path", type=OutFile, required=True)
    p.add_argument("--objectives", required=True, help="comma list: etamlm,dd,tser,tsemlm,trwr")
    p.add_argument("--calendar", type=InFile)
    p.add_argument("--vocab", type=InFile)
    p.add_argument("--span", help="corpus span START..END")
    p.add_argument("--epoch", type=int, default=0)

    p = stage("pretrain", cmd_pretrain, "joint multi-task pre-training", *CONFIG_OPTIONS)
    p.add_argument("--in", dest="in_path", type=InFile, required=True)
    p.add_argument("--out", dest="out_path", type=OutFile, required=True)
    p.add_argument("--objectives", default="etamlm,dd,tser")
    p.add_argument("--calendar", type=InFile)
    p.add_argument("--vocab", type=InFile)
    p.add_argument("--span")
    p.add_argument("--save-optimizer", action="store_true")

    p = stage("finetune", cmd_finetune, "fine-tune a time classifier")
    p.add_argument("--checkpoint", type=InFile, required=True)
    p.add_argument("--train", type=InFile, required=True)
    p.add_argument("--val", type=InFile, required=True)
    p.add_argument("--out", dest="out_path", type=OutFile, required=True)
    p.add_argument("--granularity", default="year")
    p.add_argument("--span")
    p.add_argument("--grid", help="comma list of batch:lr:epochs")

    p = stage("eval", cmd_eval, "evaluate a model on a task")
    p.add_argument("--task", default="document-dating",
                   choices=("document-dating", "event-time", "semantic-change"))
    p.add_argument("--checkpoint", type=InFile, help="fine-tuned checkpoint (single-run mode)")
    p.add_argument("--test", type=InFile)
    p.add_argument("--granularity")
    p.add_argument("--span")
    p.add_argument("--report", type=OutFile)
    p.add_argument("--runs", type=int, default=1,
                   help="refit this many times with seed offsets and average")
    p.add_argument("--base-checkpoint", dest="base_checkpoint", type=InFile,
                   help="pre-trained checkpoint to refit from when --runs > 1")
    p.add_argument("--train", type=InFile)
    p.add_argument("--val", type=InFile)
    p.add_argument("--grid", help="comma list of batch:lr:epochs for --runs mode")
    p.add_argument("--baseline-report", dest="baseline_report", type=InFile,
                   help="previous --runs report with run_accs; adds a Welch t-test p-value (needs --runs >= 2)")
    p.add_argument("--gold", type=InFile, help="semantic-change gold file word<TAB>shift")
    p.add_argument("--corpus-t1", dest="corpus_t1", type=InFile)
    p.add_argument("--corpus-t2", dest="corpus_t2", type=InFile)
    p.add_argument("--adapt-lr", dest="adapt_lr", type=float, default=1e-6)
    p.add_argument("--adapt-epochs", dest="adapt_epochs", type=int, default=0)

    p = stage("similarity", cmd_similarity, "zero-shot temporal similarity ranking")
    p.add_argument("--checkpoint", type=InFile, required=True)
    p.add_argument("--events", type=InFile, required=True)
    p.add_argument("--years", default="1987:2007")
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--report", type=OutFile)

    p = stage("timescope", cmd_timescope, "estimate (start, end) month scopes")
    p.add_argument("--checkpoint", type=InFile, required=True)
    p.add_argument("--in", dest="in_path", type=InFile, required=True)
    p.add_argument("--out", dest="out_path", type=OutFile, required=True)
    p.add_argument("--span")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config or "TEMPO_SEED" in os.environ:
            # the config file, then TEMPO_SEED over its seed, become the defaults of a second parse,
            # so argparse types each value and a flag still beats it
            defaults = parse_config_file(_inputs(args)["config"]) if args.config else {}
            unknown = sorted(set(defaults) - set(CONFIG_OPTIONS))
            if unknown:
                raise ConfigError(f"{args.config}: unknown config key {', '.join(map(repr, unknown))}; "
                                  f"known keys: {', '.join(CONFIG_OPTIONS)}")
            if "TEMPO_SEED" in os.environ:
                defaults["seed"] = os.environ["TEMPO_SEED"]
            args = build_parser(defaults).parse_args(argv)
        return args.func(args)
    except TempoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
