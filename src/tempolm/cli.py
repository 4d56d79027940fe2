"""Command-line orchestration of the full pipeline.

Stages: annotate, refine, calendar, examples, pretrain, finetune, eval,
similarity, timescope. Each stage consumes and produces the documented
file formats and writes a ``<output>.manifest.json``. All randomness flows
from the single run seed (flag > TEMPO_SEED env > config file > default).
Exit code 0 on success, 2 on validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .annotate import annotate_document
from .checkpoint import EncoderCheckpoint, checkpoint_load, checkpoint_save
from .corpus import (
    EntityCalendar,
    build_entity_calendar,
    derive_corpus_span,
    document_to_record,
    read_documents,
    read_raw_records,
    record_to_document,
    refine_document,
)
from .datasets import derive_task_span, read_task_records, record_to_instance
from .encoder import EncoderConfig
from .errors import ConfigError, DependencyMissingError, TempoError
from .finetune import DEFAULT_GRID, FinetunedModel, finetune_classifier, model_text
from .lexicon import SignalLexicon
from .manifest import ManifestWriter, jsonl_line, parse_config_file, read_json, write_atomic
from .metrics import MetricReport, metric_acc, metric_mae, two_tailed_ttest
from .objectives import Objective, SamplingRates, build_training_example, example_to_record
from .pretrain import PretrainSettings, pretrain
from .semchange import adapt_mlm, evaluate_semantic_change, read_gold_shifts
from .similarity import estimate_time_scope, year_vocabulary, zero_shot_similarity
from .timescale import CorpusSpan, Granularity
from .vocab import Vocabulary, build_vocab

_WORKER_STATE: dict = {}


def _require(path: str | None, stage: str) -> Path:
    if path is None:
        raise ConfigError(f"stage '{stage}' is missing a required path argument")
    p = Path(path)
    if not p.exists():
        raise DependencyMissingError(stage, str(p))
    return p


def _effective_seed(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("TEMPO_SEED")
    if env is not None:
        return int(env)
    if "seed" in config:
        return int(config["seed"])
    return 0


def _config_get(args, config: dict, name: str, cast, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return cast(config[name])
    return default


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        return parse_config_file(_require(args.config, "config"))
    return {}


def _parse_objectives(text: str) -> frozenset[Objective]:
    try:
        return frozenset(Objective(name.strip().lower()) for name in text.split(",") if name.strip())
    except ValueError as exc:
        raise ConfigError(f"unknown objective in {text!r}: {exc}") from None


def _annotate_worker(item):
    lineno, rec = item
    lexicon = _WORKER_STATE["lexicon"]
    persons = None
    if _WORKER_STATE["mode"] == "external":
        persons = [tuple(p) for p in rec.get("persons") or []]
        sidecar = _WORKER_STATE["sidecar"]
        if sidecar is not None:
            persons = [tuple(p) for p in sidecar.get(rec["id"], persons or [])]
    doc = annotate_document(rec["id"], rec["timestamp"], rec["text"], persons=persons, lexicon=lexicon)
    return jsonl_line(document_to_record(doc))


def _init_worker(state):
    _WORKER_STATE.update(state)


def _map_ordered(worker, items, jobs: int, state: dict):
    _init_worker(state)
    if jobs <= 1:
        for item in items:
            yield worker(item)
        return
    import multiprocessing  # besides packworker, the one place that starts processes

    with multiprocessing.Pool(jobs, initializer=_init_worker, initargs=(state,)) as pool:
        yield from pool.imap(worker, items, chunksize=16)


def cmd_annotate(args) -> int:
    config = _load_config(args)
    in_path = _require(args.in_path, "annotate")
    lexicon = SignalLexicon.load(_require(args.lexicon, "annotate")) if args.lexicon else SignalLexicon.default()
    sidecar = None
    if args.persons_file:
        sidecar_records = read_task_records(_require(args.persons_file, "annotate"), required=("doc_id", "persons"))
        sidecar = {rec["doc_id"]: rec["persons"] for rec in sidecar_records}
    manifest = ManifestWriter("annotate", {"persons": args.persons, "jobs": args.jobs}, [in_path])
    state = {"lexicon": lexicon, "mode": args.persons, "sidecar": sidecar}
    records = enumerate(read_raw_records(in_path, skip_bad=args.skip_bad), start=1)
    count = write_atomic(args.out_path, _map_ordered(_annotate_worker, records, args.jobs, state))
    manifest.write(args.out_path)
    print(f"annotated {count} records -> {args.out_path}")
    return 0


def cmd_refine(args) -> int:
    in_path = _require(args.in_path, "refine")
    manifest = ManifestWriter("refine", {}, [in_path])
    total = 0

    def kept_lines():
        nonlocal total
        for total, doc in enumerate(read_documents(in_path), start=1):
            refined = refine_document(doc)
            if refined is not None:
                yield jsonl_line(document_to_record(refined))

    kept = write_atomic(args.out_path, kept_lines())
    manifest.write(args.out_path)
    print(f"refined {total} -> kept {kept} documents -> {args.out_path}")
    return 0


def cmd_calendar(args) -> int:
    in_path = _require(args.in_path, "calendar")
    manifest = ManifestWriter("calendar", {}, [in_path])
    calendar = build_entity_calendar(read_documents(in_path))
    calendar.save(args.out_path)
    manifest.write(args.out_path)
    print(f"calendar with {len(calendar.months)} months -> {args.out_path}")
    return 0


def _examples_worker(item):
    rec = item
    state = _WORKER_STATE
    doc = record_to_document(rec)
    ex = build_training_example(
        doc, state["objectives"], state["vocab"],
        span=state["span"], calendar=state["calendar"], lexicon=state["lexicon"],
        rates=state["rates"], seed=state["seed"], epoch=state["epoch"],
        max_len=state["max_len"],
    )
    return jsonl_line(example_to_record(ex))


def _corpus_setup(args, config, in_path, need_calendar: bool, stage: str):
    docs = list(read_documents(in_path))
    if not docs:
        raise ConfigError("input corpus is empty")
    span = CorpusSpan.parse(args.span) if args.span else derive_corpus_span(docs)
    calendar = None
    if args.calendar:
        calendar = EntityCalendar.load(_require(args.calendar, stage))
    elif need_calendar:
        calendar = build_entity_calendar(docs)
    if args.vocab:
        vocab = Vocabulary.from_json(read_json(_require(args.vocab, stage)))
    else:
        vocab_size = _config_get(args, config, "vocab_size", int, 512)
        vocab = build_vocab([d.text for d in docs], target_size=vocab_size)
    return docs, span, calendar, vocab


def cmd_examples(args) -> int:
    config = _load_config(args)
    in_path = _require(args.in_path, "examples")
    objectives = _parse_objectives(args.objectives)
    docs, span, calendar, vocab = _corpus_setup(args, config, in_path, Objective.TSER in objectives, "examples")
    seed = _effective_seed(args, config)
    manifest = ManifestWriter("examples", {
        "objectives": sorted(o.value for o in objectives), "seed": seed, "epoch": args.epoch,
    }, [in_path])
    state = {
        "objectives": objectives, "vocab": vocab, "span": span, "calendar": calendar,
        "lexicon": SignalLexicon.default(), "rates": SamplingRates(), "seed": seed,
        "epoch": args.epoch, "max_len": _config_get(args, config, "max_len", int, 128),
    }
    records = (document_to_record(d) for d in docs)
    count = write_atomic(args.out_path, _map_ordered(_examples_worker, records, args.jobs, state))
    manifest.write(args.out_path)
    print(f"{count} training examples -> {args.out_path}")
    return 0


def cmd_pretrain(args) -> int:
    config = _load_config(args)
    in_path = _require(args.in_path, "pretrain")
    objectives = _parse_objectives(args.objectives)
    docs, span, calendar, vocab = _corpus_setup(args, config, in_path, Objective.TSER in objectives, "pretrain")
    seed = _effective_seed(args, config)
    enc_config = EncoderConfig(
        layers=_config_get(args, config, "layers", int, 2),
        hidden_dim=_config_get(args, config, "hidden_dim", int, 96),
        heads=_config_get(args, config, "heads", int, 4),
        ffn_dim=_config_get(args, config, "ffn_dim", int, 192),
        max_len=_config_get(args, config, "max_len", int, 128),
        vocab_size=vocab.size,
        dd_classes=span.class_count(Granularity.MONTH),
        seed=seed,
    )
    settings = PretrainSettings(
        objectives=objectives,
        seed=seed,
        steps=_config_get(args, config, "steps", int, 50),
        batch_size=_config_get(args, config, "batch_size", int, 8),
        grad_accum=_config_get(args, config, "grad_accum", int, 8),
        lr=_config_get(args, config, "lr", float, 3e-5),
    )
    manifest = ManifestWriter("pretrain", {
        "objectives": sorted(o.value for o in objectives), "seed": seed,
        "steps": settings.steps, "batch_size": settings.batch_size,
        "grad_accum": settings.grad_accum, "lr": settings.lr,
        "encoder": enc_config.to_json(),
    }, [in_path])
    params, optimizer, logs = pretrain(docs, vocab, enc_config, settings, span=span, calendar=calendar)
    ckpt = EncoderCheckpoint(config=enc_config, vocab=vocab, params=params, step=settings.steps)
    if args.save_optimizer:
        ckpt.optimizer = optimizer.state_tensors()
        ckpt.optimizer_step = optimizer.t
    checkpoint_save(ckpt, args.out_path)
    loss_path = f"{args.out_path}.loss.jsonl"
    write_atomic(loss_path, (jsonl_line({"step": log.step, "loss": log.loss, **log.parts}) for log in logs))
    manifest.write(args.out_path, loss_path)
    print(f"pre-trained {settings.steps} steps (loss {logs[0].loss:.3f} -> {logs[-1].loss:.3f}) -> {args.out_path}")
    return 0


def _parse_grid(text: str) -> tuple[tuple[int, float, int], ...]:
    combos = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 3:
            raise ConfigError(f"grid entry must be batch:lr:epochs, got {part!r}")
        combos.append((int(fields[0]), float(fields[1]), int(fields[2])))
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


def cmd_finetune(args) -> int:
    config = _load_config(args)
    ckpt = checkpoint_load(_require(args.checkpoint, "finetune"))
    granularity = _granularity(args.granularity)
    span = CorpusSpan.parse(args.span) if args.span else None
    train, span = _load_instances(_require(args.train, "finetune"), granularity, span)
    val, _ = _load_instances(_require(args.val, "finetune"), granularity, span)
    seed = _effective_seed(args, config)
    grid = _parse_grid(args.grid) if args.grid else DEFAULT_GRID
    n_classes = span.class_count(granularity)
    manifest = ManifestWriter("finetune", {
        "granularity": granularity.value, "span": span.render(),
        "classes": n_classes, "grid": [list(g) for g in grid], "seed": seed,
    }, [args.checkpoint, args.train, args.val])
    model = finetune_classifier(ckpt, train, val, n_classes, grid=grid, seed=seed)
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
    manifest.write(args.out_path)
    print(
        f"fine-tuned ({granularity.value}, {n_classes} classes); "
        f"selected batch={model.selected[0]} lr={model.selected[1]} epochs={model.selected[2]}; "
        f"val ACC {model.val_acc:.2f} -> {args.out_path}"
    )
    return 0


def _finetuned_from_checkpoint(ckpt: EncoderCheckpoint) -> FinetunedModel:
    if "cls.w" not in ckpt.params or ckpt.task is None:
        raise ConfigError("checkpoint has no fine-tuned classification head")
    return FinetunedModel(ckpt.config, ckpt.vocab, ckpt.params, ckpt.task["n_classes"])


def _score_model(model: FinetunedModel, test) -> tuple[float, float]:
    preds = [model.predict(inst.full_text()) for inst in test]
    golds = [inst.gold.index for inst in test]
    return metric_acc(preds, golds), metric_mae(preds, golds)


def cmd_eval(args) -> int:
    if args.task == "semantic-change":
        return _eval_semantic_change(args)
    granularity = None
    span = CorpusSpan.parse(args.span) if args.span else None
    run_accs: list[float] = []
    run_maes: list[float] = []
    inputs = (args.base_checkpoint, args.train, args.val, args.test) if args.runs > 1 else (args.checkpoint, args.test)
    manifest = ManifestWriter("eval", {"task": args.task, "runs": args.runs}, [_require(p, "eval") for p in inputs])
    if args.runs > 1:
        # 5-run protocol: refit with seed offsets 0..runs-1, average scores
        base = checkpoint_load(args.base_checkpoint)
        granularity = _granularity(args.granularity or "year")
        train, span = _load_instances(args.train, granularity, span)
        val, _ = _load_instances(args.val, granularity, span)
        test, _ = _load_instances(args.test, granularity, span)
        seed = _effective_seed(args, _load_config(args))
        grid = _parse_grid(args.grid) if args.grid else DEFAULT_GRID
        n_classes = span.class_count(granularity)
        for offset in range(args.runs):
            model = finetune_classifier(base, train, val, n_classes, grid=grid, seed=seed + offset)
            acc, mae = _score_model(model, test)
            run_accs.append(acc)
            run_maes.append(mae)
    else:
        ckpt = checkpoint_load(args.checkpoint)
        model = _finetuned_from_checkpoint(ckpt)
        granularity = _granularity(args.granularity or ckpt.task["granularity"])
        span = span or CorpusSpan.parse(ckpt.task["span"])
        test, _ = _load_instances(args.test, granularity, span)
        acc, mae = _score_model(model, test)
        run_accs.append(acc)
        run_maes.append(mae)
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
    if args.baseline_report:
        baseline = read_json(_require(args.baseline_report, "eval"))
        other = baseline.get("run_accs", [])
        if len(other) >= 2 and len(run_accs) >= 2:
            _, p = two_tailed_ttest(run_accs, other)
            report.p_value = p
    _write_report(report, args, manifest)
    return 0


def _write_report(report: MetricReport, args, manifest: ManifestWriter) -> None:
    table = [("metric", "value")]
    for key, value in report.to_json().items():
        if isinstance(value, float):
            table.append((key, f"{value:.4f}"))
        elif value is not None and not isinstance(value, (dict, list)):
            table.append((key, str(value)))
    width = max(len(k) for k, _ in table)
    for key, value in table:
        print(f"{key:<{width}}  {value}")
    if args.report:
        write_atomic(args.report, [report.dumps() + "\n"])
        manifest.write(args.report)


def _eval_semantic_change(args) -> int:
    ckpt = checkpoint_load(_require(args.checkpoint, "eval"))
    gold = read_gold_shifts(_require(args.gold, "eval"))
    sentences_t1 = Path(_require(args.corpus_t1, "eval")).read_text(encoding="utf-8").splitlines()
    sentences_t2 = Path(_require(args.corpus_t2, "eval")).read_text(encoding="utf-8").splitlines()
    manifest = ManifestWriter("eval", {"task": "semantic-change"},
                              [args.checkpoint, args.gold, args.corpus_t1, args.corpus_t2])
    params = ckpt.params
    if args.adapt_epochs > 0:
        params = adapt_mlm(
            {k: v.copy() for k, v in params.items()}, ckpt.config, ckpt.vocab,
            sentences_t1 + sentences_t2, lr=args.adapt_lr, epochs=args.adapt_epochs,
        )
    scores, pearson, spearman = evaluate_semantic_change(
        params, ckpt.config, ckpt.vocab, gold, sentences_t1, sentences_t2,
    )
    report = MetricReport(
        pearson=pearson, spearman=spearman,
        metadata={"task": "semantic-change", "n_words": len(gold), "scores": scores},
    )
    _write_report(report, args, manifest)
    return 0


def cmd_similarity(args) -> int:
    try:
        first, last = (int(y) for y in args.years.split(":"))
    except ValueError:
        raise ConfigError(f"--years must be FIRST:LAST, got {args.years!r}") from None
    ckpt = checkpoint_load(_require(args.checkpoint, "similarity"))
    vocabulary = year_vocabulary(first, last)
    records = list(read_task_records(_require(args.events, "similarity")))
    manifest = ManifestWriter("similarity", {"years": args.years, "top": args.top}, [args.checkpoint, args.events])
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
    _write_report(report, args, manifest)
    return 0


def cmd_timescope(args) -> int:
    ckpt = checkpoint_load(_require(args.checkpoint, "timescope"))
    model = _finetuned_from_checkpoint(ckpt)
    if ckpt.task["granularity"] != Granularity.MONTH.value:
        raise ConfigError("time-scope estimation needs a month-granularity model")
    span = CorpusSpan.parse(args.span or ckpt.task["span"])
    in_path = _require(args.in_path, "timescope")
    manifest = ManifestWriter("timescope", {"span": span.render()}, [args.checkpoint, in_path])
    rows = []
    for rec in list(read_task_records(in_path, required=("text",))):
        text = model_text(rec["text"], rec.get("context_timestamp"), rec.get("context_text"))
        start, end = estimate_time_scope(model, text, span)
        rows.append({"text": rec["text"], "start": start.render(), "end": end.render()})
    write_atomic(args.out_path, (jsonl_line(row) for row in rows))
    manifest.write(args.out_path)
    print(f"estimated {len(rows)} time scopes -> {args.out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempolm",
        description="Time-aware encoder pre-training pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("annotate", help="annotate a raw corpus")
    common(p)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--persons", choices=("heuristic", "external"), default="heuristic")
    p.add_argument("--persons-file", help="sidecar JSONL with doc_id + persons")
    p.add_argument("--lexicon", help="signal lexicon file (phrase<TAB>CLASS)")
    p.add_argument("--skip-bad", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("refine", help="drop sentences without content time")
    common(p)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("calendar", help="build the monthly person-entity calendar")
    common(p)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.set_defaults(func=cmd_calendar)

    p = sub.add_parser("examples", help="emit training examples")
    common(p)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--objectives", required=True, help="comma list: etamlm,dd,tser,tsemlm,trwr")
    p.add_argument("--calendar")
    p.add_argument("--vocab")
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=None)
    p.add_argument("--span", help="corpus span START..END")
    p.add_argument("--epoch", type=int, default=0)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("pretrain", help="joint multi-task pre-training")
    common(p)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--objectives", default="etamlm,dd,tser")
    p.add_argument("--calendar")
    p.add_argument("--vocab")
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=None)
    p.add_argument("--span")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--grad-accum", dest="grad_accum", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--ffn-dim", dest="ffn_dim", type=int, default=None)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--save-optimizer", action="store_true")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a time classifier")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--granularity", default="year")
    p.add_argument("--span")
    p.add_argument("--grid", help="comma list of batch:lr:epochs")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a model on a task")
    common(p)
    p.add_argument("--task", default="document-dating",
                   choices=("document-dating", "event-time", "semantic-change"))
    p.add_argument("--checkpoint", help="fine-tuned checkpoint (single-run mode)")
    p.add_argument("--test")
    p.add_argument("--granularity")
    p.add_argument("--span")
    p.add_argument("--report")
    p.add_argument("--runs", type=int, default=1,
                   help="refit this many times with seed offsets and average")
    p.add_argument("--base-checkpoint", dest="base_checkpoint",
                   help="pre-trained checkpoint to refit from when --runs > 1")
    p.add_argument("--train")
    p.add_argument("--val")
    p.add_argument("--grid", help="comma list of batch:lr:epochs for --runs mode")
    p.add_argument("--baseline-report", dest="baseline_report",
                   help="previous report with run_accs; adds a Welch t-test p-value")
    p.add_argument("--gold", help="semantic-change gold file word<TAB>shift")
    p.add_argument("--corpus-t1", dest="corpus_t1")
    p.add_argument("--corpus-t2", dest="corpus_t2")
    p.add_argument("--adapt-lr", dest="adapt_lr", type=float, default=1e-6)
    p.add_argument("--adapt-epochs", dest="adapt_epochs", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("similarity", help="zero-shot temporal similarity ranking")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--years", default="1987:2007")
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--report")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("timescope", help="estimate (start, end) month scopes")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--span")
    p.set_defaults(func=cmd_timescope)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TempoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
