import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tempolm import cli, manifest, packworker
from tempolm.annotate import annotate_document
from tempolm.checkpoint import EncoderCheckpoint, checkpoint_load, checkpoint_save
from tempolm.cli import InFile, build_parser, main
from tempolm.corpus import document_to_record, read_documents
from tempolm.encoder import EncoderConfig, init_params
from tempolm.errors import DependencyMissingError
from tempolm.manifest import parse_config_file, sha256_file
from tempolm.synth import generate_corpus, generate_event_instances
from tempolm.vocab import build_vocab


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    records = generate_corpus(36, start_year=1999, end_year=2002, seed=8, undated_sentence_rate=0.2)
    raw = tmp / "raw.jsonl"
    raw.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    assert main(["annotate", "--in", str(raw), "--out", str(tmp / "ann2.jsonl")]) == 0
    assert main(["refine", "--in", str(tmp / "ann2.jsonl"), "--out", str(tmp / "ref.jsonl")]) == 0
    assert main(["calendar", "--in", str(tmp / "ref.jsonl"), "--out", str(tmp / "cal.json")]) == 0
    return tmp


def run(*args):
    return main([str(a) for a in args])


def test_annotate_counts_and_manifest(workdir, capsys):
    out = workdir / "ann.jsonl"
    assert run("annotate", "--in", workdir / "raw.jsonl", "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 36
    manifest = json.loads((workdir / "ann.jsonl.manifest.json").read_text())
    assert manifest["stage"] == "annotate"
    assert str(out) in manifest["outputs"]
    assert manifest["inputs"]


def test_refine_reports_what_it_dropped_and_reruns_to_an_equal_manifest(tmp_path):
    texts = ("Before 2006, Tupac Shakur quit. No dates here. Again in 1999 he returned.",  # 17 tokens, 13 kept
             "Nothing temporal at all. Truly nothing.",  # 8 tokens, dropped
             "In 1999 he left.")  # 5 tokens, kept whole
    raw = tmp_path / "raw.jsonl"
    _write_jsonl(raw, [{"id": f"d{i}", "timestamp": "2007-05-04", "text": t} for i, t in enumerate(texts)])
    run("annotate", "--in", raw, "--out", tmp_path / "ann.jsonl")
    manifests = []
    for _ in range(2):
        assert run("refine", "--in", tmp_path / "ann.jsonl", "--out", tmp_path / "ref.jsonl") == 0
        manifest = json.loads((tmp_path / "ref.jsonl.manifest.json").read_text())
        manifests.append({k: v for k, v in manifest.items() if k not in ("started_unix", "elapsed_s")})
    assert manifests[0]["config"]["derived"] == {
        "docs_read": 3, "docs_kept": 2, "sentences_dropped": 3, "tokens_read": 30, "tokens_kept": 18}
    assert manifests[0] == manifests[1]


def test_pretrain_learns_its_vocabulary_from_the_kept_tokens(tmp_path):
    _write_jsonl(tmp_path / "raw.jsonl", generate_corpus(120, seed=21, undated_sentence_rate=0.3))
    assert run("annotate", "--in", tmp_path / "raw.jsonl", "--out", tmp_path / "ann.jsonl") == 0
    assert run("refine", "--in", tmp_path / "ann.jsonl", "--out", tmp_path / "ref.jsonl") == 0
    assert run("pretrain", "--in", tmp_path / "ref.jsonl", "--out", tmp_path / "m.tlm", "--vocab-size", 300, *_TOY) == 0
    vocab = checkpoint_load(tmp_path / "m.tlm").vocab
    kept = list(read_documents(tmp_path / "ref.jsonl"))
    assert vocab.dumps() == build_vocab(Counter(w for d in kept for w in d.token_texts), target_size=300).dumps()
    assert vocab.dumps() != build_vocab([d.text for d in kept], target_size=300).dumps()  # texts keep dropped sentences


def test_annotate_rerun_identical_checksum(workdir, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run("annotate", "--in", workdir / "raw.jsonl", "--out", a)
    run("annotate", "--in", workdir / "raw.jsonl", "--out", b)
    assert sha256_file(a) == sha256_file(b)


needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the worker needs at least 2 usable CPUs")


@pytest.fixture
def forks(monkeypatch):
    """Each fork of the pack worker during a test, which starts and ends with no worker."""
    packworker.shutdown()
    started = []
    start = packworker._start
    monkeypatch.setattr(packworker, "_start", lambda: (started.append(1), start()))
    yield started
    packworker.shutdown()


@needs_two_cpus
def test_annotate_identical_with_and_without_worker(tmp_path, forks, monkeypatch):
    records = generate_corpus(2 * packworker.CHUNK + 8, start_year=1999, end_year=2002, seed=8,
                              undated_sentence_rate=0.2)
    for rec in records[::3]:
        word = rec["text"].split(" ", 1)[0]
        rec["persons"] = [[0, len(word), word]]
    _write_jsonl(tmp_path / "raw.jsonl", records)
    # the sidecar overrides the record's persons: with none for some documents, with a span for others
    _write_jsonl(tmp_path / "side.jsonl", [{"doc_id": r["id"], "persons": [[0, 1, r["text"][0]]] if i % 2 else []}
                                           for i, r in enumerate(records[::5])])
    variants = {"heuristic": (), "external": ("--persons", "external", "--persons-file", tmp_path / "side.jsonl")}
    outputs = {}
    for worker in (True, False):
        if not worker:
            monkeypatch.setattr(packworker, "forkable", lambda: False)
        for name, extra in variants.items():
            out = tmp_path / f"{name}-{worker}.jsonl"
            assert run("annotate", "--in", tmp_path / "raw.jsonl", "--out", out, *extra) == 0
            outputs[name, worker] = out.read_bytes()
    assert forks == [1]  # the second run with the worker reuses the first's
    assert outputs["heuristic", True] == outputs["heuristic", False]
    assert outputs["external", True] == outputs["external", False] != outputs["heuristic", True]


@needs_two_cpus
@pytest.mark.parametrize("fault", ["worker-record", "truncated-line", "write"])
def test_annotate_fault_with_a_chunk_at_the_worker_leaves_nothing(tmp_path, forks, monkeypatch, capsys, fault):
    """The worker holds the second chunk when its own record fails, when the parent reads a truncated line of the
    third chunk, and when writing fails in the first: each stops the worker and writes nothing, and the next run
    forks afresh and writes the same bytes as one process."""
    chunk = packworker.CHUNK
    lines = [json.dumps(r) + "\n" for r in generate_corpus(4 * chunk, start_year=1999, end_year=2002, seed=8)]
    (tmp_path / "good.txt").write_text("".join(lines), encoding="utf-8")
    lineno = {"worker-record": chunk + 6, "truncated-line": 2 * chunk + 6, "write": None}[fault]
    if fault == "worker-record":
        lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), "persons": [[0, 999, "X"]]}) + "\n"
    elif fault == "truncated-line":
        lines[lineno - 1] = lines[lineno - 1][:20] + "\n"
    (tmp_path / "bad.txt").write_text("".join(lines), encoding="utf-8")
    argv = ("annotate", "--in", tmp_path / "bad.txt", "--out", tmp_path / "ann.jsonl", "--persons", "external")
    if fault == "write":
        write_atomic = cli.write_atomic

        def cut(path, parts):  # the disk fills after 10 lines, while the worker holds the second chunk
            def first_ten():
                for i, part in enumerate(parts):
                    if i == 10:
                        raise OSError("disk full")
                    yield part
            return write_atomic(path, first_ten())

        monkeypatch.setattr(cli, "write_atomic", cut)
        with pytest.raises(OSError, match="disk full"):
            run(*argv)
        monkeypatch.setattr(cli, "write_atomic", write_atomic)
    else:
        assert run(*argv) == 2
        assert f"error: line {lineno}: " in capsys.readouterr().err
    assert forks == [1] and multiprocessing.active_children() == []
    assert _written(tmp_path) == []

    assert run("annotate", "--in", tmp_path / "good.txt", "--out", tmp_path / "ann.jsonl", "--persons", "external") == 0
    assert forks == [1, 1]
    monkeypatch.setattr(packworker, "forkable", lambda: False)
    assert run("annotate", "--in", tmp_path / "good.txt", "--out", tmp_path / "one.jsonl", "--persons", "external") == 0
    assert (tmp_path / "ann.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()


def test_annotate_missing_field_is_line_numbered_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "timestamp": "1999-01-02", "text": "ok in 1999."}\n{"id": "b", "text": "no timestamp"}\n')
    code = run("annotate", "--in", bad, "--out", tmp_path / "out.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "timestamp" in err


def test_annotate_skip_bad(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "timestamp": "1999-01-02", "text": "ok in 1999."}\n{"id": "b"}\n')
    out = tmp_path / "out.jsonl"
    assert run("annotate", "--in", bad, "--out", out, "--skip-bad") == 0
    assert len(out.read_text().strip().splitlines()) == 1


def test_missing_upstream_artifact_exit_2(tmp_path, capsys):
    code = run("refine", "--in", tmp_path / "missing.jsonl", "--out", tmp_path / "o.jsonl")
    assert code == 2
    assert "missing artifact" in capsys.readouterr().err


# every option of a stage that names a file it reads, besides --config; then the stage's output option
_FILE_OPTIONS = {
    "annotate": (("--in", "--persons-file", "--lexicon"), "--out"),
    "refine": (("--in",), "--out"),
    "calendar": (("--in",), "--out"),
    "examples": (("--in", "--calendar", "--vocab"), "--out"),
    "pretrain": (("--in", "--calendar", "--vocab"), "--out"),
    "finetune": (("--checkpoint", "--train", "--val"), "--out"),
    "eval": (("--checkpoint", "--test", "--base-checkpoint", "--train", "--val", "--baseline-report", "--gold",
              "--corpus-t1", "--corpus-t2"), "--report"),
    "similarity": (("--checkpoint", "--events"), "--report"),
    "timescope": (("--checkpoint", "--in"), "--out"),
}


@pytest.mark.parametrize("stage", sorted(_FILE_OPTIONS))
def test_missing_vocab_names_the_calling_stage(tmp_path, stage):
    """Each file option of each stage, naming a missing file, stops the stage before it writes anything."""
    options, out_option = _FILE_OPTIONS[stage]
    present, missing = tmp_path / "present", tmp_path / "missing"
    present.write_text("")
    extra = ("--objectives", "etamlm") if stage == "examples" else ("--runs", "2") if stage == "eval" else ()
    before = sorted(tmp_path.iterdir())
    for option in ("--config", *options):
        given = [a for o in ("--config", *options) for a in (o, str(missing if o == option else present))]
        args = build_parser().parse_args([stage, *given, out_option, str(tmp_path / "out"), *extra])
        assert sum(isinstance(value, InFile) for value in vars(args).values()) == len(options) + 1
        with pytest.raises(DependencyMissingError) as caught:
            args.func(args)
        assert (caught.value.stage, caught.value.path) == (stage, str(missing)), option
        assert sorted(tmp_path.iterdir()) == before, option


def test_divergent_pretrain_exits_2_and_writes_nothing(workdir, tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = run(
            "pretrain", "--in", workdir / "ref.jsonl", "--out", tmp_path / "model.tlm",
            "--steps", 6, "--batch-size", 4, "--grad-accum", 1, "--lr", "1e4",
            "--hidden-dim", 32, "--ffn-dim", 48, "--layers", 1, "--max-len", 64, "--seed", 3,
        )
    assert code == 2
    assert "diverged at step" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == []


def _untrained_checkpoint(path, texts, task=None):
    vocab = build_vocab(texts, target_size=200)
    config = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=24, max_len=64, vocab_size=vocab.size, seed=2)
    params = init_params(config)
    if task is not None:
        params["cls.w"] = np.zeros((config.hidden_dim, task["n_classes"]), dtype=np.float32)
        params["cls.b"] = np.zeros(task["n_classes"], dtype=np.float32)
    checkpoint_save(EncoderCheckpoint(config=config, vocab=vocab, params=params, task=task), path)


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_divergent_finetune_exits_2_and_writes_nothing(tmp_path, capsys):
    events = generate_event_instances(8, start_year=1999, end_year=2002, seed=4)
    _write_jsonl(tmp_path / "train.jsonl", events)
    _untrained_checkpoint(tmp_path / "base.tlm", [e["text"] for e in events])
    before = sorted(tmp_path.iterdir())
    with np.errstate(all="ignore"):
        code = run(
            "finetune", "--checkpoint", tmp_path / "base.tlm", "--train", tmp_path / "train.jsonl",
            "--val", tmp_path / "train.jsonl", "--out", tmp_path / "ft.tlm",
            "--granularity", "year", "--span", "1999..2002", "--grid", "4:1e6:3",
        )
    assert code == 2
    assert "diverged at step" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_timescope_malformed_line_exits_2_and_writes_nothing(tmp_path, capsys):
    events = generate_event_instances(4, start_year=1999, end_year=2002, seed=4, monthly=True)
    task = {"granularity": "month", "span": "1999-01..2002-12", "n_classes": 48}
    _untrained_checkpoint(tmp_path / "month.tlm", [e["text"] for e in events], task)
    bad = tmp_path / "questions.jsonl"
    _write_jsonl(bad, events)
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write('{"text": "cut off\n')
    before = sorted(tmp_path.iterdir())
    code = run("timescope", "--checkpoint", tmp_path / "month.tlm", "--in", bad, "--out", tmp_path / "scopes.jsonl")
    assert code == 2
    assert "line 5" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_examples_deterministic_across_runs(workdir, tmp_path):
    ref = workdir / "ref.jsonl"
    cal = workdir / "cal.json"
    outs = []
    for name in ("e1.jsonl", "e2.jsonl"):
        out = tmp_path / name
        assert run(
            "examples", "--in", ref, "--calendar", cal, "--out", out,
            "--objectives", "etamlm,dd,tser", "--seed", 7,
        ) == 0
        outs.append(sha256_file(out))
    assert outs[0] == outs[1]
    different = tmp_path / "e4.jsonl"
    run("examples", "--in", ref, "--calendar", cal, "--out", different,
        "--objectives", "etamlm,dd,tser", "--seed", 8)
    assert sha256_file(different) != outs[0]


def test_examples_record_schema(workdir, tmp_path):
    ref = workdir / "ref.jsonl"
    out = tmp_path / "ex.jsonl"
    run("examples", "--in", ref, "--out", out, "--objectives", "etamlm,dd,tser,tsemlm,trwr", "--seed", 1)
    rec = json.loads(out.read_text().splitlines()[0])
    assert set(rec) == {"doc_id", "epoch", "input_ids", "mlm_targets", "dd_index", "tser", "objectives"}
    assert rec["objectives"] == sorted(["etamlm", "dd", "tser", "tsemlm", "trwr"])


def test_full_pipeline_through_timescope(workdir, tmp_path, capsys):
    ref = workdir / "ref.jsonl"
    cal = workdir / "cal.json"
    model = tmp_path / "model.tlm"
    assert run(
        "pretrain", "--in", ref, "--calendar", cal, "--out", model,
        "--steps", 4, "--batch-size", 4, "--grad-accum", 1, "--lr", "1e-3",
        "--hidden-dim", 32, "--ffn-dim", 48, "--layers", 1, "--max-len", 64, "--seed", 3,
    ) == 0
    loss_lines = (tmp_path / "model.tlm.loss.jsonl").read_text().strip().splitlines()
    assert len(loss_lines) == 4
    assert all("loss" in json.loads(l) for l in loss_lines)

    events = generate_event_instances(40, start_year=1999, end_year=2002, seed=4)
    splits = {}
    for name, lo, hi in (("train", 0, 30), ("val", 30, 35), ("test", 35, 40)):
        p = tmp_path / f"{name}.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in events[lo:hi]) + "\n")
        splits[name] = p

    ft = tmp_path / "ft.tlm"
    assert run(
        "finetune", "--checkpoint", model, "--train", splits["train"], "--val", splits["val"],
        "--out", ft, "--granularity", "year", "--span", "1999..2002",
        "--grid", "8:1e-3:2", "--seed", 1,
    ) == 0

    report = tmp_path / "report.json"
    assert run(
        "eval", "--task", "document-dating", "--checkpoint", ft,
        "--test", splits["test"], "--granularity", "year", "--span", "1999..2002",
        "--report", report,
    ) == 0
    rep = json.loads(report.read_text())
    assert "acc" in rep and "mae" in rep
    out_text = capsys.readouterr().out
    assert "acc" in out_text and "mae" in out_text

    sim_report = tmp_path / "sim.json"
    assert run(
        "similarity", "--checkpoint", model, "--events", splits["test"],
        "--years", "1999:2002", "--report", sim_report,
    ) == 0
    sim = json.loads(sim_report.read_text())
    assert sim["vocabulary_size"] == 4

    monthly = generate_event_instances(40, start_year=1999, end_year=2002, seed=4, monthly=True)
    msplits = {}
    for name, lo, hi in (("train", 0, 30), ("val", 30, 35), ("test", 35, 40)):
        p = tmp_path / f"m_{name}.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in monthly[lo:hi]) + "\n")
        msplits[name] = p
    ft_month = tmp_path / "ftm.tlm"
    assert run(
        "finetune", "--checkpoint", model, "--train", msplits["train"], "--val", msplits["val"],
        "--out", ft_month, "--granularity", "month", "--span", "1999-01..2002-12",
        "--grid", "8:1e-3:1", "--seed", 1,
    ) == 0
    scopes = tmp_path / "scopes.jsonl"
    assert run("timescope", "--checkpoint", ft_month, "--in", msplits["test"], "--out", scopes) == 0
    first = json.loads(scopes.read_text().splitlines()[0])
    assert set(first) == {"text", "start", "end"}
    assert first["start"] <= first["end"]


def test_eval_runs_mode_with_ttest(workdir, tmp_path):
    ref = workdir / "ref.jsonl"
    model = tmp_path / "base.tlm"
    run("pretrain", "--in", ref, "--out", model, "--objectives", "etamlm,dd",
        "--steps", 3, "--batch-size", 4, "--grad-accum", 1, "--lr", "1e-3",
        "--hidden-dim", 32, "--ffn-dim", 48, "--layers", 1, "--max-len", 64, "--seed", 3)
    events = generate_event_instances(30, start_year=1999, end_year=2002, seed=4)
    paths = {}
    for name, lo, hi in (("train", 0, 20), ("val", 20, 25), ("test", 25, 30)):
        p = tmp_path / f"{name}.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in events[lo:hi]) + "\n")
        paths[name] = p
    rep_a = tmp_path / "a.json"
    assert run(
        "eval", "--runs", 2, "--base-checkpoint", model, "--train", paths["train"],
        "--val", paths["val"], "--test", paths["test"], "--granularity", "year",
        "--span", "1999..2002", "--grid", "8:1e-3:1", "--report", rep_a, "--seed", 0,
    ) == 0
    a = json.loads(rep_a.read_text())
    assert len(a["run_accs"]) == 2
    rep_b = tmp_path / "b.json"
    assert run(
        "eval", "--runs", 2, "--base-checkpoint", model, "--train", paths["train"],
        "--val", paths["val"], "--test", paths["test"], "--granularity", "year",
        "--span", "1999..2002", "--grid", "8:2e-3:1", "--report", rep_b,
        "--baseline-report", rep_a, "--seed", 10,
    ) == 0
    b = json.loads(rep_b.read_text())
    assert b["p_value"] is not None and 0.0 <= b["p_value"] <= 1.0


def test_semantic_change_eval(workdir, tmp_path):
    ref = workdir / "ref.jsonl"
    model = tmp_path / "m.tlm"
    run("pretrain", "--in", ref, "--out", model, "--objectives", "etamlm",
        "--steps", 2, "--batch-size", 4, "--grad-accum", 1, "--lr", "1e-3",
        "--hidden-dim", 32, "--ffn-dim", 48, "--layers", 1, "--max-len", 64, "--seed", 3)
    t1 = tmp_path / "t1.txt"
    t2 = tmp_path / "t2.txt"
    t1.write_text("the plane was a flat surface\nthe chairman spoke to the board\nthe festival in 1999 began\n")
    t2.write_text("the plane flew over the field\nthe chairman spoke to the board\nthe festival in 1999 began\n")
    gold = tmp_path / "gold.tsv"
    gold.write_text("plane\t0.882\nchairman\t0\nfestival\t0.1\n")
    report = tmp_path / "sc.json"
    assert run(
        "eval", "--task", "semantic-change", "--checkpoint", model,
        "--gold", gold, "--corpus-t1", t1, "--corpus-t2", t2, "--report", report,
    ) == 0
    rep = json.loads(report.read_text())
    assert rep["scores"]["plane"] > rep["scores"]["chairman"]
    assert -1.0 <= rep["spearman"] <= 1.0


def test_config_file_and_env_seed(workdir, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 21\nvocab_size = 300\n# comment\n")
    assert parse_config_file(cfg) == {"seed": "21", "vocab_size": "300"}
    ref = workdir / "ref.jsonl"
    out_cfg = tmp_path / "cfg.jsonl"
    out_env = tmp_path / "env.jsonl"
    out_flag = tmp_path / "flag.jsonl"
    run("examples", "--in", ref, "--out", out_cfg, "--objectives", "etamlm", "--config", cfg)
    monkeypatch.setenv("TEMPO_SEED", "21")
    run("examples", "--in", ref, "--out", out_env, "--objectives", "etamlm", "--vocab-size", 300)
    monkeypatch.delenv("TEMPO_SEED")
    run("examples", "--in", ref, "--out", out_flag, "--objectives", "etamlm", "--seed", 21, "--vocab-size", 300)
    assert sha256_file(out_cfg) == sha256_file(out_env) == sha256_file(out_flag)

    # every key a pretrain config can set gives the bytes of the same flags
    settings = {"seed": 4, "vocab_size": 250, "max_len": 48, "layers": 1, "hidden_dim": 16, "heads": 2,
                "ffn_dim": 24, "steps": 2, "batch_size": 3, "grad_accum": 2, "lr": "2e-3"}
    full = tmp_path / "full.cfg"
    full.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    flags = [a for key, value in settings.items() for a in (f"--{key.replace('_', '-')}", value)]
    by_cfg, by_flag = tmp_path / "cfg.tlm", tmp_path / "flag.tlm"
    assert run("pretrain", "--in", ref, "--out", by_cfg, "--objectives", "etamlm,dd", "--config", full) == 0
    assert run("pretrain", "--in", ref, "--out", by_flag, "--objectives", "etamlm,dd", *flags) == 0
    assert sha256_file(by_cfg) == sha256_file(by_flag)
    assert sha256_file(f"{by_cfg}.loss.jsonl") == sha256_file(f"{by_flag}.loss.jsonl")
    manifests = [json.loads(Path(f"{out}.manifest.json").read_text()) for out in (by_cfg, by_flag)]
    assert manifests[0]["config"] == manifests[1]["config"]

    # a key no stage reads exits 2 and names the key
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("seed = 1\nlearning_rate = 1e-3\n")
    out = tmp_path / "unknown.tlm"
    assert run("pretrain", "--in", ref, "--out", out, "--config", unknown) == 2
    assert "unknown config key 'learning_rate'" in capsys.readouterr().err
    assert not out.exists()

    # a value of the wrong type exits 2 and names the option
    bad = tmp_path / "bad.cfg"
    bad.write_text("steps = abc\n")
    with pytest.raises(SystemExit) as caught:
        run("pretrain", "--in", ref, "--out", out, "--config", bad)
    assert caught.value.code == 2
    assert "argument --steps: invalid int value: 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_flag_seed_beats_env(workdir, tmp_path, monkeypatch):
    ref = workdir / "ref.jsonl"
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    monkeypatch.setenv("TEMPO_SEED", "99")
    run("examples", "--in", ref, "--out", a, "--objectives", "etamlm", "--seed", 21)
    monkeypatch.delenv("TEMPO_SEED")
    run("examples", "--in", ref, "--out", b, "--objectives", "etamlm", "--seed", 21)
    assert sha256_file(a) == sha256_file(b)


def test_external_persons_sidecar(tmp_path):
    text = "A tribute to Tupac Shakur aired in 1996."
    start = text.index("Tupac")
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"id": "d1", "timestamp": "1996-09-13", "text": text}) + "\n")
    sidecar = tmp_path / "persons.jsonl"
    sidecar.write_text(json.dumps({
        "doc_id": "d1",
        "persons": [[start, start + len("Tupac Shakur"), "Tupac Shakur"]],
    }) + "\n")
    out = tmp_path / "ann.jsonl"
    assert run("annotate", "--in", raw, "--out", out,
               "--persons", "external", "--persons-file", sidecar) == 0
    rec = json.loads(out.read_text())
    persons = [s for s in rec["spans"] if s["kind"] == "person"]
    assert [p["surface"] for p in persons] == ["Tupac Shakur"]


def test_external_persons_from_record_field(tmp_path):
    text = "In 1999, Carol King sang."
    start = text.index("Carol")
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({
        "id": "d1", "timestamp": "1999-02-03", "text": text,
        "persons": [[start, start + len("Carol King"), "Carol King"]],
    }) + "\n")
    out = tmp_path / "ann.jsonl"
    assert run("annotate", "--in", raw, "--out", out, "--persons", "external") == 0
    rec = json.loads(out.read_text())
    persons = [s for s in rec["spans"] if s["kind"] == "person"]
    assert [p["surface"] for p in persons] == ["Carol King"]


def test_lexicon_override_flag(workdir, tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("before\tBEFORE\n")
    out = tmp_path / "ann.jsonl"
    assert run("annotate", "--in", workdir / "raw.jsonl", "--out", out, "--lexicon", lex) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    signals = [s for s in rec["spans"] if s["kind"] == "signal"]
    assert all(s["surface"].lower() == "before" for s in signals)


ANNOTATED_LINE = json.dumps(document_to_record(annotate_document("a", "1999-01-02", "It rained in May 1999."))) + "\n"


@pytest.mark.parametrize("stage, lines", [
    ("annotate", ['{"id": "a", "timestamp": "1999-01-02", "text": "It rained in May 1999."}\n',
                  '{"id": "b", "text": "no timestamp"}\n']),
    ("refine", [ANNOTATED_LINE, '{"v": 1, "id": "b", "timestamp": "1999-01-02"}\n']),
])
@pytest.mark.parametrize("earlier", [None, b"earlier artifact\n"])
def test_bad_line_2_leaves_out_path_as_it_was(tmp_path, capsys, stage, lines, earlier):
    src = tmp_path / "in.jsonl"
    src.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    if earlier is not None:
        out.write_bytes(earlier)
    before = sorted(tmp_path.iterdir())
    assert run(stage, "--in", src, "--out", out) == 2
    assert "line 2" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    if earlier is not None:
        assert out.read_bytes() == earlier


def test_malformed_persons_sidecar_is_line_numbered_error(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"id": "d1", "timestamp": "1996-09-13", "text": "In 1996 it rained."}) + "\n")
    sidecar = tmp_path / "persons.jsonl"
    sidecar.write_text(json.dumps({"doc_id": "d1", "persons": []}) + "\n{broken\n")
    before = sorted(tmp_path.iterdir())
    code = run("annotate", "--in", raw, "--out", tmp_path / "ann.jsonl",
               "--persons", "external", "--persons-file", sidecar)
    assert code == 2
    assert "line 2" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("flag", ["--calendar", "--vocab"])
def test_malformed_json_input_exits_2_and_writes_nothing(workdir, tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text('{"1999-01": ["Carol King"', encoding="utf-8")
    code = run("examples", "--in", workdir / "ref.jsonl", "--out", tmp_path / "ex.jsonl",
               "--objectives", "etamlm,dd,tser", flag, bad)
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("flag", ["--calendar", "--vocab"])
def test_json_of_wrong_shape_exits_2_and_writes_nothing(workdir, tmp_path, capsys, flag):
    bad = tmp_path / "list.json"
    bad.write_text("[]", encoding="utf-8")
    code = run("examples", "--in", workdir / "ref.jsonl", "--out", tmp_path / "ex.jsonl",
               "--objectives", "etamlm,dd,tser", flag, bad)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "must be a JSON object" in captured.err
    assert sorted(tmp_path.iterdir()) == [bad]


def test_refine_unsupported_record_version_names_its_line(tmp_path, capsys):
    bad = tmp_path / "ann.jsonl"
    bad.write_text('{"v": 2, "id": "x"}\n', encoding="utf-8")
    code = run("refine", "--in", bad, "--out", tmp_path / "ref.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "version 2" in err
    assert sorted(tmp_path.iterdir()) == [bad]


_RECORD = {"v": 1, "id": "x", "timestamp": "1999-01-01", "text": "a", "tokens": [["a", 0, 1]],
           "spans": [], "sentences": [[0, 1]]}


@pytest.mark.parametrize("line", [
    json.dumps({**_RECORD, "tokens": 5}),
    json.dumps({**_RECORD, "spans": 7}),
    json.dumps({**_RECORD, "spans": [{"kind": "bogus", "start": 0, "end": 1, "surface": "a"}]}),
    json.dumps({**_RECORD, "tokens": [[1]]}),
    "[1]",
])
def test_refine_record_of_wrong_shape_is_line_numbered_error(tmp_path, capsys, line):
    bad = tmp_path / "ann.jsonl"
    bad.write_text(json.dumps(_RECORD) + "\n" + line + "\n", encoding="utf-8")
    code = run("refine", "--in", bad, "--out", tmp_path / "ref.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("stage", ["refine", "examples"])
@pytest.mark.parametrize("tokens", [
    [["a", 0, 1], [1999, 2, 6]],
    [["a", 0, 1], ["1999", 2.0, 6]],
    [["a", 0, 1], ["1999", 2, "6"]],
    [["a", 0, 1], ["1999", True, 6]],
])
def test_token_of_wrong_type_is_line_numbered_error(tmp_path, capsys, stage, tokens):
    bad = tmp_path / "ann.jsonl"
    record = {**_RECORD, "text": "a 1999", "tokens": tokens, "sentences": [[0, 2]]}
    bad.write_text(json.dumps(_RECORD) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    extra = ("--objectives", "etamlm") if stage == "examples" else ()
    code = run(stage, "--in", bad, "--out", tmp_path / "out.jsonl", *extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "'tokens'" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [bad]


_TWO_TOKENS = {**_RECORD, "text": "Bob Dylan", "tokens": [["Bob", 0, 3], ["Dylan", 4, 9]], "sentences": [[0, 2]]}
_PERSON = {"kind": "person", "start": 0, "end": 2, "surface": "Bob Dylan"}


@pytest.mark.parametrize("stage, objectives", [("refine", None), ("examples", "tser"), ("examples", "tsemlm")])
@pytest.mark.parametrize("field, bad", [
    ("spans", [{**_PERSON, "start": 1, "end": 5}]),
    ("spans", [{**_PERSON, "start": -1}]),
    ("spans", [{**_PERSON, "end": 2.0}]),
    ("spans", [{**_PERSON, "start": False, "end": True}]),
    ("sentences", [[0, 7]]),
    ("sentences", [[1, 1]]),
    ("sentences", [[0, 1, 2]]),
], ids=["span-past-end", "span-negative", "span-float", "span-bool",
        "sentence-past-end", "sentence-empty", "sentence-three-bounds"])
def test_range_outside_the_tokens_is_line_numbered_error(tmp_path, capsys, stage, objectives, field, bad):
    bad_path = tmp_path / "ann.jsonl"
    good = {**_TWO_TOKENS, "spans": [_PERSON]}
    bad_path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: bad}) + "\n", encoding="utf-8")
    extra = ("--objectives", objectives) if objectives else ()
    code = run(stage, "--in", bad_path, "--out", tmp_path / "out.jsonl", *extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and f"'{field}'" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [bad_path]


@pytest.mark.parametrize("max_len", [-5, 0, 1])
def test_examples_max_len_below_two_is_config_error(workdir, tmp_path, capsys, max_len):
    out = tmp_path / "ex.jsonl"
    code = run("examples", "--in", workdir / "ref.jsonl", "--out", out, "--objectives", "etamlm", "--max-len", max_len)
    assert code == 2
    assert "max_len must be >= 2" in capsys.readouterr().err
    assert not out.exists()


_RAW_LINE = '{"id": "a", "timestamp": "1999-01-02", "text": "ok in 1999."}\n'
_NORMALIZED_SPAN = {"kind": "expression", "start": 0, "end": 1, "surface": "a", "normalized": "19x9"}


@pytest.mark.parametrize("stage, first, line, field", [
    ("annotate", _RAW_LINE, '{"id": "b", "timestamp": 1999, "text": "x"}', "timestamp"),
    ("annotate", _RAW_LINE, '{"id": "b", "timestamp": "1999-02-30", "text": "x"}', "timestamp"),
    ("refine", json.dumps(_RECORD) + "\n", json.dumps({**_RECORD, "timestamp": 1999}), "timestamp"),
    ("refine", json.dumps(_RECORD) + "\n", json.dumps({**_RECORD, "timestamp": "1999-13-45"}), "timestamp"),
    ("refine", json.dumps(_RECORD) + "\n", json.dumps({**_RECORD, "spans": [_NORMALIZED_SPAN]}), "normalized"),
], ids=["annotate-int", "annotate-feb-30", "refine-int", "refine-month-13", "refine-normalized"])
def test_bad_time_point_is_line_numbered_error(tmp_path, capsys, stage, first, line, field):
    bad = tmp_path / "in.jsonl"
    bad.write_text(first + line + "\n", encoding="utf-8")
    code = run(stage, "--in", bad, "--out", tmp_path / "out.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and f"'{field}'" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("timestamp", [1999, "1999-02-30", None])
def test_annotate_skip_bad_skips_bad_timestamp(tmp_path, timestamp):
    bad = tmp_path / "in.jsonl"
    bad.write_text(_RAW_LINE + json.dumps({"id": "b", "timestamp": timestamp, "text": "x"}) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("annotate", "--in", bad, "--out", out, "--skip-bad") == 0
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["a"]


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "tempolm", "--help"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "usage: tempolm" in done.stdout


@pytest.mark.parametrize("years", ["1999", "a:b", "1999:2000:2001"])
def test_similarity_bad_years_is_config_error(tmp_path, capsys, years):
    events = generate_event_instances(4, start_year=1999, end_year=2002, seed=4)
    _write_jsonl(tmp_path / "events.jsonl", events)
    _untrained_checkpoint(tmp_path / "base.tlm", [e["text"] for e in events])
    before = sorted(tmp_path.iterdir())
    code = run("similarity", "--checkpoint", tmp_path / "base.tlm", "--events", tmp_path / "events.jsonl",
               "--years", years, "--report", tmp_path / "sim.json")
    assert code == 2
    assert "--years" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("top", [0, -1])
def test_similarity_top_below_one_is_config_error(tmp_path, capsys, top):
    events = generate_event_instances(4, start_year=1999, end_year=2002, seed=4)
    _write_jsonl(tmp_path / "events.jsonl", events)
    _untrained_checkpoint(tmp_path / "base.tlm", [e["text"] for e in events])
    before = sorted(tmp_path.iterdir())
    code = run("similarity", "--checkpoint", tmp_path / "base.tlm", "--events", tmp_path / "events.jsonl",
               "--top", top, "--report", tmp_path / "sim.json")
    assert code == 2
    assert f"--top must be >= 1, got {top}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, message", [
    (("similarity", "--checkpoint", "c.tlm", "--events", "e.jsonl", "--top", 0), "--top must be >= 1, got 0"),
    (("eval", "--runs", 0, "--checkpoint", "c.tlm", "--test", "e.jsonl"), "--runs must be >= 1, got 0"),
    (("eval", "--task", "semantic-change", "--checkpoint", "c.tlm", "--gold", "e.jsonl", "--adapt-lr", 0),
     "adaptation lr must be finite and > 0, got 0.0"),
    (("eval", "--task", "semantic-change", "--checkpoint", "c.tlm", "--gold", "e.jsonl", "--adapt-epochs", -1),
     "adaptation epochs must be >= 0, got -1"),
], ids=["similarity-top", "eval-runs", "adapt-lr", "adapt-epochs"])
def test_bad_option_exits_2_before_any_input_is_hashed(tmp_path, monkeypatch, capsys, argv, message):
    for name in ("c.tlm", "e.jsonl"):
        (tmp_path / name).write_text("x", encoding="utf-8")

    def hashed(path):
        raise AssertionError(f"{path} was hashed")

    monkeypatch.setattr(manifest, "sha256_file", hashed)
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert message in capsys.readouterr().err


def _written(path):
    """What a failed stage left in ``path``: outputs, temp files and manifests, not its inputs."""
    return sorted(p.name for p in path.iterdir() if p.suffix in (".tlm", ".json", ".jsonl", ".tmp"))


_TINY = ("--steps", 2, "--batch-size", 4, "--grad-accum", 1, "--lr", "1e-3", "--hidden-dim", 32, "--ffn-dim", 48,
         "--heads", 4, "--layers", 1, "--max-len", 64, "--seed", 3)


@pytest.mark.parametrize("flag, value, message", [
    ("--batch-size", 0, "batch_size must be >= 1, got 0"),
    ("--steps", 0, "steps must be >= 1, got 0"),
    ("--steps", -3, "steps must be >= 1, got -3"),
    ("--grad-accum", 0, "grad_accum must be >= 1, got 0"),
    ("--lr", "0", "lr must be finite and > 0, got 0.0"),
    ("--heads", 0, "heads must be >= 1, got 0"),
    ("--layers", -1, "layers must be >= 0, got -1"),
    ("--ffn-dim", 0, "ffn_dim must be >= 1, got 0"),
], ids=["batch-0", "steps-0", "steps-neg", "accum-0", "lr-0", "heads-0", "layers-neg", "ffn-0"])
def test_pretrain_bad_setting_exits_2_and_writes_nothing(workdir, tmp_path, capsys, flag, value, message):
    code = run("pretrain", "--in", workdir / "ref.jsonl", "--out", tmp_path / "model.tlm", *_TINY, flag, value)
    assert code == 2
    assert message in capsys.readouterr().err
    assert _written(tmp_path) == []


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eval")
    events = generate_event_instances(12, start_year=1999, end_year=2002, seed=4)
    for name in ("train", "val", "test"):
        _write_jsonl(tmp / f"{name}.jsonl", events)
    texts = [e["text"] for e in events]
    _untrained_checkpoint(tmp / "base.tlm", texts)
    _untrained_checkpoint(tmp / "ft.tlm", texts, {"granularity": "year", "span": "1999..2002", "n_classes": 4})
    for name, body in (("list", "[]"), ("one", '{"run_accs": [50.0]}'), ("text", '{"run_accs": [50.0, "60"]}'),
                       ("ok", '{"run_accs": [50.0, 60.0]}')):
        (tmp / f"baseline_{name}.json").write_text(body)
    return tmp


@pytest.mark.parametrize("grid, message", [
    ("16:x:3", "grid entry must be batch:lr:epochs, got '16:x:3'"),
    ("4:1e-3", "grid entry must be batch:lr:epochs, got '4:1e-3'"),
    ("0:1e-3:1", "grid point 0:0.001:1: batch_size must be >= 1, got 0"),
    ("4:1e-3:0", "grid point 4:0.001:0: epochs must be >= 1, got 0"),
    ("4:-1e-3:1", "grid point 4:-0.001:1: lr must be finite and > 0, got -0.001"),
], ids=["lr-text", "two-fields", "batch-0", "epochs-0", "lr-negative"])
def test_finetune_bad_grid_exits_2_and_writes_nothing(eval_dir, tmp_path, capsys, grid, message):
    code = run("finetune", "--checkpoint", eval_dir / "base.tlm", "--train", eval_dir / "train.jsonl",
               "--val", eval_dir / "val.jsonl", "--out", tmp_path / "ft.tlm", "--span", "1999..2002", "--grid", grid)
    assert code == 2
    assert message in capsys.readouterr().err
    assert _written(tmp_path) == []


@pytest.mark.parametrize("runs, baseline, message", [
    (2, "list", "needs 'run_accs', a list of 2 or more numbers"),
    (2, "one", "needs 'run_accs', a list of 2 or more numbers"),
    (2, "text", "needs 'run_accs', a list of 2 or more numbers"),
    (1, "ok", "--baseline-report needs --runs 2 or more"),
    (0, None, "--runs must be >= 1, got 0"),
], ids=["baseline-list", "baseline-one-run", "baseline-text", "baseline-single-run", "runs-0"])
def test_eval_bad_runs_or_baseline_exits_2_and_writes_nothing(eval_dir, tmp_path, capsys, runs, baseline, message):
    args = ["eval", "--runs", runs, "--test", eval_dir / "test.jsonl", "--report", tmp_path / "report.json"]
    if runs == 1:
        args += ["--checkpoint", eval_dir / "ft.tlm"]
    else:
        args += ["--base-checkpoint", eval_dir / "base.tlm", "--train", eval_dir / "train.jsonl",
                 "--val", eval_dir / "val.jsonl", "--span", "1999..2002", "--grid", "4:1e-3:1"]
    if baseline:
        args += ["--baseline-report", eval_dir / f"baseline_{baseline}.json"]
    assert run(*args) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert _written(tmp_path) == []


def test_env_seed_that_is_not_a_number_exits_2(workdir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TEMPO_SEED", "x")
    with pytest.raises(SystemExit) as caught:
        run("examples", "--in", workdir / "ref.jsonl", "--out", tmp_path / "ex.jsonl", "--objectives", "etamlm")
    assert caught.value.code == 2
    assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err
    assert _written(tmp_path) == []


_IN_OUT = ("--in", "in.jsonl", "--out", "out.jsonl")


@pytest.mark.parametrize("stage, rest", [
    ("annotate", _IN_OUT), ("refine", _IN_OUT), ("calendar", _IN_OUT),
    ("examples", (*_IN_OUT, "--objectives", "dd")), ("pretrain", _IN_OUT),
    ("finetune", ("--checkpoint", "c.tlm", "--train", "t.jsonl", "--val", "v.jsonl", "--out", "out.tlm")),
    ("eval", ()), ("similarity", ("--checkpoint", "c.tlm", "--events", "e.jsonl")),
    ("timescope", ("--checkpoint", "c.tlm", *_IN_OUT)),
], ids=["annotate", "refine", "calendar", "examples", "pretrain", "finetune", "eval", "similarity", "timescope"])
def test_every_stage_reads_its_config_first(tmp_path, capsys, stage, rest):
    missing = tmp_path / "missing.cfg"
    assert run(stage, *rest, "--config", missing) == 2
    assert f"stage '{stage}' requires missing artifact: {missing}" in capsys.readouterr().err
    assert _written(tmp_path) == []


def test_config_keys_a_stage_lacks_are_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 17\nsteps = 9\n")
    parser = build_parser(parse_config_file(cfg))
    args = parser.parse_args(["refine", *_IN_OUT])
    assert args.seed == 17 and not hasattr(args, "steps")
    assert parser.parse_args(["refine", *_IN_OUT, "--seed", "2"]).seed == 2
    assert parser.parse_args(["pretrain", *_IN_OUT]).steps == 9
    assert build_parser().parse_args(["pretrain", *_IN_OUT]).steps == 50


@pytest.mark.parametrize("stage, first", [("annotate", _RAW_LINE), ("refine", ANNOTATED_LINE)], ids=["annotate", "refine"])
def test_input_line_that_is_not_utf8_exits_2(tmp_path, capsys, stage, first):
    bad = tmp_path / "in.txt"
    bad.write_bytes(first.encode("utf-8") + b'{"id": "b", "timestamp": "1999-01-02", "text": "caf\xe9"}\n')
    assert run(stage, "--in", bad, "--out", tmp_path / "out.jsonl") == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "'utf-8' codec can't decode byte 0xe9" in err
    assert _written(tmp_path) == []


def test_config_file_that_is_not_utf8_exits_2(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = 1\nvocab_size = 3\xff0\n")
    assert run("examples", "--in", workdir / "ref.jsonl", "--out", tmp_path / "ex.jsonl", "--objectives", "etamlm",
               "--config", cfg) == 2
    assert "line 2" in capsys.readouterr().err
    assert _written(tmp_path) == []


def test_annotate_error_of_a_record_names_its_line(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    text = "Rain in 1999"
    raw.write_text(_RAW_LINE + json.dumps({"id": "b", "timestamp": "1999-01-02", "text": text,
                                           "persons": [[0, 99, "Rain"]]}) + "\n", encoding="utf-8")
    assert run("annotate", "--in", raw, "--out", tmp_path / "ann.jsonl", "--persons", "external") == 2
    assert "line 2: person span [0, 99) outside text of length 12" in capsys.readouterr().err
    assert _written(tmp_path) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--adapt-lr", "-1e-3", "adaptation lr must be finite and > 0, got -0.001"),
    ("--adapt-lr", "0", "adaptation lr must be finite and > 0, got 0.0"),
    ("--adapt-lr", "nan", "adaptation lr must be finite and > 0, got nan"),
    ("--adapt-epochs", -1, "adaptation epochs must be >= 0, got -1"),
], ids=["lr-negative", "lr-0", "lr-nan", "epochs-negative"])
def test_semantic_change_bad_adaptation_exits_2_and_writes_nothing(eval_dir, tmp_path, capsys, flag, value, message):
    (tmp_path / "t1.txt").write_text("the plane was a flat surface\n")
    (tmp_path / "t2.txt").write_text("the plane flew over the field\n")
    (tmp_path / "gold.tsv").write_text("plane\t0.882\n")
    code = run("eval", "--task", "semantic-change", "--checkpoint", eval_dir / "base.tlm", "--gold",
               tmp_path / "gold.tsv", "--corpus-t1", tmp_path / "t1.txt", "--corpus-t2", tmp_path / "t2.txt",
               "--adapt-lr", "1e-3", "--adapt-epochs", 1, f"{flag}={value}", "--report", tmp_path / "report.json")
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert _written(tmp_path) == []


@pytest.fixture(scope="module")
def variants_dir(workdir, tmp_path_factory):
    """Inputs of the manifest cases: the corpus, toy checkpoint and task files, and two versions of each input file
    whose content a case varies, ``<name>.a`` and ``<name>.b``."""
    tmp = tmp_path_factory.mktemp("variants")
    for name in ("raw.jsonl", "ref.jsonl"):
        shutil.copyfile(workdir / name, tmp / name)
    one = {"id": "d1", "timestamp": "1996-09-13", "text": "A tribute to Tupac Shakur aired in 1996."}
    _write_jsonl(tmp / "one.jsonl", [one])
    events = generate_event_instances(12, start_year=1999, end_year=2002, seed=4)
    for name in ("train", "val", "test"):
        _write_jsonl(tmp / f"{name}.jsonl", events)
    _untrained_checkpoint(tmp / "base.tlm", [e["text"] for e in events])
    (tmp / "t1.txt").write_text("the plane was a flat surface\nthe chairman spoke to the board\n")
    (tmp / "t2.txt").write_text("the plane flew over the field\nthe chairman spoke to the board\n")
    (tmp / "gold.tsv").write_text("plane\t0.882\nchairman\t0\n")
    texts = [json.loads(line)["text"] for line in (tmp / "ref.jsonl").read_text().splitlines()]
    months = json.loads((workdir / "cal.json").read_text())
    versions = {
        "lex.tsv": ("before\tBEFORE\n", "after\tAFTER\n"),
        "side.jsonl": ('{"doc_id": "d1", "persons": [[13, 25, "Tupac Shakur"]]}\n', '{"doc_id": "d1", "persons": []}\n'),
        "vocab.json": tuple(json.dumps(build_vocab(texts, target_size=size).to_json()) for size in (200, 300)),
        "cal.json": (json.dumps(months), json.dumps({m: names + ["Zed Nobody"] for m, names in months.items()})),
        "baseline.json": ('{"run_accs": [50.0, 60.0]}', '{"run_accs": [10.0, 20.0]}'),
    }
    for name, (a, b) in versions.items():
        (tmp / f"{name}.a").write_text(a, encoding="utf-8")
        (tmp / f"{name}.b").write_text(b, encoding="utf-8")
    return tmp


_EVAL_RUNS = ("eval", "--runs", 2, "--base-checkpoint", "base.tlm", "--train", "train.jsonl", "--val", "val.jsonl",
              "--test", "test.jsonl", "--span", "1999..2002", "--grid", "4:1e-3:1", "--report", "OUT")
_SEMCHANGE = ("eval", "--task", "semantic-change", "--checkpoint", "base.tlm", "--gold", "gold.tsv",
              "--corpus-t1", "t1.txt", "--corpus-t2", "t2.txt", "--adapt-epochs", 1, "--adapt-lr", "1e-3",
              "--report", "OUT")
_TOY = ("--steps", 2, "--batch-size", 4, "--grad-accum", 1, "--hidden-dim", 16, "--ffn-dim", 24, "--heads", 2,
        "--layers", 1, "--max-len", 48, "--objectives", "etamlm,dd,tser")


# a stage's arguments, OUT standing for its output, and what differs between the two runs: the extra arguments
# of each, or the name of an input file the runs read at one path, holding its ``.a`` then its ``.b`` version
@pytest.mark.parametrize("argv, change", [
    (("annotate", "--in", "raw.jsonl", "--out", "OUT", "--lexicon", "lex.tsv"), "lex.tsv"),
    (("annotate", "--in", "one.jsonl", "--out", "OUT", "--persons", "external", "--persons-file", "side.jsonl"),
     "side.jsonl"),
    (("examples", "--in", "ref.jsonl", "--out", "OUT", "--objectives", "etamlm,dd"),
     (("--max-len", 32), ("--max-len", 64))),
    (("examples", "--in", "ref.jsonl", "--out", "OUT", "--objectives", "etamlm", "--vocab", "vocab.json"), "vocab.json"),
    (("examples", "--in", "ref.jsonl", "--out", "OUT", "--objectives", "tser", "--calendar", "cal.json"), "cal.json"),
    (("pretrain", "--in", "ref.jsonl", "--out", "OUT", "--calendar", "cal.json", *_TOY), "cal.json"),
    (("pretrain", "--in", "ref.jsonl", "--out", "OUT", *_TOY), ((), ("--save-optimizer",))),
    (_EVAL_RUNS, (("--seed", 0), ("--seed", 1))),
    (_EVAL_RUNS, ((), ("--grid", "4:3e-2:1"))),
    ((*_EVAL_RUNS, "--baseline-report", "baseline.json"), "baseline.json"),
    (_SEMCHANGE, (("--seed", 1), ("--seed", 2))),
    (_SEMCHANGE, ((), ("--adapt-lr", "2e-3"))),
], ids=["annotate-lexicon", "annotate-persons-file", "examples-max-len", "examples-vocab", "examples-calendar",
        "pretrain-calendar", "pretrain-save-optimizer", "eval-runs-seed", "eval-runs-grid", "eval-runs-baseline",
        "semchange-seed", "semchange-adapt-lr"])
def test_runs_with_different_outputs_have_different_manifests(variants_dir, tmp_path, monkeypatch, argv, change):
    """Equal ``config`` and ``inputs`` must mean equal output bytes, so two runs whose output bytes differ
    record a different config or a different input checksum."""
    shutil.copytree(variants_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    outputs, manifests = [], []
    for label in ("a", "b"):
        extra = () if isinstance(change, str) else change[label == "b"]
        if isinstance(change, str):
            shutil.copyfile(f"{change}.{label}", change)
        assert run(*(label if a == "OUT" else a for a in argv), *extra) == 0
        outputs.append(Path(label).read_bytes())
        manifest = json.loads(Path(f"{label}.manifest.json").read_text())
        manifests.append((manifest["config"], manifest["inputs"]))
    assert outputs[0] != outputs[1]
    assert manifests[0] != manifests[1]
