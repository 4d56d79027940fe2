import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tempolm.annotate import annotate_document
from tempolm.checkpoint import EncoderCheckpoint, checkpoint_save
from tempolm.cli import build_parser, main
from tempolm.corpus import document_to_record
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


def test_annotate_rerun_identical_checksum(workdir, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run("annotate", "--in", workdir / "raw.jsonl", "--out", a)
    run("annotate", "--in", workdir / "raw.jsonl", "--out", b)
    assert sha256_file(a) == sha256_file(b)


def test_annotate_parallel_jobs_identical(workdir, tmp_path):
    serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    run("annotate", "--in", workdir / "raw.jsonl", "--out", serial, "--jobs", 1)
    run("annotate", "--in", workdir / "raw.jsonl", "--out", parallel, "--jobs", 3)
    assert sha256_file(serial) == sha256_file(parallel)


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


@pytest.mark.parametrize("stage", ["examples", "pretrain"])
def test_missing_vocab_names_the_calling_stage(workdir, tmp_path, stage):
    args = build_parser().parse_args([
        stage, "--in", str(workdir / "ref.jsonl"), "--out", str(tmp_path / "out"),
        "--objectives", "etamlm", "--vocab", str(tmp_path / "missing.json"),
    ])
    with pytest.raises(DependencyMissingError) as caught:
        args.func(args)
    assert caught.value.stage == stage


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


def test_examples_deterministic_across_runs_and_jobs(workdir, tmp_path):
    ref = workdir / "ref.jsonl"
    cal = workdir / "cal.json"
    outs = []
    for name, jobs in (("e1.jsonl", 1), ("e2.jsonl", 1), ("e3.jsonl", 2)):
        out = tmp_path / name
        assert run(
            "examples", "--in", ref, "--calendar", cal, "--out", out,
            "--objectives", "etamlm,dd,tser", "--seed", 7, "--jobs", jobs,
        ) == 0
        outs.append(sha256_file(out))
    assert outs[0] == outs[1] == outs[2]
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


def test_config_file_and_env_seed(workdir, tmp_path, monkeypatch):
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
