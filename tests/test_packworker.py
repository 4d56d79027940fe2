"""The pack worker: same bytes on one CPU or two, typed failures, nothing left behind."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from tempolm import packworker
from tempolm.autodiff import Var
from tempolm.cli import main
from tempolm.errors import DivergenceError, PackWorkerError, ParseError
from tempolm.objectives import Objective
from tempolm.optim import AdamW
from tempolm.packworker import PackWorker
from tempolm.pretrain import PretrainSettings, pretrain, train_step
from tempolm.synth import generate_corpus, generate_event_instances

SRC = Path(__file__).resolve().parents[1] / "src"
PARENT = os.getpid()
CPUS = sorted(os.sched_getaffinity(0))

needs_two_cpus = pytest.mark.skipif(len(CPUS) < 2, reason="the worker needs at least 2 usable CPUs")


def _pack(name: str, grad: float, pvars):
    """Loss 1 whose gradient is ``grad`` on every entry of ``name``; its part names the process that ran it."""
    p = pvars[name]
    root = Var(np.asarray(1.0, dtype=p.value.dtype), (p,), lambda g: (np.full(p.shape, grad, dtype=p.value.dtype),))
    return root, {f"pid{os.getpid()}": 1.0}


def _raise(error: Exception, pvars):
    raise error


def _raise_stubborn(pvars):
    raise _Stubborn(1, 2)


def _die(pvars):
    if os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return _pack("a", 1.0, pvars)


class _Stubborn(Exception):
    """Pickles, but does not unpickle: its constructor takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _params():
    return {"a": np.ones(3, dtype=np.float32), "b": np.full((2, 2), 2.0, dtype=np.float32)}


def _shm():
    return sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []


@pytest.fixture
def one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    shm = _shm()
    yield
    assert multiprocessing.active_children() == []
    assert _shm() == shm


def test_worker_needs_one_blas_thread_and_two_cpus(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert packworker.usable() == (len(CPUS) >= 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not packworker.usable()
    finally:
        release.set()
        thread.join(10.0)
    assert not thread.is_alive()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert not packworker.usable()
    monkeypatch.delenv("OMP_NUM_THREADS")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert not packworker.usable()


@needs_two_cpus
def test_odd_packs_run_in_the_worker_and_sum_in_pack_order(one_blas_thread):
    grads = [1.0, -2.0, 0.5, 3.0, -0.25]
    results = []
    for parallel in (True, False):
        params = _params()
        optimizer = AdamW(params, lr=0.1)
        with PackWorker(optimizer) as worker:
            loss, parts = train_step(params, optimizer, 0, [partial(_pack, "b" if i % 2 else "a", g)
                                                            for i, g in enumerate(grads)],
                                     worker if parallel else None)
        results.append((loss, {k: v for k, v in parts.items()}, {k: v.copy() for k, v in params.items()}))
    (loss, parts, params), (serial_loss, serial_parts, serial_params) = results
    assert loss == serial_loss == 5.0
    assert parts[f"pid{PARENT}"] == 3.0 and sorted(parts.values()) == [2.0, 3.0]
    assert serial_parts == {f"pid{PARENT}": 5.0}
    for name in params:
        assert params[name].tobytes() == serial_params[name].tobytes()


@needs_two_cpus
@pytest.mark.parametrize("error", [
    ParseError("unsupported annotated-record version 2", 3),
    DivergenceError(7, "loss", "head 'mlm'"),
    ValueError("plain"),
])
def test_worker_error_reaches_the_caller_with_its_type_and_message(one_blas_thread, error):
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    with PackWorker(optimizer) as worker:
        with pytest.raises(type(error)) as raised:
            train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), partial(_raise, error)], worker)
        assert str(raised.value) == str(error)
        assert any("pack worker" in note for note in raised.value.__notes__)
        assert optimizer.t == 0 and multiprocessing.active_children() == []
        # the next step forks a fresh worker
        train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), partial(_pack, "b", 1.0)], worker)
        assert optimizer.t == 1


@needs_two_cpus
def test_error_that_cannot_be_unpickled_becomes_a_pack_worker_error(one_blas_thread):
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    with PackWorker(optimizer) as worker, pytest.raises(PackWorkerError, match="_Stubborn: 1/2"):
        train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), _raise_stubborn], worker)


@needs_two_cpus
def test_killed_worker_raises_a_typed_error_without_hanging(one_blas_thread):
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    before = {k: v.copy() for k, v in params.items()}
    started = time.monotonic()
    with PackWorker(optimizer) as worker, pytest.raises(PackWorkerError, match="exited with code -9"):
        train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), _die, partial(_pack, "b", 1.0)], worker)
    assert time.monotonic() - started < 10.0
    assert all(params[k].tobytes() == before[k].tobytes() for k in params)


@needs_two_cpus
def test_step_runs_in_process_when_no_worker_can_be_forked(one_blas_thread, monkeypatch):
    def no_fork(self):
        raise OSError("Resource temporarily unavailable")

    monkeypatch.setattr(PackWorker, "_start", no_fork)
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    with PackWorker(optimizer) as worker:
        _, parts = train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), partial(_pack, "b", 1.0)], worker)
        assert not worker.enabled
    assert parts == {f"pid{PARENT}": 2.0} and optimizer.t == 1


@pytest.mark.parametrize("parallel", [True, False])
def test_divergence_in_any_pack_fires_before_the_update(monkeypatch, parallel):
    if parallel and len(CPUS) < 2:
        pytest.skip("the worker needs at least 2 usable CPUs")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1" if parallel else "2")
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    packs = [partial(_pack, "a", 1.0), partial(_pack, "b", 1.0)]
    with PackWorker(optimizer) as worker:
        _, parts = train_step(params, optimizer, 0, packs, worker)
        assert len(parts) == (2 if parallel else 1)
        after_first = {k: v.copy() for k, v in params.items()}
        with pytest.raises(DivergenceError, match="at step 1: non-finite gradient norm in parameter 'b'"):
            train_step(params, optimizer, 1, [packs[0], partial(_pack, "b", np.nan), packs[0]], worker)
    assert optimizer.t == 1
    assert all(params[k].tobytes() == after_first[k].tobytes() for k in params)
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_pretrain_leaves_no_worker_and_no_shared_memory_file(one_blas_thread, monkeypatch):
    starts = []
    start = PackWorker._start
    monkeypatch.setattr(PackWorker, "_start", lambda self: (starts.append(1), start(self)))
    records = generate_corpus(12, start_year=1999, end_year=2000, seed=2, undated_sentence_rate=0)
    from tempolm.annotate import annotate_document
    from tempolm.corpus import build_entity_calendar, derive_corpus_span
    from tempolm.encoder import EncoderConfig
    from tempolm.timescale import Granularity
    from tempolm.vocab import build_vocab

    docs = [annotate_document(r["id"], r["timestamp"], r["text"]) for r in records]
    span = derive_corpus_span(docs)
    vocab = build_vocab([r["text"] for r in records], target_size=128)
    config = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=24, max_len=64, vocab_size=vocab.size,
                           dd_classes=span.class_count(Granularity.MONTH), seed=1)
    settings = PretrainSettings(objectives=frozenset(Objective), seed=1, steps=2, batch_size=8, lr=1e-3)
    pretrain(docs, vocab, config, settings, span=span, calendar=build_entity_calendar(docs))
    assert starts == [1]


@needs_two_cpus
def test_train_step_after_inference_has_the_same_gradients(one_blas_thread):
    from tempolm.annotate import annotate_document
    from tempolm.encoder import EncoderConfig, init_params, pack_sequences
    from tempolm.finetune import FinetunedModel
    from tempolm.objectives import build_training_example
    from tempolm.pretrain import pack_loss
    from tempolm.similarity import embed_text
    from tempolm.vocab import build_vocab

    records = generate_corpus(8, start_year=1999, end_year=2000, seed=2, undated_sentence_rate=0)
    docs = [annotate_document(r["id"], r["timestamp"], r["text"]) for r in records]
    vocab = build_vocab([r["text"] for r in records], target_size=128)
    config = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=24, max_len=64, vocab_size=vocab.size, seed=1)
    examples = [build_training_example(d, frozenset({Objective.ETAMLM}), vocab, seed=1, epoch=0, max_len=64)
                for d in docs]
    packs = pack_sequences([len(ex.input_ids) for ex in examples], config.pack_len)
    assert len(packs) >= 2

    def gradient(infer_first: bool) -> bytes:
        params = init_params(config)
        optimizer = AdamW(params, lr=1e-3)
        if infer_first:
            head = {"cls.w": np.ones((16, 3), dtype=np.float32), "cls.b": np.zeros(3, dtype=np.float32)}
            FinetunedModel(config, vocab, {**params, **head}, 3).predict_proba(records[0]["text"])
            embed_text(params, config, vocab, records[1]["text"])
        with PackWorker(optimizer) as worker:
            train_step(params, optimizer, 0, [partial(pack_loss, [examples[i] for i in pack], len(examples), config)
                                              for pack in packs], worker)
            assert worker.enabled
        assert np.any(optimizer.grad != 0)
        return optimizer.grad.tobytes()

    assert gradient(True) == gradient(False)


# -- determinism across process counts ---------------------------------------------

_RUN = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split(',')})\n"
    "from tempolm import packworker\n"
    "forks = []\n"
    "start = packworker.PackWorker._start\n"
    "packworker.PackWorker._start = lambda self: (forks.append(1), start(self))\n"
    "from tempolm.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "print(f'forks={len(forks)}', file=sys.stderr)\n"
    "sys.exit(code)\n"
)
WALL_CLOCK = {"started_unix", "elapsed_s"}


def _cli(cpus, cwd, *args):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _RUN, ",".join(map(str, cpus)), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.strip().rsplit("forks=", 1)[1])


def _artifacts(directory: Path) -> dict[str, object]:
    out = {}
    for path in sorted(directory.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text(encoding="utf-8"))
            out[path.name] = {k: v for k, v in manifest.items() if k not in WALL_CLOCK}
        else:
            out[path.name] = path.read_bytes()
    return out


@needs_two_cpus
def test_artifacts_identical_on_one_and_two_cpus(tmp_path):
    records = generate_corpus(30, start_year=1999, end_year=2002, seed=8, undated_sentence_rate=0)
    (tmp_path / "raw.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["annotate", "--in", str(tmp_path / "raw.jsonl"), "--out", str(tmp_path / "ann.jsonl")]) == 0
    events = generate_event_instances(40, start_year=1999, end_year=2002, seed=4)
    for name, lo, hi in (("train", 0, 32), ("val", 32, 40)):
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in events[lo:hi]),
                                                encoding="utf-8")
    runs = {}
    for label, cpus in (("one", CPUS[:1]), ("two", CPUS[:2])):
        out = tmp_path / label
        out.mkdir()
        forks = _cli(cpus, out, "pretrain", "--in", tmp_path / "ann.jsonl", "--out", "model.tlm",
                     "--steps", 4, "--batch-size", 8, "--grad-accum", 2, "--lr", "1e-3", "--hidden-dim", 32,
                     "--ffn-dim", 48, "--layers", 1, "--max-len", 64, "--seed", 3, "--save-optimizer")
        forks += _cli(cpus, out, "finetune", "--checkpoint", "model.tlm", "--train", tmp_path / "train.jsonl",
                      "--val", tmp_path / "val.jsonl", "--out", "ft.tlm", "--granularity", "year",
                      "--span", "1999..2002", "--grid", "8:1e-3:2,16:2e-3:1", "--seed", 1)
        runs[label] = (forks, _artifacts(out))
    # pre-training and the batch-16 grid point fork a worker; batch-8 steps here hold one pack
    assert runs["one"][0] == 0 and runs["two"][0] == 2
    assert set(runs["one"][1]) == {"model.tlm", "model.tlm.loss.jsonl", "model.tlm.manifest.json",
                                   "ft.tlm", "ft.tlm.manifest.json"}
    assert runs["one"][1] == runs["two"][1]
