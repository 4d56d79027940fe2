"""The pack worker: same bytes on one CPU or two, typed failures, nothing left behind."""

import gc
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
from tempolm.errors import DivergenceError, PackWorkerError, ParseError, StaleOptimizerError
from tempolm.objectives import Objective
from tempolm.optim import AdamW
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


def _every(grad: float, pvars):
    """Loss 1 whose gradient is ``grad`` on every entry of every parameter."""
    ps = tuple(pvars.values())
    root = Var(np.asarray(1.0, dtype=np.float32), ps,
               lambda g: tuple(np.full(p.shape, grad, dtype=p.value.dtype) for p in ps))
    return root, {}


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
    packworker.shutdown()  # each test forks its own worker
    shm = _shm()
    yield
    packworker.shutdown()
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
@pytest.mark.parametrize("tokens", [[1, 1], [3, 1], [1, 3, 1], [1, 4, 1, 1], [1] * 5, [5, 1, 1, 1, 1, 1], [1] * 8],
                         ids=["pw", "wp", "pwp", "pwpp", "ppwww", "pwwwww", "pwpwpwpw"])
def test_packs_shared_by_cost_sum_in_pack_order(one_blas_thread, monkeypatch, tokens):
    """Whichever process runs which pack (the ids name the split), the steps equal the serial run's to the bit."""
    grads = [1.0, -2.0, 0.5, 3.0, -0.25, 4.0, -1.5, 2.5][: len(tokens)]
    steps = [  # the second step's -0.0 stays -0.0 only if its first pack is copied, wherever that pack ran
        [partial(_pack, "b" if i % 2 else "a", g) for i, g in enumerate(grads)],
        [partial(_every, -0.0) for _ in grads],
        [partial(_pack, "a" if i % 2 else "b", -g) for i, g in enumerate(grads)],
    ]
    runs = []
    for parallel in (True, False):
        if not parallel:
            monkeypatch.setattr(packworker, "usable", lambda: False)
        params = _params()
        optimizer = AdamW(params, lr=0.1)
        run = []
        for step, packs in enumerate(steps):
            loss, parts = train_step(params, optimizer, step, packs, tokens)
            state = optimizer.buffer[: 4 * 7].tobytes()  # the parameters, gradient, m and v
            run.append((loss, sum(parts.values()), len(parts), optimizer.grad.tobytes(), state))
        runs.append(run)
    for step, ((loss, total, ran, grad, state), (serial_loss, serial_total, _, serial_grad, serial_state)) in enumerate(
            zip(*runs)):
        assert loss == serial_loss and total == serial_total
        assert grad == serial_grad and state == serial_state
        assert ran == (0 if step == 1 else 2)  # both processes ran a pack of each step
    assert runs[0][1][3] == np.full(7, -0.0, dtype=np.float32).tobytes()


@needs_two_cpus
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_update_split_with_the_worker_equals_the_update_in_process(one_blas_thread, monkeypatch, dtype, weight_decay):
    rng = np.random.default_rng(3)
    shapes = {"a": (3,), "w": (400, 401)}  # an odd count, and each half longer than an update chunk
    start = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    grads = [rng.normal(size=160_403).astype(dtype) for _ in range(4)]
    runs = []
    for parallel in (True, False):
        if not parallel:
            monkeypatch.setattr(packworker, "usable", lambda: False)
        optimizer = AdamW(dict(start), lr=1e-2, betas=(0.8, 0.95), eps=1e-6, weight_decay=weight_decay)
        for g in grads:
            optimizer.grad[...] = g
            optimizer.step()
        assert (packworker._proc is not None) == parallel
        runs.append([optimizer.flat.tobytes(), optimizer.m.tobytes(), optimizer.v.tobytes()])
        packworker.shutdown()
    assert runs[0] == runs[1]


@needs_two_cpus
@pytest.mark.parametrize("error", [
    ParseError("unsupported annotated-record version 2", 3),
    DivergenceError(7, "loss", "head 'mlm'"),
    ValueError("plain"),
])
def test_worker_error_reaches_the_caller_with_its_type_and_message(one_blas_thread, error):
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    with pytest.raises(type(error)) as raised:
        train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), partial(_raise, error)])
    assert str(raised.value) == str(error)
    assert any("pack worker" in note for note in raised.value.__notes__)
    assert optimizer.t == 0 and multiprocessing.active_children() == []
    # the next step forks a fresh worker
    train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), partial(_pack, "b", 1.0)])
    assert optimizer.t == 1


@needs_two_cpus
def test_error_that_cannot_be_unpickled_becomes_a_pack_worker_error(one_blas_thread):
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    with pytest.raises(PackWorkerError, match="_Stubborn: 1/2"):
        train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), _raise_stubborn])


@needs_two_cpus
def test_killed_worker_raises_a_typed_error_without_hanging(one_blas_thread):
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    before = {k: v.copy() for k, v in params.items()}
    started = time.monotonic()
    with pytest.raises(PackWorkerError, match="exited with code -9"):
        train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), _die, partial(_pack, "b", 1.0)])
    assert time.monotonic() - started < 10.0
    assert all(params[k].tobytes() == before[k].tobytes() for k in params)


@needs_two_cpus
def test_step_runs_in_process_when_no_worker_can_be_forked(one_blas_thread, monkeypatch):
    def no_fork():
        raise OSError("Resource temporarily unavailable")

    monkeypatch.setattr(packworker, "_start", no_fork)
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    _, parts = train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), partial(_pack, "b", 1.0)])
    assert packworker._proc is None and multiprocessing.active_children() == []
    assert parts == {f"pid{PARENT}": 2.0} and optimizer.t == 1


@needs_two_cpus
def test_fork_failure_is_retried_at_the_next_multi_pack_step(one_blas_thread, monkeypatch):
    attempts = []
    start = packworker._start

    def fail_once():
        attempts.append(1)
        if len(attempts) == 1:
            raise OSError("Resource temporarily unavailable")
        start()

    monkeypatch.setattr(packworker, "_start", fail_once)
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    packs = [partial(_pack, "a", 1.0), partial(_pack, "b", 1.0)]
    assert train_step(params, optimizer, 0, packs)[1] == {f"pid{PARENT}": 2.0}
    _, parts = train_step(params, optimizer, 1, packs)
    assert len(attempts) == 2 and len(parts) == 2 and packworker._proc is not None


@pytest.mark.parametrize("parallel", [True, False])
def test_first_pack_is_copied_into_the_step_sum(one_blas_thread, monkeypatch, parallel):
    """A first pack's -0.0 stays -0.0 (0.0 + -0.0 is 0.0), and a step's sum does not add to the step before."""
    if parallel and len(CPUS) < 2:
        pytest.skip("the worker needs at least 2 usable CPUs")
    if not parallel:
        monkeypatch.setattr(packworker, "usable", lambda: False)
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    _, parts = train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), partial(_pack, "b", 1.0)])
    assert len(parts) == (2 if parallel else 1)
    assert optimizer.grad.tobytes() == np.ones(7, dtype=np.float32).tobytes()
    for step in (1, 2):
        train_step(params, optimizer, step, [partial(_every, -0.0), partial(_every, -0.0), partial(_every, -0.0)])
        assert optimizer.grad.tobytes() == np.full(7, -0.0, dtype=np.float32).tobytes()
    assert (packworker._proc is not None) == parallel


@needs_two_cpus
def test_a_claim_after_a_run_reuses_the_arena_zeroed(one_blas_thread):
    """The next optimizer maps the same pages, which read zeros, and 20 runs leave no more shared memory than one."""

    def run() -> AdamW:
        # 16 KiB of parameters, so the slots after them fill whole pages
        params = {"a": np.ones(4096, dtype=np.float32)}
        optimizer = AdamW(params, lr=0.1)
        train_step(params, optimizer, 0, [partial(_pack, "a", 1.0), partial(_pack, "a", 2.0)])
        return optimizer

    first = run()
    assert first.grad_slots[0].tolist() == [2.0] * 4096  # the worker's pack
    assert first.grad.tolist() == [3.0] * 4096 and first.m.all()
    arena, rss = packworker.arena, _status_kib("self", "RssShmem")
    second = AdamW({"a": np.ones(4096, dtype=np.float32)}, lr=0.1)
    assert packworker.arena is arena and np.shares_memory(first.buffer, second.buffer)
    assert second.flat.all() and not second.buffer[4096:].any()
    for _ in range(20):
        run()
    assert packworker.arena is arena and _status_kib("self", "RssShmem") <= rss


@needs_two_cpus
def test_an_optimizer_whose_claim_was_taken_raises_and_writes_nothing(one_blas_thread):
    params = _params()
    stale = AdamW(params, lr=0.1)
    packs = [partial(_pack, "a", 1.0), partial(_pack, "b", 1.0)]
    train_step(params, stale, 0, packs)
    later = AdamW(_params(), lr=0.1)
    later.grad[...] = 1.0
    arena = packworker.arena[:]
    with pytest.raises(StaleOptimizerError, match=f"claim {stale.claim} used after claim {later.claim}"):
        stale.step()
    with pytest.raises(StaleOptimizerError):
        train_step(params, stale, 1, packs)
    with pytest.raises(StaleOptimizerError):
        stale.copy_out(params)
    assert packworker.arena[:] == arena and stale.t == 1
    later.step()  # the optimizer that holds the claim still steps
    assert later.t == 1 and packworker.arena[:] != arena


def test_an_optimizer_made_on_views_of_the_arena_starts_from_their_weights():
    params = _params()
    first = AdamW(params, lr=0.1)
    first.grad[...] = 1.0
    first.step()
    before = {k: v.copy() for k, v in params.items()}
    second = AdamW(params, lr=0.1)  # its claim reuses the pages the entries are views of
    assert all(params[k].tobytes() == before[k].tobytes() for k in before) and not second.m.any()


@pytest.mark.parametrize("parallel", [True, False])
def test_divergence_in_any_pack_fires_before_the_update(monkeypatch, parallel):
    if parallel and len(CPUS) < 2:
        pytest.skip("the worker needs at least 2 usable CPUs")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1" if parallel else "2")
    params = _params()
    optimizer = AdamW(params, lr=0.1)
    packs = [partial(_pack, "a", 1.0), partial(_pack, "b", 1.0)]
    _, parts = train_step(params, optimizer, 0, packs)
    assert len(parts) == (2 if parallel else 1)
    after_first = {k: v.copy() for k, v in params.items()}
    with pytest.raises(DivergenceError, match="at step 1: non-finite gradient norm in parameter 'b'"):
        train_step(params, optimizer, 1, [packs[0], partial(_pack, "b", np.nan), packs[0]])
    assert optimizer.t == 1
    assert all(params[k].tobytes() == after_first[k].tobytes() for k in params)
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_pretrain_leaves_no_worker_and_no_shared_memory_file(one_blas_thread, monkeypatch):
    starts = []
    start = packworker._start
    monkeypatch.setattr(packworker, "_start", lambda: (starts.append(1), start()))
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
    for _ in range(2):  # the second run reuses the first run's worker
        pretrain(docs, vocab, config, settings, span=span, calendar=build_entity_calendar(docs))
    packworker.shutdown()
    assert starts == [1]


def _tiny_runs():
    """A small pre-training run, a one-point fine-tuning run (two more tensors) and a period adaptation run, as
    closures of a seed and the parameters they start from."""
    from tempolm.annotate import annotate_document
    from tempolm.corpus import build_entity_calendar, derive_corpus_span
    from tempolm.encoder import EncoderConfig
    from tempolm.finetune import _train_one, instance_ids
    from tempolm.semchange import adapt_mlm
    from tempolm.timescale import Granularity
    from tempolm.vocab import build_vocab

    records = generate_corpus(12, start_year=1999, end_year=2000, seed=2, undated_sentence_rate=0)
    docs = [annotate_document(r["id"], r["timestamp"], r["text"]) for r in records]
    span = derive_corpus_span(docs)
    calendar = build_entity_calendar(docs)
    vocab = build_vocab([r["text"] for r in records], target_size=128)
    # wide enough that 20 runs' buffers left mapped would add more than 5 MiB to the worker
    config = EncoderConfig(layers=1, hidden_dim=48, heads=2, ffn_dim=96, max_len=64, vocab_size=vocab.size,
                           dd_classes=span.class_count(Granularity.MONTH), seed=1)
    events = generate_event_instances(16, start_year=1999, end_year=2000, seed=4)
    train_ids = [instance_ids(vocab, e["text"], config.max_len) for e in events]
    golds = [i % 2 for i in range(len(events))]

    def pretrain_run(seed: int, params=None):
        settings = PretrainSettings(objectives=frozenset(Objective), seed=seed, steps=2, batch_size=8, lr=1e-3)
        params, _, logs = pretrain(docs, vocab, config, settings, span=span, calendar=calendar, params=params)
        return params, [log.loss for log in logs]

    def finetune_run(seed: int, base):
        return _train_one(base, config, train_ids, golds, 2, 16, 1e-3, 1, seed), []

    def adapt_run(seed: int, params):
        return adapt_mlm(params, config, vocab, [r["text"] for r in records[:4]], lr=1e-3, seed=seed), []

    return pretrain_run, finetune_run, adapt_run


def _fingerprint(run) -> tuple:
    params, losses = run
    return tuple((k, v.tobytes()) for k, v in sorted(params.items())), np.asarray(losses).tobytes()


def _status_kib(pid, field: str) -> int:
    for line in Path(f"/proc/{pid}/status").read_text(encoding="utf-8").splitlines():
        if line.startswith(f"{field}:"):
            return int(line.split()[1])
    raise AssertionError(f"no {field} for process {pid}")


def _open_fds() -> int:
    gc.collect()  # objects that only a reference cycle still holds keep their descriptor until collected
    return len(os.listdir("/proc/self/fd"))


def _shared_mappings(pid: int) -> int:
    """Process ``pid``'s writable shared mappings."""
    lines = Path(f"/proc/{pid}/maps").read_text(encoding="utf-8").splitlines()
    return sum(line.split()[1] == "rw-s" for line in lines)


@needs_two_cpus
def test_forks_are_one_plus_the_arena_growths(one_blas_thread, monkeypatch):
    """Runs of different parameter counts share one worker, forked again only when a run grows the arena; what ran
    earlier in the session decides whether the first run grows it, before any worker."""
    gc.collect()  # an arena that only a reference cycle keeps would be inherited at the fork
    starts, grown = [], []
    start = packworker._start
    monkeypatch.setattr(packworker, "_start", lambda: (starts.append(1), start()))
    pretrain_run, finetune_run, _ = _tiny_runs()

    def run(fn, *args):  # holds no reference to the arena, which a fork would inherit
        size = len(packworker.arena)
        out = fn(*args)
        grown.append(len(packworker.arena) > size)
        return out

    def three_runs() -> list[tuple]:
        first = run(pretrain_run, 1)
        return [_fingerprint(first), _fingerprint(run(finetune_run, 1, first[0])), _fingerprint(run(pretrain_run, 2))]

    with_worker = three_runs()
    assert len(starts) == 1 + sum(grown[1:])
    usable = packworker.usable
    monkeypatch.setattr(packworker, "usable", lambda: False)
    assert three_runs() == with_worker
    monkeypatch.setattr(packworker, "usable", usable)

    # runs 1 and 2 on the worker, then 20 more: the worker maps one arena, and no descriptor leaks
    base, _ = pretrain_run(1)
    finetune_run(1, base)
    child = packworker._proc.pid
    rss, fds = _status_kib(child, "VmRSS"), _open_fds()
    for i in range(20):
        if i % 2:
            pretrain_run(3 + i)
        else:
            finetune_run(3 + i, base)
        assert abs(_status_kib(child, "VmRSS") - rss) < 5 * 1024
    assert _open_fds() <= fds
    assert _shared_mappings(child) == 1
    assert packworker._proc.pid == child and len(starts) == 1 + sum(grown[1:4])


@needs_two_cpus
def test_runs_hand_back_weights_outside_the_arena(one_blas_thread):
    """What pre-training, fine-tuning and period adaptation return, and every entry of a dict passed in, is a copy:
    the next run's claim cannot change it."""
    pretrain_run, finetune_run, adapt_run = _tiny_runs()

    def outside(params) -> bool:
        arena = np.frombuffer(packworker.arena, np.uint8)
        return not any(np.shares_memory(v, arena) for v in params.values())

    base, _ = pretrain_run(1)
    passed = dict(base)
    assert outside(base) and outside(pretrain_run(2, passed)[0]) and outside(passed)
    assert outside(finetune_run(1, base)[0]) and outside(base)
    passed = dict(base)
    assert outside(adapt_run(1, passed)[0]) and outside(passed)
    kept = {k: v.copy() for k, v in passed.items()}
    pretrain_run(3)
    assert all(passed[k].tobytes() == kept[k].tobytes() for k in kept)


_KEEP_PAST_EXIT = (
    "import numpy as np\n"
    "from tempolm import packworker\n"
    "from tempolm.autodiff import Var\n"
    "from tempolm.optim import AdamW\n"
    "from tempolm.pretrain import train_step\n"
    "def pack(pvars):\n"
    "    p = pvars['a']\n"
    "    return Var(np.asarray(1.0, dtype=np.float32), (p,), lambda g: (np.ones(3, dtype=np.float32),)), {}\n"
    "params = {'a': np.zeros(3, dtype=np.float32)}\n"
    "np.optimizer = AdamW(params, lr=0.1)  # outlives the modules it was made with\n"
    "train_step(params, np.optimizer, 0, [pack, pack])\n"
    "assert packworker._proc is not None\n"
)


@needs_two_cpus
def test_an_optimizer_kept_to_interpreter_exit_prints_nothing():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _KEEP_PAST_EXIT], env=env, capture_output=True, text=True,
                          timeout=60, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")


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
        train_step(params, optimizer, 0, [partial(pack_loss, [examples[i] for i in pack], len(examples), config)
                                          for pack in packs])
        assert packworker._proc is not None
        assert np.any(optimizer.grad != 0)
        return optimizer.grad.tobytes()

    assert gradient(True) == gradient(False)


# -- determinism across process counts ---------------------------------------------

_RUN = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split(',')})\n"
    "from tempolm import packworker\n"
    "forks = []\n"
    "start = packworker._start\n"
    "packworker._start = lambda: (forks.append(1), start())\n"
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
    # enough records that annotate hands the worker its second chunk
    records = generate_corpus(2 * packworker.CHUNK + 8, start_year=1999, end_year=2002, seed=9)
    (tmp_path / "more.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    events = generate_event_instances(40, start_year=1999, end_year=2002, seed=4)
    for name, lo, hi in (("train", 0, 32), ("val", 32, 40)):
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in events[lo:hi]),
                                                encoding="utf-8")
    runs = {}
    for label, cpus in (("one", CPUS[:1]), ("two", CPUS[:2])):
        out = tmp_path / label
        out.mkdir()
        forks = _cli(cpus, out, "annotate", "--in", tmp_path / "more.jsonl", "--out", "more.jsonl")
        forks += _cli(cpus, out, "examples", "--in", "more.jsonl", "--out", "ex.jsonl", "--objectives",
                      "etamlm,dd,tser", "--seed", 3)
        forks += _cli(cpus, out, "pretrain", "--in", tmp_path / "ann.jsonl", "--out", "model.tlm",
                     "--steps", 4, "--batch-size", 8, "--grad-accum", 2, "--lr", "1e-3", "--hidden-dim", 32,
                     "--ffn-dim", 48, "--layers", 1, "--max-len", 64, "--seed", 3, "--save-optimizer")
        forks += _cli(cpus, out, "finetune", "--checkpoint", "model.tlm", "--train", tmp_path / "train.jsonl",
                      "--val", tmp_path / "val.jsonl", "--out", "ft.tlm", "--granularity", "year",
                      "--span", "1999..2002", "--grid", "8:1e-3:2,16:2e-3:1", "--seed", 1)
        runs[label] = (forks, _artifacts(out))
    # annotate, pre-training and the batch-16 grid point fork a worker; batch-8 steps here hold one pack
    assert runs["one"][0] == 0 and runs["two"][0] == 3
    assert set(runs["one"][1]) == {"more.jsonl", "more.jsonl.manifest.json", "ex.jsonl", "ex.jsonl.manifest.json",
                                   "model.tlm", "model.tlm.loss.jsonl", "model.tlm.manifest.json",
                                   "ft.tlm", "ft.tlm.manifest.json"}
    assert runs["one"][1] == runs["two"][1]


# -- one worker per process --------------------------------------------------------

_PRINT_WORKER = (
    "import sys, time\n"
    "from tempolm import packworker\n"
    "from tempolm.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "print(f'worker={packworker._proc.pid}', flush=True)\n"
    "if sys.argv[1] == 'kill':\n"
    "    time.sleep(60)\n"
    "sys.exit(code)\n"
)


def _gone(pid: int) -> bool:
    """No process ``pid``, or only its zombie, which nothing in this container need reap."""
    try:
        status = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    except FileNotFoundError:
        return True
    return "\nState:\tZ" in status


@pytest.fixture(scope="module")
def annotated(tmp_path_factory) -> Path:
    where = tmp_path_factory.mktemp("annotated")
    records = generate_corpus(30, start_year=1999, end_year=2002, seed=8, undated_sentence_rate=0)
    (where / "raw.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["annotate", "--in", str(where / "raw.jsonl"), "--out", str(where / "ann.jsonl")]) == 0
    return where / "ann.jsonl"


@needs_two_cpus
@pytest.mark.parametrize("end, code", [("exit", 0), ("kill", -signal.SIGKILL)], ids=["exit", "kill"])
def test_worker_does_not_outlive_its_parent(tmp_path, annotated, end, code):
    shm = _shm()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen([sys.executable, "-c", _PRINT_WORKER, end, "pretrain", "--in", str(annotated),
                             "--out", "model.tlm", "--steps", "2", "--batch-size", "16", "--hidden-dim", "16",
                             "--ffn-dim", "24", "--layers", "1", "--max-len", "64"],
                            cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True)
    try:
        worker = next(int(line[len("worker="):]) for line in proc.stdout if line.startswith("worker="))
        if end == "kill":  # while the worker idles between runs
            proc.kill()
        assert proc.wait(60) == code
    finally:
        proc.kill()
        proc.wait(60)
        proc.stdout.close()
    deadline = time.monotonic() + (10.0 if end == "kill" else 5.0)
    while not _gone(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(worker)
    assert _shm() == shm


@needs_two_cpus
def test_finetune_grid_forks_one_worker(tmp_path):
    from tempolm.checkpoint import EncoderCheckpoint, checkpoint_save
    from tempolm.encoder import EncoderConfig, init_params
    from tempolm.vocab import build_vocab

    events = generate_event_instances(40, start_year=1999, end_year=2002, seed=4)
    for name, lo, hi in (("train", 0, 32), ("val", 32, 40)):
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in events[lo:hi]),
                                                encoding="utf-8")
    vocab = build_vocab([e["text"] for e in events], target_size=128)
    config = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=24, max_len=64, vocab_size=vocab.size, seed=1)
    checkpoint_save(EncoderCheckpoint(config=config, vocab=vocab, params=init_params(config), step=0),
                    tmp_path / "base.tlm")
    # the default grid: 12 points, each with steps of several packs
    forks = _cli(CPUS[:2], tmp_path, "finetune", "--checkpoint", "base.tlm", "--train", "train.jsonl",
                 "--val", "val.jsonl", "--out", "ft.tlm", "--granularity", "year", "--span", "1999..2002")
    assert forks == 1
