"""Every name the benchmark hooks into resolves in tempolm.

The traced benchmark run wraps the targets that ``perfbench/layers.py`` lists
in ``WRAPS`` and ``OPS``, and ``perfbench/workloads.py`` reads a few optional
hooks with ``getattr``. A renamed target makes that run report ``missing``;
this test names it at once instead. It reads the two files as source and
changes nothing under ``perfbench/``. A second test counts the calls through
one such binding, so moving the gradient rule away from it shows too.
"""

import ast
import importlib
import os
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from tempolm import packworker, pretrain
from tempolm.autodiff import Var
from tempolm.optim import AdamW

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no module-level {name}")


def _hooks() -> list[tuple[str, str]]:
    """(``module[:Class]``, attribute) of every wrap target and optional hook."""
    layers = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    hooks = [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
             for entry in _assigned(layers, "WRAPS").elts]
    hooks += [("tempolm.autodiff", op) for op in ast.literal_eval(_assigned(layers, "OPS"))]
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: f"tempolm.{alias.name}"
               for node in workloads.body if isinstance(node, ast.ImportFrom) and node.module == "tempolm"
               for alias in node.names}
    hooks += [(modules[call.args[0].id], ast.literal_eval(call.args[1]))
              for call in ast.walk(workloads)
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "getattr"
              and isinstance(call.args[0], ast.Name) and call.args[0].id in modules]
    return hooks


def _resolves(target: str, attr: str) -> bool:
    """The tracer's own rule: the attribute sits, callable, in the owner's ``__dict__``."""
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name, None)
    return owner is not None and callable(vars(owner).get(attr))


def test_every_benchmark_hook_resolves():
    hooks = _hooks()
    for expected in [("tempolm.finetune", "collect_grads"), ("tempolm.pretrain", "_example_stream"),
                     ("tempolm.bm25:BM25", "top_k"), ("tempolm.autodiff", "softmax")]:
        assert expected in hooks
    assert [f"{target}.{attr}" for target, attr in hooks if not _resolves(target, attr)] == []


def _unit_loss(pvars):
    w = pvars["w"]
    return Var(np.asarray(1.0, dtype=np.float32), (w,), lambda g: (np.ones_like(w.value),)), {}


@pytest.mark.parametrize("parallel", [False, True], ids=["worker-off", "worker-on"])
def test_pretrain_collect_grads_sees_every_pack_this_process_runs(monkeypatch, parallel):
    """perfbench's ``encoder.collect_grads`` wraps ``tempolm.pretrain.collect_grads``: a 2-pack step must call
    that binding once per pack it runs here, so the metric stays above 0 wherever the gradient rule lives."""
    if parallel and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the worker needs at least 2 usable CPUs")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    packworker.shutdown()  # a worker an earlier test left running
    if not parallel:
        monkeypatch.setattr(packworker, "usable", lambda: False)
    calls = []
    collect = pretrain.collect_grads
    monkeypatch.setattr(pretrain, "collect_grads", lambda pvars: (calls.append(1), collect(pvars))[1])
    params = {"w": np.zeros(3, dtype=np.float32)}
    optimizer = AdamW(params, lr=0.1)
    try:
        pretrain.train_step(params, optimizer, 0, [_unit_loss, _unit_loss])
        assert (packworker._proc is not None) == parallel
    finally:
        packworker.shutdown()
    assert len(calls) == (1 if parallel else 2)
    assert optimizer.grad.tolist() == [2.0, 2.0, 2.0]
