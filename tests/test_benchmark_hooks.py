"""Every name the benchmark hooks into resolves in tempolm.

The traced benchmark run wraps the targets that ``perfbench/layers.py`` lists
in ``WRAPS`` and ``OPS``, and ``perfbench/workloads.py`` reads a few optional
hooks with ``getattr``. A renamed target makes that run report ``missing``;
this test names it at once instead. It reads the two files as source and
changes nothing under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

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
