"""The single write path for artifacts: whole-or-nothing writes, one JSONL rule; the one process model; and the one keyed stream."""

import ast
import math
from pathlib import Path

import pytest

from tempolm.errors import ParseError
from tempolm.manifest import jsonl_line, read_json, write_atomic

SRC = Path(__file__).resolve().parents[1] / "src" / "tempolm"


def _parts_then(exc):
    yield "first\n"
    yield b"second\n"
    raise exc


@pytest.mark.parametrize("exc", [ValueError("bad record"), KeyboardInterrupt()])
def test_write_atomic_failure_keeps_existing_file(tmp_path, exc):
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"earlier artifact\n")
    with pytest.raises(type(exc)):
        write_atomic(out, _parts_then(exc))
    assert out.read_bytes() == b"earlier artifact\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


def test_write_atomic_writes_str_and_bytes_and_counts_parts(tmp_path):
    out = tmp_path / "out.txt"
    assert write_atomic(out, iter(["a\n", b"b\n", "é\n"])) == 3
    assert out.read_bytes() == "a\nb\né\n".encode("utf-8")
    assert write_atomic(out, []) == 0
    assert out.read_bytes() == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_jsonl_line_rule():
    assert jsonl_line({"b": 1, "a": "café"}) == '{"a": "café", "b": 1}\n'
    with pytest.raises(ValueError):
        jsonl_line({"loss": math.nan})


def test_read_json_malformed_raises_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": [1, 2}', encoding="utf-8")
    with pytest.raises(ParseError, match="invalid JSON"):
        read_json(bad)
    bad.write_text('{"a": [1, 2]}', encoding="utf-8")
    assert read_json(bad) == {"a": [1, 2]}


def _is_file_write(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(path, mode), io.open(path, mode) and os.open(path, flags); Path(path).open(mode)
    module_level = isinstance(func, ast.Name) or (isinstance(func.value, ast.Name) and func.value.id in ("io", "os"))
    at = 1 if module_level else 0
    mode = call.args[at] if len(call.args) > at else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode the guard cannot read counts as a write
    return any(flag in mode.value for flag in "wax+")


def _file_writes(source: str, allowed: str | None = None) -> list[str]:
    """``function:line`` of every file write in ``source`` outside the function named ``allowed``."""
    found: list[str] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _is_file_write(node) and function != allowed:
            found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source, writes", [
    ("def f(p):\n    open(p)\n    open(p, 'rb')\n    open(p, encoding='utf-8')\n    p.open()\n", []),
    ("def f(p):\n    open(p, 'w')\n", ["f:2"]),
    ("def f(p):\n    open(p, mode='ab')\n", ["f:2"]),
    ("def f(p, m):\n    Path(p).open(m)\n", ["f:2"]),
    ("def f(p):\n    os.open(p, os.O_WRONLY)\n", ["f:2"]),
    ("def f(p):\n    def g():\n        p.write_text('x')\n    p.write_bytes(b'')\n", ["g:3", "f:4"]),
    ("Path('x').write_text('y')\n", ["<module>:1"]),
])
def test_write_guard_detects_writes(source, writes):
    assert _file_writes(source) == writes


def test_only_write_atomic_writes_files():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        allowed = "write_atomic" if path.name == "manifest.py" else None
        offenders += [f"{path.name}:{where}" for where in _file_writes(path.read_text(encoding="utf-8"), allowed)]
    assert offenders == []
    manifest_writes = _file_writes((SRC / "manifest.py").read_text(encoding="utf-8"))
    assert [where.split(":")[0] for where in manifest_writes] == ["write_atomic"]


def _process_starts(source: str, allowed: str | None = None) -> list[str]:
    """``function:line`` of every ``multiprocessing`` import and ``os.fork`` use outside the function ``allowed``."""
    found: list[str] = []

    def starts(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "multiprocessing" for a in node.names)
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            return module == "multiprocessing" or (module == "os" and any(a.name == "fork" for a in node.names))
        return (isinstance(node, ast.Attribute) and node.attr == "fork"
                and isinstance(node.value, ast.Name) and node.value.id == "os")

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if starts(node) and function != allowed:
            found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source, starts", [
    ("import os\nimport subprocess\ndef f():\n    os.getpid()\n", []),
    ("import multiprocessing\n", ["<module>:1"]),
    ("import multiprocessing.pool as mp\n", ["<module>:1"]),
    ("from multiprocessing import Pool\n", ["<module>:1"]),
    ("def f():\n    import multiprocessing\n", ["f:2"]),
    ("def f():\n    return os.fork()\n", ["f:2"]),
    ("from os import fork\n", ["<module>:1"]),
    ("def _map_ordered():\n    import multiprocessing\n", []),
])
def test_process_guard_detects_process_starts(source, starts):
    assert _process_starts(source, allowed="_map_ordered") == starts


def test_only_packworker_and_map_ordered_start_processes():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "packworker.py":
            continue
        allowed = "_map_ordered" if path.name == "cli.py" else None
        offenders += [f"{path.name}:{where}" for where in _process_starts(path.read_text(encoding="utf-8"), allowed)]
    assert offenders == []
    assert _process_starts((SRC / "packworker.py").read_text(encoding="utf-8")) != []


# NumPy generator constructors, and ``int.from_bytes``, the step that turns a digest into a seed
_SEEDING = {"Generator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "SeedSequence", "RandomState",
            "default_rng", "from_bytes"}


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _own_calls(node: ast.AST):
    """Calls in ``node``, leaving out those in functions nested in it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from _own_calls(child)


def _hash_seeded_streams(source: str, allowed: str | None = None) -> list[str]:
    """``function:line`` of every ``sha256`` call in a function that also turns bytes into a seed or
    builds a NumPy generator, outside the function named ``allowed``."""
    tree = ast.parse(source)
    scopes = [(tree, "<module>")] + [
        (node, node.name) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    found: list[str] = []
    for scope, function in scopes:
        calls = [(_call_name(call), call.lineno) for call in _own_calls(scope)]
        if function != allowed and any(name in _SEEDING for name, _ in calls):
            found += [f"{function}:{line}" for name, line in calls if name == "sha256"]
    return found


@pytest.mark.parametrize("source, seeded", [
    ("def f(k):\n    d = hashlib.sha256(k).digest()\n"
     "    return np.random.Generator(np.random.PCG64(int.from_bytes(d[:8], 'little')))\n", ["f:2"]),
    ("def order_seed(s):\n    d = hashlib.sha256(s).digest()\n    return int.from_bytes(d[:8], 'little')\n",
     ["order_seed:2"]),
    ("from hashlib import sha256\nrng = np.random.default_rng(int.from_bytes(sha256(b'k').digest(), 'big'))\n",
     ["<module>:2"]),
    ("def f(k):\n    def g():\n        return np.random.PCG64(0)\n    return hashlib.sha256(k).digest()\n", []),
    ("def checksum(b):\n    return hashlib.sha256(b).digest()\n", []),
    ("def g(seed):\n    return np.random.Generator(np.random.PCG64(seed))\n", []),
    ("def example_rng(*key):\n    d = hashlib.sha256(key).digest()\n    return np.random.PCG64(int.from_bytes(d, 'little'))\n",
     []),
])
def test_stream_guard_detects_hash_seeded_generators(source, seeded):
    assert _hash_seeded_streams(source, allowed="example_rng") == seeded


def test_only_example_rng_seeds_a_generator_from_a_hash():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        allowed = "example_rng" if path.name == "objectives.py" else None
        offenders += [f"{path.name}:{where}" for where in _hash_seeded_streams(path.read_text(encoding="utf-8"), allowed)]
    assert offenders == []
    keyed = _hash_seeded_streams((SRC / "objectives.py").read_text(encoding="utf-8"))
    assert [where.split(":")[0] for where in keyed] == ["example_rng"]
