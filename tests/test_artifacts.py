"""The single write path for artifacts: whole-or-nothing writes, one JSONL rule; the one read path for inputs; the one
process model; the one keyed stream; scipy, loaded only by the t-test; and the one stage runner that makes manifests."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tempolm.annotate import annotate_document
from tempolm.corpus import document_to_record, read_documents, read_raw_records
from tempolm.datasets import read_task_records
from tempolm.errors import ParseError
from tempolm.lexicon import SignalLexicon
from tempolm.manifest import jsonl_line, parse_config_file, read_json, read_jsonl, read_lines, write_atomic
from tempolm.semchange import read_gold_shifts

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


def test_read_json_not_utf8_raises_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"a": "caf\xe9"}')
    with pytest.raises(ParseError, match="bad.json: invalid JSON: 'utf-8' codec"):
        read_json(bad)


def test_read_lines_numbers_raw_lines_and_drops_blanks_and_comments(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"  first  \n\n \t \r\nsecond # note\r\n# only a comment\n\xc3\xa9 third")
    assert list(read_lines(path)) == [(1, "first"), (4, "second # note"), (5, "# only a comment"), (6, "é third")]
    assert list(read_lines(path, comments=True)) == [(1, "first"), (4, "second"), (6, "é third")]
    path.write_bytes(b'{"a": 1}\n\n[2]\n{"cut\n')
    values = read_jsonl(path)
    assert [next(values), next(values)] == [(1, {"a": 1}), (3, [2])]
    with pytest.raises(ParseError, match="line 4: invalid JSON"):
        next(values)


_FIRST_LINES = {
    "raw records": ('{"id": "a", "timestamp": "1999-01-02", "text": "ok in 1999."}', lambda p: list(read_raw_records(p))),
    "annotated records": (jsonl_line(document_to_record(annotate_document("a", "1999-01-02", "In May 1999."))),
                          lambda p: list(read_documents(p))),
    "task records": ('{"text": "a", "time": "1999"}', lambda p: list(read_task_records(p))),
    "gold shifts": ("plane\t0.5", read_gold_shifts),
    "signal lexicon": ("before\tBEFORE", SignalLexicon.load),
    "config file": ("seed = 1", parse_config_file),
}


@pytest.mark.parametrize("form", sorted(_FIRST_LINES))
def test_line_that_is_not_utf8_names_its_line(tmp_path, form):
    first, read = _FIRST_LINES[form]
    path = tmp_path / "in"
    path.write_bytes(first.strip().encode("utf-8") + b"\ncaf\xe9\n")
    with pytest.raises(ParseError, match="line 2: .*'utf-8' codec can't decode byte 0xe9"):
        read(path)
    if form == "raw records":  # skipping bad records does not skip text that is not UTF-8
        with pytest.raises(ParseError, match="line 2"):
            list(read_raw_records(path, skip_bad=True))


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


def _process_starts(source: str) -> list[str]:
    """``function:line`` of every ``multiprocessing`` import and ``os.fork`` use."""
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
        if starts(node):
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
    ("def _map_ordered():\n    import multiprocessing\n", ["_map_ordered:2"]),  # no function is exempt
])
def test_process_guard_detects_process_starts(source, starts):
    assert _process_starts(source) == starts


def test_only_packworker_starts_processes():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "packworker.py":
            offenders += [f"{path.name}:{where}" for where in _process_starts(path.read_text(encoding="utf-8"))]
    assert offenders == []
    assert _process_starts((SRC / "packworker.py").read_text(encoding="utf-8")) != []


def _scipy_imports(source: str) -> list[str]:
    """``function:line`` of every ``scipy`` import."""
    found: list[str] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source, imports", [
    ("import numpy\nfrom .scipy_like import x\n", []),
    ("import scipy\n", ["<module>:1"]),
    ("from scipy.special import stdtr\n", ["<module>:1"]),
    ("import os, scipy.stats as st\n", ["<module>:1"]),
    ("def f():\n    from scipy import special\n", ["f:2"]),
])
def test_scipy_guard_detects_imports(source, imports):
    assert _scipy_imports(source) == imports


def test_scipy_is_imported_only_inside_the_t_test():
    root = SRC.parent
    found = [f"{path.relative_to(root)}:{where.split(':')[0]}"
             for path in sorted(root.rglob("*.py")) for where in _scipy_imports(path.read_text(encoding="utf-8"))]
    assert found == ["tempolm/metrics.py:two_tailed_ttest"]


def test_loading_every_tempolm_module_leaves_scipy_unimported():
    script = (
        "import importlib, pkgutil, sys, tempolm\n"
        "names = [m.name for m in pkgutil.walk_packages(tempolm.__path__, 'tempolm.') if m.name != 'tempolm.__main__']\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(len(names), 'scipy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    count, scipy_loaded = done.stdout.split()
    assert int(count) == len(list(SRC.glob("*.py"))) - 2  # all but __init__ and __main__
    assert scipy_loaded == "False"


def test_a_pretrain_step_leaves_numpy_ma_and_scipy_unimported():
    """``np.unique`` imports ``numpy.ma`` on first use; a training process does without both."""
    script = (
        "import sys\n"
        "from tempolm.annotate import annotate_document\n"
        "from tempolm.corpus import build_entity_calendar, derive_corpus_span, refine_corpus\n"
        "from tempolm.encoder import EncoderConfig\n"
        "from tempolm.objectives import Objective\n"
        "from tempolm.pretrain import PretrainSettings, pretrain\n"
        "from tempolm.synth import generate_corpus\n"
        "from tempolm.timescale import Granularity\n"
        "from tempolm.vocab import build_vocab\n"
        "records = generate_corpus(20, start_year=1999, end_year=2002, seed=2)\n"
        "docs = list(refine_corpus(annotate_document(r['id'], r['timestamp'], r['text']) for r in records))\n"
        "span = derive_corpus_span(docs)\n"
        "vocab = build_vocab([r['text'] for r in records], target_size=256)\n"
        "config = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=24, max_len=32, vocab_size=vocab.size,\n"
        "                       dd_classes=span.class_count(Granularity.MONTH), seed=5)\n"
        "settings = PretrainSettings(objectives=frozenset(Objective), seed=1, steps=1, batch_size=4, lr=1e-3)\n"
        "_, _, logs = pretrain(docs, vocab, config, settings, span=span, calendar=build_entity_calendar(docs))\n"
        "print(len(logs), 'numpy.ma' in sys.modules, 'scipy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "False", "False"]


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


_READS = {"open", "read_text", "read_bytes"}


def _file_reads(source: str, allowed: str | None = None) -> list[str]:
    """``function:line`` of every ``open``, ``read_text`` or ``read_bytes`` call outside the function named ``allowed``."""
    found: list[str] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _call_name(node) in _READS and function != allowed:
            found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source, reads", [
    ("def f(p):\n    p.exists()\n    json.loads(p.name)\n    read_lines(p)\n", []),
    ("def f(p):\n    open(p)\n", ["f:2"]),
    ("def f(p):\n    with io.open(p, 'rb') as fh:\n        return fh\n", ["f:2"]),
    ("def f(p):\n    return Path(p).open(encoding='utf-8')\n", ["f:2"]),
    ("def f(p):\n    def g():\n        return p.read_text()\n    return p.read_bytes()\n", ["g:3", "f:4"]),
    ("text = open('x').read()\n", ["<module>:1"]),
    ("def checkpoint_load(p):\n    return Path(p).read_bytes()\n", []),
])
def test_read_guard_detects_reads(source, reads):
    assert _file_reads(source, allowed="checkpoint_load") == reads


def test_only_manifest_reads_input_files():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "manifest.py":
            continue
        allowed = "checkpoint_load" if path.name == "checkpoint.py" else None
        offenders += [f"{path.name}:{where}" for where in _file_reads(path.read_text(encoding="utf-8"), allowed)]
    assert offenders == []
    reads = _file_reads((SRC / "checkpoint.py").read_text(encoding="utf-8"))
    assert [where.split(":")[0] for where in reads] == ["checkpoint_load"]


def _manifest_constructions(source: str, allowed: str | None = None) -> list[str]:
    """``function:line`` of every ``ManifestWriter`` construction outside the function named ``allowed``."""
    tree = ast.parse(source)
    scopes = [(tree, "<module>")] + [
        (node, node.name) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return [f"{function}:{call.lineno}" for scope, function in scopes if function != allowed
            for call in _own_calls(scope) if _call_name(call) == "ManifestWriter"]


@pytest.mark.parametrize("source, made", [
    ("def _run_stage(body, args):\n    m = ManifestWriter(args.command, {}, {})\n", []),
    ("def cmd_refine(args, derived):\n    m = manifest.ManifestWriter('refine', {}, {})\n", ["cmd_refine:2"]),
    ("def _run_stage(body, args):\n    m = ManifestWriter('a', {}, {})\n"
     "def cmd_eval(args, derived):\n    def inner():\n        return ManifestWriter('eval', {}, {})\n",
     ["inner:5"]),
    ("writer = ManifestWriter('x', {}, {})\n", ["<module>:1"]),
    ("def f(args):\n    return ManifestWriter\n", []),
])
def test_manifest_guard_detects_constructions(source, made):
    assert _manifest_constructions(source, allowed="_run_stage") == made


def test_only_the_stage_runner_makes_manifests():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        allowed = "_run_stage" if path.name == "cli.py" else None
        made = _manifest_constructions(path.read_text(encoding="utf-8"), allowed)
        offenders += [f"{path.name}:{where}" for where in made]
    assert offenders == []
    made = _manifest_constructions((SRC / "cli.py").read_text(encoding="utf-8"))
    assert [where.split(":")[0] for where in made] == ["_run_stage"]
