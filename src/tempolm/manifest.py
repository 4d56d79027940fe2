"""Run configuration files and reproducibility manifests.

Config files are line-oriented ``key = value`` text; ``#`` starts a
comment. Every stage writes a ``<output>.manifest.json`` recording its
config (every option value and the values it derived from the data), the
path and SHA-256 of each input file by option, the SHA-256 of each output,
wall-clock, and component versions: re-running a stage with an equal
config and equal inputs must reproduce identical artifact checksums.
Artifacts reach disk only through ``write_atomic``, whole or not at all,
and JSONL lines are serialized only by ``jsonl_line``. Input files are read
only here: line files through ``read_lines``, whole JSON files through
``read_json``; both reject text that is not UTF-8.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from . import __version__
from .errors import ParseError


def write_atomic(path: str | Path, parts: Iterable[str | bytes]) -> int:
    """Write ``parts`` to ``path`` whole or not at all; return how many parts were written.

    Parts go to ``<path>.tmp``, which ``os.replace`` then moves onto ``path``. On any
    exception, ``KeyboardInterrupt`` included, the temp file is deleted and ``path`` is kept.
    """
    tmp = Path(f"{path}.tmp")
    count = 0
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
                count += 1
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def jsonl_line(record: Any) -> str:
    """The one JSONL rule: sorted keys, UTF-8 text as is, no NaN or infinity."""
    return json.dumps(record, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


def read_json(path: str | Path) -> Any:
    """The JSON value of a whole file; malformed JSON or text that is not UTF-8 raises ``ParseError``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def read_lines(path: str | Path, comments: bool = False) -> Iterator[tuple[int, str]]:
    """``(line number, stripped text)`` of each non-blank line; blank lines count. With ``comments``,
    ``#`` starts a comment. A line that is not UTF-8 raises a line-numbered ``ParseError``."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: {exc}", lineno) from None
            line = (line.split("#", 1)[0] if comments else line).strip()
            if line:
                yield lineno, line


def read_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """``(line number, value)`` of each non-blank line; malformed JSON raises a line-numbered ``ParseError``."""
    for lineno, line in read_lines(path):
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", lineno) from None
        yield lineno, value


def read_pairs(path: str | Path, sep: str, form: str) -> Iterator[tuple[int, str, str]]:
    """``(line number, key, value)`` of each ``key<sep>value`` line, ``#`` comments dropped; a line
    without ``sep`` raises a line-numbered ``ParseError`` that expects ``form``."""
    for lineno, line in read_lines(path, comments=True):
        key, found, value = line.partition(sep)
        if not found:
            raise ParseError(f"expected {form}", lineno)
        yield lineno, key.strip(), value.strip()


def parse_config_file(path: str | Path) -> dict[str, str]:
    return {key: value for _, key, value in read_pairs(path, "=", "key = value")}


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class ManifestWriter:
    """Manifest of one stage run: created when the stage starts, written when it ends."""

    def __init__(self, stage: str, config: dict, inputs: dict[str, str | Path]):
        """``inputs`` maps each option that names an input file to its path."""
        self.started = time.time()
        self.stage = stage
        self.config = config
        self.inputs = {option: {"path": str(path), "sha256": sha256_file(path)} for option, path in inputs.items()}

    def write(self, *outputs: str | Path) -> None:
        """Hash ``outputs`` and save the manifest as ``<first output>.manifest.json``."""
        doc = {
            "stage": self.stage,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": {str(path): sha256_file(path) for path in outputs},
            "started_unix": self.started,
            "elapsed_s": time.time() - self.started,
            "versions": {
                "tempolm": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
        write_atomic(f"{outputs[0]}.manifest.json", [json.dumps(doc, indent=1, sort_keys=True)])
