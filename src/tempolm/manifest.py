"""Run configuration files and reproducibility manifests.

Config files are line-oriented ``key = value`` text; ``#`` starts a
comment. Every stage writes a ``<output>.manifest.json`` recording the
config snapshot, SHA-256 checksums of inputs and outputs, wall-clock, and
component versions: re-running a stage with identical inputs must
reproduce identical artifact checksums.
Artifacts reach disk only through ``write_atomic``, whole or not at all,
and JSONL lines are serialized only by ``jsonl_line``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Iterable

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
    """The JSON value of a whole file; malformed JSON raises ``ParseError``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key = value", lineno)
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class ManifestWriter:
    """Manifest of one stage run: created when the stage starts, written when it ends."""

    def __init__(self, stage: str, config: dict, inputs: Iterable[str | Path]):
        self.started = time.time()
        self.stage = stage
        self.config = config
        self.inputs = {str(path): sha256_file(path) for path in inputs}

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
