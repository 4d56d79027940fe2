"""Run configuration files and reproducibility manifests.

Config files are line-oriented ``key = value`` text; ``#`` starts a
comment. Every stage writes a ``<output>.manifest.json`` recording the
config snapshot, SHA-256 checksums of inputs and outputs, wall-clock, and
component versions: re-running a stage with identical inputs must
reproduce identical artifact checksums.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .errors import ParseError


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
        Path(f"{outputs[0]}.manifest.json").write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
