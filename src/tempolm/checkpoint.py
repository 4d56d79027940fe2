"""Binary checkpoint container.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(format version, encoder config, vocabulary, tensor manifest, step counter),
then each tensor as little-endian float32 in manifest order, and a trailing
SHA-256 checksum over everything before it. Saving, loading, and saving
again produces byte-identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, Params
from .errors import ChecksumFailureError, IncompatibleCheckpointError
from .manifest import write_atomic
from .vocab import Vocabulary

MAGIC = b"TLMCKPT\x00"
FORMAT_VERSION = 2  # version-1 headers hold an encoder `dropout` field that EncoderConfig no longer has


@dataclass
class EncoderCheckpoint:
    config: EncoderConfig
    vocab: Vocabulary
    params: Params
    step: int = 0
    optimizer: Params | None = None
    optimizer_step: int = 0
    task: dict | None = None  # fine-tuned head metadata (granularity, span, classes)


def _serialize(ckpt: EncoderCheckpoint) -> bytes:
    tensors: list[tuple[str, np.ndarray]] = [(k, ckpt.params[k]) for k in sorted(ckpt.params)]
    opt_names: list[str] = []
    if ckpt.optimizer is not None:
        opt_names = sorted(ckpt.optimizer)
        tensors.extend((k, ckpt.optimizer[k]) for k in opt_names)
    header = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config.to_json(),
        "vocab": ckpt.vocab.to_json(),
        "step": ckpt.step,
        "tensors": [[name, list(arr.shape)] for name, arr in tensors],
        "optimizer_tensors": opt_names,
        "optimizer_step": ckpt.optimizer_step,
        "task": ckpt.task,
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for _, arr in tensors:
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()
    return bytes(blob)


def checkpoint_save(ckpt: EncoderCheckpoint, path: str | Path) -> None:
    write_atomic(path, [_serialize(ckpt)])


def checkpoint_load(path: str | Path) -> EncoderCheckpoint:
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 8 + 32 or blob[: len(MAGIC)] != MAGIC:
        raise ChecksumFailureError(f"{path}: not a checkpoint file or truncated")
    digest = blob[-32:]
    body = blob[:-32]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumFailureError(f"{path}: checksum mismatch (truncated or corrupt)")
    (header_len,) = struct.unpack("<Q", blob[len(MAGIC) : len(MAGIC) + 8])
    header_start = len(MAGIC) + 8
    header = json.loads(blob[header_start : header_start + header_len].decode("utf-8"))
    if header.get("format_version") != FORMAT_VERSION:
        raise IncompatibleCheckpointError(
            f"{path}: format version {header.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
    config = EncoderConfig.from_json(header["config"])
    vocab = Vocabulary.from_json(header["vocab"])
    offset = header_start + header_len
    tensors: Params = {}
    for name, shape in header["tensors"]:
        count = int(np.prod(shape)) if shape else 1
        raw = body[offset : offset + 4 * count]
        if len(raw) != 4 * count:
            raise ChecksumFailureError(f"{path}: tensor {name} truncated")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(config.np_dtype)
        offset += 4 * count
    opt_names = set(header.get("optimizer_tensors", []))
    params = {k: v for k, v in tensors.items() if k not in opt_names}
    optimizer = {k: tensors[k] for k in sorted(opt_names)} if opt_names else None
    return EncoderCheckpoint(
        config=config,
        vocab=vocab,
        params=params,
        step=header["step"],
        optimizer=optimizer,
        optimizer_step=header.get("optimizer_step", 0),
        task=header.get("task"),
    )
