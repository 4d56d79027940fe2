"""Binary checkpoint container.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(format version, encoder config, vocabulary, tensor manifest, step counter),
then the parameters' flat buffer (``encoder.param_layout``, sorted names)
and, if saved, the optimizer's ``m`` and ``v`` in the same layout, all as
little-endian float32, and a trailing SHA-256 checksum over everything
before it. Saving, loading, and saving again produces byte-identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, Params, flat_views, param_layout
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
    optimizer: tuple[np.ndarray, np.ndarray] | None = None  # AdamW's flat m and v, laid out like the params
    optimizer_step: int = 0
    task: dict | None = None  # fine-tuned head metadata (granularity, span, classes)


def _serialize(ckpt: EncoderCheckpoint) -> bytes:
    layout, _ = param_layout((k, np.shape(ckpt.params[k])) for k in sorted(ckpt.params))
    tensors = [[name, list(shape)] for name, shape, _ in layout]
    flats = [np.ascontiguousarray(ckpt.params[name], dtype="<f4") for name, _, _ in layout]
    if ckpt.optimizer is not None:
        tensors += [[f"adam.{key}.{name}", shape] for key in "mv" for name, shape in tensors]
        flats += [np.asarray(flat, dtype="<f4") for flat in ckpt.optimizer]
    header = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config.to_json(),
        "vocab": ckpt.vocab.to_json(),
        "step": ckpt.step,
        "tensors": tensors,
        "optimizer_tensors": [name for name, _ in tensors[len(layout) :]],
        "optimizer_step": ckpt.optimizer_step,
        "task": ckpt.task,
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for flat in flats:
        blob += flat.tobytes()
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
    try:
        config = EncoderConfig.from_json(header["config"])
    except TypeError as exc:
        raise IncompatibleCheckpointError(f"{path}: header field 'config' unreadable by this version: {exc}") from None
    vocab = Vocabulary.from_json(header["vocab"])
    parts = 3 if header.get("optimizer_tensors") else 1  # the parameters, then m and v
    layout, size = param_layout(header["tensors"][: len(header["tensors"]) // parts])
    offset = header_start + header_len
    if len(body) - offset != 4 * parts * size:
        raise ChecksumFailureError(f"{path}: {len(body) - offset} tensor bytes, the header lists {4 * parts * size}")
    flat = np.frombuffer(body, dtype="<f4", count=parts * size, offset=offset).astype(config.np_dtype)
    params = flat_views(flat[:size], layout)
    optimizer = (flat[size : 2 * size], flat[2 * size :]) if parts > 1 else None
    return EncoderCheckpoint(
        config=config,
        vocab=vocab,
        params=params,
        step=header["step"],
        optimizer=optimizer,
        optimizer_step=header.get("optimizer_step", 0),
        task=header.get("task"),
    )
