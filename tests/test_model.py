import hashlib
import json
import struct

import numpy as np
import pytest

import tempolm.checkpoint as ckpt_mod
from tempolm import autodiff as ad
from tempolm.autodiff import Var
from tempolm.checkpoint import EncoderCheckpoint, checkpoint_load, checkpoint_save
from tempolm.cli import main
from tempolm.encoder import (
    EncoderConfig,
    collect_grads,
    encode_forward,
    init_params,
    joint_loss,
    multitask_heads,
    pack_sequences,
    wrap_params,
)
from tempolm.errors import (
    ChecksumFailureError,
    ConfigError,
    IncompatibleCheckpointError,
    SequenceTooLongError,
    SpanBoundsError,
)
from tempolm.optim import AdamW
from tempolm.vocab import build_vocab


def small_config(**kw):
    defaults = dict(
        layers=2, hidden_dim=32, heads=4, ffn_dim=48, max_len=32,
        vocab_size=50, dd_classes=6, seed=3, dtype="float64",
    )
    defaults.update(kw)
    return EncoderConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(hidden_dim=30, heads=4)
    with pytest.raises(ConfigError):
        EncoderConfig(max_len=1)


def test_forward_shape_contract():
    config = small_config()
    pvars = wrap_params(init_params(config))
    for n in (1, 5, 32):
        hidden = encode_forward(list(range(n)), config, pvars)
        assert hidden.shape == (n, config.hidden_dim)


def test_sequence_too_long():
    config = small_config()
    pvars = wrap_params(init_params(config))
    with pytest.raises(SequenceTooLongError):
        encode_forward(list(range(33)), config, pvars)


def test_zero_layer_stack_is_embedding_plus_position():
    config = small_config(layers=0)
    params = init_params(config)
    pvars = wrap_params(params)
    ids = [3, 7, 1]
    hidden = encode_forward(ids, config, pvars)
    expected = params["tok_emb"][ids] + params["pos_emb"][:3]
    np.testing.assert_allclose(hidden.value, expected)


def test_forward_is_pure_function_without_dropout():
    config = small_config()
    pvars = wrap_params(init_params(config))
    a = encode_forward([1, 2, 3, 4], config, pvars).value
    b = encode_forward([1, 2, 3, 4], config, pvars).value
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("pre_norm", [True, False])
def test_permutation_equivariance_with_zero_positions(pre_norm):
    config = small_config(pre_norm=pre_norm)
    params = init_params(config)
    params["pos_emb"][:] = 0.0
    pvars = wrap_params(params)
    ids = [2, 9, 4, 11, 6]
    swapped = [2, 9, 6, 11, 4]  # positions 2 and 4 exchanged, position 0 fixed
    h1 = encode_forward(ids, config, pvars).value
    h2 = encode_forward(swapped, config, pvars).value
    np.testing.assert_allclose(h2[2], h1[4], atol=1e-10)
    np.testing.assert_allclose(h2[4], h1[2], atol=1e-10)
    np.testing.assert_allclose(h2[0], h1[0], atol=1e-10)


def test_softmax_rows_sum_to_one():
    rng = np.random.Generator(np.random.PCG64(0))
    x = Var(rng.normal(size=(7, 13)))
    s = ad.softmax(x)
    np.testing.assert_allclose(s.value.sum(axis=-1), np.ones(7), atol=1e-6)


def test_head_shapes():
    config = small_config()
    pvars = wrap_params(init_params(config))
    hidden = encode_forward(list(range(10)), config, pvars)
    heads = multitask_heads(hidden, pvars, mlm_positions=[1, 4, 7], replacement_spans=[(2, 3), (5, 5)], with_dd=True)
    assert heads["mlm"].shape == (3, config.vocab_size)
    assert heads["dd"].shape == (1, config.dd_classes)
    assert heads["repl"].shape == (2, 2)


def test_no_spans_no_logits():
    config = small_config()
    pvars = wrap_params(init_params(config))
    hidden = encode_forward([1, 2, 3], config, pvars)
    heads = multitask_heads(hidden, pvars)
    assert heads == {}


def test_single_token_span_uses_same_state_twice():
    config = small_config(layers=0)
    params = init_params(config)
    pvars = wrap_params(params)
    hidden = encode_forward([1, 2, 3], config, pvars)
    heads = multitask_heads(hidden, pvars, replacement_spans=[(1, 1)])
    boundary = np.concatenate([hidden.value[1], hidden.value[1]])
    expected = boundary @ params["repl.w"] + params["repl.b"]
    np.testing.assert_allclose(heads["repl"].value[0], expected)


def test_span_bounds_error():
    config = small_config()
    pvars = wrap_params(init_params(config))
    hidden = encode_forward([1, 2, 3], config, pvars)
    with pytest.raises(SpanBoundsError):
        multitask_heads(hidden, pvars, mlm_positions=[5])
    with pytest.raises(SpanBoundsError):
        multitask_heads(hidden, pvars, replacement_spans=[(0, 3)])


def test_uniform_logits_loss_is_log_vocab():
    heads = {"mlm": Var(np.zeros((3, 4)))}
    loss, parts = joint_loss(heads, mlm_targets=[0, 1, 2])
    assert abs(float(loss.value) - np.log(4.0)) < 1e-9
    assert abs(parts["mlm"] - np.log(4.0)) < 1e-9


def test_perfect_logits_loss_near_zero():
    logits = np.full((2, 5), -1e4)
    logits[0, 1] = 1e4
    logits[1, 3] = 1e4
    loss, _ = joint_loss({"mlm": Var(logits)}, mlm_targets=[1, 3])
    assert float(loss.value) < 1e-6


def test_empty_example_zero_loss_and_zero_grads():
    config = small_config()
    pvars = wrap_params(init_params(config))
    loss, parts = joint_loss({})
    assert float(loss.value) == 0.0 and parts == {}
    grads = collect_grads(pvars)
    assert all(np.all(g == 0) for g in grads.values())


def test_loss_additive_over_disjoint_tasks():
    rng = np.random.Generator(np.random.PCG64(1))
    heads = {
        "mlm": Var(rng.normal(size=(4, 9))),
        "dd": Var(rng.normal(size=(1, 6))),
        "repl": Var(rng.normal(size=(3, 2))),
    }
    both, _ = joint_loss(heads, mlm_targets=[1, 2, 3, 4], dd_target=2, replacement_labels=[0, 1, 0])
    only_mlm, _ = joint_loss(heads, mlm_targets=[1, 2, 3, 4])
    only_dd, _ = joint_loss(heads, dd_target=2)
    only_repl, _ = joint_loss(heads, replacement_labels=[0, 1, 0])
    assert abs(float(both.value) - (float(only_mlm.value) + float(only_dd.value) + float(only_repl.value))) < 1e-12


def _full_loss(params, config, ids, mlm_pos, mlm_tgt, dd_tgt, spans, labels):
    pvars = wrap_params(params)
    hidden = encode_forward(ids, config, pvars)
    heads = multitask_heads(hidden, pvars, mlm_positions=mlm_pos, replacement_spans=spans, with_dd=True)
    loss, _ = joint_loss(heads, mlm_targets=mlm_tgt, dd_target=dd_tgt, replacement_labels=labels)
    return loss, pvars


@pytest.mark.parametrize("pre_norm", [True, False])
def test_gradients_match_finite_differences(pre_norm):
    config = small_config(pre_norm=pre_norm)
    params = init_params(config)
    ids = [2, 15, 7, 30, 4, 9, 21, 3]
    mlm_pos, mlm_tgt = [1, 3, 6], [5, 8, 2]
    dd_tgt = 4
    spans, labels = [(2, 2), (4, 5)], [1, 0]

    loss, pvars = _full_loss(params, config, ids, mlm_pos, mlm_tgt, dd_tgt, spans, labels)
    ad.backward(loss)
    grads = collect_grads(pvars)

    rng = np.random.Generator(np.random.PCG64(11))
    names = sorted(params)
    checked = 0
    h = 1e-5
    while checked < 12:
        name = names[rng.integers(len(names))]
        flat_idx = int(rng.integers(params[name].size))
        base = params[name].flat[flat_idx]
        params[name].flat[flat_idx] = base + h
        up, _ = _full_loss(params, config, ids, mlm_pos, mlm_tgt, dd_tgt, spans, labels)
        params[name].flat[flat_idx] = base - h
        down, _ = _full_loss(params, config, ids, mlm_pos, mlm_tgt, dd_tgt, spans, labels)
        params[name].flat[flat_idx] = base
        numeric = (float(up.value) - float(down.value)) / (2 * h)
        analytic = grads[name].flat[flat_idx]
        # denominator floored at 1e-6: below that, central-difference
        # cancellation noise dominates and absolute agreement is the check
        denom = max(abs(numeric), abs(analytic), 1e-6)
        assert abs(numeric - analytic) / denom < 1e-4, f"{name}[{flat_idx}]: {numeric} vs {analytic}"
        checked += 1


def test_doubling_loss_doubles_gradients():
    config = small_config()
    params = init_params(config)
    loss, pvars = _full_loss(params, config, [1, 2, 3, 4], [1, 2], [3, 4], 1, [(3, 3)], [1])
    ad.backward(loss)
    g1 = collect_grads(pvars)

    loss2, pvars2 = _full_loss(params, config, [1, 2, 3, 4], [1, 2], [3, 4], 1, [(3, 3)], [1])
    doubled = ad.scale(loss2, 2.0)
    ad.backward(doubled)
    g2 = collect_grads(pvars2)
    for name in g1:
        np.testing.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-10, atol=1e-12)


def test_adamw_zero_grad_no_decay_keeps_params():
    params = {"w": np.array([1.0, -2.0])}
    opt = AdamW(params, lr=0.1, weight_decay=0.0)
    opt.step({"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"], np.array([1.0, -2.0]))


def test_adamw_matches_hand_computed_scalar_trace():
    params = {"w": np.array([0.5])}
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    opt = AdamW(params, lr=lr, betas=(b1, b2), eps=eps, weight_decay=0.0)

    w = 0.5
    m = v = 0.0
    for t, g in enumerate([1.0, -0.5, 0.25], start=1):
        opt.step({"w": np.array([g])})
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert abs(params["w"][0] - w) < 1e-12


def test_adamw_decoupled_decay_shrinks_params():
    params = {"w": np.array([2.0])}
    opt = AdamW(params, lr=0.1, weight_decay=0.5)
    opt.step({"w": np.zeros(1)})
    # zero grad: adaptive term is zero, decay shrinks by lr * wd * w
    assert abs(params["w"][0] - (2.0 - 0.1 * 0.5 * 2.0)) < 1e-12


def _reference_adamw_step(params, m, v, grads, t, lr, b1, b2, eps, wd):
    """The per-tensor AdamW update, one tensor at a time, as the flat update must reproduce it."""
    for name in sorted(params):
        p, g = params[name], grads[name].astype(params[name].dtype)
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        p -= lr * (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + eps)
        if wd > 0.0:
            p -= lr * wd * p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_flat_update_equals_per_tensor_update_bitwise(dtype):
    rng = np.random.default_rng(0)
    # one tensor larger than an update chunk, so chunk edges fall inside it
    shapes = {"b": (3,), "w": (300, 400), "a": (7, 5), "z": ()}
    params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(x) for k, x in ref.items()}
    v = {k: np.zeros_like(x) for k, x in ref.items()}
    opt = AdamW(params, lr=1e-2, betas=(0.8, 0.95), eps=1e-6, weight_decay=0.1)
    assert all(np.shares_memory(params[k], opt.flat) for k in params)
    for t in range(1, 4):
        grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        opt.step(grads)
        _reference_adamw_step(ref, m, v, grads, t, 1e-2, 0.8, 0.95, 1e-6, 0.1)
    for k in shapes:
        assert params[k].tobytes() == ref[k].tobytes()
        assert opt.state_tensors()[f"adam.m.{k}"].tobytes() == m[k].tobytes()
        assert opt.state_tensors()[f"adam.v.{k}"].tobytes() == v[k].tobytes()


def test_adamw_rejects_mixed_dtypes():
    with pytest.raises(ConfigError, match="mixed dtypes"):
        AdamW({"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float64)})


def _toy_checkpoint():
    vocab = build_vocab(["alpha beta gamma 1999"], target_size=32)
    config = EncoderConfig(
        layers=1, hidden_dim=16, heads=2, ffn_dim=24, max_len=16,
        vocab_size=vocab.size, dd_classes=4, seed=7, dtype="float32",
    )
    params = init_params(config)
    return EncoderCheckpoint(config=config, vocab=vocab, params=params, step=5)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ckpt = _toy_checkpoint()
    p1, p2 = tmp_path / "a.tlm", tmp_path / "b.tlm"
    checkpoint_save(ckpt, p1)
    loaded = checkpoint_load(p1)
    checkpoint_save(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.step == 5
    for name in ckpt.params:
        np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])


def test_checkpoint_roundtrip_preserves_forward(tmp_path):
    ckpt = _toy_checkpoint()
    path = tmp_path / "m.tlm"
    checkpoint_save(ckpt, path)
    loaded = checkpoint_load(path)
    ids = [1, 2, 3]
    a = encode_forward(ids, ckpt.config, wrap_params(ckpt.params)).value
    b = encode_forward(ids, loaded.config, wrap_params(loaded.params)).value
    np.testing.assert_array_equal(a, b)


def test_checkpoint_truncated_fails_checksum(tmp_path):
    ckpt = _toy_checkpoint()
    path = tmp_path / "m.tlm"
    checkpoint_save(ckpt, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(ChecksumFailureError):
        checkpoint_load(path)


def test_checkpoint_corrupt_byte_fails_checksum(tmp_path):
    ckpt = _toy_checkpoint()
    path = tmp_path / "m.tlm"
    checkpoint_save(ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumFailureError):
        checkpoint_load(path)


def test_checkpoint_version_mismatch(tmp_path, monkeypatch):
    ckpt = _toy_checkpoint()
    path = tmp_path / "m.tlm"
    monkeypatch.setattr(ckpt_mod, "FORMAT_VERSION", 99)
    checkpoint_save(ckpt, path)
    monkeypatch.setattr(ckpt_mod, "FORMAT_VERSION", 1)
    with pytest.raises(IncompatibleCheckpointError):
        checkpoint_load(path)


def test_checkpoint_version_1_header_is_incompatible(tmp_path):
    # a version-1 file: its encoder config still carries the removed dropout rate
    path = tmp_path / "v1.tlm"
    checkpoint_save(_toy_checkpoint(), path)
    blob = path.read_bytes()[:-32]
    start = len(ckpt_mod.MAGIC) + 8
    (header_len,) = struct.unpack("<Q", blob[len(ckpt_mod.MAGIC) : start])
    header = json.loads(blob[start : start + header_len])
    header["format_version"] = 1
    header["config"]["dropout"] = 0.0
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = ckpt_mod.MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + blob[start + header_len :]
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(IncompatibleCheckpointError, match="format version 1"):
        checkpoint_load(path)
    assert main(["similarity", "--checkpoint", str(path), "--events", str(tmp_path / "events.jsonl")]) == 2


def test_checkpoint_with_optimizer_state(tmp_path):
    ckpt = _toy_checkpoint()
    opt = AdamW(ckpt.params, lr=1e-3)
    opt.step({k: np.ones_like(v) for k, v in ckpt.params.items()})
    ckpt.optimizer = opt.state_tensors()
    ckpt.optimizer_step = opt.t
    path = tmp_path / "m.tlm"
    checkpoint_save(ckpt, path)
    loaded = checkpoint_load(path)
    assert loaded.optimizer_step == 1
    assert set(loaded.optimizer) == set(ckpt.optimizer)


# -- packed sequences and dtypes ----------------------------------------------

# three examples: ids, mlm position -> target, dd class, replacement spans and labels
PACK_EXAMPLES = (
    ([2, 15, 7, 30, 4, 9, 21, 3], {1: 5, 3: 8, 6: 2}, 4, [(2, 2), (4, 5)], [1, 0]),
    ([1, 11, 12, 13, 40], {2: 7}, 1, [(1, 3)], [1]),
    ([5, 6, 44, 8, 17, 26, 35, 10, 19, 22, 31], {4: 9, 9: 3}, 0, [], []),
)


def _single_loss(params, config, ids, mlm, dd, spans, labels):
    pvars = wrap_params(params)
    hidden = encode_forward(ids, config, pvars)
    positions = sorted(mlm)
    heads = multitask_heads(hidden, pvars, mlm_positions=positions, replacement_spans=spans or None, with_dd=True)
    loss, _ = joint_loss(heads, mlm_targets=[mlm[p] for p in positions], dd_target=dd,
                         replacement_labels=labels or None)
    return loss, pvars


def _packed_loss(params, config, examples):
    ids, segments, rows, targets, mlm_w, cls_rows, dds, spans, labels, repl_w = ([] for _ in range(10))
    for ex_ids, mlm, dd, ex_spans, ex_labels in examples:
        start = len(ids)
        ids += ex_ids
        segments.append(len(ex_ids))
        for p in sorted(mlm):
            rows.append(start + p)
            targets.append(mlm[p])
            mlm_w.append(1.0 / len(mlm))
        cls_rows.append(start)
        dds.append(dd)
        spans += [(start + a, start + b) for a, b in ex_spans]
        labels += ex_labels
        repl_w += [1.0 / len(ex_spans) for _ in ex_spans]
    pvars = wrap_params(params)
    hidden = encode_forward(ids, config, pvars, segments=segments)
    heads = multitask_heads(hidden, pvars, mlm_positions=rows, replacement_spans=spans,
                            with_dd=True, cls_rows=cls_rows)
    loss, _ = joint_loss(heads, mlm_targets=targets, dd_target=dds, replacement_labels=labels,
                         weights={"mlm": mlm_w, "dd": [1.0] * len(dds), "repl": repl_w})
    return loss, pvars


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_forward_heads_and_gradients_keep_the_config_dtype(dtype):
    config = small_config(dtype=dtype)
    params = init_params(config)
    loss, pvars = _packed_loss(params, config, PACK_EXAMPLES)
    hidden = encode_forward(PACK_EXAMPLES[0][0], config, pvars)
    heads = multitask_heads(hidden, pvars, mlm_positions=[1], replacement_spans=[(2, 3)], with_dd=True)
    ad.backward(loss)
    want = np.dtype(dtype)
    assert hidden.value.dtype == want
    assert {name: h.value.dtype for name, h in heads.items()} == {"mlm": want, "dd": want, "repl": want}
    assert loss.value.dtype == want
    assert {name: g.dtype for name, g in collect_grads(pvars).items()} == {name: want for name in params}


@pytest.mark.parametrize("pre_norm", [True, False])
def test_packed_loss_and_gradients_equal_sum_over_single_sequences(pre_norm):
    config = small_config(pre_norm=pre_norm)
    params = init_params(config)
    total, grads = 0.0, {name: np.zeros_like(p) for name, p in params.items()}
    for ex in PACK_EXAMPLES:
        loss, pvars = _single_loss(params, config, *ex)
        ad.backward(loss)
        total += float(loss.value)
        for name, g in collect_grads(pvars).items():
            grads[name] += g
    packed, pvars = _packed_loss(params, config, PACK_EXAMPLES)
    ad.backward(packed)
    np.testing.assert_allclose(float(packed.value), total, rtol=1e-5)
    for name, g in collect_grads(pvars).items():
        # attn.bk's true gradient is 0 (softmax is shift-invariant): only rounding noise shows there
        np.testing.assert_allclose(g, grads[name], rtol=1e-5, atol=1e-12, err_msg=name)


def test_packed_segments_do_not_attend_to_each_other():
    config = small_config()
    pvars = wrap_params(init_params(config))
    first, second = [2, 15, 7, 30, 4], [9, 21, 3]
    a = encode_forward(first + second, config, pvars, segments=[5, 3]).value
    b = encode_forward(first + [40, 41, 42], config, pvars, segments=[5, 3]).value
    alone = encode_forward(first, config, pvars).value
    np.testing.assert_allclose(b[:5], a[:5], rtol=0, atol=1e-12)
    np.testing.assert_allclose(a[:5], alone, rtol=1e-10, atol=1e-12)
    # positions restart at 0 in each segment
    np.testing.assert_allclose(a[5:], encode_forward(second, config, pvars).value, rtol=1e-10, atol=1e-12)


def test_max_len_applies_to_each_segment():
    config = small_config()
    pvars = wrap_params(init_params(config))
    hidden = encode_forward(list(range(40)), config, pvars, segments=[20, 20])
    assert hidden.shape == (40, config.hidden_dim)
    with pytest.raises(SequenceTooLongError):
        encode_forward(list(range(35)), config, pvars, segments=[2, 33])
    with pytest.raises(ConfigError):
        encode_forward(list(range(10)), config, pvars, segments=[4, 4])


def test_pack_sequences_fills_in_order_up_to_the_budget():
    assert pack_sequences([5, 3, 4, 8, 1], 8) == [[0, 1], [2], [3], [4]]
    assert pack_sequences([10, 2], 8) == [[0], [1]]
    assert pack_sequences([], 8) == []
