import dataclasses
import hashlib
import itertools
import json
import struct

import numpy as np
import pytest

from crossemb import policy, unified_space
from crossemb.dataset import (
    DemonstrationEpisode,
    MixedSampler,
    episodes_to_pairs_by_tag,
    extract_pairs,
    stats_from_episodes,
)
from crossemb.errors import CorruptCheckpoint, DimensionMismatch, NonFiniteLoss
from crossemb.policy import (
    LAMBDA_EEF,
    PolicyConfig,
    BatchTable,
    assemble_batch,
    backward,
    forward,
    init_model,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
    train,
)
from crossemb.unified_space import NormalizationStats, compute_stats

# Identity rotations, zero positions.
IDENTITY_STATE = np.array([1.0, 0, 0, 0, 1, 0] * 3 + [0.0] * 36)


def eq1_loss_oracle(pred, target, lam):
    """One-line independent evaluation of the training loss."""
    r = np.abs(np.asarray(pred) - np.asarray(target))
    base = r.mean()
    eef = r[..., 18:24].mean()
    return base + lam * eef, base, eef


def make_pairs(tag, count, K=3, F=4, seed=0, constant_action=False):
    """`count` episodes of K + 1 frames, one pair each: frame 0 is the
    state, frames 1..K the action chunk."""
    rng = np.random.default_rng(seed)
    episodes = []
    const_chunk = np.tile(IDENTITY_STATE, (K, 1))
    for i in range(count):
        state = IDENTITY_STATE + np.concatenate([np.zeros(18), rng.normal(scale=0.1, size=36)])
        chunk = (
            const_chunk
            if constant_action
            else np.tile(IDENTITY_STATE, (K, 1))
            + np.concatenate([np.zeros(18), rng.normal(scale=0.1, size=36)])
        )
        feature = rng.normal(size=F)
        episodes.append(
            DemonstrationEpisode(
                id=f"{tag}-{i}",
                embodiment_tag=tag,
                instruction="",
                times=np.arange(K + 1) / 30.0,
                states=np.vstack([state, chunk]),
                features=np.tile(feature, (K + 1, 1)),
            )
        )
    return extract_pairs(episodes, K)


def all_pairs(pairs):
    """States, features and action chunks of every pair in a pair set."""
    return pairs.take(np.arange(len(pairs)))


# Mean 0 and std 1: normalizing with these changes no value.
UNIT_STATS = NormalizationStats(np.zeros(54), np.ones(54), 1e-6)


def small_model(K=2, F=3, hidden=(6,), seed=0, lr=1e-2):
    cfg = PolicyConfig(
        feature_dim=F,
        chunk_length=K,
        hidden_layers=hidden,
        learning_rate=lr,
        batch_size=4,
        seed=seed,
    )
    return init_model(cfg, UNIT_STATS, UNIT_STATS)


# --- forward ----------------------------------------------------------------

def test_zero_final_layer_predicts_zero_chunk():
    model = small_model()
    out = forward(model, np.zeros(54), np.zeros(3))
    assert out.shape == (2, 54)
    np.testing.assert_array_equal(out, 0.0)


def test_forward_shape_and_determinism():
    model = small_model(K=5, F=4, hidden=(16, 8), seed=3)
    # give the output layer nonzero weights
    rng = np.random.default_rng(0)
    model.weights[-1][:] = rng.normal(size=model.weights[-1].shape)
    x_state, x_feat = rng.normal(size=54), rng.normal(size=4)
    out1 = forward(model, x_state, x_feat)
    out2 = forward(model, x_state, x_feat)
    assert out1.shape == (5, 54)
    np.testing.assert_array_equal(out1, out2)


def test_seed_determinism_of_init():
    a = small_model(seed=7, hidden=(32, 16))
    b = small_model(seed=7, hidden=(32, 16))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = small_model(seed=8, hidden=(32, 16))
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_forward_dimension_mismatch():
    model = small_model()
    with pytest.raises(DimensionMismatch):
        forward(model, np.zeros(53), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        forward(model, np.zeros(54), np.zeros(4))


def test_config_rejects_empty_batch_and_layers():
    for kwargs in ({"batch_size": 0}, {"batch_size": -1}, {"hidden_layers": (8, 0)}):
        with pytest.raises(ValueError):
            PolicyConfig(feature_dim=3, chunk_length=2, **kwargs)


# --- loss ---------------------------------------------------------------------

def test_loss_zero_for_equal():
    pred = np.ones((3, 54))
    total, base, eef = loss(pred, pred)
    assert total == base == eef == 0.0


def test_loss_single_residual_frozen_value():
    K = 1
    pred = np.zeros((K, 54))
    target = np.zeros((K, 54))
    pred[0, 18] = 0.1  # left wrist x
    total, base, eef = loss(pred, target)
    assert abs(base - 0.1 / 54) <= 1e-15
    assert abs(eef - 0.1 / 6) <= 1e-15
    assert abs(total - (0.1 / 54 + 2 * 0.1 / 6)) <= 1e-15
    assert abs(total - 0.035185185185185187) <= 1e-12


def test_loss_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        K = int(rng.integers(1, 6))
        pred = rng.normal(size=(K, 54))
        target = rng.normal(size=(K, 54))
        got = loss(pred, target)
        want = eq1_loss_oracle(pred, target, LAMBDA_EEF)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12


def test_loss_decomposition_and_lambda_scaling():
    rng = np.random.default_rng(2)
    pred = rng.normal(size=(4, 54))
    target = rng.normal(size=(4, 54))
    total, base, eef = loss(pred, target)
    assert abs(total - base - LAMBDA_EEF * eef) <= 1e-12
    assert total > base  # nonzero EEF residual


def test_loss_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        loss(np.zeros((2, 54)), np.zeros((3, 54)))


def test_mixed_batch_matches_per_row_oracle():
    """A two-tag batch under shared stats equals, bit for bit, each row
    normalized on its own straight from the episodes, in stream order."""
    K, F = 3, 4
    episodes = []
    for i, tag in enumerate(["human", "robot", "human", "robot", "human"]):
        rng = np.random.default_rng(i)
        n = 6 + i
        states = np.tile(IDENTITY_STATE, (n, 1))
        states[:, 18:] += rng.normal(scale=0.1, size=(n, 36))
        episodes.append(DemonstrationEpisode(
            id=f"{tag}{i}", embodiment_tag=tag, instruction="",
            times=np.arange(n) / 30.0, states=states, features=rng.normal(size=(n, F)),
        ))
    pairs = episodes_to_pairs_by_tag(episodes, K)
    model = init_model(
        PolicyConfig(feature_dim=F, chunk_length=K, hidden_layers=(4,)),
        stats_from_episodes(episodes, kind="state"),
        stats_from_episodes(episodes, kind="action"),
    )
    stream = MixedSampler(pairs, {"human": 2.0, "robot": 1.0}, seed=4).stream()
    refs = [next(stream) for _ in range(24)]
    assert {pair_set.tag for pair_set, _ in refs} == {"human", "robot"}
    x, target = assemble_batch(model, refs, BatchTable())

    by_id = {ep.id: ep for ep in episodes}
    s_stats, a_stats = model.state_stats, model.action_stats
    for i, (pair_set, row) in enumerate(refs):
        ep_id, start = pair_set.ids[row].split("#")
        ep, start = by_id[ep_id], int(start)
        np.testing.assert_array_equal(
            x[i], np.concatenate([(ep.states[start] - s_stats.mean) / s_stats.std,
                                  ep.features[start]])
        )
        for k in range(K):
            np.testing.assert_array_equal(
                target[i, k], (ep.states[start + 1 + k] - a_stats.mean) / a_stats.std
            )


# --- gradients -------------------------------------------------------------

def flatten_params(model):
    return np.concatenate([p.ravel() for p in (*model.weights, *model.biases)])


def set_params(model, flat):
    off = 0
    for arr in (*model.weights, *model.biases):
        n = arr.size
        arr[:] = flat[off : off + n].reshape(arr.shape)
        off += n


def batch_loss(model, x, target):
    total, *_ = backward(model, x, target)
    return total


def test_zero_residual_zero_gradients_with_smoothing():
    """The L1 loss is exact (no smoothing): zero residuals give a zero
    loss, and sign(0) = 0 gives zero gradients."""
    model = small_model()
    rng = np.random.default_rng(3)
    model.weights[-1][:] = 0.0
    x = rng.normal(size=(4, 57))
    target = np.zeros((4, 2, 54))
    total, base, eef, gw, gb = backward(model, x, target)
    assert total == base == eef == 0.0
    for g in (*gw, *gb):
        np.testing.assert_array_equal(g, 0.0)


def test_single_parameter_sign():
    model = small_model(K=1, hidden=(4,))
    rng = np.random.default_rng(4)
    for W in model.weights:
        W[:] = rng.normal(scale=0.3, size=W.shape)
    x = rng.normal(size=(2, 57))
    target = rng.normal(size=(2, 1, 54))
    base_val = batch_loss(model, x, target)
    _, _, _, gw, _ = backward(model, x, target)
    i, j = np.unravel_index(np.argmax(np.abs(gw[0])), gw[0].shape)
    h = 1e-4
    model.weights[0][i, j] += h
    up = batch_loss(model, x, target)
    model.weights[0][i, j] -= 2 * h
    down = batch_loss(model, x, target)
    # loss decreases against the gradient direction
    if gw[0][i, j] > 0:
        assert down < up
    else:
        assert up < down


def test_gradients_match_central_differences():
    model = small_model(K=2, F=3, hidden=(5,), seed=5)
    rng = np.random.default_rng(5)
    for W, b in zip(model.weights, model.biases):
        W[:] = rng.normal(scale=0.4, size=W.shape)
        b[:] = rng.normal(scale=0.1, size=b.shape)
    x = rng.normal(size=(3, 57))
    # keep residuals away from the L1 kink at r = 0
    target = rng.normal(size=(3, 2, 54)) + 0.5
    _, _, _, gw, gb = backward(model, x, target)
    analytic = np.concatenate([g.ravel() for g in (*gw, *gb)])
    flat0 = flatten_params(model)
    h = 1e-5
    numeric = np.empty_like(analytic)
    for k in range(flat0.size):
        flat = flat0.copy()
        flat[k] += h
        set_params(model, flat)
        up = batch_loss(model, x, target)
        flat[k] -= 2 * h
        set_params(model, flat)
        down = batch_loss(model, x, target)
        numeric[k] = (up - down) / (2 * h)
    set_params(model, flat0)
    denom = np.maximum(np.abs(numeric), 1e-6)
    rel = np.max(np.abs(analytic - numeric) / denom)
    assert rel < 1e-4


def test_nonfinite_loss_raises():
    model = small_model()
    x = np.full((2, 57), np.nan)
    with pytest.raises(NonFiniteLoss):
        backward(model, x, np.zeros((2, 2, 54)))


def reference_forward(model, x):
    """The activations and output of the layer loop `z = h @ W + b`,
    `h = tanh(z)` except at the output layer."""
    acts, h = [x], x
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ W + b
        h = z if i == len(model.weights) - 1 else np.tanh(z)
        acts.append(h)
    return acts, h


def reference_backward(model, acts, out, target):
    """The loss and gradients by the per-term formula: the loss gradient is
    `0.0 + g / n` with `LAMBDA_EEF * g / n_eef` added on the wrist columns,
    `g = sign(residual)`, each mean a `.mean()` of a Fortran-order copy."""
    B = out.shape[0]
    residual = out.reshape(B, model.config.chunk_length, 54) - target
    a, g = np.abs(residual), np.sign(residual)
    rows = (B, -1)
    base = float(np.asfortranarray(a.reshape(rows)).mean())
    eef = float(np.asfortranarray(a[..., 18:24].reshape(rows)).mean())
    dpred = 0.0 + g / a.size
    dpred[..., 18:24] += LAMBDA_EEF * g[..., 18:24] / a[..., 18:24].size
    delta = dpred.reshape(B, -1)
    grad_w = [np.empty_like(W) for W in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w[i] = acts[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (1.0 - acts[i] ** 2)
    return base + LAMBDA_EEF * eef, base, eef, grad_w, grad_b


def assert_same_bits(got, want):
    assert got[:3] == want[:3]
    for g, w in zip((*got[3], *got[4]), (*want[3], *want[4])):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def random_model(B, K, F, hidden, seed):
    rng = np.random.default_rng(seed)
    model = small_model(K=K, F=F, hidden=hidden, seed=seed)
    for W, b in zip(model.weights, model.biases):
        W[:] = rng.normal(scale=0.3, size=W.shape)
        b[:] = rng.normal(scale=0.1, size=b.shape)
    return model, rng.normal(size=(B, 54 + F)), rng.normal(size=(B, K, 54))


@pytest.mark.parametrize("B, K, F, hidden", [(1, 1, 3, (4,)), (4, 2, 3, (6,)),
                                             (8, 3, 5, (12, 8)), (32, 8, 12, (64, 64))])
def test_backward_bits_match_per_term_formula(B, K, F, hidden):
    """`backward` keeps the bits of the per-term gradient formula, with some
    residuals exactly zero (target equal to the prediction)."""
    model, x, target = random_model(B, K, F, hidden, seed=B + K)
    acts, out = reference_forward(model, x)
    pred = out.reshape(target.shape)
    target[:, 0, ::5] = pred[:, 0, ::5]
    target[..., 19] = pred[..., 19]  # a wrist column
    assert_same_bits(backward(model, x, target), reference_backward(model, acts, out, target))


def test_backward_bits_with_negative_zero_residuals(monkeypatch):
    """A -0.0 prediction against a +0.0 target is a -0.0 residual; its
    gradient entry is +0.0 in both forms, wrist columns included."""
    model, x, target = random_model(4, 2, 3, (6,), seed=9)
    acts, out = reference_forward(model, x)
    out[:, ::7] = -0.0
    target.reshape(4, -1)[:, ::7] = 0.0
    residual = out.reshape(target.shape) - target
    assert np.signbit(residual[residual == 0]).all() and (residual == 0).sum() == 4 * 16
    assert np.signbit(residual[..., 18:24][residual[..., 18:24] == 0]).size > 0
    monkeypatch.setattr(policy, "_forward_cached", lambda m, x: (acts, out))
    assert_same_bits(backward(model, x, target), reference_backward(model, acts, out, target))


# --- training ----------------------------------------------------------------

def build_sampler(pairs, seed=0):
    return MixedSampler({"human": pairs}, {"human": 1.0}, seed=seed)


def make_stats(pairs, epsilon=1e-3):
    states, _, actions = all_pairs(pairs)
    return (
        compute_stats({"human": states}, epsilon=epsilon),
        compute_stats({"human": actions}, epsilon=epsilon),
    )


def test_zero_learning_rate_keeps_parameters():
    pairs = make_pairs("human", 30)
    state_stats, action_stats = make_stats(pairs)
    cfg = PolicyConfig(feature_dim=4, chunk_length=3, hidden_layers=(8,),
                       learning_rate=0.0, batch_size=4, seed=0)
    model = init_model(cfg, state_stats, action_stats)
    before = [W.copy() for W in model.weights]
    model, _ = train(model, build_sampler(pairs).stream(), steps=20)
    for W0, W1 in zip(before, model.weights):
        np.testing.assert_array_equal(W0, W1)


def test_constant_action_dataset_converges():
    pairs = make_pairs("human", 40, K=3, constant_action=True)
    state_stats, action_stats = make_stats(pairs)
    cfg = PolicyConfig(feature_dim=4, chunk_length=3, hidden_layers=(16,),
                       learning_rate=0.05, batch_size=8, seed=1)
    model = init_model(cfg, state_stats, action_stats)
    model, report = train(model, build_sampler(pairs).stream(), steps=2000)
    assert report.total[-1] < 1e-3
    assert all(np.isfinite(v) and v >= 0 for v in report.total)


# SHA-256 of the checkpoint below, recorded while the header's fixed
# config entries were still settable fields.
PINNED_CHECKPOINT = "8b7922c8b4ac8ab79d8c302fe33e02ccc37d130a3c16c7aa4ddcb9bb509f7bbf"


def test_training_seed_determinism_and_checkpoint_roundtrip(tmp_path):
    pairs = make_pairs("human", 30)
    state_stats, action_stats = make_stats(pairs)

    def run():
        cfg = PolicyConfig(feature_dim=4, chunk_length=3, hidden_layers=(8, 8),
                           learning_rate=0.02, batch_size=4, seed=9)
        model = init_model(cfg, state_stats, action_stats)
        model, _ = train(model, build_sampler(pairs, seed=9).stream(), steps=50)
        return model

    m1, m2 = run(), run()
    save_checkpoint(m1, tmp_path / "a.ckpt")
    save_checkpoint(m2, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert hashlib.sha256((tmp_path / "a.ckpt").read_bytes()).hexdigest() == PINNED_CHECKPOINT

    loaded = load_checkpoint(tmp_path / "a.ckpt")
    for W0, W1 in zip(m1.weights, loaded.weights):
        np.testing.assert_array_equal(W0, W1)
    assert loaded.config == m1.config
    assert loaded.steps_completed == 50
    assert loaded.state_stats.digest() == state_stats.digest()
    # bit-exact re-save
    save_checkpoint(loaded, tmp_path / "c.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "c.ckpt").read_bytes()


def saved_checkpoint(tmp_path):
    model = small_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    return path, path.read_bytes()


@pytest.mark.parametrize("cut", [8, 1])
def test_load_checkpoint_rejects_short_parameter_block(tmp_path, cut):
    path, blob = saved_checkpoint(tmp_path)
    path.write_bytes(blob[:-cut])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_load_checkpoint_rejects_long_parameter_block(tmp_path):
    path, blob = saved_checkpoint(tmp_path)
    path.write_bytes(blob + bytes(8))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


@pytest.mark.parametrize("mangle", ["cut_in_header", "bad_utf8", "bad_json", "not_object"])
def test_load_checkpoint_rejects_undecodable_header(tmp_path, mangle):
    path, blob = saved_checkpoint(tmp_path)
    if mangle == "cut_in_header":
        blob = blob[:40]
    elif mangle == "bad_utf8":
        blob = blob[:16] + b"\xff" + blob[17:]
    elif mangle == "bad_json":
        blob = blob[:16] + b"[" + blob[17:]
    else:
        header = b"[1]"
        blob = blob[:8] + struct.pack("<Q", len(header)) + header
    path.write_bytes(blob)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def rewrite_header(blob: bytes, edit) -> bytes:
    """A checkpoint's bytes with `edit` applied to its decoded JSON header."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode()
    return blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + header_len :]


def _bad_std(header):
    header["state_stats"]["entries"]["shared"]["std"] = [-1.0] * 54
    header["action_stats"]["entries"]["shared"]["std"] = [0.0] * 54


def _per_embodiment(header):
    """The per-embodiment form that older checkpoints could hold."""
    for key in ("state_stats", "action_stats"):
        entry = header[key]["entries"]["shared"]
        header[key] = {"mode": "per_embodiment", "epsilon": header[key]["epsilon"],
                       "entries": {"human": entry, "robot": entry}}


def _no_shared_entry(header):
    header["state_stats"]["entries"] = {
        "human": header["state_stats"]["entries"]["shared"]}


def _nonfinite_mean(header):
    header["action_stats"]["entries"]["shared"]["mean"][20] = float("nan")


def _empty_stats(header):
    header["state_stats"] = {}


def _null_stats(header):
    header["action_stats"] = None


def _digest_mismatch(header):
    """Valid statistics that are not those the stored digest was taken of."""
    header["state_stats"]["entries"]["shared"]["mean"][18] += 1.0


def _short_mean(header):
    header["state_stats"]["entries"]["shared"]["mean"].pop()


BAD_STATS_HEADERS = {"bad_std": _bad_std, "per_embodiment": _per_embodiment,
                     "no_shared_entry": _no_shared_entry, "nonfinite_mean": _nonfinite_mean,
                     "empty_stats": _empty_stats, "null_stats": _null_stats,
                     "digest_mismatch": _digest_mismatch, "short_mean": _short_mean}


def _config_edit(key, value):
    def edit(header):
        header["config"][key] = value
    return edit


# Headers of a model shape other than the one this code runs.
OTHER_SHAPE_HEADERS = {"head_excluded": _config_edit("action_includes_head", False),
                       "proprio_dim_40": _config_edit("proprio_dim", 40),
                       "grad_clip_0": _config_edit("grad_clip", 0.0),
                       "lambda_eef_1": _config_edit("lambda_eef", 1.0),
                       "smoothing_delta_0.05": _config_edit("smoothing_delta", 0.05)}
# Headers whose sizes, seed, learning rate or step count have the wrong type or range.
MISTYPED_HEADERS = {"feature_dim_4.0": _config_edit("feature_dim", 4.0),
                    "hidden_layers_3.5": _config_edit("hidden_layers", [3.5]),
                    "batch_size_2.0": _config_edit("batch_size", 2.0),
                    "chunk_length_true": _config_edit("chunk_length", True),
                    "seed_-1": _config_edit("seed", -1),
                    "seed_1.5": _config_edit("seed", 1.5),
                    "learning_rate_nan": _config_edit("learning_rate", float("nan")),
                    "learning_rate_x": _config_edit("learning_rate", "x"),
                    "learning_rate_-1": _config_edit("learning_rate", -1.0),
                    "steps_completed_-5": lambda header: header.update(steps_completed=-5),
                    "steps_completed_2.5": lambda header: header.update(steps_completed=2.5)}


def trained_checkpoint(tmp_path):
    pairs = make_pairs("human", 10)
    model = init_model(PolicyConfig(feature_dim=4, chunk_length=3, hidden_layers=(4,)),
                       *make_stats(pairs))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    return path, path.read_bytes()


@pytest.mark.parametrize("case", sorted(BAD_STATS_HEADERS))
def test_load_checkpoint_rejects_invalid_stats(tmp_path, case):
    """Only the shared statistics form loads, with finite values and every
    std positive and at least epsilon."""
    path, blob = trained_checkpoint(tmp_path)
    assert load_checkpoint(path).state_stats is not None
    path.write_bytes(rewrite_header(blob, BAD_STATS_HEADERS[case]))
    with pytest.raises(CorruptCheckpoint, match="bad checkpoint header"):
        load_checkpoint(path)


@pytest.mark.parametrize("case", sorted(OTHER_SHAPE_HEADERS | MISTYPED_HEADERS))
def test_load_checkpoint_rejects_other_model_shapes(tmp_path, case):
    path, blob = trained_checkpoint(tmp_path)
    path.write_bytes(rewrite_header(blob, (OTHER_SHAPE_HEADERS | MISTYPED_HEADERS)[case]))
    with pytest.raises(CorruptCheckpoint, match="bad checkpoint header"):
        load_checkpoint(path)


def test_resumed_training_equals_uninterrupted(tmp_path):
    pairs = make_pairs("human", 30)
    state_stats, action_stats = make_stats(pairs)
    cfg = PolicyConfig(feature_dim=4, chunk_length=3, hidden_layers=(8,),
                       learning_rate=0.02, batch_size=4, seed=2)

    full = init_model(cfg, state_stats, action_stats)
    full, _ = train(full, build_sampler(pairs, seed=2).stream(), steps=100)

    half = init_model(cfg, state_stats, action_stats)
    half, _ = train(half, build_sampler(pairs, seed=2).stream(), steps=60)
    save_checkpoint(half, tmp_path / "half.ckpt")
    resumed = load_checkpoint(tmp_path / "half.ckpt")
    skip = resumed.steps_completed * cfg.batch_size
    resumed, _ = train(
        resumed, itertools.islice(build_sampler(pairs, seed=2).stream(), skip, None), steps=40
    )
    for W0, W1 in zip(full.weights, resumed.weights):
        np.testing.assert_array_equal(W0, W1)
    for b0, b1 in zip(full.biases, resumed.biases):
        np.testing.assert_array_equal(b0, b1)


def two_tag_pairs(K=3, F=4, joint_space_robot=False):
    """Human and robot pair sets from random episodes; with
    `joint_space_robot` the robot set observes a zero-padded joint view."""
    episodes = []
    for i, tag in enumerate(["human", "robot", "human", "robot", "human", "robot"]):
        rng = np.random.default_rng(20 + i)
        n = 8 + i
        states = np.tile(IDENTITY_STATE, (n, 1))
        states[:, 18:] += rng.normal(scale=0.1, size=(n, 36))
        episodes.append(DemonstrationEpisode(
            id=f"{tag}{i}", embodiment_tag=tag, instruction="",
            times=np.arange(n) / 30.0, states=states, features=rng.normal(size=(n, F)),
        ))
    pairs = episodes_to_pairs_by_tag(episodes, K)
    if joint_space_robot:
        robot = pairs["robot"]
        joints = np.zeros_like(robot.frames)
        joints[:, :19] = np.random.default_rng(7).normal(size=(len(joints), 19))
        pairs["robot"] = dataclasses.replace(robot, obs=joints)
    return episodes, pairs


PINNED_TRAIN_DIGESTS = {
    "shared": "686d3108708c853e6a0ebfd67d903a96d3055ea39f932d9c87e0ac8119d20f31",
    "joint_space_obs": "46eac958f4249b78c59aa8bd7f00a217f9965030a5d77d052ef82c923d86d8aa",
}


@pytest.mark.parametrize("case", sorted(PINNED_TRAIN_DIGESTS))
def test_train_outputs_pinned(case, monkeypatch):
    """Weights, biases and loss curve after 60 mixed two-tag steps, recorded
    before batches were gathered from pair sets normalized once."""
    episodes, pairs = two_tag_pairs(joint_space_robot=case == "joint_space_obs")
    if case == "joint_space_obs":
        states, _, actions = zip(*(pairs[t].take(np.arange(len(pairs[t]))) for t in pairs))
        state_stats = compute_stats(dict(zip(pairs, states)))
        action_stats = compute_stats(dict(zip(pairs, actions)))
    else:
        state_stats = stats_from_episodes(episodes, kind="state")
        action_stats = stats_from_episodes(episodes, kind="action")
    cfg = PolicyConfig(feature_dim=4, chunk_length=3, hidden_layers=(12, 8), learning_rate=0.05,
                       batch_size=8, seed=3)
    model = init_model(cfg, state_stats, action_stats)
    sampler = MixedSampler(pairs, {"human": 2.0, "robot": 1.0}, seed=5)
    monkeypatch.setattr(policy, "REPORT_EVERY", 7)
    model, report = train(model, sampler.stream(), steps=60)
    h = hashlib.sha256()
    for arr in (*model.weights, *model.biases):
        h.update(arr.tobytes())
    h.update(np.asarray(report.steps, dtype=np.int64).tobytes())
    for values in (report.total, report.base, report.eef, report.grad_norm):
        h.update(np.asarray(values, dtype=float).tobytes())
    assert h.hexdigest() == PINNED_TRAIN_DIGESTS[case]


def spy(monkeypatch, name, calls):
    """Replace `policy.<name>` by a wrapper appending (args, result) to `calls`."""
    original = getattr(policy, name)

    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(policy, name, wrapper)


def per_set_gather(model, refs):
    """Each reference normalized and gathered on its own from its set."""
    s_stats, a_stats = model.state_stats, model.action_stats
    K = model.config.chunk_length
    x, target = [], []
    for pair_set, row in refs:
        at = pair_set.starts[row]
        x.append(np.concatenate([(pair_set.obs[at] - s_stats.mean) / s_stats.std,
                                 pair_set.features[at]]))
        target.append((pair_set.frames[at + 1 : at + 1 + K] - a_stats.mean) / a_stats.std)
    return np.array(x), np.array(target)


@pytest.mark.parametrize("joint_space", [False, True])
def test_batch_table_grows_mid_run_and_matches_per_set_gather(monkeypatch, joint_space):
    """The robot set first appears in step 3, so the batch table stacks it
    mid-run; every batch still equals a per-set gather, for a shared and a
    joint-space `obs`."""
    episodes, pairs = two_tag_pairs(joint_space_robot=joint_space)
    cfg = PolicyConfig(feature_dim=4, chunk_length=3, hidden_layers=(6,), batch_size=5, seed=1)
    model = init_model(cfg, stats_from_episodes(episodes, kind="state"),
                       stats_from_episodes(episodes, kind="action"))
    human, robot = pairs["human"], pairs["robot"]
    refs = [(human, i) for i in range(10)]
    refs += [(robot if i % 2 else human, (7 * i) % len(human)) for i in range(20)]
    assert refs[11][0] is robot and all(pair_set is human for pair_set, _ in refs[:11])
    calls = []
    spy(monkeypatch, "assemble_batch", calls)
    train(model, iter(refs), steps=6)
    for step, ((_, batch, _), (x, target)) in enumerate(calls):
        assert batch == refs[5 * step : 5 * step + 5]
        want_x, want_target = per_set_gather(model, batch)
        assert x.tobytes() == want_x.tobytes() and target.tobytes() == want_target.tobytes()
    [table] = {id(args[2]): args[2] for args, _ in calls}.values()
    assert list(table.rows) == [human, robot] and len(table.inputs) == len(human) + len(robot)
    with pytest.raises(IndexError):  # a row past its set's end does not read the next set
        assemble_batch(model, [(human, len(human))], table)


def test_train_calls_layers_through_module_attributes(monkeypatch):
    """`train` looks up `policy.assemble_batch` and `policy.backward` on the
    module once per step, so tracers that replace them see every step."""
    pairs = make_pairs("human", 12)
    model = init_model(small_model(K=3, F=4).config, *make_stats(pairs))
    assembled, backwards = [], []
    spy(monkeypatch, "assemble_batch", assembled)
    spy(monkeypatch, "backward", backwards)
    train(model, build_sampler(pairs).stream(), steps=7)
    assert len(assembled) == len(backwards) == 7


def test_train_rejects_short_stream():
    pairs = make_pairs("human", 12)
    model = init_model(small_model(K=3, F=4).config, *make_stats(pairs))
    refs = list(itertools.islice(build_sampler(pairs).stream(), 2 * 4 + 3))
    with pytest.raises(ValueError, match=r"ran out in step 3 \(3 items\)"):
        train(model, iter(refs), steps=3)
    assert model.steps_completed == 2


# --- predict -----------------------------------------------------------------

def test_predict_equals_forward_with_identity_stats():
    rng = np.random.default_rng(11)
    model = small_model(K=2, F=3, hidden=(6,))
    model.weights[-1][:] = rng.normal(scale=0.05, size=model.weights[-1].shape)
    # unit stats: predict = forward + re-orthogonalization
    state = IDENTITY_STATE
    feature = rng.normal(size=3)
    raw = forward(model, state, feature)
    out = predict(model, state, feature)
    np.testing.assert_allclose(
        out[:, 18:], raw[:, 18:], atol=1e-12
    )  # non-rotation dims untouched


def test_predict_rotation_blocks_orthonormal():
    rng = np.random.default_rng(12)
    pairs = make_pairs("human", 40)
    state_stats, action_stats = make_stats(pairs)
    cfg = PolicyConfig(feature_dim=4, chunk_length=3, hidden_layers=(16,),
                       learning_rate=0.05, batch_size=8, seed=3)
    model = init_model(cfg, state_stats, action_stats)
    model, _ = train(model, build_sampler(pairs).stream(), steps=300)
    from crossemb.geometry import decode_rot6d

    states, feats, _ = all_pairs(pairs)
    for state, feature in zip(states[:10], feats[:10]):
        chunk = predict(model, state, feature)
        for k in range(chunk.shape[0]):
            for sl in (unified_space.HEAD_ROT, unified_space.LEFT_WRIST_ROT,
                       unified_space.RIGHT_WRIST_ROT):
                R = decode_rot6d(chunk[k, sl])  # must not raise
                assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-9


def test_normalize_denormalize_consistency():
    pairs = make_pairs("human", 20)
    state_stats, action_stats = make_stats(pairs)
    x = all_pairs(pairs)[0][0]
    from crossemb.unified_space import denormalize, normalize

    np.testing.assert_allclose(
        denormalize(normalize(x, state_stats), state_stats), x,
        atol=1e-10,
    )
