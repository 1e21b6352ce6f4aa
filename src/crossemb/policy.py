"""Chunked-action behavior cloning with hand-written gradients.

Every model has one shape: an MLP over the concatenated (normalized
54-vector state, zero-padded if joint-space; feature) input producing a
K x 54 action chunk, head included, in normalized space. It carries its
state and action statistics. The training loss is an L1 term over the
whole chunk plus an L1 term over the wrist translations (`EEF`),
weighted by `LAMBDA_EEF`:

    total = mean|pred - target| + LAMBDA_EEF * mean|pred_EEF - target_EEF|
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import geometry, unified_space
from .dataset import JSON_DECODER, PairSet, pack_blocks, read_file, unpack_blocks
from .errors import (
    CorruptCheckpoint,
    DimensionMismatch,
    InvalidComponent,
    NonFiniteLoss,
    VersionUnsupported,
)
from .unified_space import EEF, STATE_DIM, NormalizationStats

# Bound on the global gradient norm of one training step.
GRAD_CLIP = 1.0
# Weight of the wrist-translation L1 term in the training loss.
LAMBDA_EEF = 2.0
# Training steps between two entries of a `TrainReport`.
REPORT_EVERY = 50

CHECKPOINT_MAGIC = b"CEPOLIC1"
CHECKPOINT_VERSION = 1
# The header `config` entries fixed by the one model shape and training
# loss (`smoothing_delta` 0 is the exact L1 loss); other values describe
# a model this code cannot run.
_FIXED_CONFIG = {"proprio_dim": STATE_DIM, "grad_clip": GRAD_CLIP, "action_includes_head": True,
                 "lambda_eef": LAMBDA_EEF, "smoothing_delta": 0.0}


@dataclass(frozen=True)
class PolicyConfig:
    """The model sizes and training settings that differ between models.
    ValueError unless the sizes are integers >= 1, `seed` an integer >= 0
    and `learning_rate` a finite number >= 0."""

    feature_dim: int
    chunk_length: int
    hidden_layers: tuple[int, ...] = (256, 256)
    learning_rate: float = 1e-3
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        hidden = tuple(self.hidden_layers)
        for name, value, least in (("feature_dim", self.feature_dim, 1),
                                   ("chunk_length", self.chunk_length, 1),
                                   ("batch_size", self.batch_size, 1),
                                   *(("hidden_layers", h, 1) for h in hidden),
                                   ("seed", self.seed, 0)):
            _check_whole(name, value, least)
        lr = self.learning_rate
        if not (isinstance(lr, numbers.Real) and not isinstance(lr, bool) and math.isfinite(lr)
                and lr >= 0):
            raise ValueError(f"learning_rate must be a finite number >= 0, got {lr!r}")
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in hidden))


def _check_whole(name: str, value, least: int) -> None:
    """ValueError unless `value` is an integer (not a bool) >= `least`."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass
class PolicyModel:
    config: PolicyConfig
    weights: list[np.ndarray]  # per layer, (fan_in, fan_out)
    biases: list[np.ndarray]   # per layer, (fan_out,)
    state_stats: NormalizationStats
    action_stats: NormalizationStats
    steps_completed: int = 0


def _layer_dims(config: PolicyConfig) -> list[int]:
    return [STATE_DIM + config.feature_dim, *config.hidden_layers,
            config.chunk_length * STATE_DIM]


def init_model(
    config: PolicyConfig,
    state_stats: NormalizationStats,
    action_stats: NormalizationStats,
) -> PolicyModel:
    """Seeded init; the output layer starts at zero so the initial policy
    predicts the (normalized) dataset mean."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    dims = _layer_dims(config)
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        if i == len(dims) - 2:
            W = np.zeros((fan_in, fan_out))
        else:
            W = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        weights.append(W)
        biases.append(np.zeros(fan_out))
    return PolicyModel(
        config=config,
        weights=weights,
        biases=biases,
        state_stats=state_stats,
        action_stats=action_stats,
    )


def _forward_cached(model: PolicyModel, x: np.ndarray):
    """x: (B, in_dim) -> (activations per layer, output (B, out_dim))."""
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ W
        h += b
        if i < last:
            np.tanh(h, out=h)
        acts.append(h)
    return acts, h


def forward(model: PolicyModel, state: np.ndarray, feature: np.ndarray) -> np.ndarray:
    """Normalized-space chunk prediction, shape (K, 54)."""
    state = np.asarray(state, dtype=float)
    feature = np.asarray(feature, dtype=float)
    if state.shape != (STATE_DIM,):
        raise DimensionMismatch(f"state must be ({STATE_DIM},)")
    if feature.shape != (model.config.feature_dim,):
        raise DimensionMismatch(f"feature must be ({model.config.feature_dim},)")
    x = np.concatenate([state, feature])[None, :]
    _, out = _forward_cached(model, x)
    return out[0].reshape(model.config.chunk_length, STATE_DIM)


def _loss_terms(a: np.ndarray):
    """(total, base, eef) from the residual magnitudes `a` (K, 54) or (B, K, 54).
    Each mean is a sum over a (B, entries) copy in Fortran order, the layout
    of a boolean-mask gather that fixes numpy's summation order, divided by
    its size: the bits of `.mean()` on that copy."""
    rows = a.shape[:-2] + (-1,)
    copies = np.asfortranarray(a.reshape(rows)), np.asfortranarray(a[..., EEF].reshape(rows))
    base, eef = (float(np.add.reduce(c, axis=None) / c.size) for c in copies)
    return base + LAMBDA_EEF * eef, base, eef


def loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, float, float]:
    """Returns (total, base, eef). Arrays may be (K, 54) or (B, K, 54)."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.shape[-1] != STATE_DIM:
        raise DimensionMismatch(f"pred {pred.shape} vs target {target.shape}")
    return _loss_terms(np.abs(pred - target))


@dataclass
class TrainReport:
    steps: list[int] = field(default_factory=list)
    total: list[float] = field(default_factory=list)
    base: list[float] = field(default_factory=list)
    eef: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)


@dataclass(eq=False)
class BatchTable:
    """Pair sets normalized once under one model's statistics and stacked,
    so that a batch is one index array. `rows[pair_set][row]` is the
    table row of a set's pair (IndexError past the set's end): its row of
    `inputs` (normalized `[obs | features]`) and of `starts` (its state's
    row in `frames`, the stacked normalized frames its chunk follows)."""

    rows: dict[PairSet, range] = field(default_factory=dict)
    inputs: np.ndarray | None = None  # (N, 54 + F)
    frames: np.ndarray | None = None  # (M, 54)
    starts: np.ndarray | None = None  # (N,)

    def add(self, pair_set: PairSet, model: PolicyModel) -> None:
        at = pair_set.starts
        inputs = np.concatenate([unified_space.normalize(pair_set.obs[at], model.state_stats),
                                 pair_set.features[at]], axis=1)
        frames = unified_space.normalize(pair_set.frames, model.action_stats)
        if self.rows:
            at = np.concatenate([self.starts, at + len(self.frames)])
            inputs = np.concatenate([self.inputs, inputs])
            frames = np.concatenate([self.frames, frames])
        self.rows[pair_set] = range(len(inputs) - len(pair_set), len(inputs))
        self.inputs, self.frames, self.starts = inputs, frames, at


def assemble_batch(model: PolicyModel, refs: Sequence[tuple[PairSet, int]], table: BatchTable):
    """Gather `(pair_set, row)` references into normalized (x, target) arrays,
    rows in the order of `refs`, by one `take` from `table`'s inputs and one
    from its frames. The table first stacks each set it lacks, normalized
    under the model's stats; a table kept across batches does so once."""
    for pair_set in dict.fromkeys(s for s, _ in refs if s not in table.rows):
        table.add(pair_set, model)
    idx = [table.rows[pair_set][row] for pair_set, row in refs]
    chunk_rows = table.starts[idx][:, None] + np.arange(1, model.config.chunk_length + 1)
    return table.inputs.take(idx, axis=0), table.frames.take(chunk_rows, axis=0)


def backward(model: PolicyModel, x: np.ndarray, target: np.ndarray):
    """Loss and gradients for one batch; matches central finite differences.

    x: (B, in_dim), target: (B, K, 54) in normalized space.
    Returns (total, base, eef, grad_weights, grad_biases).
    The loss gradient is `sign(residual) * w`, `w` the row of 1/n with
    LAMBDA_EEF/n_eef added on `EEF`: the sign is -1, 0 or +1 and rounding
    is symmetric, so each entry has the bits of the per-term sum
    `g/n + LAMBDA_EEF*g/n_eef`. `np.sign` of a -0.0 residual is +0.0
    and `w` is positive, so no entry is -0.0.
    """
    cfg = model.config
    B = x.shape[0]
    acts, out = _forward_cached(model, x)
    residual = out.reshape(B, cfg.chunk_length, STATE_DIM) - target
    total, base, eef = _loss_terms(np.abs(residual))
    if not math.isfinite(total):
        raise NonFiniteLoss(f"loss is {total}")
    w = np.full(STATE_DIM, 1.0 / residual.size)
    w[EEF] += LAMBDA_EEF / residual[..., EEF].size
    dpred = np.sign(residual)
    dpred *= w
    delta = dpred.reshape(B, -1)

    grad_w, grad_b = [], []
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w.append(acts[i].T @ delta)
        grad_b.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i].T) * (1.0 - acts[i] ** 2)
    return total, base, eef, grad_w[::-1], grad_b[::-1]


def _global_norm(grads_w, grads_b) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in (*grads_w, *grads_b)))


def train(
    model: PolicyModel,
    pair_stream: Iterator[tuple[PairSet, int]],
    steps: int,
) -> tuple[PolicyModel, TrainReport]:
    """Plain SGD with global gradient-norm clipping; deterministic. Each
    step takes the next `batch_size` `(pair_set, row)` items of
    `pair_stream`, gathers them through `assemble_batch` from one
    `BatchTable` kept for the run, and updates the parameters in place.
    The report holds every `REPORT_EVERY`-th step and the last one.
    ValueError if the stream ends before a full batch."""
    cfg = model.config
    report = TrainReport()
    table = BatchTable()
    for step in range(1, steps + 1):
        refs = list(islice(pair_stream, cfg.batch_size))
        if len(refs) < cfg.batch_size:
            raise ValueError(f"pair stream ran out in step {step} ({len(refs)} items)")
        x, target = assemble_batch(model, refs, table)
        total, base, eef, grad_w, grad_b = backward(model, x, target)
        norm = _global_norm(grad_w, grad_b)
        lr = cfg.learning_rate * (GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0)
        for param, grad in zip((*model.weights, *model.biases), (*grad_w, *grad_b)):
            grad *= lr
            param -= grad
        model.steps_completed += 1
        if step % REPORT_EVERY == 0 or step == steps:
            report.steps.append(model.steps_completed)
            report.total.append(total)
            report.base.append(base)
            report.eef.append(eef)
            report.grad_norm.append(norm)
    return model, report


def predict(model: PolicyModel, state: np.ndarray, feature: np.ndarray) -> np.ndarray:
    """Physical-units action chunk (K, 54), rotations re-orthogonalized."""
    chunk = forward(model, unified_space.normalize(state, model.state_stats), feature)
    chunk = unified_space.denormalize(chunk, model.action_stats)
    codes = geometry.encode_rot6d(geometry.decode_rot6d(unified_space.rotation_codes(chunk)))
    chunk[:, unified_space.ROTATIONS] = codes.reshape(-1, 18)
    return chunk


def penultimate_activations(model: PolicyModel, x: np.ndarray) -> np.ndarray:
    """Last hidden-layer activations for a (B, in_dim) batch."""
    acts, _ = _forward_cached(model, x)
    return acts[-2]


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


def _config_to_dict(cfg: PolicyConfig) -> dict:
    doc = asdict(cfg) | _FIXED_CONFIG
    doc["hidden_layers"] = list(cfg.hidden_layers)
    return doc


def _config_from_dict(doc: dict) -> PolicyConfig:
    doc = dict(doc)
    for key, value in _FIXED_CONFIG.items():
        if doc.pop(key) != value:
            raise ValueError(f"config {key} must be {value!r}")
    doc["hidden_layers"] = tuple(doc["hidden_layers"])
    return PolicyConfig(**doc)


def save_checkpoint(model: PolicyModel, path: str | Path) -> None:
    """JSON header plus a raw float64 parameter block; reloads bit-exactly."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": _config_to_dict(model.config),
        "steps_completed": model.steps_completed,
        "eef_indices": list(range(STATE_DIM)[EEF]),
        "param_shapes": [list(W.shape) for W in model.weights],
        "state_stats": model.state_stats.to_json_dict(),
        "action_stats": model.action_stats.to_json_dict(),
        "stats_digests": {"state": model.state_stats.digest(),
                          "action": model.action_stats.digest()},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    params = [p for layer in zip(model.weights, model.biases) for p in layer]
    Path(path).write_bytes(pack_blocks(
        CHECKPOINT_MAGIC, struct.pack("<Q", len(header_bytes)) + header_bytes, params
    ))


def load_checkpoint(path: str | Path) -> PolicyModel:
    """Inverse of `save_checkpoint`. CorruptCheckpoint for a header that
    does not decode, holds another model shape (`_FIXED_CONFIG`), a config
    `PolicyConfig` refuses or a step count that is not an integer >= 0, or
    whose statistics are not the shared form with finite values and every std
    positive and at least epsilon (`NormalizationStats.from_json_dict`) or
    differ from their stored digest."""
    blob = read_file(path)
    if blob[:8] != CHECKPOINT_MAGIC:
        raise VersionUnsupported(f"bad checkpoint magic {blob[:8]!r}")
    try:
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = JSON_DECODER.decode(blob[16 : 16 + header_len].decode())
        version = header.get("format_version")
    except (struct.error, ValueError, AttributeError) as exc:
        raise CorruptCheckpoint(f"undecodable checkpoint header: {exc!r}") from exc
    if version != CHECKPOINT_VERSION:
        raise VersionUnsupported(f"checkpoint version {version!r}")
    try:
        config = _config_from_dict(header["config"])
        steps_completed = header["steps_completed"]
        _check_whole("steps_completed", steps_completed, 0)
        stats = {}
        for kind in ("state", "action"):
            stats[kind] = NormalizationStats.from_json_dict(header[f"{kind}_stats"])
            if stats[kind].digest() != header["stats_digests"][kind]:
                raise ValueError(f"{kind} statistics differ from their stored digest")
    except (ValueError, TypeError, KeyError, AttributeError, InvalidComponent) as exc:
        raise CorruptCheckpoint(f"bad checkpoint header: {exc!r}") from exc
    dims = _layer_dims(config)
    shapes = [s for layer in zip(dims[:-1], dims[1:]) for s in (layer, layer[1:])]
    params = unpack_blocks(blob, 16 + header_len, shapes, CorruptCheckpoint)
    return PolicyModel(
        config=config,
        weights=params[0::2],
        biases=params[1::2],
        state_stats=stats["state"],
        action_stats=stats["action"],
        steps_completed=steps_completed,
    )
