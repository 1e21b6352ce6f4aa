"""The 54-dimensional state-action space shared by humans and humanoids.

Layout of the flat vector (indices, all float64):
    0:6    head rotation, 6D code
    6:12   left wrist rotation, 6D code
    12:18  right wrist rotation, 6D code
    18:21  left wrist position, meters
    21:24  right wrist position, meters
    24:54  fingertip positions, meters: left thumb..pinky, right
           thumb..pinky, 3 values each

Positions are expressed in the episode's canonical base frame (see
`dataset.canonical_frame`). Actions use the identical layout.

`state_rows` is the one writer of the layout: every module builds states
through it. One table of components drives it, `UnifiedState`'s shapes,
`decode_state`'s views and the names in `check_state_rows`' errors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import geometry
from .errors import EmptyDataset, InvalidComponent

STATE_DIM = 54
HEAD_ROT = slice(0, 6)
LEFT_WRIST_ROT = slice(6, 12)
RIGHT_WRIST_ROT = slice(12, 18)
LEFT_WRIST_POS = slice(18, 21)
RIGHT_WRIST_POS = slice(21, 24)
FINGERTIPS = slice(24, 54)
ROTATIONS = slice(0, 18)  # the three rotation codes, head first
EEF = slice(LEFT_WRIST_POS.start, RIGHT_WRIST_POS.stop)  # both wrist positions
# (name, columns, shape of one state's value) of each component, in layout order.
_COMPONENTS = (
    ("head_rot", HEAD_ROT, (6,)),
    ("left_wrist_rot", LEFT_WRIST_ROT, (6,)),
    ("right_wrist_rot", RIGHT_WRIST_ROT, (6,)),
    ("left_wrist_pos", LEFT_WRIST_POS, (3,)),
    ("right_wrist_pos", RIGHT_WRIST_POS, (3,)),
    ("fingertips", FINGERTIPS, (10, 3)),  # left thumb..pinky, right thumb..pinky
)

FINGERS_PER_HAND = 5
# Anatomical sanity bound on wrist-to-fingertip distance, meters.
DEFAULT_MAX_HAND_REACH = 0.35

SHARED_KEY = "shared"


def rotation_codes(x: np.ndarray) -> np.ndarray:
    """The rotation codes of states (..., 54) as (..., 3, 6): head, left
    wrist, right wrist. A view of `x` where its strides allow one."""
    return x[..., ROTATIONS].reshape(x.shape[:-1] + (3, 6))


@dataclass(frozen=True)
class UnifiedState:
    """Structured view of one 54-dim state (or action) vector."""

    head_rot: np.ndarray        # (6,)
    left_wrist_rot: np.ndarray  # (6,)
    right_wrist_rot: np.ndarray # (6,)
    left_wrist_pos: np.ndarray  # (3,)
    right_wrist_pos: np.ndarray # (3,)
    fingertips: np.ndarray      # (10, 3) left thumb..pinky, right thumb..pinky

    def __post_init__(self):
        for name, _, shape in _COMPONENTS:
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise InvalidComponent(f"{name} must have shape {shape}, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def state_rows(head_rot, left_wrist_rot, right_wrist_rot, left_wrist_pos, right_wrist_pos,
               fingertips) -> np.ndarray:
    """B states (B, 54) from their components, each with B leading rows:
    (B, 6) rotation codes, (B, 3) positions and (B, 10, 3) fingertips.
    InvalidComponent for a component of another shape, or rows that fail
    `check_state_rows`."""
    parts = (head_rot, left_wrist_rot, right_wrist_rot, left_wrist_pos, right_wrist_pos,
             fingertips)
    B = len(head_rot)
    out = np.empty((B, STATE_DIM))
    for (name, columns, shape), part in zip(_COMPONENTS, parts):
        if np.shape(part) != (B, *shape):
            raise InvalidComponent(f"{name} must have shape {(B, *shape)}, got {np.shape(part)}")
        out[:, columns] = np.reshape(part, (B, columns.stop - columns.start))
    check_state_rows(out)
    return out


def encode_state(state: UnifiedState) -> np.ndarray:
    """Flatten to the canonical 54-vector; inverse of `decode_state`."""
    return state_rows(*(getattr(state, name)[None] for name, _, _ in _COMPONENTS))[0]


def check_state_rows(rows: np.ndarray, max_reach: float | None = None) -> None:
    """Raise InvalidComponent unless every row of a (B, 54) batch has three
    decodable rotation codes and finite positions (the checks of
    `encode_state`) and, if `max_reach` is given, every fingertip within
    `max_reach` meters of its wrist. The error names the first failing row
    and its first failing component, in layout order."""
    _, defect = geometry.decode_rot6d_rows(rotation_codes(rows))
    positions = [rows[:, columns] for _, columns, _ in _COMPONENTS[3:]]
    bad = [defect > 0, *(~np.isfinite(p).all(axis=1, keepdims=True) for p in positions)]
    if max_reach is not None:
        tips = rows[:, FINGERTIPS].reshape(-1, 2, FINGERS_PER_HAND, 3)
        wrists = np.stack(positions[:2], axis=1)[:, :, None, :]
        with np.errstate(over="ignore"):  # a distance beyond the float range is inf, flagged
            reach = geometry.norms(tips - wrists).reshape(-1, 2 * FINGERS_PER_HAND)
        bad.append(reach > max_reach)
    bad = np.concatenate(bad, axis=1)
    if not bad.any():
        return
    row, col = np.argwhere(bad)[0]
    if col < 3:
        reason = f"{_COMPONENTS[col][0]}: {geometry.ROT6D_DEFECTS[defect[row, col]]}"
    elif col < 6:
        reason = f"{_COMPONENTS[col][0]} contains non-finite values"
    else:
        side, finger = divmod(col - 6, FINGERS_PER_HAND)
        reason = (f"{('left', 'right')[side]} fingertip {finger} is "
                  f"{reach[row, col - 6]:.3f} m from wrist")
    raise InvalidComponent(f"row {row}: {reason}")


def decode_state(vec: np.ndarray) -> UnifiedState:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (STATE_DIM,):
        raise InvalidComponent(f"state vector must have shape (54,), got {vec.shape}")
    return UnifiedState(**{name: vec[columns].reshape(shape)
                           for name, columns, shape in _COMPONENTS})


@dataclass(frozen=True)
class NormalizationStats:
    """Per-dimension mean and std over the frames of every embodiment tag
    together: one shared entry, so normalizing needs no tag. `std` is
    clamped below by `epsilon`. The JSON form keeps the layout of the
    former shared mode, `{"mode": "shared", "epsilon": ..., "entries":
    {"shared": {"mean": ..., "std": ...}}}`, so stored checkpoints and
    their digests stay valid."""

    mean: np.ndarray  # (54,)
    std: np.ndarray   # (54,)
    epsilon: float

    def __post_init__(self):
        for name in ("mean", "std"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (STATE_DIM,):
                raise InvalidComponent(f"stats {name} must be a 54-vector, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def to_json_dict(self) -> dict:
        return {
            "mode": SHARED_KEY,
            "epsilon": self.epsilon,
            "entries": {SHARED_KEY: {"mean": self.mean.tolist(), "std": self.std.tolist()}},
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "NormalizationStats":
        """Inverse of `to_json_dict`. ValueError (InvalidComponent for a
        wrong shape) unless `doc` has that form with finite values and every
        std positive and at least `epsilon`."""
        if doc["mode"] != SHARED_KEY or set(doc["entries"]) != {SHARED_KEY}:
            raise ValueError("statistics must hold exactly one shared entry")
        entry = doc["entries"][SHARED_KEY]
        stats = NormalizationStats(entry["mean"], entry["std"], float(doc["epsilon"]))
        if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()):
            raise ValueError("statistics hold non-finite values")
        if not ((stats.std > 0) & (stats.std >= stats.epsilon)).all():
            raise ValueError(f"statistics std is not positive or below epsilon {stats.epsilon!r}")
        return stats

    def digest(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def compute_stats(
    frames_by_tag: Mapping[str, np.ndarray], epsilon: float = 1e-6
) -> NormalizationStats:
    """Mean and population (1/N) std over the flattened 54-vectors of every
    tag, stacked in sorted tag order."""
    arrays = [np.asarray(frames_by_tag[tag], dtype=float).reshape(-1, STATE_DIM)
              for tag in sorted(frames_by_tag) if len(frames_by_tag[tag]) > 0]
    if not arrays:
        raise EmptyDataset("no frames to compute statistics over")
    stacked = np.concatenate(arrays, axis=0)
    mean = stacked.mean(axis=0)
    std = np.sqrt(np.mean((stacked - mean) ** 2, axis=0))
    return NormalizationStats(mean, np.maximum(std, epsilon), epsilon)


def normalize(x: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """(x - mean) / std elementwise; works on (54,) or (..., 54)."""
    return (np.asarray(x, dtype=float) - stats.mean) / stats.std


def denormalize(y: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    return np.asarray(y, dtype=float) * stats.std + stats.mean
