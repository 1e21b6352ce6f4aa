"""Temporal alignment: slow-down resampling and stream synchronization.

Human demonstrations run roughly four times faster than teleoperated
robot motion, so they are stretched by a slow-down factor and resampled
uniformly at the robot control rate. Robot trajectories are never
retimed. `retime` resamples a whole trajectory at once: the source
interval and blend weight of every output frame come from one pass, and
the rotation blocks of all blended frames are decoded, converted to
quaternions, slerped and encoded as one batch each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry, unified_space
from .errors import DegenerateTrajectory, EmptyStream


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped unified-state sequence for one embodiment.

    `head_positions` carries the canonical-frame head translation per
    frame when known (human captures); the 54-dim state itself holds no
    head position.
    """

    times: np.ndarray   # (N,), seconds, strictly increasing
    states: np.ndarray  # (N, 54)
    embodiment_tag: str
    nominal_rate: float
    head_positions: np.ndarray | None = None  # (N, 3) or None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        hp = None if self.head_positions is None else np.asarray(self.head_positions, dtype=float)
        if times.ndim != 1 or times.shape[0] < 2:
            raise DegenerateTrajectory("trajectory needs at least 2 frames")
        if np.any(np.diff(times) <= 0):
            raise DegenerateTrajectory("timestamps must be strictly increasing")
        if states.shape != (times.shape[0], unified_space.STATE_DIM):
            raise DegenerateTrajectory(f"states must be (N, 54) matching times, got {states.shape}")
        if hp is not None and hp.shape != (times.shape[0], 3):
            raise DegenerateTrajectory(f"head_positions must be (N, 3), got {hp.shape}")
        if not all(np.isfinite(a).all() for a in (times, states, hp) if a is not None):
            raise DegenerateTrajectory("times, states and head positions must be finite")
        for name, a in (("times", times), ("states", states), ("head_positions", hp)):
            object.__setattr__(self, name, a)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def __len__(self) -> int:
        return int(self.times.shape[0])


def retime(traj: Trajectory, alpha: float, out_rate: float) -> Trajectory:
    """Stretch a trajectory by the slow-down factor `alpha` (finite, >= 1;
    1 leaves the timing as it is) and resample uniformly at `out_rate`
    (finite, > 0); ValueError for any other value of either.

    Output duration equals alpha * input duration to within one output
    frame period; the first and last output states equal the input
    endpoints exactly. Each output frame blends the two source frames
    around its source time: positions lerp, rotation blocks slerp, and a
    frame that lands on a source frame copies it.
    """
    a = float(alpha)
    if not np.isfinite(a) or a < 1.0:
        raise ValueError(f"alpha must be finite and >= 1, got {a}")
    if not np.isfinite(out_rate) or out_rate <= 0:
        raise ValueError(f"out_rate must be finite and positive, got {out_rate}")
    times = traj.times
    t0 = times[0]
    n_intervals = max(1, int(round(a * traj.duration * out_rate)))
    out_times = t0 + np.arange(n_intervals + 1) / out_rate
    src = np.minimum(t0 + (out_times - t0) / a, times[-1])
    src[0], src[-1] = times[0], times[-1]
    j = np.clip(np.searchsorted(times, src, side="right") - 1, 0, len(traj) - 2)
    u = np.clip((src - times[j]) / (times[j + 1] - times[j]), 0.0, 1.0)

    w = u[:, None]
    s0, s1 = traj.states[j], traj.states[j + 1]
    out_states = (1.0 - w) * s0 + w * s1
    blend = (u > 0.0) & (u < 1.0)
    q0, q1 = (
        geometry.quat_from_matrix(geometry.decode_rot6d(unified_space.rotation_codes(s[blend])))
        for s in (s0, s1)
    )
    codes = geometry.encode_rot6d(geometry.quat_to_matrix(geometry.slerp(q0, q1, u[blend, None])))
    out_states[blend, unified_space.ROTATIONS] = codes.reshape(-1, 18)
    out_states[u == 0.0] = s0[u == 0.0]
    out_states[u == 1.0] = s1[u == 1.0]
    out_head = None
    if traj.head_positions is not None:
        out_head = (1.0 - w) * traj.head_positions[j] + w * traj.head_positions[j + 1]
    return Trajectory(
        times=out_times,
        states=out_states,
        embodiment_tag=traj.embodiment_tag,
        nominal_rate=out_rate,
        head_positions=out_head,
    )


class SyncResult(NamedTuple):
    proprio: np.ndarray  # (K,) indices of the kept proprio frames
    visual: np.ndarray   # (K,) index of the visual frame paired with each
    dropped: int


def nearest_frames(times: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index into the sorted, nonempty `times` of the frame nearest to each
    query time; ties go to the earlier frame."""
    after = np.searchsorted(times, query, side="left")  # first frame at or after
    left, right = np.maximum(after - 1, 0), np.minimum(after, len(times) - 1)
    # The first of a run of frames with equal times.
    left = np.searchsorted(times, times[left], side="left")
    return np.where(np.abs(times[left] - query) <= np.abs(times[right] - query), left, right)


def sync_streams(proprio_times: np.ndarray, visual_times: np.ndarray,
                 max_skew: float) -> SyncResult:
    """Pair every proprio frame with the closest-timestamp visual frame
    (`nearest_frames`), by index into the two sorted time arrays.

    Pairs whose skew exceeds `max_skew` are dropped and counted.
    """
    if len(proprio_times) == 0 or len(visual_times) == 0:
        raise EmptyStream("both streams must be nonempty")
    nearest = nearest_frames(visual_times, proprio_times)
    dropped = np.abs(visual_times[nearest] - proprio_times) > max_skew
    return SyncResult(np.flatnonzero(~dropped), nearest[~dropped], int(dropped.sum()))


def body_motion_check(traj: Trajectory) -> float:
    """How far (m) the head strays from its initial position: the largest
    distance of any frame's head position from the first.

    Trajectories without head-position metadata (robot logs) are treated
    as stationary.
    """
    if traj.head_positions is None:
        return 0.0
    deltas = traj.head_positions - traj.head_positions[0]
    return float(np.max(np.linalg.norm(deltas, axis=1)))
