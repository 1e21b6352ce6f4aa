"""Synthetic desk-scale tasks for the rollout harness and experiments.

The reach task mirrors the grid-placement evaluation: goals live on a
3x3 grid of 10 cm cells; robot demonstrations cover only two cells while
human-style demonstrations cover all nine, with a wider start
distribution and 4x faster motion (slowed down at ingestion). The
task's fixed values (grid, robot cells, goal tolerance, rates, durations
and the slow-down `alpha`) are class constants of `ReachTask`; an
instance holds only its goal feature codec and its home arm joints.

Demo generation runs on rows: `teleop_simulate` tracks references with
`kinematics.retarget_rows` and `embed_rows`, reach trajectories give
their frames and `fingertip_rows` to `unified_space.state_rows`, and
`joint_space_states` gives the zero-padded joint view of the state-space
ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry, retiming, unified_space
from .dataset import DEFAULT_ALPHA, DemonstrationEpisode, new_episode
from .errors import DimensionMismatch
from .kinematics import (
    EmbodimentConfig,
    RobotCommand,
    embed_rows,
    fingertip_rows,
    forward_kinematics,
    retarget_rows,
)
from .retiming import Trajectory

# Natural elbow-bent home configurations (radians); artifact defaults.
HOME_ARM_Q_7 = np.array([-1.7, -0.2, 0.0, 2.1, 0.6, 0.0, 0.0])
HOME_ARM_Q_5 = np.array([-1.7, -0.2, 0.0, 2.1, 0.0])
HAND_REST = np.array([0.25, 0.2, 0.2, 0.2, 0.2, 0.5])

# Amplitude of the positional jitter of reach trajectories, meters.
JITTER = 0.002


class GoalGrid:
    """Row-major 3x3 grid of 10 cm cells on the table plane; `origin` is
    the lower corner of cell (0, 0)."""

    origin = np.array([0.10, -0.37, 0.15])
    origin.flags.writeable = False
    cell_size = 0.10
    rows = cols = 3
    n_cells = rows * cols

    def cell_corner(self, cell: int) -> np.ndarray:
        r, c = divmod(cell, self.cols)
        return self.origin + np.array([c * self.cell_size, r * self.cell_size, 0.0])

    def cell_center(self, cell: int) -> np.ndarray:
        return self.cell_corner(cell) + np.array([self.cell_size / 2, self.cell_size / 2, 0.0])

    def sample_goal(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        # Keep samples off the cell border so neighbouring cells stay distinct.
        u = 0.15 + 0.7 * rng.random(2)
        return self.cell_corner(cell) + np.array(
            [u[0] * self.cell_size, u[1] * self.cell_size, 0.0]
        )


class FeatureCodec:
    """Random-Fourier goal encoding (lengthscale 0.12 m, fixed seed) plus
    observation noise of standard deviation 0.02.

    Stands in for visual features: smooth in the goal position but not
    linearly extrapolatable, so training coverage matters.
    """

    def __init__(self, dim: int):
        rng = np.random.Generator(np.random.PCG64(1234))
        self.dim = dim
        self._W = rng.standard_normal((dim, 3)) / 0.12
        self._phase = rng.random(dim) * 2.0 * np.pi

    def observe(self, goal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        encoded = np.cos(self._W @ np.asarray(goal, dtype=float) + self._phase)
        return encoded + 0.02 * rng.standard_normal(self.dim)


def _min_jerk(tau: np.ndarray) -> np.ndarray:
    tau = np.clip(tau, 0.0, 1.0)
    return 10 * tau**3 - 15 * tau**4 + 6 * tau**5


def _smooth_noise(rng, n_frames: int, dim: int, amplitude: float, times: np.ndarray):
    """Sum of two random-phase sinusoids per channel; smooth and bounded."""
    out = np.zeros((n_frames, dim))
    for _ in range(2):
        freq = 0.3 + 1.2 * rng.random(dim)
        phase = rng.random(dim) * 2 * np.pi
        amp = amplitude * (0.5 + rng.random(dim))
        out += amp * np.sin(2 * np.pi * freq[None, :] * times[:, None] + phase[None, :])
    return out


@dataclass(frozen=True)
class ReachTask:
    """Right-arm reach to a goal point on the table grid: robot demos
    cover cells 4 and 5, human demos run `alpha` times faster than the
    robot's 2.4 s moves at 10 Hz. Only the goal features and the home arm
    joints (both arms) differ between tasks."""

    name = "reach"
    grid = GoalGrid()
    robot_cells = (4, 5)
    goal_tolerance = 0.02
    rate = 10.0                 # robot control rate, Hz
    move_duration = 2.4         # robot-speed move time, seconds
    hold_duration = 0.4
    human_capture_rate = 30.0
    alpha = DEFAULT_ALPHA

    codec: FeatureCodec
    home_arm_q: np.ndarray

    @property
    def ood_cells(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.grid.n_cells) if c not in self.robot_cells)

    def home_command(self, config: EmbodimentConfig) -> RobotCommand:
        return RobotCommand(
            left_arm_q=self.home_arm_q,
            right_arm_q=self.home_arm_q,
            neck_q=np.zeros(2),
            left_hand=HAND_REST.copy(),
            right_hand=HAND_REST.copy(),
        )

    def goal_reached(self, state_vec: np.ndarray, goal: np.ndarray) -> np.ndarray:
        """Whether the right wrist is within tolerance of the goal; states
        (..., 54) and goals (..., 3) broadcast row by row."""
        wrist = state_vec[..., unified_space.RIGHT_WRIST_POS]
        return geometry.norms(wrist - goal) <= self.goal_tolerance


def make_reach_task(config: EmbodimentConfig, feature_dim: int = 12) -> ReachTask:
    """The reach task on `config`, its goal features `feature_dim` wide."""
    home = HOME_ARM_Q_7 if config.right_arm.n_joints == 7 else HOME_ARM_Q_5
    return ReachTask(codec=FeatureCodec(feature_dim), home_arm_q=home.copy())


def ideal_reach_trajectory(
    task: ReachTask,
    config: EmbodimentConfig,
    goal: np.ndarray,
    rng: np.random.Generator,
    capture_rate: float,
    move_duration: float,
    hold_duration: float,
    embodiment_tag: str,
    start_spread: float = 0.0,
) -> Trajectory:
    """Minimum-jerk right-wrist reach with smooth pose jitter everywhere."""
    right_home = forward_kinematics(config.right_arm, task.home_arm_q)
    left_home = forward_kinematics(config.left_arm, task.home_arm_q)
    p0 = right_home.translation + start_spread * rng.uniform(-1.0, 1.0, size=3)
    total = move_duration + hold_duration
    n = int(round(total * capture_rate)) + 1
    times = np.arange(n) / capture_rate
    s = _min_jerk(times / move_duration)
    wrist_path = p0[None, :] + s[:, None] * (np.asarray(goal) - p0)[None, :]

    # Smooth drift plus white sensor noise; the white part doubles as
    # augmentation (it carries no phase information).
    pos_noise = _smooth_noise(rng, n, 3, JITTER, times) + JITTER * rng.standard_normal((n, 3))
    left_noise = _smooth_noise(rng, n, 3, JITTER, times) + JITTER * rng.standard_normal((n, 3))
    rot_noise = _smooth_noise(rng, n, 9, 0.01, times) + 0.005 * rng.standard_normal((n, 9))
    hand_noise = _smooth_noise(rng, n, 12, 0.01, times) + 0.005 * rng.standard_normal((n, 12))

    head_positions = np.zeros((n, 3))
    head_positions[:, 2] = config.canonical_frame_offset
    head_positions += _smooth_noise(rng, n, 3, JITTER, times)
    # Per frame a small rotation about each noise vector's direction, by
    # its norm: right wrist, left wrist, head.
    rot_noise = rot_noise.reshape(n, 3, 3)
    angles = geometry.norms(rot_noise)
    with np.errstate(all="ignore"):  # zero-norm rows take the x axis
        axes = np.where((angles > 1e-12)[..., None], rot_noise / angles[..., None], [1.0, 0.0, 0.0])
    noise_R = geometry.rotation_about_axis(axes, angles)
    Rr = right_home.rotation @ noise_R[:, 0]
    Rl = left_home.rotation @ noise_R[:, 1]
    right_pos = wrist_path + pos_noise
    left_pos = left_home.translation + left_noise
    left_act = np.clip(HAND_REST + hand_noise[:, :6], 0.0, 1.0)
    right_act = np.clip(HAND_REST + hand_noise[:, 6:], 0.0, 1.0)
    tips = np.concatenate([
        fingertip_rows(left_act, Rl, left_pos, config.hand_model),
        fingertip_rows(right_act, Rr, right_pos, config.hand_model),
    ], axis=1)
    return Trajectory(
        times=times,
        states=unified_space.state_rows(*geometry.encode_rot6d(np.stack([noise_R[:, 2], Rl, Rr])),
                                        left_pos, right_pos, tips),
        embodiment_tag=embodiment_tag,
        nominal_rate=capture_rate,
        head_positions=head_positions,
    )


@dataclass(frozen=True)
class DemoBundle:
    """Episode plus the per-frame joint-state view (robot demos only)."""

    episode: DemonstrationEpisode
    joint_states: np.ndarray | None = None  # (N, 54), zero-padded joint form


def joint_space_states(commands: np.ndarray) -> np.ndarray:
    """Command vectors (..., n_cmd) zero-padded to 54 dims: the joint-space
    state of the state-space ablation."""
    out = np.zeros(commands.shape[:-1] + (unified_space.STATE_DIM,))
    out[..., : commands.shape[-1]] = commands
    return out


def teleop_simulate(
    references: np.ndarray,
    config: EmbodimentConfig,
    home_cmd: RobotCommand,
) -> tuple[np.ndarray, np.ndarray]:
    """Track D unified-space references (D, N, 54) with IK, all D in
    lockstep: frame k of every reference is retargeted in one batch, each
    row warm-started at its own previous command. Returns the achieved
    states (D, N, 54) and the joint-form view of the executed commands."""
    try:
        references = np.array(references, dtype=float)
    except ValueError as exc:  # ragged stack
        raise DimensionMismatch(f"references must stack to (D, N, 54): {exc}") from exc
    if references.ndim != 3 or references.shape[2] != unified_space.STATE_DIM:
        raise DimensionMismatch(f"references must be (D, N, 54), got {references.shape}")
    D, N = references.shape[:2]
    cmd = np.tile(home_cmd.vector(), (D, 1))
    commands = np.empty((D, N, cmd.shape[1]))
    for k in range(N):
        rows = retarget_rows(references[:, k], config, cmd)
        for error in rows.errors:
            if error is not None:
                raise error
        cmd = commands[:, k] = rows.commands
    states = embed_rows(config, commands.reshape(D * N, -1)).reshape(D, N, -1)
    return states, joint_space_states(commands)


def _reach_episode(
    task: ReachTask, goal: np.ndarray, rng: np.random.Generator, demo_id: str, tag: str,
    times: np.ndarray, states: np.ndarray, device: str, retimed: bool, alpha: float,
) -> DemonstrationEpisode:
    """A reach demo's episode: one goal feature per frame, observed with
    `rng`, the goal's cell in the instruction and the goal in the metadata."""
    features = np.stack([task.codec.observe(goal, rng) for _ in range(len(times))])
    return new_episode(demo_id, tag, f"reach the point in cell {goal_cell(task, goal)}", times,
                       states, features, device, "grid-table", retimed, alpha,
                       goal=np.asarray(goal).tolist())


def generate_robot_demo(
    task: ReachTask,
    config: EmbodimentConfig,
    goals: Sequence[np.ndarray],
    seeds: Sequence[int],
    demo_ids: Sequence[str],
) -> list[DemoBundle]:
    """Teleoperation-style demos, one per goal, seed and id: the robot
    tracks an ideal robot-speed reach to each goal, all demos in lockstep."""
    if not len(goals):
        return []
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    references = [
        ideal_reach_trajectory(task, config, goal, rng, capture_rate=task.rate,
                               move_duration=task.move_duration,
                               hold_duration=task.hold_duration,
                               embodiment_tag="robot", start_spread=0.01)
        for goal, rng in zip(goals, rngs, strict=True)
    ]
    states, joint_views = teleop_simulate(
        [ref.states for ref in references], config, task.home_command(config)
    )
    return [
        DemoBundle(_reach_episode(task, goal, rng, demo_id, "robot", reference.times,
                                  demo_states, "teleop-sim", False, 1.0), joint_view)
        for goal, rng, demo_id, reference, demo_states, joint_view in zip(
            goals, rngs, demo_ids, references, states, joint_views, strict=True)
    ]


def generate_human_demo(
    task: ReachTask,
    config: EmbodimentConfig,
    goal: np.ndarray,
    seed: int,
    demo_id: str,
    retime_demo: bool = True,
) -> DemoBundle:
    """Egocentric-capture-style demo: faster, wider start spread, retimed
    to robot speed unless `retime_demo` is False (speed ablation)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    # Without retiming the episode keeps its real-time duration, so pad
    # the post-reach hold to leave enough frames for chunk extraction.
    hold = task.hold_duration / task.alpha if retime_demo else task.hold_duration
    raw = ideal_reach_trajectory(
        task,
        config,
        goal,
        rng,
        capture_rate=task.human_capture_rate,
        move_duration=task.move_duration / task.alpha,
        hold_duration=hold,
        embodiment_tag="human",
        start_spread=0.04,
    )
    alpha = task.alpha if retime_demo else 1.0
    resampled = retiming.retime(raw, alpha, task.rate)
    return DemoBundle(_reach_episode(task, goal, rng, demo_id, "human", resampled.times,
                                     resampled.states, "vr-sim", retime_demo, alpha))


def goal_cell(task: ReachTask, goal: np.ndarray) -> int:
    rel = (np.asarray(goal)[:2] - task.grid.origin[:2]) / task.grid.cell_size
    c = int(np.clip(np.floor(rel[0]), 0, task.grid.cols - 1))
    r = int(np.clip(np.floor(rel[1]), 0, task.grid.rows - 1))
    return r * task.grid.cols + c
