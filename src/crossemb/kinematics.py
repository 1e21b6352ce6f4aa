"""Embodiment kinematics: FK, Jacobian, damped-least-squares IK, and
retargeting between the unified space and robot joint commands.

Angle units are radians throughout; config files store degrees (see
`embodiments`). Chains and configs are immutable; the IK solver keeps no
state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry, unified_space
from .errors import (
    DegenerateRotation6D,
    DimensionMismatch,
    NonFiniteTarget,
    RetargetFailure,
)
from .geometry import Pose

STATUS_CONVERGED = "converged"
STATUS_BEST_EFFORT = "best_effort"

# Actuator layout per hand: thumb and finger closures, then thumb rotation.
HAND_ACTUATORS = ("thumb_flex", "index", "middle", "ring", "pinky", "thumb_rot")
HAND_ACTUATOR_COUNT = 6


@dataclass(frozen=True)
class Joint:
    name: str
    axis: np.ndarray        # unit 3-vector in the joint's local frame
    origin: Pose            # parent-frame offset applied before the rotation
    limits: tuple[float, float]  # radians, lo < hi

    def __post_init__(self):
        axis = np.array(self.axis, dtype=float)
        if axis.shape != (3,):
            raise ValueError(f"joint {self.name}: axis must be a 3-vector")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
            raise ValueError(f"joint {self.name}: axis must be unit-norm")
        lo, hi = self.limits
        if not lo < hi:
            raise ValueError(f"joint {self.name}: limits must satisfy lo < hi")
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "limits", (float(lo), float(hi)))


@dataclass(frozen=True)
class KinematicChain:
    joints: tuple[Joint, ...]
    base_frame: Pose
    tip_offset: Pose

    def __post_init__(self):
        if len(self.joints) < 1:
            raise ValueError("chain needs at least one joint")
        object.__setattr__(self, "joints", tuple(self.joints))

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @property
    def lower_limits(self) -> np.ndarray:
        return np.array([j.limits[0] for j in self.joints])

    @property
    def upper_limits(self) -> np.ndarray:
        return np.array([j.limits[1] for j in self.joints])

    def mid_range(self) -> np.ndarray:
        return 0.5 * (self.lower_limits + self.upper_limits)

    def clamp(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.lower_limits, self.upper_limits)


def _check_q(chain: KinematicChain, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (chain.n_joints,):
        raise DimensionMismatch(
            f"expected {chain.n_joints} joint values, got shape {q.shape}"
        )
    return q


def _fk_frames(chain: KinematicChain, q: np.ndarray):
    """Tip pose plus per-joint world axes and origins (for the Jacobian)."""
    R = chain.base_frame.rotation.copy()
    t = chain.base_frame.translation.copy()
    axes = np.empty((chain.n_joints, 3))
    origins = np.empty((chain.n_joints, 3))
    for i, joint in enumerate(chain.joints):
        t = R @ joint.origin.translation + t
        R = R @ joint.origin.rotation
        axes[i] = R @ joint.axis
        origins[i] = t
        R = R @ geometry.rotation_about_axis(joint.axis, q[i])
    t = R @ chain.tip_offset.translation + t
    R = R @ chain.tip_offset.rotation
    return R, t, axes, origins


def forward_kinematics(chain: KinematicChain, q: np.ndarray) -> Pose:
    """Compose base frame, per-joint rotations about their axes, tip offset."""
    q = _check_q(chain, q)
    R, t, _, _ = _fk_frames(chain, q)
    return Pose(R, t)


def jacobian(chain: KinematicChain, q: np.ndarray) -> np.ndarray:
    """Geometric Jacobian, 6 x n: linear velocity rows, then angular."""
    q = _check_q(chain, q)
    _, tip, axes, origins = _fk_frames(chain, q)
    J = np.empty((6, chain.n_joints))
    for i in range(chain.n_joints):
        J[:3, i] = np.cross(axes[i], tip - origins[i])
        J[3:, i] = axes[i]
    return J


@dataclass(frozen=True)
class IkParams:
    damping: float = 0.05
    max_iters: int = 100
    pos_tol: float = 1e-3            # meters
    rot_tol: float = np.deg2rad(0.5) # radians
    step_scale: float = 0.5
    orientation_weight: float = 1.0  # 0 gives position-only solving
    restarts: int = 30               # deterministic extra seeds on failure

    def __post_init__(self):
        if self.damping <= 0:
            raise ValueError("damping must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.step_scale <= 1.0:
            raise ValueError("step_scale must be in (0, 1]")
        if self.orientation_weight < 0:
            raise ValueError("orientation_weight must be >= 0")


def _pose_error(current_R, current_t, target: Pose):
    e_pos = target.translation - current_t
    e_rot = geometry.rotation_log(target.rotation @ current_R.T)
    return e_pos, e_rot


def _dls_attempt(chain, target, q0, params):
    """One damped-least-squares descent; returns (q, pos_err, rot_err, ok).

    The damping factor adapts per step (halved on improvement, grown on
    rejection) so the iteration rides out near-singular configurations;
    columns of joints pinned at a limit and pushed further out are masked
    so clamping cannot stall the descent.
    """
    lo, hi = chain.lower_limits, chain.upper_limits
    n = chain.n_joints
    q = chain.clamp(np.asarray(q0, dtype=float))
    w = params.orientation_weight
    lam = params.damping
    R, t, axes, origins = _fk_frames(chain, q)
    e_pos, e_rot = _pose_error(R, t, target)
    pos_err = float(np.linalg.norm(e_pos))
    rot_err = float(np.linalg.norm(e_rot))
    err = pos_err + w * rot_err
    for _ in range(params.max_iters):
        if pos_err <= params.pos_tol and (w == 0.0 or rot_err <= params.rot_tol):
            return q, pos_err, rot_err, True
        J = np.empty((6, n))
        for i in range(n):
            J[:3, i] = np.cross(axes[i], t - origins[i])
            J[3:, i] = w * axes[i]
        e = np.concatenate([e_pos, w * e_rot])
        grad = J.T @ e
        mask = np.ones(n)
        at_lo = q <= lo + 1e-12
        at_hi = q >= hi - 1e-12
        mask[(at_lo & (grad < 0)) | (at_hi & (grad > 0))] = 0.0
        Jm = J * mask
        improved = False
        for _trial in range(6):
            A = Jm @ Jm.T + (lam * lam) * np.eye(6)
            dq = Jm.T @ np.linalg.solve(A, e)
            q_new = chain.clamp(q + params.step_scale * dq)
            R2, t2, axes2, origins2 = _fk_frames(chain, q_new)
            e_pos2, e_rot2 = _pose_error(R2, t2, target)
            pos2 = float(np.linalg.norm(e_pos2))
            rot2 = float(np.linalg.norm(e_rot2))
            if pos2 + w * rot2 < err:
                q, R, t, axes, origins = q_new, R2, t2, axes2, origins2
                e_pos, e_rot = e_pos2, e_rot2
                pos_err, rot_err, err = pos2, rot2, pos2 + w * rot2
                lam = max(lam * 0.5, 1e-5)
                improved = True
                break
            lam *= 5.0
        if not improved:
            break
    ok = pos_err <= params.pos_tol and (w == 0.0 or rot_err <= params.rot_tol)
    return q, pos_err, rot_err, ok


def ik_solve(
    chain: KinematicChain,
    target: Pose,
    q_init: np.ndarray,
    params: IkParams = IkParams(),
) -> tuple[np.ndarray, str]:
    """Damped-least-squares IK: dq = J^T (J J^T + damping^2 I)^-1 e.

    The first attempt starts at `q_init`; on failure a fixed set of
    seeded in-limit restarts is tried, so results are deterministic. The
    returned joints are always clamped within limits; status is
    `converged` or `best_effort` (closest local solution found).
    """
    q_init = _check_q(chain, q_init)
    if not (np.all(np.isfinite(target.rotation)) and np.all(np.isfinite(target.translation))):
        raise NonFiniteTarget("IK target contains non-finite values")
    attempts = [q_init]
    if params.restarts > 0:
        lo, hi = chain.lower_limits, chain.upper_limits
        rng = np.random.Generator(np.random.PCG64(seed=0x1B5))
        attempts.append(chain.mid_range())
        for _ in range(params.restarts - 1):
            attempts.append(lo + rng.random(chain.n_joints) * (hi - lo))
    best = None
    for q0 in attempts:
        q, pos_err, rot_err, ok = _dls_attempt(chain, target, q0, params)
        if ok:
            return q, STATUS_CONVERGED
        score = pos_err + params.orientation_weight * rot_err
        if best is None or score < best[0]:
            best = (score, q)
    return best[1], STATUS_BEST_EFFORT


@dataclass(frozen=True)
class HandModel:
    """Distance-based closure model for a 6-actuator dexterous hand.

    Fingertips live on fixed rays from the wrist origin (wrist frame);
    per-finger closure is 1 - distance/extent. The thumb adds a rotation
    about the palm normal, normalized over `thumb_rot_range`.
    """

    fingertip_extent: np.ndarray  # (5,) meters, thumb..pinky
    finger_dirs: np.ndarray       # (5, 3) unit rays in the wrist frame
    palm_normal: np.ndarray       # (3,) unit, wrist frame
    thumb_rot_range: tuple[float, float]  # radians, lo < hi, within (-pi, pi)
    actuator_joint_range: np.ndarray = field(
        default_factory=lambda: np.tile([0.0, 1.7], (HAND_ACTUATOR_COUNT, 1))
    )  # (6, 2) physical actuator angle span, metadata only
    fingers: int = 5
    actuators: int = HAND_ACTUATOR_COUNT

    def __post_init__(self):
        ext = np.array(self.fingertip_extent, dtype=float)
        dirs = np.array(self.finger_dirs, dtype=float)
        normal = np.array(self.palm_normal, dtype=float)
        rng = np.array(self.actuator_joint_range, dtype=float)
        if ext.shape != (5,) or np.any(ext <= 0):
            raise ValueError("fingertip_extent must be 5 positive lengths")
        if dirs.shape != (5, 3):
            raise ValueError("finger_dirs must be (5, 3)")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("finger_dirs rows must be unit-norm")
        if abs(np.linalg.norm(normal) - 1.0) > 1e-9:
            raise ValueError("palm_normal must be unit-norm")
        # Thumb ray perpendicular to the palm normal keeps the rotation
        # actuator exactly invertible.
        if abs(dirs[0] @ normal) > 1e-9:
            raise ValueError("thumb ray must be perpendicular to palm_normal")
        lo, hi = self.thumb_rot_range
        if not (-np.pi < lo < hi < np.pi):
            raise ValueError("thumb_rot_range must satisfy -pi < lo < hi < pi")
        if rng.shape != (HAND_ACTUATOR_COUNT, 2):
            raise ValueError("actuator_joint_range must be (6, 2)")
        for arr in (ext, dirs, normal, rng):
            arr.flags.writeable = False
        object.__setattr__(self, "fingertip_extent", ext)
        object.__setattr__(self, "finger_dirs", dirs)
        object.__setattr__(self, "palm_normal", normal)
        object.__setattr__(self, "thumb_rot_range", (float(lo), float(hi)))
        object.__setattr__(self, "actuator_joint_range", rng)
        if self.fingers != 5 or self.actuators != HAND_ACTUATOR_COUNT:
            raise ValueError("hand model must have 5 fingers and 6 actuators")


@dataclass(frozen=True)
class EmbodimentConfig:
    name: str
    left_arm: KinematicChain
    right_arm: KinematicChain
    neck: KinematicChain
    hand_model: HandModel
    canonical_frame_offset: float = 0.60  # meters, head-to-torso drop

    def __post_init__(self):
        for side, chain in (("left", self.left_arm), ("right", self.right_arm)):
            if chain.n_joints not in (5, 7):
                raise ValueError(f"{side} arm must have 5 or 7 joints, got {chain.n_joints}")
        if self.neck.n_joints != 2:
            raise ValueError(f"neck must have exactly 2 joints, got {self.neck.n_joints}")


@dataclass(frozen=True)
class RobotCommand:
    """Joint-space command: arms, 2-DoF neck, two 6-actuator hands."""

    left_arm_q: np.ndarray
    right_arm_q: np.ndarray
    neck_q: np.ndarray    # (2,) yaw, pitch radians
    left_hand: np.ndarray  # (6,) in [0, 1]
    right_hand: np.ndarray # (6,) in [0, 1]

    def __post_init__(self):
        for name, size in (("neck_q", 2), ("left_hand", 6), ("right_hand", 6)):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (size,):
                raise DimensionMismatch(f"{name} must have shape ({size},)")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name in ("left_arm_q", "right_arm_q"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name in ("left_hand", "right_hand"):
            vals = getattr(self, name)
            if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
                raise ValueError(f"{name} values must lie in [0, 1]")

    def validate_limits(self, config: EmbodimentConfig) -> list[str]:
        """Names of joints outside their configured limits."""
        bad = []
        for label, chain, q in (
            ("left_arm", config.left_arm, self.left_arm_q),
            ("right_arm", config.right_arm, self.right_arm_q),
            ("neck", config.neck, self.neck_q),
        ):
            for joint, value in zip(chain.joints, q):
                lo, hi = joint.limits
                if value < lo - 1e-9 or value > hi + 1e-9:
                    bad.append(f"{label}.{joint.name}")
        return bad


def retarget_hand(
    fingertips: np.ndarray, wrist_pose: Pose, hand_model: HandModel
) -> np.ndarray:
    """Map 5 fingertip positions to the 6 normalized hand actuators.

    Flexion actuators: 1 - clamp(|tip - wrist| / extent, 0, 1), thumb
    first then index..pinky. The sixth actuator is the thumb tip angle
    about the palm normal, normalized over the model's rotation range.
    Total and monotone: closing distance never decreases closure.
    """
    tips = np.asarray(fingertips, dtype=float)
    if tips.shape != (5, 3):
        raise DimensionMismatch(f"fingertips must be (5, 3), got {tips.shape}")
    if not np.all(np.isfinite(tips)):
        raise RetargetFailure("fingertips contain non-finite values")
    dist = np.linalg.norm(tips - wrist_pose.translation, axis=1)
    closure = 1.0 - np.clip(dist / hand_model.fingertip_extent, 0.0, 1.0)

    # Thumb rotation from the wrist-frame tip direction.
    local = wrist_pose.rotation.T @ (tips[0] - wrist_pose.translation)
    n = hand_model.palm_normal
    ref = hand_model.finger_dirs[0]
    in_plane = local - (local @ n) * n
    if np.linalg.norm(in_plane) < 1e-12:
        angle = 0.5 * sum(hand_model.thumb_rot_range)  # undefined; use neutral
    else:
        angle = float(np.arctan2(n @ np.cross(ref, in_plane), ref @ in_plane))
    lo, hi = hand_model.thumb_rot_range
    thumb_rot = float(np.clip((angle - lo) / (hi - lo), 0.0, 1.0))
    return np.concatenate([closure, [thumb_rot]])


def hand_fingertips(
    actuators: np.ndarray, wrist_pose: Pose, hand_model: HandModel
) -> np.ndarray:
    """Inverse of `retarget_hand`: place fingertips along the model rays."""
    act = np.asarray(actuators, dtype=float)
    if act.shape != (HAND_ACTUATOR_COUNT,):
        raise DimensionMismatch(f"expected 6 actuator values, got {act.shape}")
    act = np.clip(act, 0.0, 1.0)
    dist = hand_model.fingertip_extent * (1.0 - act[:5])
    lo, hi = hand_model.thumb_rot_range
    theta = lo + act[5] * (hi - lo)
    thumb_dir = geometry.rotation_about_axis(hand_model.palm_normal, theta) @ (
        hand_model.finger_dirs[0]
    )
    local = hand_model.finger_dirs * dist[:, None]
    local[0] = thumb_dir * dist[0]
    return wrist_pose.apply(local)


def neck_angles_from_head_rotation(R: np.ndarray) -> tuple[float, float]:
    """Yaw and pitch of a head rotation, ZYX convention, roll discarded."""
    yaw = float(np.arctan2(R[1, 0], R[0, 0]))
    pitch = float(np.arcsin(np.clip(-R[2, 0], -1.0, 1.0)))
    return yaw, pitch


@dataclass(frozen=True)
class LimbResult:
    status: str
    pos_err: float
    rot_err: float


@dataclass(frozen=True)
class RetargetDiagnostics:
    left: LimbResult
    right: LimbResult
    clamp_events: tuple[str, ...]


def _wrist_target(action: np.ndarray, rot_slice, pos_slice) -> Pose:
    R = geometry.decode_rot6d(action[rot_slice])
    return Pose(R, action[pos_slice])


def retarget_action(
    action: np.ndarray,
    config: EmbodimentConfig,
    q_prev: RobotCommand,
    params: IkParams = IkParams(),
) -> tuple[RobotCommand, RetargetDiagnostics]:
    """Convert one unified action into a robot command.

    Wrist targets are solved by IK warm-started at `q_prev`; the neck
    takes the head rotation's yaw/pitch (roll discarded, clamped); hands
    go through the fingertip-distance closure map.
    """
    action = np.asarray(action, dtype=float)
    if action.shape != (unified_space.STATE_DIM,):
        raise DimensionMismatch(f"action must be (54,), got {action.shape}")
    if not np.all(np.isfinite(action)):
        raise RetargetFailure("action contains non-finite values")

    clamps = []
    limbs = {}
    arms = {}
    for side, chain, rot_sl, pos_sl, q0 in (
        (
            "left",
            config.left_arm,
            unified_space.LEFT_WRIST_ROT,
            unified_space.LEFT_WRIST_POS,
            q_prev.left_arm_q,
        ),
        (
            "right",
            config.right_arm,
            unified_space.RIGHT_WRIST_ROT,
            unified_space.RIGHT_WRIST_POS,
            q_prev.right_arm_q,
        ),
    ):
        target = _wrist_target(action, rot_sl, pos_sl)
        q, status = ik_solve(chain, target, q0, params)
        achieved = forward_kinematics(chain, q)
        e_pos, e_rot = _pose_error(achieved.rotation, achieved.translation, target)
        limbs[side] = LimbResult(
            status=status,
            pos_err=float(np.linalg.norm(e_pos)),
            rot_err=float(np.linalg.norm(e_rot)),
        )
        if status == STATUS_BEST_EFFORT:
            clamps.append(f"{side}_arm:best_effort")
        arms[side] = q

    head_R = geometry.decode_rot6d(action[unified_space.HEAD_ROT])
    yaw, pitch = neck_angles_from_head_rotation(head_R)
    neck_raw = np.array([yaw, pitch])
    neck_q = config.neck.clamp(neck_raw)
    if not np.allclose(neck_q, neck_raw, atol=1e-12):
        clamps.append("neck:limit")

    tips = action[unified_space.FINGERTIPS].reshape(10, 3)
    hands = {}
    for side, rows, rot_sl, pos_sl in (
        ("left", slice(0, 5), unified_space.LEFT_WRIST_ROT, unified_space.LEFT_WRIST_POS),
        ("right", slice(5, 10), unified_space.RIGHT_WRIST_ROT, unified_space.RIGHT_WRIST_POS),
    ):
        wrist = _wrist_target(action, rot_sl, pos_sl)
        hands[side] = retarget_hand(tips[rows], wrist, config.hand_model)

    cmd = RobotCommand(
        left_arm_q=arms["left"],
        right_arm_q=arms["right"],
        neck_q=neck_q,
        left_hand=hands["left"],
        right_hand=hands["right"],
    )
    diag = RetargetDiagnostics(
        left=limbs["left"], right=limbs["right"], clamp_events=tuple(clamps)
    )
    return cmd, diag


def embed_robot_state(
    cmd: RobotCommand, config: EmbodimentConfig
) -> unified_space.UnifiedState:
    """Express a robot command (or joint readings) as a unified state."""
    for chain, q, name in (
        (config.left_arm, cmd.left_arm_q, "left_arm_q"),
        (config.right_arm, cmd.right_arm_q, "right_arm_q"),
    ):
        if np.asarray(q).shape != (chain.n_joints,):
            raise DimensionMismatch(f"{name} must have {chain.n_joints} values")
    left = forward_kinematics(config.left_arm, cmd.left_arm_q)
    right = forward_kinematics(config.right_arm, cmd.right_arm_q)
    head = forward_kinematics(config.neck, cmd.neck_q)
    tips = np.concatenate(
        [
            hand_fingertips(cmd.left_hand, left, config.hand_model),
            hand_fingertips(cmd.right_hand, right, config.hand_model),
        ],
        axis=0,
    )
    return unified_space.UnifiedState(
        head_rot=geometry.encode_rot6d(head.rotation),
        left_wrist_rot=geometry.encode_rot6d(left.rotation),
        right_wrist_rot=geometry.encode_rot6d(right.rotation),
        left_wrist_pos=left.translation,
        right_wrist_pos=right.translation,
        fingertips=tips,
    )
