"""Embodiment kinematics: FK, Jacobian, damped-least-squares IK, and
retargeting between the unified space and robot joint commands.

Angle units are radians throughout; config files store degrees (see
`embodiments`). Chains and configs are immutable; the IK solver keeps no
state between calls.

The FK, Jacobian and IK core runs on batches: joint vectors are the rows
of a (B, n) array, giving tip rotations (B, 3, 3), tip positions (B, 3),
world joint axes and origins (B, n, 3) and Jacobians (B, 6, n). A chain's
geometry is a set of arrays (`_ChainArrays`), shared by every row or
given per row, so rows on different chains of one joint count (a
config's two arms) run as one batch. Every row goes through the same
floating-point operations as a batch of one on its own chain, so no
result depends on the batch it ran in.

IK takes one target per row. `_ik_rows` first descends every row from
its own initial joints as one lockstep batch, each row with its own
damping and joint-limit mask, leaving the batch when it converges or
stalls. The rows that fail then descend from all restart seeds of their
chain as one batch, the seeds of each failed row forming a group: the
first converged seed in seed order wins, else the first seed of least
weighted error, as if the seeds were tried one after another.

A reach test marks the rows that can never converge. Every joint turns
about a point at or past the first joint's origin (the chain's `root`,
fixed by its base frame), and rotations keep lengths, so no tip lies
farther from the root than the sum of the later offsets' lengths (its
`reach`). A row whose target is farther than `reach + pos_tol` from the
root is far. Far rows still descend from every seed, for the best
effort, but each descent stops once an accepted step gains less than
`pos_tol` of weighted error, instead of creeping on for up to
`max_iters` steps. Rows in reach are untouched by the test, and far rows
never converge, so the test changes no converged result.

`retarget_rows` solves both arms of a batch of unified actions as one
`_ik_rows` batch (rows whose action is non-finite or holds a rotation
code that does not decode get the error `retarget_action` raises for
them), and `embed_rows` turns command vectors (`RobotCommand.vector`,
checked against a config by `command_vector`) into unified 54-vectors,
placing fingertips with `fingertip_rows`. These row functions are the
public API that rollouts, demo generation and capture ingest run on;
`ik_solve`, `retarget_action`, `forward_kinematics` and
`embed_robot_state` are their batches of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

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
_EYE6 = np.eye(6)  # the damping term's identity
# Initial DLS damping factor and the fraction of each solved step taken.
_DAMPING = 0.05
_STEP_SCALE = 0.5

# Actuators per hand: thumb and finger closures, then thumb rotation.
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


class _ChainArrays(NamedTuple):
    """A chain's geometry as FK and IK read it: one chain's own arrays, or
    stacked with a leading axis, per arm (2, n, ...) or per row (B, n, ...)."""

    axes: np.ndarray          # (n, 3) unit joint axes, joint frame
    origin_R: np.ndarray      # (n, 3, 3) joint origin rotations
    offsets: np.ndarray       # (n + 1, 3) joint origin translations, then the tip's
    base_R: np.ndarray        # (3, 3)
    base_t: np.ndarray        # (3,)
    tip_R: np.ndarray         # (3, 3)
    lo: np.ndarray            # (n,) joint limits, radians
    hi: np.ndarray            # (n,)
    root: np.ndarray          # (3,) first joint's origin, fixed by the base frame
    reach: np.ndarray         # () sum of |offsets[1:]|: no tip is farther from root

    def take(self, index) -> "_ChainArrays":
        """The arrays at `index` of the leading axis (an int or rows)."""
        return _ChainArrays(*(a[index] for a in self))


class _Chains(NamedTuple):
    """The K chains the rows of an IK batch run on: their arrays stacked
    (K, n, ...), and each chain's own arrays, built once."""

    stack: _ChainArrays
    own: tuple[_ChainArrays, ...]

    def for_rows(self, arm: np.ndarray) -> _ChainArrays:
        """The arrays of rows on chains `arm`: that chain's own when every
        row is on one, else one chain per row."""
        k = arm[0]
        return self.own[k] if (arm == k).all() else self.stack.take(arm)


@dataclass(frozen=True)
class KinematicChain:
    joints: tuple[Joint, ...]
    base_frame: Pose
    tip_offset: Pose
    # The chain's geometry as arrays, built once.
    arrays: _ChainArrays = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.joints) < 1:
            raise ValueError("chain needs at least one joint")
        object.__setattr__(self, "joints", tuple(self.joints))
        offsets = np.array([j.origin.translation for j in self.joints]
                           + [self.tip_offset.translation])
        base_R, base_t = self.base_frame.rotation, self.base_frame.translation
        # root and reach: see the module docstring.
        arrays = _ChainArrays(
            np.array([j.axis for j in self.joints]),
            np.array([j.origin.rotation for j in self.joints]),
            offsets, base_R, base_t, self.tip_offset.rotation,
            np.array([j.limits[0] for j in self.joints]),
            np.array([j.limits[1] for j in self.joints]),
            base_t + base_R @ offsets[0], np.array(geometry.norms(offsets[1:]).sum()),
        )
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "arrays", arrays)

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @property
    def lower_limits(self) -> np.ndarray:
        return self.arrays.lo

    @property
    def upper_limits(self) -> np.ndarray:
        return self.arrays.hi

    def mid_range(self) -> np.ndarray:
        return 0.5 * (self.lower_limits + self.upper_limits)

    def clamp(self, q: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(q, self.lower_limits), self.upper_limits)


def _check_q(chain: KinematicChain, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (chain.n_joints,):
        raise DimensionMismatch(
            f"expected {chain.n_joints} joint values, got shape {q.shape}"
        )
    return q


def _fk_frames(chain: _ChainArrays, Q: np.ndarray):
    """Tip poses plus per-joint world axes and origins (for the Jacobian)
    of a (B, n) batch of joint vectors: R (B, 3, 3), t (B, 3), axes and
    origins (B, n, 3). `chain` holds one chain's own arrays, shared by all
    rows, or per-row arrays (B, n, ...); leading axes broadcast."""
    n = Q.shape[-1]
    joint_R = geometry.rotation_about_axis(chain.axes, Q)
    # Frames before each joint's origin (and the tip's) and after its origin
    # rotation, each product written in place.
    before = np.empty(Q.shape[:-1] + (n + 1, 3, 3))
    after = np.empty(Q.shape + (3, 3))
    before[..., 0, :, :] = chain.base_R
    for i in range(n):
        np.matmul(before[..., i, :, :], chain.origin_R[..., i, :, :], out=after[..., i, :, :])
        np.matmul(after[..., i, :, :], joint_R[..., i, :, :], out=before[..., i + 1, :, :])
    R = before[..., n, :, :]
    # Positions sum the rotated offsets from the base one joint at a time.
    steps = np.empty(Q.shape[:-1] + (n + 2, 3))
    steps[..., 0, :] = chain.base_t
    steps[..., 1:, :] = (before @ chain.offsets[..., None])[..., 0]
    t = np.cumsum(steps, axis=-2)
    return R @ chain.tip_R, t[..., -1, :], (after @ chain.axes[..., None])[..., 0], t[..., 1:-1, :]


def _jacobians(t, axes, origins, w):
    """Geometric Jacobians (B, 6, n) with the angular rows scaled by w.

    C-contiguous on purpose: `J @ J.T` on a transposed view takes another
    BLAS path and drifts in the last bits.
    """
    linear = geometry.cross(axes, t[:, None, :] - origins)
    return np.ascontiguousarray(
        np.concatenate([linear, w * axes], axis=2).transpose(0, 2, 1)
    )


def forward_kinematics(chain: KinematicChain, q: np.ndarray) -> Pose:
    """Compose base frame, per-joint rotations about their axes, tip offset."""
    q = _check_q(chain, q)
    R, t, _, _ = _fk_frames(chain.arrays, q[None])
    return Pose(R[0], t[0])


@dataclass(frozen=True)
class IkParams:
    max_iters: int = 100
    pos_tol: float = 1e-3            # meters
    rot_tol: float = np.deg2rad(0.5) # radians
    orientation_weight: float = 1.0  # 0 gives position-only solving
    restarts: int = 30               # deterministic extra seeds on failure

    def __post_init__(self):
        for name, least in (("max_iters", 1), ("restarts", 0)):
            value = getattr(self, name)
            if not (_is_number(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name, op in (("pos_tol", ">"), ("rot_tol", ">"), ("orientation_weight", ">=")):
            value = getattr(self, name)
            if not (_is_number(value, numbers.Real) and math.isfinite(value)
                    and (value > 0 if op == ">" else value >= 0)):
                raise ValueError(f"{name} must be a finite number {op} 0, got {value!r}")


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


class IkSolution(tuple):
    """`(q, status)` as returned by `ik_solve`; also carries the final
    position error (m) and rotation error (rad) of q as `pos_err` and
    `rot_err`, so callers need not run FK again."""

    def __new__(cls, q, status, pos_err, rot_err):
        self = super().__new__(cls, (q, status))
        self.pos_err = float(pos_err)
        self.rot_err = float(rot_err)
        return self

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return (*self, self.pos_err, self.rot_err)


def _pose_errors(R, t, target_R, target_t, w: float):
    """Per-row position and rotation error norms of a (B,) batch of poses
    against per-row targets, and the stacked errors [e_pos, w * e_rot] (B, 6)."""
    e_pos = target_t - t
    e_rot = geometry.rotation_log(target_R @ R.transpose(0, 2, 1))
    e = np.concatenate([e_pos, w * e_rot], axis=1)
    return geometry.norms(e_pos), geometry.norms(e_rot), e


def _dls_attempts(chains, arm, far, target_R, target_t, group, Q0, params):
    """Damped-least-squares descents from the rows of Q0 (B, n), in lockstep,
    row b on the chain of index arm[b] in `chains` towards its own target
    (target_R[b], target_t[b]).

    Each row runs the single-descent recipe on its own state. Its damping
    factor adapts per step (halved on improvement, grown fivefold per
    rejected trial, at most 6 trials per step) so the iteration rides out
    near-singular configurations; columns of joints pinned at a limit and
    pushed further out are masked so clamping cannot stall the descent.
    A row leaves the batch when it converges or when all 6 trials are
    rejected. A row marked `far` (B,), whose target lies beyond its
    chain's reach and so can never converge, also leaves once an accepted
    step lowers its weighted error by less than `pos_tol`.

    `group` (B,) numbers the rows' groups 0..G-1, non-decreasing: within a
    group rows are seeds in order of preference. A group's result is its
    first converged row, else its first row of least pos_err + w * rot_err;
    rows after a converged row of their group can no longer be chosen and
    are dropped. Returns q (G, n), pos_err, rot_err and converged (G,).
    """
    w = params.orientation_weight
    B = len(Q0)
    every = chains.for_rows(arm)  # the arrays of all B rows
    Q = np.minimum(np.maximum(Q0, every.lo), every.hi)
    R, t, axes, origins = _fk_frames(every, Q)
    pos_err, rot_err, e = _pose_errors(R, t, target_R, target_t, w)
    err = pos_err + w * rot_err
    lam = np.full(B, _DAMPING)
    live = np.arange(B)  # rows still descending, ascending
    first_ok = np.full(group[-1] + 1, B)  # per group; B: none converged yet
    stalled = np.zeros(B, dtype=bool) if far.any() else None  # far rows that stopped gaining
    # One more convergence test follows the last allowed step.
    for step in range(params.max_iters + 1):
        done = pos_err[live] <= params.pos_tol
        if w != 0.0:
            done &= rot_err[live] <= params.rot_tol
        if done.any():
            np.minimum.at(first_ok, group[live[done]], live[done])
            live = live[~done & (live < first_ok[group[live]])]
        if step == params.max_iters or not live.size:
            break
        J = _jacobians(t[live], axes[live], origins[live], w)
        grad = np.vecmat(e[live], J)
        q = Q[live]
        chain = every if live.size == B else chains.for_rows(arm[live])
        pinned = ((q <= chain.lo + 1e-12) & (grad < 0)) | ((q >= chain.hi - 1e-12) & (grad > 0))
        Jt = J * ~pinned[:, None, :]
        rows = live  # the rows of this trial: those with no step accepted yet
        for _trial in range(6):
            lam_rows, err_rows = lam[rows], err[rows]
            A = Jt @ Jt.transpose(0, 2, 1) + (lam_rows * lam_rows)[:, None, None] * _EYE6
            x = np.linalg.solve(A, e[rows][..., None])[..., 0]
            q_new = Q[rows] + _STEP_SCALE * np.vecmat(x, Jt)
            q_new = np.minimum(np.maximum(q_new, chain.lo), chain.hi)
            R2, t2, axes2, origins2 = _fk_frames(chain, q_new)
            pos2, rot2, e2 = _pose_errors(R2, t2, target_R[rows], target_t[rows], w)
            err2 = pos2 + w * rot2
            acc = err2 < err_rows
            if stalled is not None:
                stalled[rows] |= acc & far[rows] & (err_rows - err2 < params.pos_tol)
            if acc.all():  # every row steps: no masking
                Q[rows], t[rows], axes[rows], origins[rows] = q_new, t2, axes2, origins2
                e[rows] = e2
                pos_err[rows], rot_err[rows], err[rows] = pos2, rot2, err2
                lam[rows] = np.maximum(lam_rows * 0.5, 1e-5)
                rows = rows[:0]
                break
            up = rows[acc]
            Q[up], t[up], axes[up], origins[up], e[up] = (
                q_new[acc], t2[acc], axes2[acc], origins2[acc], e2[acc]
            )
            pos_err[up], rot_err[up], err[up] = pos2[acc], rot2[acc], err2[acc]
            lam[up] = np.maximum(lam[up] * 0.5, 1e-5)
            lam[rows[~acc]] *= 5.0
            if acc.any():
                Jt = Jt[~acc]
                rows = rows[~acc]
                chain = chains.for_rows(arm[rows])
        if rows.size:  # these rows had all 6 trials rejected
            live = np.setdiff1d(live, rows, assume_unique=True)
        if stalled is not None:
            live = live[~stalled[live]]
    converged = first_ok < B
    best = first_ok.copy()
    for g in np.flatnonzero(~converged):
        rows = np.flatnonzero(group == g)
        best[g] = rows[np.argmin(err[rows])]
    return Q[best], pos_err[best], rot_err[best], converged


def _far_rows(stack: _ChainArrays, arm, target_t, pos_tol: float) -> np.ndarray:
    """Whether each row's target lies farther than its chain's reach plus
    `pos_tol` from the chain's root: no joint values bring such a row's tip
    within `pos_tol` of its target, so it can never converge."""
    return geometry.norms(target_t - stack.root[arm]) > stack.reach[arm] + pos_tol


def _ik_rows(chains, arm, target_R, target_t, Q_init, params):
    """IK for B rows at once, row b on the chain of index arm[b] in
    `chains` from Q_init[b] towards its own target: each row's result
    equals `ik_solve` of that row alone on its chain.

    Attempt 0 of every row runs as one lockstep batch. The rows that fail
    then descend from all restart seeds of their chain as one batch,
    grouped by row, and keep the restart result if it converged or has
    less error. Rows `_far_rows` marks stop their descents early (see
    `_dls_attempts`). Returns q (B, n), pos_err, rot_err and converged (B,).
    """
    B = len(Q_init)
    stack = chains.stack
    far = _far_rows(stack, arm, target_t, params.pos_tol)
    q, pos_err, rot_err, ok = _dls_attempts(chains, arm, far, target_R, target_t, np.arange(B),
                                            Q_init, params)
    failed = np.flatnonzero(~ok)
    if failed.size and params.restarts > 0:
        lo, hi = stack.lo[:, None], stack.hi[:, None]
        rng = np.random.Generator(np.random.PCG64(seed=0x1B5))
        u = rng.random((params.restarts - 1, lo.shape[-1]))
        # Per chain (K, restarts, n): mid-range, then the seeded draws.
        seeds = np.concatenate([0.5 * (lo + hi), lo + u * (hi - lo)], axis=1)
        group = np.repeat(np.arange(failed.size), params.restarts)
        rows = failed[group]
        rq, rpos, rrot, rok = _dls_attempts(
            chains, arm[rows], far[rows], target_R[rows], target_t[rows], group,
            seeds[arm[failed]].reshape(-1, lo.shape[-1]), params,
        )
        w = params.orientation_weight
        # Attempt 0 keeps ties: the seeds are tried after it.
        better = rok | (rpos + w * rrot < pos_err[failed] + w * rot_err[failed])
        up = failed[better]
        q[up], pos_err[up], rot_err[up] = rq[better], rpos[better], rrot[better]
        ok[up] = rok[better]
    return q, pos_err, rot_err, ok


def ik_solve(
    chain: KinematicChain,
    target: Pose,
    q_init: np.ndarray,
    params: IkParams = IkParams(),
) -> IkSolution:
    """Damped-least-squares IK: dq = J^T (J J^T + damping^2 I)^-1 e.

    The first attempt starts at `q_init`; on failure a fixed set of
    seeded in-limit restarts runs as one lockstep batch, so results are
    deterministic and equal to trying the seeds one after another. The
    returned joints are always clamped within limits; status is
    `converged` or `best_effort` (closest local solution found). A
    target farther from the chain's first joint than its reach plus
    `pos_tol` is always `best_effort`; its descents stop once a step
    gains less than `pos_tol` (see the module docstring).
    """
    q_init = _check_q(chain, q_init)
    if not (np.all(np.isfinite(target.rotation)) and np.all(np.isfinite(target.translation))):
        raise NonFiniteTarget("IK target contains non-finite values")
    q, pos_err, rot_err, ok = _ik_rows(
        _Chains(chain.arrays.take(np.newaxis), (chain.arrays,)), np.zeros(1, dtype=int),
        target.rotation[None], target.translation[None], q_init[None], params,
    )
    return IkSolution(q[0], STATUS_CONVERGED if ok[0] else STATUS_BEST_EFFORT,
                      pos_err[0], rot_err[0])


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

    def __post_init__(self):
        ext = np.array(self.fingertip_extent, dtype=float)
        dirs = np.array(self.finger_dirs, dtype=float)
        normal = np.array(self.palm_normal, dtype=float)
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
        for arr in (ext, dirs, normal):
            arr.flags.writeable = False
        object.__setattr__(self, "fingertip_extent", ext)
        object.__setattr__(self, "finger_dirs", dirs)
        object.__setattr__(self, "palm_normal", normal)
        object.__setattr__(self, "thumb_rot_range", (float(lo), float(hi)))


@dataclass(frozen=True)
class EmbodimentConfig:
    name: str
    left_arm: KinematicChain
    right_arm: KinematicChain
    neck: KinematicChain
    hand_model: HandModel
    canonical_frame_offset: float = 0.60  # meters, head-to-torso drop
    # Both arms, left then right: their arrays stacked (2, n, ...) and each arm's own.
    arms: _Chains = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_left, n_right = self.left_arm.n_joints, self.right_arm.n_joints
        if n_left not in (5, 7) or n_right != n_left:
            raise ValueError(f"arms must have 5 or 7 joints each, as many on both sides; "
                             f"got {n_left} and {n_right}")
        if self.neck.n_joints != 2:
            raise ValueError(f"neck must have exactly 2 joints, got {self.neck.n_joints}")
        own = (self.left_arm.arrays, self.right_arm.arrays)
        stack = _ChainArrays(*map(np.stack, zip(*own)))
        for a in stack:
            a.flags.writeable = False
        object.__setattr__(self, "arms", _Chains(stack, own))


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
            if ((vals < -1e-12) | (vals > 1.0 + 1e-12)).any():
                raise ValueError(f"{name} values must lie in [0, 1]")

    def vector(self) -> np.ndarray:
        """Flat command vector: left arm, right arm, neck, left hand, right hand."""
        return np.concatenate(
            [self.left_arm_q, self.right_arm_q, self.neck_q, self.left_hand, self.right_hand]
        )

    @staticmethod
    def from_vector(config: EmbodimentConfig, vec: np.ndarray) -> "RobotCommand":
        """Inverse of `vector` for `config`'s arm sizes."""
        return RobotCommand(*(part[0] for part in _split_commands(config, np.asarray(vec)[None])))

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


def _split_commands(config: EmbodimentConfig, commands: np.ndarray) -> list[np.ndarray]:
    """Views of a batch of command vectors (B, n_cmd) (see `RobotCommand.vector`):
    left arm, right arm, neck, left hand, right hand."""
    a = config.left_arm.n_joints
    b = a + config.right_arm.n_joints
    c = b + 2
    d = c + HAND_ACTUATOR_COUNT
    return [commands[:, :a], commands[:, a:b], commands[:, b:c], commands[:, c:d], commands[:, d:]]


def _hand_actuators(tips, wrist_R, wrist_t, hand_model: HandModel) -> np.ndarray:
    """Map fingertips (B, 5, 3) and wrist poses (B, 3, 3), (B, 3) to the
    6 normalized hand actuators (B, 6).

    Flexion actuators: 1 - clamp(|tip - wrist| / extent, 0, 1), thumb
    first then index..pinky. The sixth actuator is the thumb tip angle
    about the palm normal, normalized over the model's rotation range.
    Total and monotone: closing distance never decreases closure.
    """
    d = tips - wrist_t[:, None, :]
    dist = np.sqrt(np.add.reduce(d * d, axis=-1))  # np.linalg.norm(d, axis=-1)
    closure = 1.0 - np.minimum(np.maximum(dist / hand_model.fingertip_extent, 0.0), 1.0)

    # Thumb rotation from the wrist-frame tip direction.
    local = (wrist_R.transpose(0, 2, 1) @ (tips[:, 0] - wrist_t)[..., None])[..., 0]
    n = hand_model.palm_normal
    ref = hand_model.finger_dirs[0]
    in_plane = local - np.vecdot(local, n)[:, None] * n
    angle = np.arctan2(np.vecdot(n, geometry.cross(ref, in_plane)), np.vecdot(ref, in_plane))
    # The direction is undefined on the palm normal: use the neutral angle.
    angle[geometry.norms(in_plane) < 1e-12] = 0.5 * sum(hand_model.thumb_rot_range)
    lo, hi = hand_model.thumb_rot_range
    thumb_rot = np.minimum(np.maximum((angle - lo) / (hi - lo), 0.0), 1.0)
    return np.concatenate([closure, thumb_rot[:, None]], axis=1)


def fingertip_rows(actuators, wrist_R, wrist_t, hand_model: HandModel) -> np.ndarray:
    """Inverse of `_hand_actuators`: actuators (B, 6) and wrist poses
    (B, 3, 3), (B, 3) to fingertips (B, 5, 3) placed along the model rays."""
    act = np.minimum(np.maximum(actuators, 0.0), 1.0)
    dist = hand_model.fingertip_extent * (1.0 - act[:, :5])
    lo, hi = hand_model.thumb_rot_range
    theta = lo + act[:, 5] * (hi - lo)
    thumb_dir = geometry.rotation_about_axis(hand_model.palm_normal, theta) @ (
        hand_model.finger_dirs[0]
    )
    local = hand_model.finger_dirs * dist[:, :, None]
    local[:, 0] = thumb_dir * dist[:, :1]
    return local @ wrist_R.transpose(0, 2, 1) + wrist_t[:, None, :]


def neck_angles_from_head_rotation(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Yaw and pitch of a head rotation, ZYX convention, roll discarded; a
    stack (..., 3, 3) gives one angle per rotation."""
    R = np.asarray(R)
    yaw = np.arctan2(R[..., 1, 0], R[..., 0, 0])
    pitch = np.arcsin(np.minimum(np.maximum(-R[..., 2, 0], -1.0), 1.0))
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


class RetargetRows(NamedTuple):
    """Per-row outcome of `retarget_rows`; arm columns are (left, right)."""

    commands: np.ndarray      # (B, n_cmd); a failed row keeps its previous command
    converged: np.ndarray     # (B, 2) bool
    pos_err: np.ndarray       # (B, 2) meters
    rot_err: np.ndarray       # (B, 2) radians
    neck_clamped: np.ndarray  # (B,) bool
    errors: list              # per row the CrossembError it raised, else None


def _decode_actions(actions: np.ndarray):
    """Head, left wrist and right wrist rotations (B, 3, 3) each of a batch
    of unified actions (B, 54), and per row the error retargeting raises
    for it, else None: non-finite values, or else the first rotation code
    (left wrist, right wrist, head) that does not decode."""
    rotations, defect = geometry.decode_rot6d_rows(unified_space.rotation_codes(actions))
    finite = np.isfinite(actions).all(axis=1)
    defect = defect[:, [1, 2, 0]]  # the order retarget_action decodes them in
    errors = [None] * len(actions)
    for b in np.flatnonzero(~finite | defect.any(axis=1)):
        if not finite[b]:
            errors[b] = RetargetFailure("action contains non-finite values")
        else:
            errors[b] = DegenerateRotation6D(geometry.ROT6D_DEFECTS[defect[b][defect[b] > 0][0]])
    return (rotations[:, 0], rotations[:, 1], rotations[:, 2]), errors


def retarget_rows(
    actions: np.ndarray,
    config: EmbodimentConfig,
    commands: np.ndarray,
    params: IkParams = IkParams(),
) -> RetargetRows:
    """`retarget_action` for a batch: row b retargets actions[b] (B, 54)
    warm-started at the command vector commands[b] (B, n_cmd).

    Both arms of every row are solved as one `_ik_rows` batch (left rows,
    then right rows); neck and hands run as one batch. A row whose action
    holds non-finite values or a rotation code that does not decode is
    not solved: it keeps its previous command and gets the error
    `retarget_action` raises for it.
    """
    B = len(actions)
    U = unified_space
    (head_R, left_R, right_R), errors = _decode_actions(actions)
    solve = np.array([e is None for e in errors], dtype=bool)
    out = RetargetRows(commands.copy(), np.zeros((B, 2), bool), np.zeros((B, 2)),
                       np.zeros((B, 2)), np.zeros(B, bool), errors)
    if not solve.any():
        return out
    if solve.all():
        solve = slice(None)  # views of every row, not copies
    A = actions[solve]
    S = len(A)
    wrist_R = np.concatenate([left_R[solve], right_R[solve]])
    wrist_t = np.concatenate([A[:, U.LEFT_WRIST_POS], A[:, U.RIGHT_WRIST_POS]])
    q0 = np.concatenate(_split_commands(config, commands[solve])[:2])
    q, pos_err, rot_err, ok = _ik_rows(config.arms, np.repeat([0, 1], S), wrist_R, wrist_t, q0,
                                       params)
    out.pos_err[solve], out.rot_err[solve] = pos_err.reshape(2, S).T, rot_err.reshape(2, S).T
    out.converged[solve] = ok.reshape(2, S).T
    neck_raw = np.stack(neck_angles_from_head_rotation(head_R[solve]), axis=1)
    neck_q = config.neck.clamp(neck_raw)
    # np.isclose(neck_q, neck_raw, atol=1e-12) of finite angles
    close = np.abs(neck_q - neck_raw) <= 1e-12 + 1e-5 * np.abs(neck_raw)
    out.neck_clamped[solve] = ~close.all(axis=1)
    tips = A[:, U.FINGERTIPS].reshape(S, 2, -1, 3).swapaxes(0, 1).reshape(2 * S, -1, 3)
    hands = _hand_actuators(tips, wrist_R, wrist_t, config.hand_model)  # left, then right
    out.commands[solve] = np.concatenate([q[:S], q[S:], neck_q, hands[:S], hands[S:]], axis=1)
    return out


def retarget_action(
    action: np.ndarray,
    config: EmbodimentConfig,
    q_prev: RobotCommand,
    params: IkParams = IkParams(),
) -> tuple[RobotCommand, RetargetDiagnostics]:
    """Convert one unified action into a robot command: `retarget_rows` of
    one row, warm-started at `q_prev`. The wrists go through DLS IK, the
    neck takes the head rotation's yaw/pitch (roll discarded, clamped) and
    the hands the fingertip-distance closure map."""
    action = np.asarray(action, dtype=float)
    if action.shape != (unified_space.STATE_DIM,):
        raise DimensionMismatch(f"action must be (54,), got {action.shape}")
    rows = retarget_rows(action[None], config, command_vector(config, q_prev)[None], params)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    converged = rows.converged[0].tolist()
    limbs = [LimbResult(STATUS_CONVERGED if ok else STATUS_BEST_EFFORT, p, r)
             for ok, p, r in zip(converged, rows.pos_err[0].tolist(), rows.rot_err[0].tolist())]
    clamps = [f"{side}_arm:best_effort" for side, ok in zip(("left", "right"), converged)
              if not ok] + ["neck:limit"] * bool(rows.neck_clamped[0])
    return (RobotCommand.from_vector(config, rows.commands[0]),
            RetargetDiagnostics(*limbs, clamp_events=tuple(clamps)))


def embed_rows(config: EmbodimentConfig, commands: np.ndarray) -> np.ndarray:
    """`embed_robot_state` for a batch of command vectors (B, n_cmd): FK of
    both arms as one batch and of the neck, written as unified 54-vectors
    (B, 54) and checked as `encode_state` checks them."""
    U = unified_space
    B = len(commands)
    left_q, right_q, neck_q, left_hand, right_hand = _split_commands(config, commands)
    # Each arm's arrays broadcast over its rows: R (2, B, 3, 3), t (2, B, 3).
    R, t, _, _ = _fk_frames(config.arms.stack.take(np.s_[:, None]), np.stack([left_q, right_q]))
    head_R = _fk_frames(config.neck.arrays, neck_q)[0]
    out = np.empty((B, U.STATE_DIM))
    out[:, U.HEAD_ROT] = geometry.encode_rot6d(head_R)
    out[:, U.LEFT_WRIST_ROT], out[:, U.RIGHT_WRIST_ROT] = geometry.encode_rot6d(R)
    out[:, U.LEFT_WRIST_POS], out[:, U.RIGHT_WRIST_POS] = t
    tips = fingertip_rows(np.concatenate([left_hand, right_hand]), R.reshape(-1, 3, 3),
                           t.reshape(-1, 3), config.hand_model)
    tips = np.concatenate([tips[:B], tips[B:]], axis=1)
    out[:, U.FINGERTIPS] = tips.reshape(-1, 3 * 2 * U.FINGERS_PER_HAND)
    U.check_state_rows(out)
    return out


def command_vector(config: EmbodimentConfig, cmd: RobotCommand) -> np.ndarray:
    """`cmd.vector()`, once its arms have `config`'s joint counts."""
    for chain, q in ((config.left_arm, cmd.left_arm_q), (config.right_arm, cmd.right_arm_q)):
        _check_q(chain, q)
    return cmd.vector()


def embed_robot_state(
    cmd: RobotCommand, config: EmbodimentConfig
) -> unified_space.UnifiedState:
    """Express a robot command (or joint readings) as a unified state."""
    return unified_space.decode_state(embed_rows(config, command_vector(config, cmd)[None])[0])
