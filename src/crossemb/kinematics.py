"""Embodiment kinematics: FK, Jacobian, damped-least-squares IK, and
retargeting between the unified space and robot joint commands.

Angle units are radians throughout; config files store degrees (see
`embodiments`). Chains and configs are immutable; the IK solver keeps no
state between calls.

The FK, Jacobian and IK core runs on batches: joint vectors are the rows
of a (B, n) array, giving tip rotations (B, 3, 3), tip positions (B, 3),
world joint axes and origins (n, B, 3) and Jacobians (B, 6, n). A
chain's geometry is a set of arrays (`_ChainArrays`), shared by every row
or given per row, so rows on different chains of one joint count (a
config's two arms) run as one batch; per-joint arrays, each axis's
Rodrigues terms k k^T and [k]x among them, are joint-major. Every row
goes through the same floating-point operations as a batch of one on its
own chain, so no result depends on the batch it ran in. A BLAS product
(numpy's float matmul) sums from +0: it holds no -0 and ignores the sign
of zero operands, so FK skips identity origin rotations and the damping
adds lam^2 to the diagonal of J J^T alone, and no bit changes.

IK takes one target per row, at the fixed settings of `IkParams`. Each
trial takes the full DLS step of `ik_solve`, clamped to the limits, and
is kept only if it lowers the error; else the damping grows. `_ik_rows`
first descends every row from its own initial joints as one lockstep
batch, each row with its own damping and joint-limit mask, leaving the
batch when it converges (position and rotation error both within
tolerance) or stalls. The rows that fail then descend from all restart
seeds of their chain as one batch, the seeds of each failed row forming
a group: the first converged seed in seed order wins, else the first
seed of least summed error pos_err + rot_err, as if the seeds were tried
one after another. A descent holds state for its live rows only: leaving
rows write their result out once, and a trial that every row accepts
becomes the state as it is.

A reach test marks the rows that can never converge. Every joint turns
about a point at or past the first joint's origin (the chain's `root`,
fixed by its base frame), and rotations keep lengths, so no tip lies
farther from the root than the sum of the later offsets' lengths (its
`reach`). A row whose target is farther than `reach + pos_tol` from the
root is far. Far rows still descend from every seed, for the best
effort, but each descent stops once an accepted step gains less than
`pos_tol` of summed error, instead of creeping on for up to
`IkParams.max_iters` steps. Rows in reach are untouched by the test, and
far rows never converge, so the test changes no converged result.

`retarget_rows` solves both arms of a batch of unified actions as one
`_ik_rows` batch (invalid rows get the error `retarget_action` raises),
and `embed_rows` hands the FK frames of command vectors
(`RobotCommand.vector`, checked against a config by `command_vector`) and
their `fingertip_rows` to `unified_space.state_rows`. These row functions
are the public API that rollouts, demo generation and capture ingest run
on; `ik_solve`, `retarget_action`, `forward_kinematics` and
`embed_robot_state` are their batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

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
_DAMPING = 0.05  # initial DLS damping factor
# The LAPACK gufunc behind np.linalg.solve for one right-hand side per row.
_solve = _umath_linalg.solve1

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
    """The geometry of the chains a batch's rows run on: per-joint arrays
    joint-major, (n, R, ...), so FK takes joint i as `a[i]`, the others
    (R, ...). R is 1 for a chain's own arrays (they broadcast over any
    rows), K for K chains stacked, or one chain per row."""

    axes: np.ndarray          # (n, R, 3) unit joint axes, joint frame
    kk: np.ndarray            # (n, R, 9) k k^T of each axis k, row-major
    skew: np.ndarray          # (n, R, 9) [k]x of each axis k, row-major
    origin_R: np.ndarray | None  # (n, R, 3, 3) joint origin rotations; None: all identity
    offsets: np.ndarray       # (n + 1, R, 3) joint origin translations, then the tip's
    base_R: np.ndarray        # (R, 3, 3)
    base_t: np.ndarray        # (R, 3)
    tip_R: np.ndarray         # (R, 3, 3)
    lo: np.ndarray            # (R, n) joint limits, radians
    hi: np.ndarray            # (R, n)
    root: np.ndarray          # (R, 3) first joint's origin, fixed by the base frame
    reach: np.ndarray         # (R,) sum of |offsets[1:]|: no tip is farther from root

    def take(self, index) -> "_ChainArrays":
        """The arrays at `index` (rows or a slice) of the rows axis."""
        return _ChainArrays(*(a if a is None else a[:, index] if f < 5 else a[index]
                              for f, a in enumerate(self)))

    def for_rows(self, arm: np.ndarray) -> "_ChainArrays":
        """The arrays of rows on chains `arm` of these K chains: a view of
        one chain's when every row is on it, else one chain per row."""
        if len(arm) == len(self.reach) and (arm == np.arange(len(arm))).all():
            return self  # one row per chain, in order
        k = arm[0]
        return self.take(slice(k, k + 1) if (arm == k).all() else arm)


@dataclass(frozen=True)
class KinematicChain:
    joints: tuple[Joint, ...]
    base_frame: Pose
    tip_offset: Pose
    # The chain's geometry as arrays (R = 1), built once.
    arrays: _ChainArrays = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.joints) < 1:
            raise ValueError("chain needs at least one joint")
        object.__setattr__(self, "joints", tuple(self.joints))
        offsets = np.array([j.origin.translation for j in self.joints]
                           + [self.tip_offset.translation])
        axes = np.array([j.axis for j in self.joints])
        origin_R = np.array([j.origin.rotation for j in self.joints])[:, None]
        base_R, base_t = self.base_frame.rotation, self.base_frame.translation
        # root and reach: see the module docstring.
        arrays = _ChainArrays(
            axes[:, None], (axes[:, :, None] * axes[:, None, :]).reshape(-1, 1, 9),
            geometry.cross_matrices(axes)[:, None],
            None if (origin_R == np.eye(3)).all() else origin_R, offsets[:, None],
            base_R[None], base_t[None], self.tip_offset.rotation[None],
            np.array([[j.limits[0] for j in self.joints]]),
            np.array([[j.limits[1] for j in self.joints]]),
            (base_t + base_R @ offsets[0])[None], geometry.norms(offsets[1:]).sum()[None],
        )
        for a in filter(lambda a: a is not None, arrays):
            a.flags.writeable = False
        object.__setattr__(self, "arrays", arrays)

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @property
    def lower_limits(self) -> np.ndarray:
        return self.arrays.lo[0]

    @property
    def upper_limits(self) -> np.ndarray:
        return self.arrays.hi[0]

    def mid_range(self) -> np.ndarray:
        return 0.5 * (self.lower_limits + self.upper_limits)

    def clamp(self, q: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(q, self.lower_limits), self.upper_limits)


def _check_q(chain: KinematicChain, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (chain.n_joints,):
        raise DimensionMismatch(f"expected {chain.n_joints} joint values, got shape {q.shape}")
    return q


def _fk_frames(chain: _ChainArrays, Q: np.ndarray):
    """Tip poses plus per-joint world axes and origins (for the Jacobian)
    of a batch of joint vectors Q (B, n): R (B, 3, 3), t (B, 3), and
    joint-major axes and origins (n, B, 3). The rows of `chain` (R of its
    arrays, 1 or B) broadcast against Q's rows."""
    B, n = Q.shape
    # Rodrigues per joint: (1 - c) k k^T + s [k]x + c I.
    angle = Q.T[..., None]
    c, s = np.cos(angle), np.sin(angle)
    joint_R = chain.kk * (1.0 - c) + chain.skew * s
    joint_R[..., ::4] += c
    joint_R = joint_R.reshape(joint_R.shape[:-1] + (3, 3))
    # Frames before each joint's origin (and the tip's) and after its origin
    # rotation, each product written in place; identity origin rotations
    # are skipped (see the module docstring).
    before = np.empty((n + 1, B, 3, 3))
    before[0] = chain.base_R
    after = before[:n] if chain.origin_R is None else np.empty((n, B, 3, 3))
    for i in range(n):
        if chain.origin_R is not None:
            np.matmul(before[i], chain.origin_R[i], out=after[i])
        np.matmul(after[i], joint_R[i], out=before[i + 1])
    # Positions sum the rotated offsets from the base one joint at a time.
    steps = np.empty((n + 2, B, 3))
    steps[0] = chain.base_t
    steps[1:] = (before @ chain.offsets[..., None])[..., 0]
    t = np.cumsum(steps, axis=0)
    return before[n] @ chain.tip_R, t[-1], (after @ chain.axes[..., None])[..., 0], t[1:-1]


def _jacobians(t, axes, origins):
    """Geometric Jacobians (B, 6, n) of tips t (B, 3) and joint-major axes
    and origins (n, B, 3); C-contiguous, since `J @ J.T` on a transposed
    view takes another BLAS path, drifting in the last bits."""
    linear = geometry.cross(axes, t - origins)
    return np.ascontiguousarray(np.concatenate([linear, axes], axis=2).transpose(1, 2, 0))


def forward_kinematics(chain: KinematicChain, q: np.ndarray) -> Pose:
    """Compose base frame, per-joint rotations about their axes, tip offset."""
    q = _check_q(chain, q)
    R, t, _, _ = _fk_frames(chain.arrays, q[None])
    return Pose(R[0], t[0])


class IkParams:
    """The IK's fixed settings, read by the solver as class attributes. The
    benchmark's retarget check reads `IkParams().pos_tol` and `.rot_tol`."""

    max_iters = 100           # descent steps per attempt
    pos_tol = 1e-3            # meters
    rot_tol = np.deg2rad(0.5) # radians
    restarts = 30             # deterministic extra seeds on failure


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


def _pose_errors(R, t, target_R, target_t):
    """Per-row position and rotation error norms of a (B,) batch of poses
    against per-row targets, and the stacked errors [e_pos, e_rot] (B, 6)."""
    e_pos = target_t - t
    e_rot = geometry.rotation_log(target_R @ R.transpose(0, 2, 1))
    e = np.concatenate([e_pos, e_rot], axis=1)
    return geometry.norms(e_pos), geometry.norms(e_rot), e


def _dls_attempts(chains, arm, far, target_R, target_t, size, Q0):
    """Damped-least-squares descents from the rows of Q0 (B, n), in lockstep,
    row b on the chain of index arm[b] in `chains` towards its own target
    (target_R[b], target_t[b]), each on its own state. A row's damping
    factor adapts per step (halved on improvement, grown fivefold per
    rejected trial, at most 6 trials per step) to ride out near-singular
    configurations; columns of joints pinned at a limit and pushed further
    out are masked so clamping cannot stall the descent. A row leaves when
    it converges, when all 6 trials are rejected, or, marked `far` (B,),
    once an accepted step gains less than `pos_tol`.

    Rows come in groups of `size` consecutive rows, seeds in order of
    preference: a group's result is its first converged row, else its
    first row of least pos_err + rot_err, and rows after a converged
    row of their group are dropped. Returns q (G, n), pos_err, rot_err
    and converged (G,).
    """
    B = len(Q0)
    chain = chains.for_rows(arm)
    Q = np.minimum(np.maximum(Q0, chain.lo), chain.hi)
    R, t, axes, origins = _fk_frames(chain, Q)
    pos_err, rot_err, e = _pose_errors(R, t, target_R, target_t)
    err, lam, idx = pos_err + rot_err, np.full(B, _DAMPING), np.arange(B)
    far = far if far.any() else None
    first_ok = np.full(B // size, B)  # per group; B: none converged yet
    results = np.empty_like(Q0), np.empty(B), np.empty(B)  # q, pos_err, rot_err per row
    out = None  # live rows that stopped: every trial rejected, or stalled
    for step in range(IkParams.max_iters + 1):  # a convergence test follows the last step
        done = (pos_err <= IkParams.pos_tol) & (rot_err <= IkParams.rot_tol)
        if done.any():
            np.minimum.at(first_ok, idx[done] // size, idx[done])
            gone = idx >= first_ok[idx // size]
            out = gone if out is None else out | gone
        if out is not None and out.any():
            if out.all():
                break
            for r, a in zip(results, (Q, pos_err, rot_err)):
                r[idx[out]] = a[out]
            keep = ~out
            idx, arm, Q, t, e, pos_err, rot_err, err, target_R, target_t = (
                a[keep] for a in (idx, arm, Q, t, e, pos_err, rot_err, err, target_R, target_t))
            axes, origins, lam = axes[:, keep], origins[:, keep], lam[keep]
            far = None if far is None else far[keep]
            chain = chains.for_rows(arm)
        if step == IkParams.max_iters:
            break
        J = _jacobians(t, axes, origins)
        at_lo, at_hi = Q <= chain.lo + 1e-12, Q >= chain.hi - 1e-12
        if (at_lo | at_hi).any():
            grad = np.vecmat(e, J)
            J = J * ~((at_lo & (grad < 0)) | (at_hi & (grad > 0)))[:, None, :]
        out = None if far is None else np.zeros(len(idx), dtype=bool)  # stalled rows, so far
        # The trial's rows (live positions with no step accepted; None: all), their state.
        rows, tc, tq, te, tlam, terr, tR, tt = None, chain, Q, e, lam, err, target_R, target_t
        for _trial in range(6):
            A = J @ J.transpose(0, 2, 1)
            A.reshape(-1, 36)[:, ::7] += (tlam * tlam)[:, None]  # + lam^2 I; see module docstring
            x = _solve(A, te)  # np.linalg.solve without its checks: A is positive definite
            q_new = np.minimum(np.maximum(tq + np.vecmat(x, J), tc.lo), tc.hi)
            R2, t2, axes2, origins2 = _fk_frames(tc, q_new)
            pos2, rot2, e2 = _pose_errors(R2, t2, tR, tt)
            err2 = pos2 + rot2
            acc = err2 < terr
            slow = None if far is None else terr - err2 < IkParams.pos_tol
            if rows is None and acc.all():  # every row steps: take the trial's state
                Q, t, axes, origins, e = q_new, t2, axes2, origins2, e2
                pos_err, rot_err, err = pos2, rot2, err2
                lam, rows = np.maximum(lam * 0.5, 1e-5), idx[:0]
                out = None if far is None else far & slow
                break
            rows = np.arange(len(idx)) if rows is None else rows
            if acc.any():
                up = rows[acc]
                for a, a2 in ((Q, q_new), (t, t2), (e, e2), (pos_err, pos2), (rot_err, rot2),
                              (err, err2)):
                    a[up] = a2[acc]
                axes[:, up], origins[:, up] = axes2[:, acc], origins2[:, acc]
                lam[up] = np.maximum(tlam[acc] * 0.5, 1e-5)
                if far is not None:
                    out[up] = far[up] & slow[acc]
                rows, J, tlam = rows[~acc], J[~acc], tlam[~acc]
                if not rows.size:
                    break
                tc = chains.for_rows(arm[rows])
                tq, te, terr, tR, tt = Q[rows], e[rows], err[rows], target_R[rows], target_t[rows]
            tlam = tlam * 5.0
            lam[rows] = tlam
        if rows.size:  # these rows had all 6 trials rejected
            out = np.zeros(len(idx), dtype=bool) if out is None else out
            out[rows] = True
    for r, a in zip(results, (Q, pos_err, rot_err)):
        r[idx] = a
    q, pos_err, rot_err = results
    converged, best = first_ok < B, first_ok
    if not converged.all():
        # Per group with none converged, its first row of least error.
        least = np.argmin((pos_err + rot_err).reshape(-1, size), axis=1)
        best = np.where(converged, first_ok, least + np.arange(0, B, size))
    return q[best], pos_err[best], rot_err[best], converged


def _far_rows(stack: _ChainArrays, arm, target_t) -> np.ndarray:
    """Whether each row's target lies farther than its chain's reach plus
    `pos_tol` from its root, so that the row can never converge."""
    return geometry.norms(target_t - stack.root[arm]) > stack.reach[arm] + IkParams.pos_tol


def _ik_rows(chains, arm, target_R, target_t, Q_init):
    """IK for B rows at once, row b on the chain of index arm[b] in
    `chains` from Q_init[b] towards its own target: each row's result
    equals `ik_solve` of that row alone on its chain (see the module
    docstring). Returns q (B, n), pos_err, rot_err and converged (B,).
    """
    far = _far_rows(chains, arm, target_t)
    q, pos_err, rot_err, ok = _dls_attempts(chains, arm, far, target_R, target_t, 1, Q_init)
    restarts = IkParams.restarts
    if restarts > 0 and not ok.all():
        failed = np.flatnonzero(~ok)
        lo, hi = chains.lo[:, None], chains.hi[:, None]
        rng = np.random.Generator(np.random.PCG64(seed=0x1B5))
        u = rng.random((restarts - 1, lo.shape[-1]))
        # Per chain (K, restarts, n): mid-range, then the seeded draws.
        seeds = np.concatenate([0.5 * (lo + hi), lo + u * (hi - lo)], axis=1)
        rows = np.repeat(failed, restarts)
        rq, rpos, rrot, rok = _dls_attempts(
            chains, arm[rows], far[rows], target_R[rows], target_t[rows], restarts,
            seeds[arm[failed]].reshape(-1, lo.shape[-1]))
        # Attempt 0 keeps ties: the seeds are tried after it.
        better = rok | (rpos + rrot < pos_err[failed] + rot_err[failed])
        up = failed[better]
        q[up], pos_err[up], rot_err[up] = rq[better], rpos[better], rrot[better]
        ok[up] = rok[better]
    return q, pos_err, rot_err, ok


def ik_solve(chain: KinematicChain, target: Pose, q_init: np.ndarray) -> IkSolution:
    """Damped-least-squares IK on position and rotation at the `IkParams`
    settings: dq = J^T (J J^T + damping^2 I)^-1 e.

    The first attempt starts at `q_init` (RetargetFailure if not finite);
    on failure seeded in-limit restarts run as one lockstep batch, so
    results are deterministic and equal to trying the seeds one after
    another. The returned joints are always clamped within limits; status
    is `converged` (both tolerances met) or `best_effort` (closest local
    solution found). A target farther from the chain's first joint than
    its reach plus `pos_tol` is always `best_effort`; its descents stop
    once a step gains less than `pos_tol` (see the module docstring).
    """
    q_init = _check_q(chain, q_init)
    if not (np.isfinite(target.rotation).all() and np.isfinite(target.translation).all()):
        raise NonFiniteTarget("IK target contains non-finite values")
    if not np.isfinite(q_init).all():
        raise RetargetFailure("IK initial joints contain non-finite values")
    q, pos_err, rot_err, ok = _ik_rows(
        chain.arrays, np.zeros(1, dtype=int),
        target.rotation[None], target.translation[None], q_init[None],
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
        if np.any(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) > 1e-9):
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
        for name, a in (("fingertip_extent", ext), ("finger_dirs", dirs), ("palm_normal", normal)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "thumb_rot_range", (float(lo), float(hi)))


@dataclass(frozen=True)
class EmbodimentConfig:
    name: str
    left_arm: KinematicChain
    right_arm: KinematicChain
    neck: KinematicChain
    hand_model: HandModel
    canonical_frame_offset: float = 0.60  # meters, head-to-torso drop
    # Both arms' arrays, left then right (R = 2).
    arms: _ChainArrays = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_left, n_right = self.left_arm.n_joints, self.right_arm.n_joints
        if n_left not in (5, 7) or n_right != n_left:
            raise ValueError(f"arms must have 5 or 7 joints each, as many on both sides; "
                             f"got {n_left} and {n_right}")
        if self.neck.n_joints != 2:
            raise ValueError(f"neck must have exactly 2 joints, got {self.neck.n_joints}")
        if not math.isfinite(self.canonical_frame_offset):
            raise ValueError(f"canonical_frame_offset must be finite, "
                             f"got {self.canonical_frame_offset!r}")
        # Retargeting reads the neck back with `neck_angles_from_head_rotation`.
        neck, eye = self.neck.arrays, np.eye(3)
        if not (np.array_equal(neck.axes[:, 0], eye[[2, 1]]) and neck.origin_R is None
                and (neck.base_R == eye).all() and (neck.tip_R == eye).all()
                and -np.pi / 2 < neck.lo[0, 1] and neck.hi[0, 1] < np.pi / 2):
            raise ValueError("neck must turn about z, then y, with identity base, origin and "
                             "tip rotations and pitch limits inside (-90, 90) degrees")
        # Stacked on the rows axis; identity origins spelt out unless on both arms.
        own = [arm.arrays for arm in (self.left_arm, self.right_arm)]
        if (own[0].origin_R is None) != (own[1].origin_R is None):
            own = [a._replace(origin_R=np.broadcast_to(np.eye(3), (len(a.axes), 1, 3, 3)))
                   if a.origin_R is None else a for a in own]
        arms = _ChainArrays(*(a[0] if a[0] is None else np.concatenate(a, axis=int(f < 5))
                              for f, a in enumerate(zip(*own))))
        for a in filter(lambda a: a is not None, arms):
            a.flags.writeable = False
        object.__setattr__(self, "arms", arms)


_COMMAND_PARTS = ("left_arm_q", "right_arm_q", "neck_q", "left_hand", "right_hand")


def hands_outside(values: np.ndarray) -> np.ndarray:
    """Which hand actuator values lie outside [0, 1] by more than 1e-12 (NaN does not)."""
    return (values < -1e-12) | (values > 1.0 + 1e-12)


@dataclass(frozen=True, eq=False)
class RobotCommand:
    """Joint-space command: arms, 2-DoF neck, two 6-actuator hands, each a
    read-only view of one flat command vector (see `vector`). Compared by
    identity; compare `vector()`s for equal values."""

    left_arm_q: np.ndarray
    right_arm_q: np.ndarray
    neck_q: np.ndarray    # (2,) yaw, pitch radians
    left_hand: np.ndarray  # (6,) in [0, 1]
    right_hand: np.ndarray # (6,) in [0, 1]
    _vector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        parts = [np.asarray(getattr(self, name), dtype=float) for name in _COMMAND_PARTS]
        for name, part, size in zip(_COMMAND_PARTS, parts, (None, None, 2, 6, 6)):
            if part.ndim != 1 or part.shape != (size or len(part),):
                raise DimensionMismatch(f"{name} must have shape ({size or 'n'},)")
        self._adopt(np.concatenate(parts), len(parts[0]), len(parts[1]))

    def _adopt(self, vec: np.ndarray, a: int, b: int) -> None:
        """Freeze `vec` (fresh; arms of a and b joints) and make the parts its views."""
        vec.flags.writeable = False
        b, c = a + b, a + b + 2
        for name, part in zip(_COMMAND_PARTS + ("_vector",),
                              (vec[:a], vec[a:b], vec[b:c], vec[c:c + 6], vec[c + 6:], vec)):
            object.__setattr__(self, name, part)
        bad = hands_outside(vec[c:])
        if bad.any():
            raise ValueError(f"{_COMMAND_PARTS[4 - bad[:6].any()]} values must lie in [0, 1]")

    def vector(self) -> np.ndarray:
        """Flat command vector: left arm, right arm, neck, left hand, right hand."""
        return self._vector.copy()

    @staticmethod
    def from_vector(config: EmbodimentConfig, vec: np.ndarray) -> "RobotCommand":
        """Inverse of `vector` for `config`'s arm sizes."""
        vec, a, b = np.array(vec, dtype=float), config.left_arm.n_joints, config.right_arm.n_joints
        if vec.shape != (a + b + 2 + 2 * HAND_ACTUATOR_COUNT,):
            raise DimensionMismatch(f"command vector must have shape ({a + b + 14},)")
        cmd = object.__new__(RobotCommand)
        cmd._adopt(vec, a, b)
        return cmd

    def validate_limits(self, config: EmbodimentConfig) -> list[str]:
        """Names of joints outside their configured limits; a NaN joint is outside."""
        return [f"{label}.{joint.name}" for label, q in (
                    ("left_arm", self.left_arm_q), ("right_arm", self.right_arm_q),
                    ("neck", self.neck_q))
                for joint, value in zip(getattr(config, label).joints, q)
                if not joint.limits[0] - 1e-9 <= value <= joint.limits[1] + 1e-9]


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
    closure = 1.0 - np.minimum(dist / hand_model.fingertip_extent, 1.0)  # dist >= +0

    # Thumb rotation from the wrist-frame tip direction.
    local = (wrist_R.transpose(0, 2, 1) @ d[:, 0, :, None])[..., 0]
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


def retarget_rows(
    actions: np.ndarray, config: EmbodimentConfig, commands: np.ndarray
) -> RetargetRows:
    """`retarget_action` for a batch: row b retargets actions[b] (B, 54)
    warm-started at the command vector commands[b] (B, n_cmd).

    Both arms of every row are solved as one `_ik_rows` batch of arm rows,
    row b's left then right arm; neck and hands run as one batch. A row
    whose action or warm-start arm joints hold non-finite values, or whose
    rotation code does not decode, keeps its previous command and gets the
    error `retarget_action` raises for it, in that order of checks.
    """
    U = unified_space
    S, n = len(actions), config.left_arm.n_joints
    rotations, defect = geometry.decode_rot6d_rows(U.rotation_codes(actions))
    warm = commands[:, :2 * n]
    # A finite sum has finite terms; an overflowing one is checked row by row.
    if not (math.isfinite(np.add.reduce(actions, axis=None) + np.add.reduce(warm, axis=None))
            and not defect.any()):
        finite, finite_warm = np.isfinite(actions).all(axis=1), np.isfinite(warm).all(axis=1)
        d = defect[:, [1, 2, 0]]  # the order retarget_action decodes them in
        solve, errors = finite & finite_warm & ~d.any(axis=1), [None] * S
        for b in np.flatnonzero(~solve):
            errors[b] = (RetargetFailure("action contains non-finite values") if not finite[b]
                         else RetargetFailure("warm-start arm joints contain non-finite values")
                         if not finite_warm[b]
                         else DegenerateRotation6D(geometry.ROT6D_DEFECTS[d[b][d[b] > 0][0]]))
        out = RetargetRows(commands.copy(), np.zeros((S, 2), bool), np.zeros((S, 2)),
                           np.zeros((S, 2)), np.zeros(S, bool), errors)
        if solve.any():
            rows = retarget_rows(actions[solve], config, commands[solve])
            for got, part in zip(out[:5], rows):
                got[solve] = part
        return out
    wrist_R = rotations[:, 1:].reshape(2 * S, 3, 3)
    wrist_t = actions[:, U.EEF].reshape(2 * S, 3)
    q, pos_err, rot_err, ok = _ik_rows(config.arms, np.tile([0, 1], S), wrist_R, wrist_t,
                                       warm.reshape(2 * S, n))
    neck_raw = np.empty((S, 2))
    neck_raw[:, 0], neck_raw[:, 1] = neck_angles_from_head_rotation(rotations[:, 0])
    neck_q = config.neck.clamp(neck_raw)
    moved = neck_q != neck_raw
    if moved.any():
        # np.isclose(neck_q, neck_raw, atol=1e-12) of finite angles
        moved = np.abs(neck_q - neck_raw) > 1e-12 + 1e-5 * np.abs(neck_raw)
    tips = actions[:, U.FINGERTIPS].reshape(2 * S, U.FINGERS_PER_HAND, 3)
    hands = _hand_actuators(tips, wrist_R, wrist_t, config.hand_model)
    return RetargetRows(np.concatenate([q.reshape(S, 2 * n), neck_q,
                                        hands.reshape(S, 2 * HAND_ACTUATOR_COUNT)], axis=1),
                        ok.reshape(S, 2), pos_err.reshape(S, 2), rot_err.reshape(S, 2),
                        moved.any(axis=1), [None] * S)


def retarget_action(
    action: np.ndarray, config: EmbodimentConfig, q_prev: RobotCommand
) -> tuple[RobotCommand, RetargetDiagnostics]:
    """Convert one unified action into a robot command: `retarget_rows` of
    one row, warm-started at `q_prev`. The wrist poses go through
    `ik_solve`'s DLS IK, the neck takes the head rotation's yaw/pitch
    (roll discarded, clamped) and the hands the fingertip-distance closure
    map."""
    action = np.asarray(action, dtype=float)
    if action.shape != (unified_space.STATE_DIM,):
        raise DimensionMismatch(f"action must be (54,), got {action.shape}")
    rows = retarget_rows(action[None], config, command_vector(config, q_prev)[None])
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
    both arms as one batch and of the neck, as `unified_space.state_rows`."""
    B = len(commands)
    n = config.left_arm.n_joints
    # Arm row 2b is row b's left arm, 2b + 1 its right arm: R (2B, 3, 3), t (2B, 3).
    R, t, _, _ = _fk_frames(config.arms.take(np.tile([0, 1], B)),
                            commands[:, :2 * n].reshape(2 * B, n))
    head_R = _fk_frames(config.neck.arrays, commands[:, 2 * n:2 * n + 2])[0]
    hands = commands[:, 2 * n + 2:].reshape(2 * B, HAND_ACTUATOR_COUNT)
    tips = fingertip_rows(hands, R, t, config.hand_model)
    codes, pos = geometry.encode_rot6d(R).reshape(B, 2, 6), t.reshape(B, 2, 3)
    return unified_space.state_rows(geometry.encode_rot6d(head_R), codes[:, 0], codes[:, 1],
                                    pos[:, 0], pos[:, 1],
                                    tips.reshape(B, 2 * unified_space.FINGERS_PER_HAND, 3))


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
