"""Rotation and pose algebra used by every other module.

Conventions:
  - rotation matrices are 3x3 float64 arrays, right-handed, det +1
  - quaternions are length-4 arrays (w, x, y, z), unit norm, canonical
    sign w >= 0 (q and -q name the same rotation)
  - the 6D rotation code stacks the first two *columns* of the rotation
    matrix, column-major: r = (c1x, c1y, c1z, c2x, c2y, c2z)

All functions are pure; arrays held by `Pose` are copied and frozen on
construction, so values are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRotation6D

# Columns closer than this angle (radians) cannot span a frame.
PARALLEL_ANGLE_TOL = 1e-6
# Below this arc angle slerp falls back to normalized lerp.
SLERP_LERP_THRESHOLD = 1e-6


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, bit-equal to `np.linalg.norm`
    of each 1-D row (`np.linalg.norm(v, axis=-1)` sums in another order)."""
    return np.sqrt(np.vecdot(v, v))


# Cyclic shifts of the last axis: (a x b)_k = a_{k+1} b_{k+2} - a_{k+2} b_{k+1}.
_NEXT = np.array([1, 2, 0])
_AFTER_NEXT = np.array([2, 0, 1])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products over the last axis, bit-equal to `np.cross`, without
    its per-call overhead."""
    return (a.take(_NEXT, axis=-1) * b.take(_AFTER_NEXT, axis=-1)
            - a.take(_AFTER_NEXT, axis=-1) * b.take(_NEXT, axis=-1))


# Why a 6D code cannot be decoded, indexed by the defect number that
# `decode_rot6d_rows` reports (0: it decodes).
ROT6D_DEFECTS = (
    "",
    "6D code contains non-finite values",
    "6D column norm below 1e-9",
    "6D columns parallel within 1e-6 rad",
)


def decode_rot6d_rows(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt decode of a stack of 6D codes (..., 6), code by code.

    Returns the rotations (..., 3, 3) and, per code, the number of the
    first validity test it fails, in the order `decode_rot6d` applies them
    (0: none, else an index into `ROT6D_DEFECTS`); `defect == 0` masks the
    codes that decode. Rotations of defective codes are meaningless.
    """
    r = np.asarray(r, dtype=float)
    a, b = r[..., :3], r[..., 3:]
    with np.errstate(all="ignore"):  # defective codes divide by 0 or inf
        na = norms(a)
        nb = norms(b)
        c1 = a / na[..., None]
        b_orth = b - np.vecdot(b, c1)[..., None] * c1
        nbo = norms(b_orth)
        # sin(angle between a and b) = |b_orth| / |b|
        parallel = nbo / nb < PARALLEL_ANGLE_TOL
        c2 = b_orth / nbo[..., None]
        R = np.empty(r.shape[:-1] + (3, 3))
        R[..., 0], R[..., 1], R[..., 2] = c1, c2, cross(c1, c2)
    defect = np.where(
        ~np.isfinite(r).all(axis=-1), 1,
        np.where((na < 1e-9) | (nb < 1e-9), 2, np.where(parallel, 3, 0)),
    )
    return R, defect


def decode_rot6d(r: np.ndarray) -> np.ndarray:
    """Decode a 6D rotation code into a rotation matrix via Gram-Schmidt.

    Column 1 is the normalized first 3-vector, column 2 the second
    3-vector orthogonalized against it, column 3 their cross product.
    A stack of codes (..., 6) decodes to (..., 3, 3); any degenerate row
    raises, with the first test in `ROT6D_DEFECTS` order that any row fails.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim == 0 or r.shape[-1] != 6:
        raise DegenerateRotation6D(f"expected 6 values, got shape {r.shape}")
    R, defect = decode_rot6d_rows(r)
    if defect.any():
        raise DegenerateRotation6D(ROT6D_DEFECTS[defect[defect > 0].min()])
    return R


def encode_rot6d(R: np.ndarray) -> np.ndarray:
    """Return the first two columns of R, stacked column-major; a stack
    (..., 3, 3) encodes to (..., 6)."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {R.shape}")
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Normalize to unit length and enforce the canonical sign w >= 0; a
    stack (..., 4) normalizes row by row and raises if any row is degenerate."""
    q = np.ascontiguousarray(q, dtype=float)  # `norms` of strided rows may sum in another order
    if q.ndim == 0 or q.shape[-1] != 4:
        raise ValueError(f"quaternion must have 4 components, got {q.shape}")
    if np.any(degenerate_quats(q)):
        raise ValueError("quaternion norm is degenerate")
    q = q / norms(q)[..., None]
    return np.where(q[..., :1] < 0.0, -q, q)


def degenerate_quats(q: np.ndarray) -> np.ndarray:
    """Which quaternions of a stack (..., 4) `quat_normalize` refuses: those
    whose norm is below 1e-12 or not finite."""
    n = norms(q)
    return (n < 1e-12) | ~np.isfinite(n)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion; a stack (..., 4) gives (..., 3, 3)."""
    q = quat_normalize(q)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    R = np.stack(
        [
            1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy),
            2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx),
            2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy),
        ],
        axis=-1,
    )
    return R.reshape(q.shape[:-1] + (3, 3))


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Shepperd's method; output is canonicalized (w >= 0). A stack
    (..., 3, 3) gives (..., 4), each row taking its own branch."""
    R = np.asarray(R, dtype=float)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.moveaxis(R, (-2, -1), (0, 1))
    tr = r00 + r11 + r22
    with np.errstate(all="ignore"):  # branches a row does not take may divide by 0
        s = np.sqrt(tr + 1.0) * 2.0
        q0 = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
        s = np.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q1 = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
        s = np.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q2 = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
        s = np.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q3 = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    q = np.select([tr > 0.0, (r00 > r11) & (r00 > r22), r11 > r22], [q0, q1, q2], q3)
    return quat_normalize(np.moveaxis(q, 0, -1))


def slerp(q0: np.ndarray, q1: np.ndarray, t) -> np.ndarray:
    """Shortest-arc spherical interpolation; angle from q0 is linear in t.

    Broadcasts: quaternions (..., 4) and fractions t (...) give (..., 4).
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError(f"t must be in [0, 1], got {t}")
    t = t[..., None]
    q0 = quat_normalize(q0)
    q1 = quat_normalize(q1)
    dot = np.vecdot(q0, q1)[..., None]
    q1 = np.where(dot < 0.0, -q1, q1)
    dot = np.minimum(np.abs(dot), 1.0)
    half_angle = np.arctan2(np.sqrt(np.maximum(0.0, 1.0 - dot * dot)), dot)
    with np.errstate(all="ignore"):  # 0 / 0 on the rows that lerp
        s = np.sin(half_angle)
        arc = (np.sin((1.0 - t) * half_angle) * q0 + np.sin(t * half_angle) * q1) / s
    lerp = 2.0 * half_angle < SLERP_LERP_THRESHOLD
    return quat_normalize(np.where(lerp, (1.0 - t) * q0 + t * q1, arc))


# [k]x of a unit axis k, flattened row-major: the component of k in each
# entry and its sign (0 on the diagonal).
_SKEW_COMPONENT = np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
_SKEW_SIGN = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])


def cross_matrices(axis: np.ndarray) -> np.ndarray:
    """[k]x of each vector k of a stack (..., 3), flattened row-major (..., 9)."""
    return axis[..., _SKEW_COMPONENT] * _SKEW_SIGN


def rotation_about_axis(axis: np.ndarray, angle) -> np.ndarray:
    """Rodrigues rotation about a unit axis: (1 - c) k k^T + s [k]x + c I.

    Broadcasts: axes (..., 3) and angles (...) give rotations (..., 3, 3).
    """
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)[..., None]
    c, s = np.cos(angle), np.sin(angle)
    kk = (axis[..., :, None] * axis[..., None, :]).reshape(axis.shape[:-1] + (9,))
    R = kk * (1.0 - c) + (axis * s)[..., _SKEW_COMPONENT] * _SKEW_SIGN
    R[..., ::4] += c
    return R.reshape(R.shape[:-1] + (3, 3))


# Flat (row-major) indices of R21, R02, R10 and of R12, R20, R01: the
# differences are the rotation axis times 2 sin(angle).
_ANTISYM_PLUS = np.array([7, 2, 3])
_ANTISYM_MINUS = np.array([5, 6, 1])


def rotation_log(R: np.ndarray) -> np.ndarray:
    """Axis-angle vector (axis * angle) of a rotation matrix; a stack
    (..., 3, 3) gives (..., 3)."""
    R = np.asarray(R, dtype=float)
    trace = R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2]
    cos_theta = np.minimum(np.maximum((trace - 1.0) * 0.5, -1.0), 1.0)
    theta = np.arccos(cos_theta)
    flat = R.reshape(R.shape[:-2] + (9,))
    w = flat.take(_ANTISYM_PLUS, axis=-1) - flat.take(_ANTISYM_MINUS, axis=-1)
    small, near_pi = theta < 1e-9, theta > np.pi - 1e-6
    if not (small | near_pi).any():
        return w * (theta / (2.0 * np.sin(theta)))[..., None]
    with np.errstate(invalid="ignore"):  # 0 / 0 at theta == 0, zeroed below
        out = w * (theta / (2.0 * np.sin(theta)))[..., None]
    out[small] = 0.0
    for idx in map(tuple, np.argwhere(near_pi)):
        # Near pi the antisymmetric part vanishes; recover the axis from
        # the symmetric part R + I = 2 aa^T (choose largest diagonal).
        A = (R[idx] + np.eye(3)) * 0.5
        i = int(np.argmax(np.diag(A)))
        axis = A[:, i] / np.sqrt(max(A[i, i], 1e-18))
        axis /= np.linalg.norm(axis)
        # Fix the sign using the antisymmetric residue when available.
        if w[idx] @ axis < 0:
            axis = -axis
        out[idx] = axis * theta[idx]
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (3x3) plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {t.shape}")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise ValueError("pose contains non-finite values")
        object.__setattr__(self, "rotation", _freeze(R))
        object.__setattr__(self, "translation", _freeze(t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_translation(t: np.ndarray) -> "Pose":
        return Pose(np.eye(3), t)

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a row-stack of points (N, 3)."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

