import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossemb import geometry
from crossemb.errors import DegenerateRotation6D
from crossemb.geometry import Pose


# --- independent oracles -------------------------------------------------

def quat_rotation_angle(q0: np.ndarray, q1: np.ndarray) -> float:
    """Rotation angle (radians, in [0, pi]) carrying q0 onto q1."""
    q0, q1 = np.asarray(q0, dtype=float), np.asarray(q1, dtype=float)
    # conj(q0) q1 has scalar part q0 . q1 and vector part w0 v1 - w1 v0 - v0 x v1
    v = q0[0] * q1[1:] - q1[0] * q0[1:] - np.cross(q0[1:], q1[1:])
    # atan2 form stays accurate for tiny angles where acos loses digits
    return 2.0 * np.arctan2(np.linalg.norm(v), abs(q0 @ q1))


def gram_schmidt_oracle(a, b):
    """Straight-line Gram-Schmidt on the two stacked columns."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c1 = a / np.sqrt(a @ a)
    b2 = b - (b @ c1) * c1
    c2 = b2 / np.sqrt(b2 @ b2)
    c3 = np.array(
        [
            c1[1] * c2[2] - c1[2] * c2[1],
            c1[2] * c2[0] - c1[0] * c2[2],
            c1[0] * c2[1] - c1[1] * c2[0],
        ]
    )
    return np.stack([c1, c2, c3], axis=1)


def random_rotation_oracle(rng):
    """Uniform random rotation from a normalized Gaussian quaternion,
    converted by the textbook formula (independent of the library path)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def axis_angle_quat(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.array([np.cos(angle / 2), *(np.sin(angle / 2) * axis)])


# --- 6D codec ------------------------------------------------------------

def test_decode_identity():
    R = geometry.decode_rot6d(np.array([1, 0, 0, 0, 1, 0], dtype=float))
    np.testing.assert_allclose(R, np.eye(3), atol=1e-12)


def test_decode_scale_invariance():
    R = geometry.decode_rot6d(np.array([2, 0, 0, 0, 3, 0], dtype=float))
    np.testing.assert_allclose(R, np.eye(3), atol=1e-12)


def test_decode_oblique_matches_gram_schmidt_oracle():
    r = np.array([1, 1, 0, 0, 1, 0], dtype=float)
    expected = gram_schmidt_oracle(r[:3], r[3:])
    np.testing.assert_allclose(geometry.decode_rot6d(r), expected, atol=1e-12)
    # frozen oracle output for this input
    s = np.sqrt(0.5)
    np.testing.assert_allclose(
        expected,
        np.array([[s, -s, 0.0], [s, s, 0.0], [0.0, 0.0, 1.0]]),
        atol=1e-12,
    )


def test_encode_identity_and_90z():
    np.testing.assert_allclose(
        geometry.encode_rot6d(np.eye(3)), [1, 0, 0, 0, 1, 0], atol=1e-12
    )
    Rz = geometry.rotation_about_axis(np.array([0.0, 0, 1]), np.pi / 2)
    np.testing.assert_allclose(geometry.encode_rot6d(Rz), [0, 1, 0, -1, 0, 0], atol=1e-12)


def test_roundtrip_random_rotations():
    rng = np.random.default_rng(7)
    for _ in range(500):
        R = random_rotation_oracle(rng)
        R2 = geometry.decode_rot6d(geometry.encode_rot6d(R))
        assert np.max(np.abs(R2 - R)) <= 1e-9
        assert abs(np.linalg.det(R2) - 1.0) <= 1e-9
        assert np.max(np.abs(R2.T @ R2 - np.eye(3))) <= 1e-9


def test_decode_rejects_degenerate():
    with pytest.raises(DegenerateRotation6D):
        geometry.decode_rot6d(np.array([0, 0, 0, 0, 1, 0], dtype=float))
    with pytest.raises(DegenerateRotation6D):
        geometry.decode_rot6d(np.array([1, 0, 0, 2, 0, 0], dtype=float))
    with pytest.raises(DegenerateRotation6D):
        geometry.decode_rot6d(np.array([1, 0, 0, np.nan, 1, 0]))


def test_codecs_and_pose_refuse_wrong_shapes():
    for r in (np.float64(1.0), np.zeros(5), np.zeros((2, 7))):
        with pytest.raises(DegenerateRotation6D, match="expected 6 values"):
            geometry.decode_rot6d(r)
    for R in (np.eye(2), np.zeros((4, 3, 2))):
        with pytest.raises(ValueError, match="rotation matrix must be 3x3"):
            geometry.encode_rot6d(R)
    with pytest.raises(ValueError, match="rotation must be 3x3"):
        Pose(np.eye(4), np.zeros(3))
    with pytest.raises(ValueError, match="translation must be a 3-vector"):
        Pose(np.eye(3), np.zeros(2))


def decode_rot6d_reference(r):
    """The one-code decoder the batched one replaced, operation for operation."""
    a, b = r[:3], r[3:]
    c1 = a / np.linalg.norm(a)
    b_orth = b - (b @ c1) * c1
    c2 = b_orth / np.linalg.norm(b_orth)
    return np.stack([c1, c2, np.cross(c1, c2)], axis=1)


def rodrigues_reference(axis, angle):
    """The per-entry Rodrigues formula, one axis and one angle at a time."""
    kx, ky, kz = axis
    c, s = np.cos(angle), np.sin(angle)
    v = 1.0 - c
    return np.array(
        [
            [c + kx * kx * v, kx * ky * v - kz * s, kx * kz * v + ky * s],
            [ky * kx * v + kz * s, c + ky * ky * v, ky * kz * v - kx * s],
            [kz * kx * v - ky * s, kz * ky * v + kx * s, c + kz * kz * v],
        ]
    )


def rotation_log_reference(R):
    """The one-matrix rotation log the batched one replaced."""
    theta = np.arccos(np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0))
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < 1e-9:
        return np.zeros(3)
    if theta > np.pi - 1e-6:
        A = (R + np.eye(3)) * 0.5
        i = int(np.argmax(np.diag(A)))
        axis = A[:, i] / np.sqrt(max(A[i, i], 1e-18))
        axis /= np.linalg.norm(axis)
        return (-axis if w @ axis < 0 else axis) * theta
    return w * (theta / (2.0 * np.sin(theta)))


def test_rotation_log_batch_bit_equal_to_reference():
    rng = np.random.default_rng(22)
    axes = rng.normal(size=(9, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.array([0.0, 1e-12, 0.3, 2.0, np.pi - 1e-7, np.pi, np.pi - 1e-3, 1.0, -2.5])
    M = geometry.rotation_about_axis(axes, angles)
    logs = geometry.rotation_log(M.reshape(3, 3, 3, 3))
    assert logs.shape == (3, 3, 3)
    for m, log in zip(M, logs.reshape(9, 3)):
        want = rotation_log_reference(m).tobytes()
        assert log.tobytes() == want
        assert geometry.rotation_log(m).tobytes() == want


def test_decode_rot6d_batch_bit_equal_to_single_rows():
    rng = np.random.default_rng(8)
    codes = rng.normal(size=(4, 5, 6)) * rng.choice([1e-3, 1.0, 1e3], size=(4, 5, 1))
    batch = geometry.decode_rot6d(codes)
    assert batch.shape == (4, 5, 3, 3)
    for idx in np.ndindex(4, 5):
        assert batch[idx].tobytes() == geometry.decode_rot6d(codes[idx]).tobytes()
        assert batch[idx].tobytes() == decode_rot6d_reference(codes[idx]).tobytes()
    assert geometry.encode_rot6d(batch).tobytes() == np.stack(
        [[geometry.encode_rot6d(R) for R in row] for row in batch]
    ).tobytes()


@pytest.mark.parametrize(
    "bad", [[0, 0, 0, 0, 1, 0], [1, 0, 0, 2, 0, 0], [1, 0, 0, np.nan, 1, 0]],
    ids=["zero_column", "parallel", "non_finite"],
)
def test_decode_rot6d_batch_raises_on_one_degenerate_row(bad):
    codes = np.tile([1.0, 0, 0, 0, 1, 0], (6, 1))
    codes[4] = bad
    with pytest.raises(DegenerateRotation6D):
        geometry.decode_rot6d(codes)


def test_decode_rot6d_rows_mask_matches_decode_rot6d():
    """Each code's defect number names the error `decode_rot6d` raises for it
    alone; a stack raises the first test in order that any code fails."""
    codes = np.array([
        [1.0, 0, 0, 0, 1, 0],
        [1, 0, 0, 2, 0, 0],            # parallel
        [0, 0, 0, 0, 1, 0],            # zero column
        [1, 0, 0, np.inf, 1, 0],       # non-finite
        [0.3, -2.0, 0.5, 1.0, 0.2, 0.7],
        [1e-10, 0, 0, 1e-10, 1e-10, 0],  # both short
    ])
    R, defect = geometry.decode_rot6d_rows(codes)
    assert defect.tolist() == [0, 3, 2, 1, 0, 2]
    for code, rot, d in zip(codes, R, defect):
        if d == 0:
            assert rot.tobytes() == geometry.decode_rot6d(code).tobytes()
            continue
        with pytest.raises(DegenerateRotation6D, match=geometry.ROT6D_DEFECTS[d]):
            geometry.decode_rot6d(code)
    with pytest.raises(DegenerateRotation6D, match=geometry.ROT6D_DEFECTS[1]):
        geometry.decode_rot6d(codes)
    with pytest.raises(DegenerateRotation6D, match=geometry.ROT6D_DEFECTS[2]):
        geometry.decode_rot6d(codes[[0, 1, 2]])


def test_rotation_about_axis_batch_bit_equal_to_reference():
    rng = np.random.default_rng(9)
    axes = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(4, 3))])
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([[0.0, -0.0, np.pi, -np.pi / 2], rng.normal(size=6) * 3])
    batch = geometry.rotation_about_axis(axes, angles[:, None])
    assert batch.shape == (len(angles), len(axes), 3, 3)
    for i, angle in enumerate(angles):
        for j, axis in enumerate(axes):
            want = rodrigues_reference(axis, angle).tobytes()
            assert batch[i, j].tobytes() == want
            assert geometry.rotation_about_axis(axis, angle).tobytes() == want


def test_projection_idempotence():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = rng.normal(size=6)
        try:
            R1 = geometry.decode_rot6d(r)
        except DegenerateRotation6D:
            continue
        R2 = geometry.decode_rot6d(geometry.encode_rot6d(R1))
        np.testing.assert_allclose(R1, R2, atol=1e-9)


# --- quaternions ---------------------------------------------------------

def test_quat_matrix_identity_and_180x():
    np.testing.assert_allclose(
        geometry.quat_to_matrix(np.array([1.0, 0, 0, 0])), np.eye(3), atol=1e-12
    )
    R = geometry.quat_to_matrix(np.array([0.0, 1.0, 0, 0]))
    np.testing.assert_allclose(R, np.diag([1.0, -1.0, -1.0]), atol=1e-12)
    q = geometry.quat_from_matrix(np.diag([1.0, -1.0, -1.0]))
    np.testing.assert_allclose(q, [0, 1, 0, 0], atol=1e-9)


def test_quat_matrix_roundtrip_many():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        R = random_rotation_oracle(rng)
        R2 = geometry.quat_to_matrix(geometry.quat_from_matrix(R))
        assert np.max(np.abs(R2 - R)) <= 1e-9


def test_quat_canonical_sign():
    q = geometry.quat_normalize(np.array([-1.0, 0.2, 0.3, -0.1]))
    assert q[0] >= 0


# --- slerp ---------------------------------------------------------------

def test_slerp_endpoints():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q0 = geometry.quat_normalize(rng.normal(size=4))
        q1 = geometry.quat_normalize(rng.normal(size=4))
        np.testing.assert_allclose(geometry.slerp(q0, q1, 0.0), q0, atol=1e-9)
        np.testing.assert_allclose(geometry.slerp(q0, q1, 1.0), q1, atol=1e-9)


def test_slerp_half_angle_about_z():
    q0 = np.array([1.0, 0, 0, 0])
    q1 = axis_angle_quat([0, 0, 1], np.pi / 2)
    mid = geometry.slerp(q0, q1, 0.5)
    np.testing.assert_allclose(mid, axis_angle_quat([0, 0, 1], np.pi / 4), atol=1e-12)


def test_slerp_axis_angle_linearity():
    q0 = np.array([1.0, 0, 0, 0])
    q1 = axis_angle_quat([1, 0, 0], np.deg2rad(170.0))
    out = geometry.slerp(q0, q1, 0.25)
    np.testing.assert_allclose(out, axis_angle_quat([1, 0, 0], np.deg2rad(42.5)), atol=1e-12)


def test_slerp_angle_linear_and_unit_norm():
    rng = np.random.default_rng(17)
    for _ in range(200):
        q0 = geometry.quat_normalize(rng.normal(size=4))
        q1 = geometry.quat_normalize(rng.normal(size=4))
        full = quat_rotation_angle(q0, q1)
        t = rng.random()
        qt = geometry.slerp(q0, q1, t)
        assert abs(np.linalg.norm(qt) - 1.0) <= 1e-9
        if full > 1e-4:
            assert abs(quat_rotation_angle(q0, qt) - t * full) <= 1e-7


def test_slerp_shortest_path():
    rng = np.random.default_rng(23)
    for _ in range(100):
        q0 = geometry.quat_normalize(rng.normal(size=4))
        q1 = geometry.quat_normalize(rng.normal(size=4))
        assert quat_rotation_angle(q0, geometry.slerp(q0, q1, 1.0)) <= np.pi + 1e-9


def test_slerp_tiny_arc_falls_back_to_lerp():
    q0 = np.array([1.0, 0, 0, 0])
    q1 = axis_angle_quat([0, 0, 1], 1e-8)
    out = geometry.slerp(q0, q1, 0.5)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


# --- poses ---------------------------------------------------------------

def test_pose_compose_associative():
    rng = np.random.default_rng(31)
    ps = [Pose(random_rotation_oracle(rng), rng.normal(size=3)) for _ in range(3)]
    left = ps[0].compose(ps[1]).compose(ps[2])
    right = ps[0].compose(ps[1].compose(ps[2]))
    np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-12)
    np.testing.assert_allclose(left.translation, right.translation, atol=1e-12)


def test_rotation_log_small_and_pi():
    w = geometry.rotation_log(geometry.rotation_about_axis(np.array([0.0, 0, 1]), 0.3))
    np.testing.assert_allclose(w, [0, 0, 0.3], atol=1e-12)
    w = geometry.rotation_log(geometry.rotation_about_axis(np.array([1.0, 0, 0]), np.pi))
    np.testing.assert_allclose(np.abs(w), [np.pi, 0, 0], atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=6, max_size=6))
def test_decode_always_orthonormal_or_degenerate(values):
    r = np.array(values)
    try:
        R = geometry.decode_rot6d(r)
    except DegenerateRotation6D:
        return
    assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-9
    assert abs(np.linalg.det(R) - 1.0) <= 1e-9
    assert not np.any(np.isnan(R))


# --- quaternion helpers on stacks -----------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_quaternion_helpers_on_a_stack_equal_per_row_calls(seed, n):
    rng = np.random.default_rng(seed)
    # Random rotations plus half turns about each axis, so every branch
    # of Shepperd's method is taken.
    R = np.stack([random_rotation_oracle(rng) for _ in range(n)]
                 + [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
                    np.diag([-1.0, -1.0, 1.0])])
    q = rng.normal(size=(len(R), 4))
    q1 = rng.normal(size=(len(R), 4))
    q1[0] = q[0] * (1 + 1e-12)  # an arc short enough to lerp
    t = rng.random(len(R))
    t[1], t[2] = 0.0, 1.0
    cases = [
        (geometry.quat_normalize, (q,)),
        (geometry.quat_to_matrix, (q,)),
        (geometry.quat_from_matrix, (R,)),
        (geometry.slerp, (q, q1, t)),
    ]
    for fn, args in cases:
        stacked = fn(*args)
        rows = np.stack([fn(*row) for row in zip(*args)])
        assert stacked.tobytes() == rows.tobytes(), fn.__name__
        # Leading axes broadcast: a (2, m) stack gives the same bytes.
        pairs = fn(*(a[: len(a) // 2 * 2].reshape(2, -1, *a.shape[1:]) for a in args))
        assert pairs.tobytes() == rows[: len(rows) // 2 * 2].tobytes(), fn.__name__


def test_quaternion_helpers_check_every_row():
    q = np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        geometry.quat_normalize(q)
    with pytest.raises(ValueError, match="degenerate"):
        geometry.quat_to_matrix(q[::-1])
    with pytest.raises(ValueError, match="4 components"):
        geometry.quat_normalize(np.ones((2, 3)))
    good = np.array([[1.0, 0, 0, 0], [0.0, 1, 0, 0]])
    with pytest.raises(ValueError, match="t must be"):
        geometry.slerp(good, good[::-1], np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="t must be"):
        geometry.slerp(good, good[::-1], np.array([np.nan, 0.5]))
