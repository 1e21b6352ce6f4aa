import hashlib
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from crossemb import geometry, kinematics, unified_space
from crossemb.embodiments import (
    default_hand_model,
    humanoid_a_config,
    humanoid_b_config,
)
from crossemb.errors import CrossembError, DimensionMismatch, NonFiniteTarget, RetargetFailure
from crossemb.geometry import Pose
from crossemb.kinematics import (
    EmbodimentConfig,
    IkParams,
    Joint,
    KinematicChain,
    RobotCommand,
    embed_rows,
    fingertip_rows,
    _fk_frames,
    _hand_actuators,
    _far_rows,
    _ik_rows,
    _jacobians,
    retarget_rows,
    embed_robot_state,
    forward_kinematics,
    ik_solve,
    neck_angles_from_head_rotation,
    retarget_action,
)

Z = np.array([0.0, 0.0, 1.0])
# ik_fixture_digest() and retarget_fixture_digests() (over the rows with
# both wrists in reach, and over the rest, whose descents stop once they
# stop gaining), as recorded on the solver whose orientation weight was
# still settable.
IK_FIXTURE_DIGEST = "130021c4a4b9c6765497e6a776a0a34383d4d95a8b90c6c436c1692b0a39abab"
RETARGET_NEAR_DIGEST = "080cf7933e364be997e3ec4ebc877a29470c759dc241a10f7ee782ace7f80031"
RETARGET_FAR_DIGEST = "a5293ce84a61ddeb9696798ea75149035cf2a7773fedf26ebc9bb459a444c9cc"
# fk_fixture_digest() of the FK whose chain arrays held the rows first, as
# the joint-major FK gives it.
FK_FIXTURE_DIGEST = "5103cbd447a5d3ffaa96b042de9c8daea9dfb3606d9ebf2b2847fb287f708023"


# --- oracles ---------------------------------------------------------------

def rodrigues_oracle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def homogeneous(R, t):
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = t
    return T


def fk_matrix_chain_oracle(chain, q):
    """Independent FK: explicit 4x4 homogeneous matrix products."""
    T = homogeneous(chain.base_frame.rotation, chain.base_frame.translation)
    for joint, angle in zip(chain.joints, q):
        T = T @ homogeneous(joint.origin.rotation, joint.origin.translation)
        T = T @ homogeneous(rodrigues_oracle(joint.axis, angle), np.zeros(3))
    T = T @ homogeneous(chain.tip_offset.rotation, chain.tip_offset.translation)
    return T


def finite_difference_jacobian(chain, q, h=1e-6):
    n = len(q)
    J = np.zeros((6, n))
    for i in range(n):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        pp = forward_kinematics(chain, qp)
        pm = forward_kinematics(chain, qm)
        J[:3, i] = (pp.translation - pm.translation) / (2 * h)
        dR = pp.rotation @ pm.rotation.T
        J[3:, i] = geometry.rotation_log(dR) / (2 * h)
    return J


def geometric_jacobian_oracle(chain, q):
    """Geometric Jacobian from explicit 4x4 products: column i is
    [z_i x (p_tip - p_i); z_i], z_i and p_i joint i's world axis and origin."""
    T = homogeneous(chain.base_frame.rotation, chain.base_frame.translation)
    columns = []
    for joint, angle in zip(chain.joints, q):
        T = T @ homogeneous(joint.origin.rotation, joint.origin.translation)
        columns.append((T[:3, :3] @ joint.axis, T[:3, 3].copy()))
        T = T @ homogeneous(rodrigues_oracle(joint.axis, angle), np.zeros(3))
    tip = fk_matrix_chain_oracle(chain, q)[:3, 3]
    return np.array([np.concatenate([np.cross(z, tip - p), z]) for z, p in columns]).T


def two_link_ik_oracle(target_xy, l1=1.0, l2=1.0):
    """Closed-form planar two-link solutions (elbow-down, elbow-up)."""
    x, y = target_xy
    d2 = x * x + y * y
    c2 = (d2 - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    c2 = np.clip(c2, -1.0, 1.0)
    sols = []
    for s2 in (np.sqrt(1 - c2 * c2), -np.sqrt(1 - c2 * c2)):
        q2 = np.arctan2(s2, c2)
        q1 = np.arctan2(y, x) - np.arctan2(l2 * s2, l1 + l2 * c2)
        sols.append(np.array([q1, q2]))
    return sols


def reach_oracle(chain):
    """The first joint's world origin and the sum of the lengths of the
    later joint origins and the tip offset, from the chain's own parts."""
    root = chain.base_frame.apply(chain.joints[0].origin.translation)
    reach = sum(np.linalg.norm(p.translation)
                for p in [j.origin for j in chain.joints[1:]] + [chain.tip_offset])
    return root, reach


def out_of_reach(chain, point):
    root, reach = reach_oracle(chain)
    return np.linalg.norm(point - root) > reach + IkParams.pos_tol


def random_chain(rng, n_joints):
    joints = []
    for i in range(n_joints):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        origin = Pose(
            geometry.quat_to_matrix(geometry.quat_normalize(rng.normal(size=4))),
            rng.normal(scale=0.2, size=3),
        )
        joints.append(Joint(f"j{i}", axis, origin, (-np.pi, np.pi)))
    return KinematicChain(
        joints=tuple(joints),
        base_frame=Pose(
            geometry.quat_to_matrix(geometry.quat_normalize(rng.normal(size=4))),
            rng.normal(scale=0.1, size=3),
        ),
        tip_offset=Pose.from_translation(rng.normal(scale=0.1, size=3)),
    )


def planar_two_link():
    return KinematicChain(
        joints=(
            Joint("j1", Z, Pose.identity(), (-np.pi, np.pi)),
            Joint("j2", Z, Pose.from_translation([1.0, 0, 0]), (-np.pi, np.pi)),
        ),
        base_frame=Pose.identity(),
        tip_offset=Pose.from_translation([1.0, 0, 0]),
    )


# --- forward kinematics ----------------------------------------------------

def test_fk_single_revolute_joint():
    chain = KinematicChain(
        joints=(Joint("j", Z, Pose.identity(), (-np.pi, np.pi)),),
        base_frame=Pose.identity(),
        tip_offset=Pose.from_translation([1.0, 0, 0]),
    )
    pose = forward_kinematics(chain, np.array([np.pi / 2]))
    np.testing.assert_allclose(pose.translation, [0, 1, 0], atol=1e-12)


def test_fk_zero_q_is_product_of_origins():
    rng = np.random.default_rng(0)
    chain = random_chain(rng, 4)
    T = fk_matrix_chain_oracle(chain, np.zeros(4))
    pose = forward_kinematics(chain, np.zeros(4))
    np.testing.assert_allclose(homogeneous(pose.rotation, pose.translation), T, atol=1e-12)


def test_fk_matches_matrix_chain_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        chain = random_chain(rng, 7)
        q = rng.uniform(-np.pi, np.pi, size=7)
        T = fk_matrix_chain_oracle(chain, q)
        pose = forward_kinematics(chain, q)
        assert np.max(np.abs(homogeneous(pose.rotation, pose.translation) - T)) <= 1e-12


def test_fk_dimension_mismatch():
    chain = planar_two_link()
    with pytest.raises(DimensionMismatch):
        forward_kinematics(chain, np.zeros(3))


# --- jacobian ---------------------------------------------------------------

def test_jacobian_single_z_joint():
    chain = KinematicChain(
        joints=(Joint("j", Z, Pose.identity(), (-np.pi, np.pi)),),
        base_frame=Pose.identity(),
        tip_offset=Pose.from_translation([1.0, 0, 0]),
    )
    J = _jacobians(*_fk_frames(chain.arrays, np.zeros((1, 1)))[1:])[0]
    np.testing.assert_allclose(J[:, 0], [0, 1, 0, 0, 0, 1], atol=1e-12)


def test_jacobian_zero_lever_arm():
    chain = KinematicChain(
        joints=(Joint("j", Z, Pose.identity(), (-np.pi, np.pi)),),
        base_frame=Pose.identity(),
        tip_offset=Pose.identity(),
    )
    J = _jacobians(*_fk_frames(chain.arrays, np.zeros((1, 1)))[1:])[0]
    np.testing.assert_allclose(J[:3, 0], 0, atol=1e-12)
    np.testing.assert_allclose(J[3:, 0], Z, atol=1e-12)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 8))
        chain = random_chain(rng, n)
        q = rng.uniform(-2.0, 2.0, size=n)
        J = _jacobians(*_fk_frames(chain.arrays, q[None])[1:])[0]
        J_fd = finite_difference_jacobian(chain, q)
        scale = max(1.0, np.max(np.abs(J_fd)))
        worst = max(worst, np.max(np.abs(J - J_fd)) / scale)
    assert worst < 1e-5


# --- inverse kinematics -----------------------------------------------------

def test_ik_already_at_target():
    cfg = humanoid_a_config()
    chain = cfg.right_arm
    q0 = chain.mid_range()
    target = forward_kinematics(chain, q0)
    q, status = ik_solve(chain, target, q0)
    assert status == "converged"
    np.testing.assert_array_equal(q, q0)


def test_ik_two_link_elbow_down_branch(monkeypatch):
    monkeypatch.setattr(IkParams, "restarts", 0)
    chain = planar_two_link()
    sols = two_link_ik_oracle((1.0, 1.0))
    # elbow-down solution is (0, 90deg); its tip turns about z by q1 + q2
    np.testing.assert_allclose(sols[0], [0.0, np.pi / 2], atol=1e-12)
    target = Pose(geometry.rotation_about_axis(Z, sols[0].sum()), np.array([1.0, 1.0, 0.0]))
    q, status = ik_solve(chain, target, np.zeros(2))
    assert status == "converged"
    assert np.max(np.abs(q - sols[0])) < 2e-3
    tip = forward_kinematics(chain, q).translation
    assert np.linalg.norm(tip - target.translation) <= 1e-3


def test_ik_unreachable_best_effort_on_reach_sphere(monkeypatch):
    monkeypatch.setattr(IkParams, "restarts", 2)
    chain = planar_two_link()
    # The stretched arm on +x has the identity rotation.
    target = Pose(np.eye(3), np.array([3.0, 0.0, 0.0]))
    q, status = ik_solve(chain, target, np.array([0.3, 0.3]))
    assert status == "best_effort"
    tip = forward_kinematics(chain, q).translation
    residual = np.linalg.norm(tip - target.translation)
    assert abs(residual - 1.0) <= 1e-3  # projected onto the 2 m reach sphere


def test_ik_rejects_nonfinite_target():
    chain = planar_two_link()
    # Pose construction itself refuses NaN, so smuggle one past it.
    bad = object.__new__(Pose)
    object.__setattr__(bad, "rotation", np.eye(3))
    object.__setattr__(bad, "translation", np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(NonFiniteTarget):
        ik_solve(chain, bad, np.zeros(2))


def test_ik_respects_limits():
    cfg = humanoid_a_config()
    chain = cfg.right_arm
    rng = np.random.default_rng(3)
    lo, hi = chain.lower_limits, chain.upper_limits
    for _ in range(25):
        q_true = lo + rng.random(chain.n_joints) * (hi - lo)
        target = forward_kinematics(chain, q_true)
        q, _ = ik_solve(chain, target, chain.mid_range())
        assert np.all(q >= lo - 1e-9)
        assert np.all(q <= hi + 1e-9)


def test_fk_ik_roundtrip_sample():
    rng = np.random.default_rng(4)
    for cfg in (humanoid_a_config(), humanoid_b_config()):
        chain = cfg.right_arm
        lo, hi = chain.lower_limits, chain.upper_limits
        converged = 0
        n = 40
        for _ in range(n):
            q_true = lo + rng.random(chain.n_joints) * (hi - lo)
            target = forward_kinematics(chain, q_true)
            q, status = ik_solve(chain, target, chain.mid_range())
            pose = forward_kinematics(chain, q)
            pos_err = np.linalg.norm(pose.translation - target.translation)
            rot_err = np.linalg.norm(
                geometry.rotation_log(target.rotation @ pose.rotation.T)
            )
            if status == "converged":
                assert pos_err <= 1e-3
                assert rot_err <= np.deg2rad(0.5)
                converged += 1
        assert converged >= int(0.95 * n)


def test_ik_solution_carries_errors_of_returned_joints():
    chain = humanoid_b_config().right_arm
    start = forward_kinematics(chain, chain.mid_range())
    for offset, want in (([0.02, -0.03, 0.01], "converged"), ([2.0, 0.0, 0.0], "best_effort")):
        target = Pose(start.rotation, start.translation + offset)
        solution = ik_solve(chain, target, chain.mid_range())
        q, status = solution
        assert status == want
        pose = forward_kinematics(chain, q)
        pos_err = float(np.linalg.norm(target.translation - pose.translation))
        rot_err = float(np.linalg.norm(geometry.rotation_log(target.rotation @ pose.rotation.T)))
        assert (solution.pos_err, solution.rot_err) == (pos_err, rot_err)
        again = pickle.loads(pickle.dumps(solution))
        assert (again.pos_err, again.rot_err, again[1]) == (pos_err, rot_err, status)


def test_ik_deterministic():
    cfg = humanoid_b_config()
    chain = cfg.right_arm
    target = forward_kinematics(chain, chain.mid_range() + 0.3)
    q1, s1 = ik_solve(chain, target, chain.mid_range())
    q2, s2 = ik_solve(chain, target, chain.mid_range())
    assert s1 == s2
    np.testing.assert_array_equal(q1, q2)


def test_ik_step_is_the_full_dls_step(monkeypatch):
    """One accepted trial moves q0 by the whole of J^T (J J^T + lam^2 I)^-1 e
    at the initial damping, J from the explicit-product oracle; the half
    step lies farther from the result."""
    monkeypatch.setattr(IkParams, "max_iters", 1)
    monkeypatch.setattr(IkParams, "restarts", 0)
    for chain in (humanoid_a_config().right_arm, humanoid_b_config().left_arm):
        q0 = chain.mid_range()
        target = forward_kinematics(chain, q0 + 0.1 * np.cos(np.arange(chain.n_joints)))
        pose = forward_kinematics(chain, q0)
        e = np.concatenate([target.translation - pose.translation,
                            geometry.rotation_log(target.rotation @ pose.rotation.T)])
        J = geometric_jacobian_oracle(chain, q0)
        lam = kinematics._DAMPING
        dq = J.T @ np.linalg.solve(J @ J.T + lam * lam * np.eye(6), e)
        full, half = chain.clamp(q0 + dq), chain.clamp(q0 + 0.5 * dq)
        solution = ik_solve(chain, target, q0)
        assert solution[1] == "best_effort"  # one step does not reach the tolerances
        assert solution.pos_err + solution.rot_err < np.linalg.norm(e[:3]) + np.linalg.norm(e[3:])
        np.testing.assert_allclose(solution[0], full, rtol=0, atol=1e-12)
        assert np.abs(solution[0] - half).max() > np.abs(solution[0] - full).max() + 1e-3


# --- reach test: targets no joint values can bring within pos_tol -----------

def reach_chains():
    return [planar_two_link()] + [arm for cfg in (humanoid_a_config(), humanoid_b_config())
                                  for arm in (cfg.left_arm, cfg.right_arm)]


def test_chain_reach_bounds_every_tip():
    rng = np.random.default_rng(17)
    for chain in reach_chains():
        root, reach = reach_oracle(chain)
        np.testing.assert_allclose(chain.arrays.root[0], root, rtol=0, atol=1e-15)
        np.testing.assert_allclose(chain.arrays.reach[0], reach, rtol=1e-15)
        lo, hi = chain.lower_limits, chain.upper_limits
        for q in lo + rng.random((200, chain.n_joints)) * (hi - lo):
            assert np.linalg.norm(forward_kinematics(chain, q).translation - root) <= reach + 1e-12
    # The bound is tight: the stretched planar arm reaches it.
    chain = planar_two_link()
    assert np.linalg.norm(forward_kinematics(chain, np.zeros(2)).translation) == chain.arrays.reach[0]


def test_far_rows_at_the_reach_boundary():
    rng = np.random.default_rng(19)
    tol = IkParams.pos_tol
    for chain in reach_chains():
        root, reach = chain.arrays.root[0], chain.arrays.reach[0]
        dirs = rng.normal(size=(8, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        targets = np.concatenate([root + (reach + 2 * tol) * dirs, root + (reach - tol) * dirs])
        far = _far_rows(chain.arrays, np.zeros(16, dtype=int), targets)
        assert far.tolist() == [True] * 8 + [False] * 8
        assert [out_of_reach(chain, t) for t in targets] == far.tolist()


def test_far_row_never_converges():
    rng = np.random.default_rng(23)
    tol = IkParams.pos_tol
    for chain in reach_chains():
        root, reach = chain.arrays.root[0], chain.arrays.reach[0]
        home = chain.mid_range()
        start = forward_kinematics(chain, home)
        for _ in range(2):
            d = rng.normal(size=3)
            target = Pose(start.rotation, root + (reach + 2 * tol) * d / np.linalg.norm(d))
            solution = ik_solve(chain, target, home)
            assert solution[1] == "best_effort"
            assert solution.pos_err > tol
    # On the planar arm the best effort still lies on the reach sphere: the
    # stretched arm on +x, whose rotation is the identity.
    chain = planar_two_link()
    target = Pose(np.eye(3), np.array([chain.arrays.reach[0] + 2 * tol, 0.0, 0.0]))
    solution = ik_solve(chain, target, np.array([0.3, 0.3]))
    assert solution[1] == "best_effort" and abs(solution.pos_err - 2 * tol) <= 1e-9


# --- hand retargeting -------------------------------------------------------

def hand_formula_oracle(fingertips, wrist_R, wrist_t, model):
    """Direct evaluation of the documented closure formulas."""
    dist = [np.linalg.norm(np.asarray(tip) - wrist_t) for tip in fingertips]
    closure = [
        1.0 - min(max(d / e, 0.0), 1.0)
        for d, e in zip(dist, model.fingertip_extent)
    ]
    local = wrist_R.T @ (np.asarray(fingertips[0]) - wrist_t)
    n = model.palm_normal
    ref = model.finger_dirs[0]
    v = local - (local @ n) * n
    ang = np.arctan2(n @ np.cross(ref, v), ref @ v)
    lo, hi = model.thumb_rot_range
    rot = min(max((ang - lo) / (hi - lo), 0.0), 1.0)
    return np.array(closure + [rot])


def test_hand_full_extent_zero_closure():
    model = default_hand_model()
    tips = model.finger_dirs * model.fingertip_extent[:, None]
    act = _hand_actuators(tips[None], np.eye(3)[None], np.zeros((1, 3)), model)[0]
    np.testing.assert_allclose(act[:5], 0.0, atol=1e-12)


def test_hand_coincident_full_closure():
    model = default_hand_model()
    wrist_t = np.array([0.2, -0.1, 0.5])
    tips = np.tile(wrist_t, (5, 1))
    act = _hand_actuators(tips[None], np.eye(3)[None], wrist_t[None], model)[0]
    np.testing.assert_allclose(act[:5], 1.0, atol=1e-12)


def test_hand_matches_formula_oracle():
    model = default_hand_model()
    rng = np.random.default_rng(5)
    R = geometry.quat_to_matrix(geometry.quat_normalize(rng.normal(size=4)))
    t = rng.normal(size=3)
    wrist = Pose(R, t)
    tips = wrist.apply(model.finger_dirs * (0.5 * model.fingertip_extent)[:, None])
    act = _hand_actuators(tips[None], R[None], t[None], model)[0]
    expected = hand_formula_oracle(tips, R, t, model)
    np.testing.assert_allclose(act, expected, atol=1e-12)
    np.testing.assert_allclose(act[:5], 0.5, atol=1e-12)


def test_hand_monotone_in_distance():
    model = default_hand_model()
    prev = None
    for scale in np.linspace(1.0, 0.0, 11):
        tips = model.finger_dirs * (scale * model.fingertip_extent)[:, None]
        act = _hand_actuators(tips[None], np.eye(3)[None], np.zeros((1, 3)), model)[0]
        if prev is not None:
            assert np.all(act[:5] >= prev[:5] - 1e-12)
        prev = act


def test_hand_roundtrip_bijective():
    model = default_hand_model()
    rng = np.random.default_rng(6)
    for _ in range(200):
        act = np.empty(6)
        act[:5] = rng.random(5) * 0.98
        act[5] = rng.random()
        R = geometry.quat_to_matrix(geometry.quat_normalize(rng.normal(size=4)))
        t = rng.normal(size=3)
        tips = fingertip_rows(act[None], R[None], t[None], model)[0]
        back = _hand_actuators(tips[None], R[None], t[None], model)[0]
        assert np.max(np.abs(back - act)) < 1e-6


# --- command embedding and retargeting --------------------------------------

def home_command(cfg):
    return RobotCommand(
        left_arm_q=cfg.left_arm.mid_range(),
        right_arm_q=cfg.right_arm.mid_range(),
        neck_q=np.zeros(2),
        left_hand=np.full(6, 0.4),
        right_hand=np.full(6, 0.4),
    )


def test_neck_extraction_pure_yaw():
    R = geometry.rotation_about_axis(Z, np.deg2rad(30.0))
    yaw, pitch = neck_angles_from_head_rotation(R)
    assert abs(yaw - np.deg2rad(30.0)) <= 1e-12
    assert abs(pitch) <= 1e-12


def test_embed_zero_command_fingertips_at_full_extent():
    cfg = humanoid_a_config()
    cmd = RobotCommand(
        left_arm_q=np.zeros(5),
        right_arm_q=np.zeros(5),
        neck_q=np.zeros(2),
        left_hand=np.zeros(6),
        right_hand=np.zeros(6),
    )
    state = embed_robot_state(cmd, cfg)
    left = forward_kinematics(cfg.left_arm, np.zeros(5))
    np.testing.assert_allclose(state.left_wrist_pos, left.translation, atol=1e-12)
    dists = np.linalg.norm(state.fingertips[:5] - state.left_wrist_pos, axis=1)
    np.testing.assert_allclose(dists, cfg.hand_model.fingertip_extent, atol=1e-9)


def test_retarget_fixed_point():
    for cfg in (humanoid_a_config(), humanoid_b_config()):
        cmd = home_command(cfg)
        vec = unified_space.encode_state(embed_robot_state(cmd, cfg))
        out, diag = retarget_action(vec, cfg, cmd)
        assert diag.left.status == "converged"
        assert diag.right.status == "converged"
        assert np.max(np.abs(out.left_arm_q - cmd.left_arm_q)) <= 1e-3
        assert np.max(np.abs(out.right_arm_q - cmd.right_arm_q)) <= 1e-3
        assert np.max(np.abs(out.left_hand - cmd.left_hand)) <= 1e-6
        assert np.max(np.abs(out.neck_q - cmd.neck_q)) <= 1e-9


def test_retarget_neck_yaw():
    cfg = humanoid_b_config()
    cmd = home_command(cfg)
    vec = unified_space.encode_state(embed_robot_state(cmd, cfg))
    vec[unified_space.HEAD_ROT] = geometry.encode_rot6d(
        geometry.rotation_about_axis(Z, np.deg2rad(30.0))
    )
    out, _ = retarget_action(vec, cfg, cmd)
    np.testing.assert_allclose(out.neck_q, [np.deg2rad(30.0), 0.0], atol=1e-12)


def test_retarget_random_reachable_actions():
    cfg = humanoid_b_config()
    rng = np.random.default_rng(7)
    cmd = home_command(cfg)
    for _ in range(10):
        target_cmd = RobotCommand(
            left_arm_q=cfg.left_arm.clamp(cmd.left_arm_q + rng.normal(scale=0.2, size=7)),
            right_arm_q=cfg.right_arm.clamp(cmd.right_arm_q + rng.normal(scale=0.2, size=7)),
            neck_q=cfg.neck.clamp(rng.normal(scale=0.2, size=2)),
            left_hand=rng.random(6),
            right_hand=rng.random(6),
        )
        action = unified_space.encode_state(embed_robot_state(target_cmd, cfg))
        out, diag = retarget_action(action, cfg, cmd)
        achieved = unified_space.encode_state(embed_robot_state(out, cfg))
        for sl in (unified_space.LEFT_WRIST_POS, unified_space.RIGHT_WRIST_POS):
            assert np.linalg.norm(achieved[sl] - action[sl]) <= IkParams.pos_tol
        assert not RobotCommand.validate_limits(out, cfg)
        cmd = out


@pytest.mark.parametrize("index", [20, 30], ids=["wrist", "fingertip"])
def test_retarget_rejects_nonfinite(index):
    cfg = humanoid_a_config()
    cmd = home_command(cfg)
    vec = unified_space.encode_state(embed_robot_state(cmd, cfg))
    vec[index] = np.nan
    with pytest.raises(RetargetFailure):
        retarget_action(vec, cfg, cmd)


@pytest.mark.parametrize("shape", [(53,), (1, 54)], ids=["53", "1x54"])
def test_retarget_rejects_action_of_wrong_shape(shape):
    cfg = humanoid_a_config()
    with pytest.raises(DimensionMismatch, match="action must be"):
        retarget_action(np.zeros(shape), cfg, home_command(cfg))


def test_retarget_deterministic():
    cfg = humanoid_b_config()
    cmd = home_command(cfg)
    vec = unified_space.encode_state(embed_robot_state(cmd, cfg))
    vec[unified_space.RIGHT_WRIST_POS] += [0.05, -0.03, 0.02]
    out1, _ = retarget_action(vec, cfg, cmd)
    out2, _ = retarget_action(vec, cfg, cmd)
    np.testing.assert_array_equal(out1.right_arm_q, out2.right_arm_q)
    np.testing.assert_array_equal(out1.left_hand, out2.left_hand)


def test_embodiment_config_shapes():
    a = humanoid_a_config()
    b = humanoid_b_config()
    assert a.left_arm.n_joints == 5 and a.right_arm.n_joints == 5
    assert b.left_arm.n_joints == 7 and b.right_arm.n_joints == 7
    assert a.neck.n_joints == 2 and b.neck.n_joints == 2


def test_table_limits_transcription():
    a = humanoid_a_config()
    b = humanoid_b_config()
    by_name_a = {j.name: j.limits for j in a.right_arm.joints}
    by_name_b = {j.name: j.limits for j in b.right_arm.joints}
    np.testing.assert_allclose(by_name_a["shoulder_pitch"], np.deg2rad([-164, 164]))
    np.testing.assert_allclose(by_name_a["shoulder_roll"], np.deg2rad([-19, 178]))
    np.testing.assert_allclose(by_name_a["shoulder_yaw"], np.deg2rad([-74, 255]))
    np.testing.assert_allclose(by_name_a["elbow"], np.deg2rad([-71, 150]))
    np.testing.assert_allclose(by_name_a["wrist_roll"], np.deg2rad([-175, 175]))
    np.testing.assert_allclose(by_name_b["shoulder_pitch"], np.deg2rad([-180, 90]))
    np.testing.assert_allclose(by_name_b["shoulder_roll"], np.deg2rad([-21, 194]))
    np.testing.assert_allclose(by_name_b["shoulder_yaw"], np.deg2rad([-152, 172]))
    np.testing.assert_allclose(by_name_b["elbow"], np.deg2rad([-54, 182]))
    np.testing.assert_allclose(by_name_b["wrist_roll"], np.deg2rad([-172, 157]))


# --- batched core: exactness against single-row calls and the parent ------

def restart_seeds(chain, restarts=30):
    """`ik_solve`'s restart seeds, in order: mid-range, then seeded draws."""
    lo, hi = chain.lower_limits, chain.upper_limits
    rng = np.random.Generator(np.random.PCG64(seed=0x1B5))
    seeds = [chain.mid_range()]
    for _ in range(restarts - 1):
        seeds.append(lo + rng.random(chain.n_joints) * (hi - lo))
    return seeds


def test_fk_frames_batch_rows_equal_single_calls():
    rng = np.random.default_rng(21)
    for chain in (humanoid_a_config().left_arm, humanoid_b_config().right_arm,
                  humanoid_b_config().neck, random_chain(rng, 6)):
        lo, hi = chain.lower_limits, chain.upper_limits
        Q = lo + rng.random((9, chain.n_joints)) * (hi - lo)
        batch = fk_frames_rows(_fk_frames(chain.arrays, Q))
        for b in range(len(Q)):
            single = fk_frames_rows(_fk_frames(chain.arrays, Q[b][None]))
            for got, want in zip(batch, single):
                assert got[b].tobytes() == want[0].tobytes()
            pose = forward_kinematics(chain, Q[b])
            assert pose.rotation.tobytes() == batch[0][b].tobytes()
            assert pose.translation.tobytes() == batch[1][b].tobytes()
    # Per-row arrays of both arms: every row as on its own arm's arrays.
    for cfg in (humanoid_a_config(), humanoid_b_config()):
        lo, hi = cfg.arms.lo, cfg.arms.hi
        for B in (1, 5, 30):
            arm = rng.integers(0, 2, size=B)
            Q = lo[arm] + rng.random((B, lo.shape[1])) * (hi - lo)[arm]
            rows = fk_frames_rows(_fk_frames(cfg.arms.take(arm), Q))
            for k, chain in enumerate((cfg.left_arm, cfg.right_arm)):
                own = fk_frames_rows(_fk_frames(chain.arrays, Q[arm == k]))
                for got, want in zip(rows, own):
                    assert got[arm == k].tobytes() == want.tobytes()


def test_arms_with_identity_origins_on_one_side_only():
    """A config whose left arm has identity origin rotations (FK skips
    them) and whose right arm has turned ones stacks them spelt out; FK
    and IK rows on that stack equal each arm's own, bit for bit."""
    cfg = humanoid_b_config()
    turned = KinematicChain(
        tuple(replace(j, origin=Pose(geometry.rotation_about_axis(Z, 0.1 * (i + 1)),
                                     j.origin.translation))
              for i, j in enumerate(cfg.right_arm.joints)),
        cfg.right_arm.base_frame, cfg.right_arm.tip_offset)
    mixed = EmbodimentConfig("mixed", cfg.left_arm, turned, cfg.neck, cfg.hand_model)
    assert cfg.left_arm.arrays.origin_R is None and turned.arrays.origin_R is not None
    assert mixed.arms.origin_R.shape == (7, 2, 3, 3)
    rng = np.random.default_rng(31)
    arm = np.array([0, 1, 1, 0, 1, 0])
    lo, hi = mixed.arms.lo[arm], mixed.arms.hi[arm]
    Q = lo + rng.random(lo.shape) * (hi - lo)
    rows = fk_frames_rows(_fk_frames(mixed.arms.take(arm), Q))
    chains = (mixed.left_arm, mixed.right_arm)
    for k, chain in enumerate(chains):
        own = fk_frames_rows(_fk_frames(chain.arrays, Q[arm == k]))
        for got, want in zip(rows, own):
            assert got[arm == k].tobytes() == want.tobytes()
    targets = [forward_kinematics(chains[k], q + 0.2) for k, q in zip(arm, Q)]
    q, pos_err, rot_err, ok = _ik_rows(mixed.arms, arm, np.array([t.rotation for t in targets]),
                                       np.array([t.translation for t in targets]), Q)
    for b, (k, target) in enumerate(zip(arm, targets)):
        single = ik_solve(chains[k], target, Q[b])
        assert q[b].tobytes() == single[0].tobytes()
        assert (pos_err[b], rot_err[b], ok[b]) == (single.pos_err, single.rot_err,
                                                   single[1] == "converged")


def fk_frames_rows(frames):
    """`_fk_frames` outputs R, t, axes, origins with the rows first and,
    for axes and origins, the joints after them: (..., n, 3)."""
    R, t, axes, origins = frames
    return R, t, np.moveaxis(axes, 0, -2), np.moveaxis(origins, 0, -2)


def fk_fixture_digest():
    """SHA-256 over the bytes of `_fk_frames` outputs on fixed joint
    batches, in each form of chain arrays FK receives (a chain's own
    arrays, per-row arrays of both arms, and both arms' rows as a per-arm
    batch, which `embed_rows` ran as arm arrays broadcast over rows), and
    of `embed_rows`, on both humanoids' arms and neck. Joints lie within
    and beyond the limits."""
    h = hashlib.sha256()

    def update(frames):
        for a in fk_frames_rows(frames):
            h.update(np.ascontiguousarray(a).tobytes())

    rng = np.random.default_rng(20)
    for cfg in (humanoid_a_config(), humanoid_b_config()):
        for chain in (cfg.left_arm, cfg.right_arm, cfg.neck):
            lo, hi = chain.lower_limits, chain.upper_limits
            Q = lo - 0.2 + rng.random((7, chain.n_joints)) * (hi - lo + 0.4)
            update(_fk_frames(chain.arrays, Q))
            update(_fk_frames(chain.arrays, Q[:1]))
        lo, hi = cfg.arms.lo, cfg.arms.hi
        for arm in (np.array([0, 1]), np.array([1, 0, 0, 1, 1, 0, 1])):
            Q = lo[arm] + rng.random((len(arm), lo.shape[-1])) * (hi - lo)[arm]
            update(_fk_frames(cfg.arms.take(arm), Q))
        # Both arms' rows, six each, shaped (2, 6, ...) as a per-arm batch.
        Q = lo[:, None] + rng.random((2, 6, lo.shape[-1])) * (hi - lo)[:, None]
        R, t, axes, origins = _fk_frames(cfg.arms.take(np.repeat([0, 1], 6)), Q.reshape(12, -1))
        n = len(axes)
        update((R.reshape(2, 6, 3, 3), t.reshape(2, 6, 3), axes.reshape(n, 2, 6, 3),
                origins.reshape(n, 2, 6, 3)))
        n_arms = cfg.left_arm.n_joints + cfg.right_arm.n_joints
        commands = np.hstack([rng.normal(scale=1.5, size=(6, n_arms + 2)), rng.random((6, 12))])
        h.update(embed_rows(cfg, commands).tobytes())
    return h.hexdigest()


def test_fk_outputs_pinned():
    assert fk_fixture_digest() == FK_FIXTURE_DIGEST


def ik_fixture_digest():
    """SHA-256 over joints and status of a fixed set of IK solves: warm
    streams, unreachable targets 2 m out along +-x, +-y, +-z, and a rotated
    target without restarts, on the 5-DoF and the 7-DoF arm."""
    h = hashlib.sha256()

    def solve(chain, target, q_init, restarts=IkParams.restarts):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(IkParams, "restarts", restarts)
            q, status = ik_solve(chain, target, q_init)
        h.update(np.asarray(q).tobytes())
        h.update(status.encode())
        return q

    for cfg in (humanoid_a_config(), humanoid_b_config()):
        chain = cfg.right_arm
        home = chain.mid_range()
        start = forward_kinematics(chain, home)
        sweep = 0.4 * np.cos(np.arange(chain.n_joints))
        q = home
        for f in np.linspace(0.0, 1.0, 12):
            q = solve(chain, forward_kinematics(chain, home + f * sweep), q)
        for direction in np.vstack([np.eye(3), -np.eye(3)]):
            solve(chain, Pose(start.rotation, start.translation + 2.0 * direction), home)
        reach = Pose(geometry.rotation_about_axis(Z, 1.0), start.translation + [0.1, -0.1, 0.1])
        solve(chain, reach, chain.lower_limits, restarts=0)
    return h.hexdigest()


def test_ik_outputs_pinned():
    assert ik_fixture_digest() == IK_FIXTURE_DIGEST


# Humanoid A's right arm: attempt 0 from the init fails, several seeds
# converge, and a later seed converges within 12 steps where the earliest
# does not, with the half and with the full DLS step.
RESTART_CASE_Q = [-0.118, 1.556, 0.393, 0.522, -2.775]
RESTART_CASE_INIT = [1.772, 2.789, 3.03, 0.673, 2.1]


def test_ik_restarts_return_earliest_converging_seed(monkeypatch):
    chain = humanoid_a_config().right_arm
    target = forward_kinematics(chain, np.array(RESTART_CASE_Q))
    q_init = np.array(RESTART_CASE_INIT)
    seeds = [q_init, *restart_seeds(chain)]
    with monkeypatch.context() as m:
        m.setattr(IkParams, "restarts", 0)
        # Sequential reference: every attempt on its own, in ik_solve's order.
        attempts = [ik_solve(chain, target, q0) for q0 in seeds]
        converged = [i for i, (_, status) in enumerate(attempts) if status == "converged"]
        assert attempts[0][1] == "best_effort"
        assert len(converged) >= 2
        # A later seed converges in fewer iterations than the earliest one, so
        # the earliest must win even though it is not the first to finish.
        m.setattr(IkParams, "max_iters", 12)
        assert ik_solve(chain, target, seeds[converged[0]])[1] == "best_effort"
        assert any(ik_solve(chain, target, seeds[i])[1] == "converged" for i in converged[1:])
    q, status = ik_solve(chain, target, q_init)
    assert status == "converged"
    assert q.tobytes() == attempts[converged[0]][0].tobytes()


# --- one target per row: batches equal their rows run alone ----------------

def ik_rows_fixture():
    """Warm rows, a row that needs restarts (attempt 0 fails, later seeds
    converge) and a target 2 m out of reach, on the 5-DoF arm."""
    chain = humanoid_a_config().right_arm
    home = chain.mid_range()
    start = forward_kinematics(chain, home)
    targets = [
        forward_kinematics(chain, home + 0.05 * np.cos(np.arange(5))),
        forward_kinematics(chain, np.array(RESTART_CASE_Q)),
        Pose(start.rotation, start.translation + [2.0, 0.0, 0.0]),
        forward_kinematics(chain, home - 0.1),
    ]
    q_init = np.array([home, RESTART_CASE_INIT, home, home])
    return chain, targets, q_init


@pytest.mark.parametrize("restarts", [IkParams.restarts, 0], ids=["default", "no_restarts"])
def test_ik_rows_equal_per_row_ik_solve(restarts, monkeypatch):
    monkeypatch.setattr(IkParams, "restarts", restarts)
    chain, targets, q_init = ik_rows_fixture()
    q, pos_err, rot_err, ok = _ik_rows(
        chain.arrays, np.zeros(len(targets), dtype=int),
        np.array([t.rotation for t in targets]),
        np.array([t.translation for t in targets]), q_init,
    )
    statuses = []
    for b, target in enumerate(targets):
        single = ik_solve(chain, target, q_init[b])
        assert q[b].tobytes() == single[0].tobytes()
        assert (pos_err[b], rot_err[b]) == (single.pos_err, single.rot_err)
        statuses.append(single[1])
        assert ok[b] == (single[1] == "converged")
    if restarts:
        # The restart row converges only through its seeds; the far one never.
        assert statuses[1:3] == ["converged", "best_effort"]
        monkeypatch.setattr(IkParams, "restarts", 0)
        assert ik_solve(chain, targets[1], q_init[1])[1] == "best_effort"


def leave_rule(chain, target, q_init, monkeypatch):
    """How the one descent of `ik_solve` from `q_init` (no restarts) leaves
    the batch, and after how many pose evaluations: the weighted errors
    `_pose_errors` gives (the start, then each trial) replayed through the
    acceptance rule. A step is accepted when it lowers the error; the
    descent ends converged, after 6 rejected trials in a row, or, for a
    far target, on an accepted step that gains less than `pos_tol`."""
    errs = []
    real = kinematics._pose_errors

    def spy(R, t, target_R, target_t):
        pos, rot, e = real(R, t, target_R, target_t)
        errs.append(pos[0] + rot[0])
        return pos, rot, e

    with monkeypatch.context() as m:
        m.setattr(kinematics, "_pose_errors", spy)
        m.setattr(IkParams, "restarts", 0)
        status = ik_solve(chain, target, q_init)[1]
    err, rejected, gain = errs[0], 0, None
    for e in errs[1:]:
        if e < err:
            err, rejected, gain = e, 0, err - e
        else:
            rejected += 1
    if status == "converged":
        return "converged", len(errs)
    if rejected == 6:
        return "rejected", len(errs)
    assert out_of_reach(chain, target.translation) and gain < IkParams.pos_tol
    return "stalled", len(errs)


def mixed_arm_rows():
    """Targets on both arms of humanoid B, in one batch: reachable poses,
    a rotated pose from the lower limits, and two targets 2 m out (one that
    stalls, with the half and with the full DLS step), each arm's rows
    interleaved with the other's."""
    cfg = humanoid_b_config()
    rows = []
    for k, chain in enumerate((cfg.left_arm, cfg.right_arm)):
        home = chain.mid_range()
        start = forward_kinematics(chain, home)
        rng = np.random.default_rng(3)
        for scale in (0.3, 0.6, 0.9, 1.2, 1.5, 1.8):
            q = chain.clamp(home + rng.normal(scale=scale, size=chain.n_joints))
            rows.append((k, forward_kinematics(chain, q), home))
        for offset in ([0.378, -0.397, 1.924], [1.63, -0.434, 1.074]):
            rows.append((k, Pose(start.rotation, start.translation + offset), home))
        rows.append((k, Pose(geometry.rotation_about_axis(Z, 1.0),
                             start.translation + [0.1, -0.1, 0.1]), chain.lower_limits))
    rows = rows[0::2] + rows[1::2]  # left and right rows alternate in the batch
    return cfg, rows


@pytest.mark.parametrize("restarts", [IkParams.restarts, 0], ids=["default", "no_restarts"])
def test_ik_rows_on_both_arms_equal_per_row_ik_solve(restarts, monkeypatch):
    """Rows of a batch on both arms' chains, leaving the first descent at
    different iterations by each rule (converged, six rejected trials, a
    far row's stall), equal `ik_solve` of each row alone, bit for bit."""
    cfg, rows = mixed_arm_rows()
    chains = (cfg.left_arm, cfg.right_arm)
    leaves = [leave_rule(chains[k], target, q0, monkeypatch) for k, target, q0 in rows]
    monkeypatch.setattr(IkParams, "restarts", restarts)
    for rule in ("converged", "rejected", "stalled"):
        assert len({n for r, n in leaves if r == rule}) >= 1 + (rule != "stalled"), leaves
    assert len({n for _, n in leaves}) >= 8
    arm = np.array([k for k, _, _ in rows])
    assert 0 < arm.sum() < len(arm)
    q, pos_err, rot_err, ok = _ik_rows(
        cfg.arms, arm, np.array([t.rotation for _, t, _ in rows]),
        np.array([t.translation for _, t, _ in rows]), np.array([q0 for _, _, q0 in rows]),
    )
    for b, (k, target, q0) in enumerate(rows):
        single = ik_solve(chains[k], target, q0)
        assert q[b].tobytes() == single[0].tobytes()
        assert (pos_err[b], rot_err[b]) == (single.pos_err, single.rot_err)
        assert ok[b] == (single[1] == "converged")


def test_nonfinite_warm_start_is_an_error(monkeypatch):
    """A NaN or inf arm joint in the warm start is a RetargetFailure, not a
    NaN command: for its row of `retarget_rows`, from `retarget_action`,
    and from `ik_solve` before any descent."""
    U = unified_space
    cfg = humanoid_b_config()
    cmd = home_command(cfg)
    action = U.encode_state(embed_robot_state(cmd, cfg))
    action[U.LEFT_WRIST_POS] += [2.0, 0.0, 0.0]  # out of the left arm's reach
    for bad_value in (np.nan, np.inf):
        warm = cmd.vector()
        warm[2] = bad_value  # a left arm joint
        with pytest.raises(RetargetFailure, match="warm-start"):
            retarget_action(action, cfg, RobotCommand.from_vector(cfg, warm))
        rows = retarget_rows(np.stack([action, action]), cfg, np.stack([warm, cmd.vector()]))
        assert isinstance(rows.errors[0], RetargetFailure) and rows.errors[1] is None
        assert rows.commands[0].tobytes() == warm.tobytes()
        out, diag = retarget_action(action, cfg, cmd)
        assert rows.commands[1].tobytes() == out.vector().tobytes()
        assert diag.left.status == "best_effort" and np.isfinite(diag.left.pos_err)
        with monkeypatch.context() as m:
            m.setattr(kinematics, "_dls_attempts", None)  # any descent would fail
            with pytest.raises(RetargetFailure, match="initial joints"):
                ik_solve(cfg.left_arm, forward_kinematics(cfg.left_arm, cmd.left_arm_q),
                         warm[:cfg.left_arm.n_joints])
    # With both non-finite, the target is reported, as before.
    bad = object.__new__(Pose)  # Pose construction refuses NaN
    object.__setattr__(bad, "rotation", np.eye(3))
    object.__setattr__(bad, "translation", np.full(3, np.nan))
    with pytest.raises(NonFiniteTarget):
        ik_solve(cfg.left_arm, bad, warm[:cfg.left_arm.n_joints])


def test_validate_limits_counts_nan_joints_as_outside():
    cfg = humanoid_b_config()
    cmd = home_command(cfg)
    assert cmd.validate_limits(cfg) == []
    n = cfg.left_arm.n_joints
    vec = cmd.vector()
    vec[[1, 2 * n]] = np.nan  # a left arm joint and the neck yaw
    vec[n + 3] = cfg.right_arm.joints[3].limits[1] + 1e-3
    assert RobotCommand.from_vector(cfg, vec).validate_limits(cfg) == [
        f"left_arm.{cfg.left_arm.joints[1].name}", f"right_arm.{cfg.right_arm.joints[3].name}",
        f"neck.{cfg.neck.joints[0].name}"]


def test_robot_command_parts_view_one_vector():
    cfg = humanoid_b_config()
    cmd = home_command(cfg)
    vec = cmd.vector()
    again = RobotCommand.from_vector(cfg, vec)
    for name in ("left_arm_q", "right_arm_q", "neck_q", "left_hand", "right_hand"):
        part = getattr(again, name)
        assert part.tobytes() == getattr(cmd, name).tobytes() and not part.flags.writeable
        assert np.shares_memory(part, again._vector)
    vec[0] += 1.0  # vector() is a copy, and from_vector copied it
    assert again.vector()[0] == vec[0] - 1.0
    with pytest.raises(DimensionMismatch):
        RobotCommand.from_vector(cfg, vec[:-1])
    with pytest.raises(DimensionMismatch):
        RobotCommand(np.zeros((2, 2)), cmd.right_arm_q, cmd.neck_q, cmd.left_hand, cmd.right_hand)
    with pytest.raises(ValueError, match="left_hand"):
        RobotCommand(cmd.left_arm_q, cmd.right_arm_q, cmd.neck_q, np.full(6, 1.5), cmd.right_hand)


def test_robot_command_equality_is_identity():
    """Commands with equal parts compare by identity, as booleans."""
    cfg = humanoid_b_config()
    a, b = home_command(cfg), home_command(cfg)
    assert (a == b) is False and (a != b) is True and (a == a) is True
    assert len({a, b, a}) == 2


# Humanoid B's right arm: attempt 0 from the init fails, a restart converges.
RESTART_CASE_B_Q = [-0.14, 0.646, -2.421, -0.874, 0.984, 2.239, 0.335]
RESTART_CASE_B_INIT = [0.296, 1.673, 2.635, 2.418, -1.562, 1.921, -1.465]


def retarget_oracle(action, cfg, cmd):
    """`retarget_action` of one row from its per-arm parts: each wrist by
    `ik_solve` on its own chain, the neck by `neck_angles_from_head_rotation`
    and `neck.clamp`, each hand by `_hand_actuators` of one row. Returns the command
    vector, the two `IkSolution`s and whether the limits moved the neck;
    raises what retarget_action raises for the row."""
    U = unified_space
    if not np.all(np.isfinite(action)):
        raise RetargetFailure("action contains non-finite values")
    left_R, right_R, head_R = (
        geometry.decode_rot6d(action[sl]) for sl in (U.LEFT_WRIST_ROT, U.RIGHT_WRIST_ROT, U.HEAD_ROT)
    )
    wrists = (Pose(left_R, action[U.LEFT_WRIST_POS]), Pose(right_R, action[U.RIGHT_WRIST_POS]))
    arms = [ik_solve(chain, wrist, q0) for chain, wrist, q0 in zip(
        (cfg.left_arm, cfg.right_arm), wrists, (cmd.left_arm_q, cmd.right_arm_q))]
    raw = np.array(neck_angles_from_head_rotation(head_R))
    neck = cfg.neck.clamp(raw)
    tips = action[U.FINGERTIPS].reshape(2, 5, 3)
    hands = [_hand_actuators(t[None], wrist.rotation[None], wrist.translation[None],
                             cfg.hand_model)[0] for t, wrist in zip(tips, wrists)]
    vector = np.concatenate([arms[0][0], arms[1][0], neck, *hands])
    return vector, arms, not np.isclose(neck, raw, atol=1e-12).all()


def test_retarget_rows_equal_per_row_retarget_action(monkeypatch):
    """Every row of a batch equals the per-arm oracle and `retarget_action`
    of that row alone, bit for bit, on the 5-DoF and the 7-DoF humanoid."""
    U = unified_space
    rng = np.random.default_rng(4)
    restart_cases = {"humanoid_a": (RESTART_CASE_Q, RESTART_CASE_INIT),
                     "humanoid_b": (RESTART_CASE_B_Q, RESTART_CASE_B_INIT)}
    for cfg in (humanoid_a_config(), humanoid_b_config()):
        cmd = home_command(cfg)
        base = U.encode_state(embed_robot_state(cmd, cfg))
        actions = np.tile(base, (8, 1)) + rng.normal(scale=0.01, size=(8, 54))
        prev = np.tile(cmd.vector(), (8, 1))
        actions[1, 20] = np.nan                            # non-finite
        actions[2, U.RIGHT_WRIST_ROT] = 0.0                # zero column
        actions[3, 0:6] = [1, 0, 0, 2, 0, 0]               # parallel head code
        actions[4, U.RIGHT_WRIST_POS] += [2.0, 0, 0]       # both wrists out of reach
        actions[4, U.LEFT_WRIST_POS] += [0, 2.0, 0]
        actions[5, U.HEAD_ROT] = geometry.encode_rot6d(
            geometry.rotation_about_axis(Z, 3.0))           # neck past its limit
        # Row 6: the right arm's attempt 0 fails and a restart converges.
        q, q_init = (np.array(v) for v in restart_cases[cfg.name])
        n = cfg.left_arm.n_joints
        restart = cmd.vector()
        restart[n:2 * n] = q
        actions[6] = U.encode_state(embed_robot_state(RobotCommand.from_vector(cfg, restart), cfg))
        prev[6, n:2 * n] = q_init
        rows = retarget_rows(actions, cfg, prev)
        for b, action in enumerate(actions):
            q_prev = RobotCommand.from_vector(cfg, prev[b])
            try:
                vector, arms, neck_clamped = retarget_oracle(action, cfg, q_prev)
            except CrossembError as exc:
                assert type(rows.errors[b]) is type(exc) and str(rows.errors[b]) == str(exc)
                assert rows.commands[b].tobytes() == prev[b].tobytes()
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    retarget_action(action, cfg, q_prev)
                continue
            assert rows.errors[b] is None
            assert rows.commands[b].tobytes() == vector.tobytes()
            assert rows.pos_err[b].tolist() == [arm.pos_err for arm in arms]
            assert rows.rot_err[b].tolist() == [arm.rot_err for arm in arms]
            assert rows.converged[b].tolist() == [arm[1] == "converged" for arm in arms]
            assert rows.neck_clamped[b] == neck_clamped
            out, diag = retarget_action(action, cfg, q_prev)
            assert out.vector().tobytes() == vector.tobytes()
            assert [(limb.status, limb.pos_err, limb.rot_err) for limb in (diag.left, diag.right)] \
                == [(arm[1], arm.pos_err, arm.rot_err) for arm in arms]
            assert ("neck:limit" in diag.clamp_events) == neck_clamped
        assert [type(e).__name__ for e in rows.errors[1:4]] == [
            "RetargetFailure", "DegenerateRotation6D", "DegenerateRotation6D"]
        assert not rows.converged[4].any() and rows.neck_clamped[5] and rows.converged[6].all()
        right_target = Pose(geometry.decode_rot6d(actions[6, U.RIGHT_WRIST_ROT]),
                            actions[6, U.RIGHT_WRIST_POS])
        with monkeypatch.context() as m:
            m.setattr(IkParams, "restarts", 0)
            assert ik_solve(cfg.right_arm, right_target, q_init)[1] == "best_effort"


def retarget_fixture_digests():
    """SHA-256 over commands, statuses and errors of `retarget_action` on
    warm reach streams, the six unreachable targets 2 m out along +-x, +-y,
    +-z, and a rotated target without restarts, on both humanoids: one over
    the rows whose wrist targets are both within reach, one over the rest."""
    U = unified_space
    near, far = hashlib.sha256(), hashlib.sha256()

    def run(action, cfg, q_prev, restarts=IkParams.restarts):
        h = far if any(out_of_reach(chain, action[sl]) for chain, sl in (
            (cfg.left_arm, U.LEFT_WRIST_POS), (cfg.right_arm, U.RIGHT_WRIST_POS))) else near
        with pytest.MonkeyPatch.context() as m:
            m.setattr(IkParams, "restarts", restarts)
            out, diag = retarget_action(action, cfg, q_prev)
        h.update(out.vector().tobytes())
        for limb in (diag.left, diag.right):
            h.update(limb.status.encode())
            h.update(np.array([limb.pos_err, limb.rot_err]).tobytes())
        return out

    for cfg in (humanoid_a_config(), humanoid_b_config()):
        home = home_command(cfg)
        base = U.encode_state(embed_robot_state(home, cfg))
        sweep = 0.4 * np.cos(np.arange(cfg.right_arm.n_joints))
        cmd = home
        for f in np.linspace(0.0, 1.0, 12):
            reach = RobotCommand(home.left_arm_q - 0.5 * f * sweep, home.right_arm_q + f * sweep,
                                 f * np.array([0.3, -0.2]), home.left_hand + 0.3 * f,
                                 home.right_hand - 0.2 * f)
            cmd = run(U.encode_state(embed_robot_state(reach, cfg)), cfg, cmd)
        for direction in np.vstack([np.eye(3), -np.eye(3)]):
            action = base.copy()
            action[U.RIGHT_WRIST_POS] += 2.0 * direction
            run(action, cfg, home)
        action = base.copy()
        action[U.RIGHT_WRIST_ROT] = geometry.encode_rot6d(geometry.rotation_about_axis(Z, 1.0))
        action[U.RIGHT_WRIST_POS] += [0.1, -0.1, 0.1]
        action[U.LEFT_WRIST_POS] += [0.05, 0.1, -0.05]
        low = RobotCommand(cfg.left_arm.lower_limits, cfg.right_arm.lower_limits,
                           np.zeros(2), home.left_hand, home.right_hand)
        run(action, cfg, low, restarts=0)
    return near.hexdigest(), far.hexdigest()


def test_retarget_outputs_pinned():
    assert retarget_fixture_digests() == (RETARGET_NEAR_DIGEST, RETARGET_FAR_DIGEST)


def test_embed_rows_equal_per_row_embed_robot_state():
    rng = np.random.default_rng(8)
    for cfg in (humanoid_a_config(), humanoid_b_config()):
        n_arms = cfg.left_arm.n_joints + cfg.right_arm.n_joints
        commands = np.hstack([rng.normal(scale=1.5, size=(6, n_arms + 2)), rng.random((6, 12))])
        batch = embed_rows(cfg, commands)
        for row, vec in zip(commands, batch):
            single = embed_robot_state(RobotCommand.from_vector(cfg, row), cfg)
            assert unified_space.encode_state(single).tobytes() == vec.tobytes()
