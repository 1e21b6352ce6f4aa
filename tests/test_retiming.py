import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossemb import geometry, unified_space
from crossemb.dataset import BODY_MOTION_THRESHOLD_M
from crossemb.errors import DegenerateTrajectory, EmptyStream
from crossemb.retiming import (
    Trajectory,
    body_motion_check,
    retime,
    sync_streams,
)
from test_geometry import quat_rotation_angle

# Identity rotations, zero positions.
IDENTITY_STATE = np.array([1.0, 0, 0, 0, 1, 0] * 3 + [0.0] * 36)


def make_fixture_trajectory(n=10, rate=30.0, rotate_deg=0.0, tag="human"):
    """n frames at `rate`; the left wrist rotates `rotate_deg` uniformly
    about z and translates linearly along x."""
    times = np.arange(n) / rate
    states = np.empty((n, 54))
    for i, f in enumerate(np.linspace(0.0, 1.0, n)):
        vec = IDENTITY_STATE.copy()
        R = geometry.rotation_about_axis(np.array([0.0, 0, 1]), np.deg2rad(rotate_deg) * f)
        vec[unified_space.LEFT_WRIST_ROT] = geometry.encode_rot6d(R)
        vec[unified_space.LEFT_WRIST_POS] = [f, 0.0, 0.0]
        states[i] = vec
    head = np.zeros((n, 3))
    return Trajectory(times=times, states=states, embodiment_tag=tag, nominal_rate=rate,
                      head_positions=head)


def test_trajectory_invariants():
    with pytest.raises(DegenerateTrajectory):
        Trajectory(times=np.array([0.0]), states=np.zeros((1, 54)),
                   embodiment_tag="x", nominal_rate=30.0)
    with pytest.raises(DegenerateTrajectory):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 54)),
                   embodiment_tag="x", nominal_rate=30.0)


def test_slowdown_factor_validation():
    traj = make_fixture_trajectory(n=10, rate=30.0)
    for alpha in (0.5, float("inf")):
        with pytest.raises(ValueError):
            retime(traj, alpha, 30.0)
    assert len(retime(traj, 4.0, 30.0)) == 37


@pytest.mark.parametrize("out_rate", [0.0, -30.0, float("nan"), float("inf")])
def test_output_rate_validation(out_rate):
    with pytest.raises(ValueError, match="out_rate"):
        retime(make_fixture_trajectory(n=10, rate=30.0), 4.0, out_rate)


def test_retime_fixture_frame_count_and_endpoints():
    traj = make_fixture_trajectory(n=10, rate=30.0)
    out = retime(traj, 4.0, 30.0)
    assert len(out) == 37
    assert abs(out.duration - 4.0 * traj.duration) <= 1.0 / 30.0
    np.testing.assert_array_equal(out.states[0], traj.states[0])
    np.testing.assert_array_equal(out.states[-1], traj.states[-1])
    assert out.embodiment_tag == traj.embodiment_tag
    assert np.all(np.diff(out.times) > 0)


def test_retime_constant_trajectory():
    traj = make_fixture_trajectory(n=10, rotate_deg=0.0)
    const = Trajectory(
        times=traj.times,
        states=np.tile(traj.states[0], (len(traj), 1)),
        embodiment_tag="human",
        nominal_rate=30.0,
    )
    out = retime(const, 4.0, 30.0)
    for s in out.states:
        np.testing.assert_allclose(s, const.states[0], atol=1e-12)


def test_retime_uniform_rotation_steps():
    traj = make_fixture_trajectory(n=10, rotate_deg=90.0)
    out = retime(traj, 4.0, 30.0)
    assert len(out) == 37
    step = np.deg2rad(90.0) / 36
    for i in range(len(out) - 1):
        q0 = geometry.quat_from_matrix(
            geometry.decode_rot6d(out.states[i][unified_space.LEFT_WRIST_ROT])
        )
        q1 = geometry.quat_from_matrix(
            geometry.decode_rot6d(out.states[i + 1][unified_space.LEFT_WRIST_ROT])
        )
        assert abs(quat_rotation_angle(q0, q1) - step) <= 1e-9


def test_retime_alpha_one_reproduces_input():
    traj = make_fixture_trajectory(n=10, rotate_deg=45.0)
    out = retime(traj, 1.0 + 1e-12, 30.0)
    assert len(out) == len(traj)
    np.testing.assert_allclose(out.states, traj.states, atol=1e-9)
    np.testing.assert_allclose(out.times, traj.times, atol=1e-9)


def test_retime_duration_exactness_various():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        rate = float(rng.choice([15.0, 30.0, 60.0]))
        alpha = float(1.0 + 3.5 * rng.random())
        out_rate = float(rng.choice([10.0, 30.0, 50.0]))
        traj = make_fixture_trajectory(n=n, rate=rate, rotate_deg=30.0)
        out = retime(traj, alpha, out_rate)
        assert abs(out.duration - alpha * traj.duration) <= 1.0 / out_rate + 1e-12


def test_retime_commutes_with_rigid_transform():
    traj = make_fixture_trajectory(n=12, rotate_deg=20.0)
    R = geometry.rotation_about_axis(np.array([0.0, 0, 1]), 0.7)
    shift = np.array([0.1, -0.2, 0.05])

    def transform_positions(states):
        out = states.copy()
        for sl in (unified_space.LEFT_WRIST_POS, unified_space.RIGHT_WRIST_POS):
            out[:, sl] = states[:, sl] @ R.T + shift
        tips = states[:, unified_space.FINGERTIPS].reshape(-1, 10, 3)
        out[:, unified_space.FINGERTIPS] = (tips @ R.T + shift).reshape(-1, 30)
        return out

    moved = Trajectory(
        times=traj.times,
        states=transform_positions(traj.states),
        embodiment_tag=traj.embodiment_tag,
        nominal_rate=traj.nominal_rate,
    )
    a = retime(moved, 2.5, 30.0).states
    b = transform_positions(retime(traj, 2.5, 30.0).states)
    np.testing.assert_allclose(a, b, atol=1e-9)


# --- stream synchronization ----------------------------------------------

def brute_force_pairing_oracle(proprio_t, visual_t, max_skew):
    """(proprio index, nearest visual index) of each pair kept, nearest by
    a scan that keeps the first of equally near frames, and the dropped
    count."""
    pairs, dropped = [], 0
    for i, t in enumerate(proprio_t):
        best_j, best_dt = None, None
        for j, tv in enumerate(visual_t):
            dt = abs(tv - t)
            if best_dt is None or dt < best_dt:
                best_j, best_dt = j, dt
        if best_dt > max_skew:
            dropped += 1
        else:
            pairs.append((i, best_j))
    return pairs, dropped


def sync(proprio_t, visual_t, max_skew):
    return sync_streams(np.array(proprio_t, dtype=float), np.array(visual_t, dtype=float),
                        max_skew)


def test_sync_nearest_neighbor_simple():
    res = sync([0.100], [0.095, 0.128], max_skew=0.05)
    assert res.proprio.tolist() == [0]
    assert res.visual.tolist() == [0]
    assert res.dropped == 0


def test_sync_identical_timestamps():
    times = np.arange(10) / 30.0
    res = sync(times, times, max_skew=1e-6)
    assert len(res.proprio) == len(res.visual) == 10
    np.testing.assert_array_equal(times[res.proprio], times[res.visual])


def test_sync_tie_prefers_earlier_visual():
    res = sync([0.5], [0.4, 0.6], max_skew=1.0)
    assert res.visual.tolist() == [0]


def test_sync_duplicate_visual_times_pair_the_earlier_frame():
    """From either side of a run of equal visual times, a record pairs
    the run's first frame."""
    res = sync([0.8, 1.2], [1.0, 1.0], max_skew=1.0)
    assert res.visual.tolist() == [0, 0]


def test_sync_drops_beyond_max_skew():
    res = sync([0.0, 5.0], [0.01], max_skew=0.1)
    assert res.proprio.tolist() == [0]
    assert res.dropped == 1


def test_sync_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    proprio_t, visual_t = rng.random(1000) * 10, rng.random(700) * 10
    # Then proprio halfway between visual frames on a 1 cm grid: ties to break.
    for grid in (0.0, 0.01):
        if grid:
            proprio_t = np.round(proprio_t / grid) * grid + grid / 2
            visual_t = np.unique(np.round(visual_t / grid)) * grid
        proprio, visual = np.sort(proprio_t), np.sort(visual_t)
        max_skew = 0.02
        res = sync_streams(proprio, visual, max_skew)
        oracle_pairs, oracle_dropped = brute_force_pairing_oracle(proprio, visual, max_skew)
        assert res.dropped == oracle_dropped
        assert len(res.proprio) == len(res.visual) == len(oracle_pairs)
        assert list(zip(res.proprio.tolist(), res.visual.tolist())) == oracle_pairs
        # each proprio record appears at most once and output stays sorted
        assert (np.diff(res.proprio) > 0).all()


def test_sync_empty_stream_raises():
    with pytest.raises(EmptyStream):
        sync([], [0.0], 0.1)
    with pytest.raises(EmptyStream):
        sync([0.0], [], 0.1)


# --- body motion check ----------------------------------------------------

def test_body_motion_stationary_passes():
    traj = make_fixture_trajectory(n=10)
    assert body_motion_check(traj) == 0.0
    # A trajectory without head positions (a robot log) counts as stationary.
    assert body_motion_check(Trajectory(traj.times, traj.states, "robot", 30.0)) == 0.0


def test_body_motion_drift_fails():
    traj = make_fixture_trajectory(n=10)
    head = np.zeros((10, 3))
    head[:, 0] = np.linspace(0, 0.3, 10)
    drifted = Trajectory(
        times=traj.times, states=traj.states, embodiment_tag="human",
        nominal_rate=30.0, head_positions=head,
    )
    excursion = body_motion_check(drifted)
    assert excursion > BODY_MOTION_THRESHOLD_M
    assert abs(excursion - 0.3) <= 1e-12


def test_body_motion_excursion_matches_scan_oracle():
    rng = np.random.default_rng(3)
    traj = make_fixture_trajectory(n=50)
    head = rng.normal(scale=0.05, size=(50, 3))
    moved = Trajectory(
        times=traj.times, states=traj.states, embodiment_tag="human",
        nominal_rate=30.0, head_positions=head,
    )
    oracle = max(float(np.linalg.norm(h - head[0])) for h in head)
    assert abs(body_motion_check(moved) - oracle) <= 1e-12


def per_frame_retime_reference(traj, alpha, out_rate):
    """`retime` as one blend per output frame, each rotation block decoded,
    converted, slerped and encoded on its own."""
    t0 = traj.times[0]
    n_intervals = max(1, int(round(alpha * traj.duration * out_rate)))
    out_times = t0 + np.arange(n_intervals + 1) / out_rate
    states = np.empty((n_intervals + 1, 54))
    head = np.empty((n_intervals + 1, 3))
    for k in range(n_intervals + 1):
        if k == 0:
            src = traj.times[0]
        elif k == n_intervals:
            src = traj.times[-1]
        else:
            src = min(t0 + (out_times[k] - t0) / alpha, traj.times[-1])
        j = int(np.searchsorted(traj.times, src, side="right")) - 1
        j = min(max(j, 0), len(traj) - 2)
        u = float(np.clip((src - traj.times[j]) / (traj.times[j + 1] - traj.times[j]), 0.0, 1.0))
        s0, s1 = traj.states[j], traj.states[j + 1]
        if u == 0.0:
            states[k] = s0
        elif u == 1.0:
            states[k] = s1
        else:
            states[k] = (1.0 - u) * s0 + u * s1
            for sl in (unified_space.HEAD_ROT, unified_space.LEFT_WRIST_ROT,
                       unified_space.RIGHT_WRIST_ROT):
                q0 = geometry.quat_from_matrix(geometry.decode_rot6d(s0[sl]))
                q1 = geometry.quat_from_matrix(geometry.decode_rot6d(s1[sl]))
                states[k, sl] = geometry.encode_rot6d(
                    geometry.quat_to_matrix(geometry.slerp(q0, q1, u))
                )
        if traj.head_positions is not None:
            head[k] = (1.0 - u) * traj.head_positions[j] + u * traj.head_positions[j + 1]
    return out_times, states, head if traj.head_positions is not None else None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    uniform_times=st.booleans(),
    alpha=st.one_of(st.just(1.0), st.just(4.0), st.floats(1.0, 8.0)),
    out_rate=st.sampled_from([10.0, 30.0]),
    with_head=st.booleans(),
)
def test_retime_equals_per_frame_reference(seed, n, uniform_times, alpha, out_rate, with_head):
    rng = np.random.default_rng(seed)
    steps = np.full(n - 1, 1 / 30.0) if uniform_times else rng.uniform(0.005, 0.08, n - 1)
    times = rng.uniform(0.0, 5.0) + np.concatenate([[0.0], np.cumsum(steps)])
    states = rng.normal(size=(n, 54))
    # Small rotations between frames as well as unrelated ones.
    states[1::2, :18] = states[::2, :18][: n // 2] + rng.normal(scale=1e-3, size=(n // 2, 18))
    # Signed zeros tell an exact endpoint copy from a blend with weight 0.
    positions = states[:, 18:]
    positions[rng.random(positions.shape) < 0.2] = -0.0
    traj = Trajectory(times=times, states=states, embodiment_tag="human",
                      nominal_rate=30.0,
                      head_positions=rng.normal(size=(n, 3)) if with_head else None)
    out = retime(traj, alpha, out_rate)
    want_times, want_states, want_head = per_frame_retime_reference(traj, alpha, out_rate)
    assert out.times.tobytes() == want_times.tobytes()
    assert out.states.tobytes() == want_states.tobytes()
    if with_head:
        assert out.head_positions.tobytes() == want_head.tobytes()
    else:
        assert out.head_positions is None
