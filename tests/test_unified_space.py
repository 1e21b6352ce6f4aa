import numpy as np
import pytest

from crossemb import geometry, unified_space
from crossemb.errors import EmptyDataset, InvalidComponent
from crossemb.unified_space import (
    NormalizationStats,
    UnifiedState,
    compute_stats,
    decode_state,
    EEF,
    denormalize,
    encode_state,
    normalize,
)

# Identity rotations, zero positions.
IDENTITY_STATE = np.array([1.0, 0, 0, 0, 1, 0] * 3 + [0.0] * 36)


def two_pass_stats_oracle(frames):
    """Brute-force two-pass mean/population-variance."""
    frames = np.asarray(frames, dtype=float)
    mean = frames.sum(axis=0) / len(frames)
    var = ((frames - mean) ** 2).sum(axis=0) / len(frames)
    return mean, np.sqrt(var)


def make_state(rng):
    ident = geometry.encode_rot6d(np.eye(3))
    wrist_l = rng.normal(scale=0.1, size=3)
    wrist_r = rng.normal(scale=0.1, size=3)
    tips = np.concatenate(
        [wrist_l + rng.normal(scale=0.05, size=(5, 3)), wrist_r + rng.normal(scale=0.05, size=(5, 3))]
    )
    return UnifiedState(
        head_rot=ident,
        left_wrist_rot=geometry.encode_rot6d(geometry.rotation_about_axis(np.array([0.0, 0, 1]), rng.random())),
        right_wrist_rot=ident,
        left_wrist_pos=wrist_l,
        right_wrist_pos=wrist_r,
        fingertips=tips,
    )


def test_identity_state_layout():
    """Rotation codes occupy columns 0:18, head then left and right wrist;
    `rotation_codes` reads them as a view."""
    codes = unified_space.rotation_codes(IDENTITY_STATE)
    assert codes.shape == (3, 6) and np.shares_memory(codes, IDENTITY_STATE)
    np.testing.assert_array_equal(geometry.decode_rot6d(codes), np.tile(np.eye(3), (3, 1, 1)))
    np.testing.assert_array_equal(IDENTITY_STATE[18:], 0.0)
    rows = np.random.default_rng(0).normal(size=(4, 2, 54))
    blocks = (unified_space.HEAD_ROT, unified_space.LEFT_WRIST_ROT, unified_space.RIGHT_WRIST_ROT)
    for k, sl in enumerate(blocks):
        np.testing.assert_array_equal(unified_space.rotation_codes(rows)[..., k, :], rows[..., sl])


COMPONENTS = ("head_rot", "left_wrist_rot", "right_wrist_rot", "left_wrist_pos",
              "right_wrist_pos", "fingertips")


def component_rows(states):
    """The components of `states`, each stacked with one row per state."""
    return [np.array([getattr(s, name) for s in states]).reshape(len(states), *shape)
            for name, shape in zip(COMPONENTS, [(6,)] * 3 + [(3,)] * 2 + [(10, 3)])]


def test_roundtrip_bit_exact():
    """`state_rows` of a batch (of 0, 1 or 5 states) writes each row as
    `encode_state` of that row's state; decoding a row and encoding it
    again gives its bytes."""
    rng = np.random.default_rng(0)
    for n in (0, 1, 5):
        states = [make_state(rng) for _ in range(n)]
        rows = unified_space.state_rows(*component_rows(states))
        assert rows.shape == (n, 54) and rows.dtype == np.float64
        for state, vec in zip(states, rows):
            assert encode_state(state).tobytes() == vec.tobytes()
            assert encode_state(decode_state(vec)).tobytes() == vec.tobytes()


def test_layout_indices_for_left_wrist():
    rng = np.random.default_rng(1)
    state = make_state(rng)
    state = UnifiedState(
        head_rot=state.head_rot,
        left_wrist_rot=state.left_wrist_rot,
        right_wrist_rot=state.right_wrist_rot,
        left_wrist_pos=np.array([0.3, 0.2, 1.0]),
        right_wrist_pos=state.right_wrist_pos,
        fingertips=state.fingertips,
    )
    vec = encode_state(state)
    np.testing.assert_allclose(vec[18:21], [0.3, 0.2, 1.0])


def test_encode_rejects_bad_rotation_and_nonfinite():
    rng = np.random.default_rng(2)
    state = make_state(rng)
    bad_rot = UnifiedState(
        head_rot=np.zeros(6),
        left_wrist_rot=state.left_wrist_rot,
        right_wrist_rot=state.right_wrist_rot,
        left_wrist_pos=state.left_wrist_pos,
        right_wrist_pos=state.right_wrist_pos,
        fingertips=state.fingertips,
    )
    with pytest.raises(InvalidComponent):
        encode_state(bad_rot)
    bad_pos = UnifiedState(
        head_rot=state.head_rot,
        left_wrist_rot=state.left_wrist_rot,
        right_wrist_rot=state.right_wrist_rot,
        left_wrist_pos=np.array([np.inf, 0, 0]),
        right_wrist_pos=state.right_wrist_pos,
        fingertips=state.fingertips,
    )
    with pytest.raises(InvalidComponent):
        encode_state(bad_pos)
    # In a batch, the error names the first bad row and its component.
    parts = component_rows([state, state, bad_pos, bad_rot])
    with pytest.raises(InvalidComponent, match=r"^row 2: left_wrist_pos contains non-finite"):
        unified_space.state_rows(*parts)
    parts[5] = parts[5][:, :5]
    with pytest.raises(InvalidComponent, match=r"^fingertips must have shape \(4, 10, 3\)"):
        unified_space.state_rows(*parts)


def test_unified_state_and_decode_state_refuse_wrong_shapes():
    state = make_state(np.random.default_rng(3))
    with pytest.raises(InvalidComponent, match=r"fingertips must have shape \(10, 3\)"):
        UnifiedState(state.head_rot, state.left_wrist_rot, state.right_wrist_rot,
                     state.left_wrist_pos, state.right_wrist_pos, state.fingertips[:5])
    for vec in (IDENTITY_STATE[:53], np.tile(IDENTITY_STATE, (2, 1))):
        with pytest.raises(InvalidComponent, match="state vector must have shape"):
            decode_state(vec)


def test_eef_indices_exact():
    idx = np.arange(54)[EEF]
    assert set(idx.tolist()) == {18, 19, 20, 21, 22, 23}
    assert len(idx) == 6
    complement = set(range(54)) - set(idx.tolist())
    assert len(complement) == 48
    assert set(idx.tolist()).isdisjoint(set(range(24, 54)))


def test_hand_reach_validation():
    vec = IDENTITY_STATE.copy()
    vec[24:27] = [1.0, 0, 0]  # left thumb 1 m from wrist at origin
    with pytest.raises(InvalidComponent):
        unified_space.check_state_rows(vec[None], unified_space.DEFAULT_MAX_HAND_REACH)
    unified_space.check_state_rows(vec[None])


def test_check_state_rows_names_first_failing_row():
    rows = np.tile(IDENTITY_STATE, (5, 1))
    unified_space.check_state_rows(rows, unified_space.DEFAULT_MAX_HAND_REACH)
    cases = [
        ((3, 21), np.nan, r"^row 3: right_wrist_pos contains non-finite values$"),
        ((1, slice(6, 12)), 0.0, r"^row 1: left_wrist_rot: 6D column norm below 1e-9$"),
        ((4, slice(39, 42)), [0.0, 0.0, 1.0], r"^row 4: right fingertip 0 is 1\.000 m from wrist$"),
    ]
    for (row, col), value, message in cases:
        bad = rows.copy()
        bad[row, col] = value
        if row == 4:
            unified_space.check_state_rows(bad)  # reach is checked only on request
        with pytest.raises(InvalidComponent, match=message):
            unified_space.check_state_rows(bad, unified_space.DEFAULT_MAX_HAND_REACH)
    # The first failing row wins over later ones, whatever their component.
    bad = rows.copy()
    bad[2, 26] = 0.5
    bad[3, 0] = np.inf
    with pytest.raises(InvalidComponent, match=r"^row 2: left fingertip 0 is 0\.500 m"):
        unified_space.check_state_rows(bad, 0.35)


# --- statistics ----------------------------------------------------------

def test_constant_dataset_stats():
    frames = np.tile(IDENTITY_STATE, (5, 1))
    stats = compute_stats({"human": frames}, epsilon=1e-6)
    np.testing.assert_allclose(stats.mean, IDENTITY_STATE)
    np.testing.assert_allclose(stats.std, 1e-6)


def test_population_convention():
    frames = np.stack([np.zeros(54), np.full(54, 2.0)])
    stats = compute_stats({"x": frames}, epsilon=1e-6)
    np.testing.assert_allclose(stats.mean, 1.0)
    np.testing.assert_allclose(stats.std, 1.0)


def test_stats_match_two_pass_oracle():
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(1000, 54))
    stats = compute_stats({"human": frames}, epsilon=1e-12)
    mean, std = two_pass_stats_oracle(frames)
    np.testing.assert_allclose(stats.mean, mean, atol=1e-10)
    np.testing.assert_allclose(stats.std, std, atol=1e-10)


def test_stats_pool_every_tag_in_sorted_order():
    """One entry over all tags: the frames of each tag in sorted tag
    order, the same bits as stacking them by hand."""
    rng = np.random.default_rng(5)
    human = rng.normal(size=(10, 54))
    robot = rng.normal(loc=3.0, size=(1, 54))  # a single frame is enough
    stats = compute_stats({"robot": robot, "human": human, "none": np.empty((0, 54))})
    alone = compute_stats({"all": np.concatenate([human, robot])})
    np.testing.assert_array_equal(stats.mean, alone.mean)
    np.testing.assert_array_equal(stats.std, alone.std)
    with pytest.raises(EmptyDataset):
        compute_stats({})


def test_normalize_roundtrip_and_zero_at_mean():
    rng = np.random.default_rng(7)
    frames = rng.normal(size=(100, 54))
    stats = compute_stats({"h": frames}, epsilon=1e-6)
    np.testing.assert_allclose(normalize(stats.mean, stats), 0.0, atol=1e-12)
    x = rng.normal(size=54)
    np.testing.assert_allclose(denormalize(normalize(x, stats), stats), x, atol=1e-10)


def test_normalized_dataset_is_standardized():
    rng = np.random.default_rng(8)
    frames = rng.normal(loc=2.0, scale=3.0, size=(500, 54))
    stats = compute_stats({"h": frames}, epsilon=1e-6)
    normed = normalize(frames, stats)
    assert np.max(np.abs(normed.mean(axis=0))) <= 1e-8
    assert np.max(np.abs(normed.std(axis=0) - 1.0)) <= 1e-6


# Digest of the statistics below, as shared-mode statistics hashed before
# per-embodiment statistics were removed.
STATS_DIGEST = "a620160b448e44472aece2c561a7a4fcd823e07a5dbd995987f8424d13143e90"


def test_stats_json_roundtrip_and_digest():
    """The JSON form, and so every stored checkpoint's stats and digest,
    is the one shared-mode statistics had."""
    rng = np.random.default_rng(9)
    frames = rng.normal(size=(20, 54))
    stats = compute_stats({"human": frames, "robot": frames + 1}, epsilon=1e-5)
    doc = stats.to_json_dict()
    assert doc == {"mode": "shared", "epsilon": 1e-5,
                   "entries": {"shared": {"mean": stats.mean.tolist(),
                                          "std": stats.std.tolist()}}}
    back = NormalizationStats.from_json_dict(doc)
    assert back.digest() == stats.digest() == STATS_DIGEST
    np.testing.assert_array_equal(back.mean, stats.mean)
    np.testing.assert_array_equal(back.std, stats.std)
