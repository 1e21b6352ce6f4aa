import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from crossemb import dataset as ds
from crossemb import geometry, unified_space
from crossemb.dataset import (
    DemonstrationEpisode,
    IngestOptions,
    MixedSampler,
    extract_pairs,
    ingest,
    load_raw_capture,
    pair_stream_digest,
    read_dataset,
    write_dataset,
)
from crossemb.embodiments import humanoid_a_config
from crossemb.errors import (
    BodyMotionRejected,
    ChecksumMismatch,
    ConfigRequired,
    CorruptEpisode,
    CrossembError,
    DegenerateTrajectory,
    EmptySource,
    EpisodeTooShort,
    FrameSyncExhausted,
    InvalidComponent,
    InvalidMetadata,
    ParseError,
    VersionUnsupported,
)

# Identity rotations, zero positions.
IDENTITY_STATE = np.array([1.0, 0, 0, 0, 1, 0] * 3 + [0.0] * 36)


def pose_json(R=None, t=(0.0, 0.0, 0.0)):
    q = geometry.quat_from_matrix(R if R is not None else np.eye(3))
    return {"translation": list(t), "rotation_quaternion": q.tolist()}


def write_human_raw(tmp_path, n=12, rate=30.0, head_drift=0.0, feature_dim=4,
                    episode_id="h1"):
    root = tmp_path / episode_id
    root.mkdir()
    meta = {
        "id": episode_id,
        "device": "vr",
        "embodiment_tag": "human",
        "instruction": "pick the box",
        "kind": "human",
    }
    (root / "meta.json").write_text(json.dumps(meta))
    lines = []
    rng = np.random.default_rng(0)
    for i in range(n):
        t = i / rate
        f = i / (n - 1)
        head_t = (0.1 + head_drift * f, 0.0, 1.5)
        wrists = np.array([[0.3, 0.2, 1.0], [0.3 + 0.2 * f, -0.2, 1.0]])
        rec = {
            "t": t,
            "head_pose": pose_json(t=head_t),
            "left_wrist_pose": pose_json(t=wrists[0]),
            "right_wrist_pose": pose_json(t=wrists[1]),
            # Five fingertips around each wrist, left hand first.
            "fingertips": (
                wrists.repeat(5, axis=0) + rng.normal(scale=0.02, size=(10, 3))
            ).tolist(),
            "feature_vector": [float(f), 0.5, -0.5, 1.0],
        }
        lines.append(json.dumps(rec))
    (root / "frames.jsonl").write_text("\n".join(lines) + "\n")
    return root


def write_robot_raw(tmp_path, n=10, rate=30.0, episode_id="r1"):
    root = tmp_path / episode_id
    root.mkdir()
    meta = {
        "id": episode_id,
        "device": "teleop",
        "embodiment_tag": "robot",
        "instruction": "hold still",
        "kind": "robot",
    }
    (root / "meta.json").write_text(json.dumps(meta))
    lines = []
    for i in range(n):
        rec = {
            "t": i / rate,
            "joints": {
                "left_arm": [0.0, 0.1, 0.0, 0.2, 0.0],
                "right_arm": [0.0, 0.1, 0.0, 0.2, 0.0],
                "neck": [0.0, 0.0],
                "left_hand": [0.5] * 6,
                "right_hand": [0.5] * 6,
            },
            "feature_vector": [1.0, 2.0, 3.0, 4.0],
        }
        lines.append(json.dumps(rec))
    (root / "frames.jsonl").write_text("\n".join(lines) + "\n")
    return root


def rewrite_records(root, edit):
    """Replace capture `root`'s records by `edit(records)`, records as dicts."""
    records = [json.loads(l) for l in (root / "frames.jsonl").read_text().splitlines()]
    (root / "frames.jsonl").write_text("".join(json.dumps(r) + "\n" for r in edit(records)))


def synthetic_episode(ep_id, tag, n=20, feature_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    states = np.tile(IDENTITY_STATE, (n, 1))
    states[:, 18:24] += rng.normal(scale=0.05, size=(n, 6))
    return DemonstrationEpisode(
        id=ep_id,
        embodiment_tag=tag,
        instruction="synthetic",
        times=np.arange(n) / 30.0,
        states=states,
        features=rng.normal(size=(n, feature_dim)),
        metadata={"retimed": tag == "human", "alpha_applied": 4.0 if tag == "human" else 1.0},
    )


# --- ingestion ---------------------------------------------------------------

def test_ingest_robot_constant_joints(tmp_path):
    cfg = humanoid_a_config()
    raw = load_raw_capture(write_robot_raw(tmp_path))
    ep = ingest(raw, config=cfg, options=IngestOptions(feature_dim=4))
    assert ep.embodiment_tag == "robot"
    assert ep.metadata["retimed"] is False
    assert ep.metadata["alpha_applied"] == 1.0
    assert abs(ep.metadata["duration_s"] - 9 / 30.0) <= 1e-9
    for s in ep.states[1:]:
        np.testing.assert_array_equal(s, ep.states[0])


def test_ingest_robot_without_config_is_an_error(tmp_path):
    raw = load_raw_capture(write_robot_raw(tmp_path))
    with pytest.raises(ConfigRequired, match="'r1': robot captures require an embodiment config"):
        ingest(raw, options=IngestOptions(feature_dim=4))


def test_ingest_human_retimes(tmp_path):
    raw = load_raw_capture(write_human_raw(tmp_path, n=10, rate=30.0))
    ep = ingest(raw, options=IngestOptions(alpha=4.0, out_rate=30.0, feature_dim=4))
    assert ep.metadata["retimed"] is True
    assert ep.metadata["alpha_applied"] == 4.0
    assert len(ep) == 37
    assert abs(ep.metadata["duration_s"] - 1.2) <= 1 / 30.0


def test_ingest_human_canonical_frame(tmp_path):
    raw = load_raw_capture(write_human_raw(tmp_path, n=10))
    options = IngestOptions(alpha=4.0, out_rate=30.0, feature_dim=4)
    ep = ingest(raw, options=options)
    # First head pose maps to (0, 0, 0.60), the default drop; wrists land relative to it.
    state = unified_space.decode_state(ep.states[0])
    np.testing.assert_allclose(state.left_wrist_pos, [0.2, 0.2, 0.1], atol=1e-9)


def canonical_wrist_oracle(raw_dir, drop):
    """The first frame's left wrist in the canonical frame, reimplemented:
    origin `drop` m below the first head position, x the head's heading."""
    lines = [json.loads(l) for l in (raw_dir / "frames.jsonl").read_text().splitlines()]
    h0 = lines[0]["head_pose"]
    R0 = geometry.quat_to_matrix(np.array(h0["rotation_quaternion"]))
    fwd = R0[:, 0].copy()
    fwd[2] = 0.0
    fwd /= np.linalg.norm(fwd)
    z = np.array([0.0, 0.0, 1.0])
    Rc = np.stack([fwd, np.cross(z, fwd), z], axis=1)
    oc = np.array(h0["translation"]) - np.array([0, 0, drop])
    lw = np.array(lines[0]["left_wrist_pose"]["translation"])
    return Rc.T @ (lw - oc)


def test_ingest_human_conversion_matches_oracle(tmp_path):
    """Canonical-frame re-expression equals an independent reimplementation;
    without a config the origin drops 0.60 m below the first head position."""
    raw_dir = write_human_raw(tmp_path, n=100)
    options = IngestOptions(alpha=4.0, out_rate=30.0, feature_dim=4)
    ep = ingest(load_raw_capture(raw_dir), options=options)
    # frame 0 of the episode equals the re-expressed first raw frame exactly
    state = unified_space.decode_state(ep.states[0])
    np.testing.assert_allclose(state.left_wrist_pos, canonical_wrist_oracle(raw_dir, 0.60),
                               atol=1e-9)


def test_ingest_human_drop_follows_config(tmp_path):
    """Ingest under a config places the canonical origin its
    `canonical_frame_offset` below the first head position."""
    raw_dir = write_human_raw(tmp_path, n=100)
    config = replace(humanoid_a_config(), canonical_frame_offset=0.5)
    ep = ingest(load_raw_capture(raw_dir), config=config,
                options=IngestOptions(alpha=4.0, out_rate=30.0, feature_dim=4))
    state = unified_space.decode_state(ep.states[0])
    np.testing.assert_allclose(state.left_wrist_pos, canonical_wrist_oracle(raw_dir, 0.5),
                               atol=1e-9)
    default = ingest(load_raw_capture(raw_dir), options=IngestOptions(feature_dim=4))
    # A 0.1 m shorter drop raises the origin, so the wrist sits 0.1 m lower.
    np.testing.assert_allclose(state.left_wrist_pos[2] + 0.1,
                               unified_space.decode_state(default.states[0]).left_wrist_pos[2],
                               atol=1e-9)


def test_ingest_rejects_body_motion(tmp_path):
    raw = load_raw_capture(write_human_raw(tmp_path, head_drift=0.3))
    with pytest.raises(BodyMotionRejected) as err:
        ingest(raw, options=IngestOptions(feature_dim=4))
    assert err.value.excursion_m >= 0.29


def test_ingest_idempotent(tmp_path):
    raw_dir = write_human_raw(tmp_path, n=20)
    ep1 = ingest(load_raw_capture(raw_dir), options=IngestOptions(feature_dim=4))
    ep2 = ingest(load_raw_capture(raw_dir), options=IngestOptions(feature_dim=4))
    np.testing.assert_array_equal(ep1.states, ep2.states)
    np.testing.assert_array_equal(ep1.features, ep2.features)
    np.testing.assert_array_equal(ep1.times, ep2.times)


def test_ingest_parse_error(tmp_path):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "meta.json").write_text(json.dumps({"embodiment_tag": "human"}))
    (root / "frames.jsonl").write_text('{"t": 0.0}\n{not json}\n')
    with pytest.raises(ParseError) as err:
        load_raw_capture(root)
    assert err.value.line_no == 2


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_ingest_parse_error_line_counts_any_line_ending(tmp_path, newline):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "meta.json").write_text(json.dumps({"embodiment_tag": "human"}))
    (root / "frames.jsonl").write_bytes(newline.join(['{"t": 0.0}', "{not json}", ""]).encode())
    with pytest.raises(ParseError) as err:
        load_raw_capture(root)
    assert err.value.line_no == 2


def test_ingest_rejects_undecodable_frames(tmp_path):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "meta.json").write_text(json.dumps({"embodiment_tag": "human"}))
    (root / "frames.jsonl").write_bytes(b'{"t": 0.0}\n{"t": 0.1, "x": "\xff\xfe"}\n')
    with pytest.raises(CrossembError):
        load_raw_capture(root)


@pytest.mark.parametrize("bad_t", ['"0.1"', "true", "null", "NaN", "Infinity", "[0]"])
def test_ingest_rejects_non_numeric_timestamp(tmp_path, bad_t):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "meta.json").write_text(json.dumps({"embodiment_tag": "human"}))
    (root / "frames.jsonl").write_text('{"t": 0.0}\n{"t": %s}\n' % bad_t)
    with pytest.raises(ParseError) as err:
        load_raw_capture(root)
    assert err.value.line_no == 2


BAD_POSES = {
    "zero_quaternion": ("left_wrist_pose", {"translation": [0.3, 0.2, 1.0],
                                            "rotation_quaternion": [0, 0, 0, 0]}),
    "nan_quaternion": ("head_pose", {"translation": [0.1, 0.0, 1.5],
                                     "rotation_quaternion": [float("nan"), 0, 0, 1]}),
    "inf_translation": ("right_wrist_pose", {"translation": [float("inf"), 0, 0],
                                             "rotation_quaternion": [1, 0, 0, 0]}),
    "short_translation": ("left_wrist_pose", {"translation": [0.3, 0.2],
                                              "rotation_quaternion": [1, 0, 0, 0]}),
    "fingertips_not_numbers": ("fingertips", [["a", "b", "c"]] * 10),
    "fingertips_10x2": ("fingertips", [[0.3, 0.2]] * 10),
    "fingertips_9x3": ("fingertips", [[0.3, 0.2, 1.0]] * 9),
    "nested_translation": ("left_wrist_pose", {"translation": [[0.3, 0.2, 1.0]],
                                               "rotation_quaternion": [1, 0, 0, 0]}),
    "nested_quaternion": ("head_pose", {"translation": [0.1, 0.0, 1.5],
                                        "rotation_quaternion": [[1], [0], [0], [0]]}),
    "pose_not_object": ("right_wrist_pose", [0.3, -0.2, 1.0]),
    "no_quaternion": ("right_wrist_pose", {"translation": [0.3, -0.2, 1.0]}),
}


@pytest.mark.parametrize("case", sorted(BAD_POSES))
def test_ingest_rejects_bad_pose(tmp_path, case):
    root = write_human_raw(tmp_path)
    lines = (root / "frames.jsonl").read_text().splitlines()
    record = json.loads(lines[4])
    key, value = BAD_POSES[case]
    record[key] = value
    lines[4] = json.dumps(record)
    (root / "frames.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        ingest(load_raw_capture(root), options=IngestOptions(feature_dim=4))
    assert err.value.line_no == 5


@pytest.mark.parametrize("head", [
    {"translation": [0.1, 0.0], "rotation_quaternion": [1, 0, 0, 0]},
    {"translation": [float("nan"), 0.0, 1.5], "rotation_quaternion": [1, 0, 0, 0]},
    [0.1, 0.0, 1.5],
], ids=["short_translation", "nan_translation", "not_object"])
def test_ingest_rejects_bad_first_head_pose(tmp_path, head):
    """The first synced record's head pose places the canonical frame; a
    bad one is refused at its line, as in any other record."""
    root = write_human_raw(tmp_path)
    rewrite_records(root, lambda recs: [recs[0] | {"head_pose": head}] + recs[1:])
    with pytest.raises(ParseError, match="bad pose field 'head_pose'") as err:
        ingest(load_raw_capture(root), options=IngestOptions(feature_dim=4))
    assert err.value.line_no == 1


def test_ingest_anchors_on_the_first_synced_record(tmp_path):
    """A first pose record that sync drops, its head 1 cm beside the next
    one's, moves no frame of the episode: it ingests to the bytes of the
    capture without that record, even with a head pose that is no pose."""

    def edit(records):
        for k, r in enumerate(records):
            r["head_pose"]["translation"][1] = 0.01 * k
        del records[0]["feature_vector"]  # 1/30 s from the next visual frame
        return records

    root, short = (write_human_raw(tmp_path, episode_id=name) for name in ("full", "short"))
    rewrite_records(root, edit)
    rewrite_records(short, lambda recs: edit(recs)[1:])
    options = IngestOptions(feature_dim=4)
    without = ingest(load_raw_capture(short), options=options)
    assert without.metadata["dropped_frames"] == 0
    for head in (None, [0.1, 0.0, 1.5]):
        if head is not None:
            rewrite_records(root, lambda recs: [recs[0] | {"head_pose": head}] + recs[1:])
        ep = ingest(load_raw_capture(root), options=options)
        assert ep.metadata["dropped_frames"] == 1
        for name in ("times", "states", "features"):
            assert getattr(ep, name).tobytes() == getattr(without, name).tobytes(), name


@pytest.mark.parametrize("feature", [["a", "b", "c", "d"], [1.0, 2.0, 3.0], [[1.0, 2.0]] * 2],
                         ids=["not_numbers", "ragged", "nested"])
def test_ingest_rejects_bad_feature_vector(tmp_path, feature):
    root = write_robot_raw(tmp_path)
    lines = (root / "frames.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    record["feature_vector"] = feature
    lines[3] = json.dumps(record)
    (root / "frames.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        ingest(load_raw_capture(root), config=humanoid_a_config(),
               options=IngestOptions(feature_dim=4))
    assert err.value.line_no == 4


@pytest.mark.parametrize("text", ["NaN", "-Infinity", "1e400"])
@pytest.mark.parametrize("write_raw", [write_human_raw, write_robot_raw], ids=["human", "robot"])
def test_ingest_rejects_non_finite_feature_vector(tmp_path, write_raw, text):
    root = write_raw(tmp_path)
    rewrite_records(root, lambda recs: recs[:3] + [
        recs[3] | {"feature_vector": [1.0, 12345.5, 3.0, 4.0]}] + recs[4:])
    frames = (root / "frames.jsonl").read_text()
    (root / "frames.jsonl").write_text(frames.replace("12345.5", text))
    with pytest.raises(ParseError, match="feature_vector contains non-finite values") as err:
        ingest(load_raw_capture(root), config=humanoid_a_config(),
               options=IngestOptions(feature_dim=4))
    assert err.value.line_no == 4


def test_ingest_rejects_empty_feature_vectors(tmp_path):
    """All of them empty, so no width differs; the dataset would have no
    feature column."""
    root = write_robot_raw(tmp_path)
    lines = [json.loads(line) for line in (root / "frames.jsonl").read_text().splitlines()]
    (root / "frames.jsonl").write_text(
        "".join(json.dumps(rec | {"feature_vector": []}) + "\n" for rec in lines))
    with pytest.raises(ParseError) as err:
        ingest(load_raw_capture(root), config=humanoid_a_config())
    assert err.value.line_no == 1


@pytest.mark.parametrize("joints", [
    {"left_arm": [0.0] * 4}, {"right_arm": [0.0] * 7}, {"neck": [0.0] * 3},
    {"left_hand": [1.5] * 6}, {"right_hand": None},
    {"left_arm": [[0.0] * 5]}, {"neck": [[0.0], [0.0]]}, {"right_hand": [-1e-11] + [0.5] * 5},
], ids=["short_left_arm", "long_right_arm", "long_neck", "hand_out_of_range", "no_hand",
        "nested_left_arm", "nested_neck", "hand_below_slack"])
def test_ingest_rejects_bad_joints_record(tmp_path, joints):
    root = write_robot_raw(tmp_path)
    lines = (root / "frames.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["joints"].update(joints)
    lines[2] = json.dumps(record)
    (root / "frames.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        ingest(load_raw_capture(root), config=humanoid_a_config(),
               options=IngestOptions(feature_dim=4))
    assert err.value.line_no == 3


def test_ingest_accepts_hand_values_within_the_slack(tmp_path):
    """Hand values may stray 1e-12 outside [0, 1], as in a `RobotCommand`."""
    root = write_robot_raw(tmp_path)
    rewrite_records(root, lambda recs: [r | {"joints": r["joints"] | {
        "left_hand": [1.0 + 5e-13] * 6, "right_hand": [-5e-13] * 6}} for r in recs])
    ep = ingest(load_raw_capture(root), config=humanoid_a_config(),
                options=IngestOptions(feature_dim=4))
    assert len(ep) == 10


ZERO_QUATERNION = {"translation": [0.3, 0.2, 1.0], "rotation_quaternion": [0, 0, 0, 0]}
NESTED_TRANSLATION = {"translation": [[0.3, 0.2, 1.0]], "rotation_quaternion": [1, 0, 0, 0]}
NAN_TRANSLATION = {"translation": [float("nan"), 0.2, 1.0], "rotation_quaternion": [1, 0, 0, 0]}


@pytest.mark.parametrize("edits", [
    {6: ("head_pose", NESTED_TRANSLATION), 3: ("right_wrist_pose", ZERO_QUATERNION)},
    {3: ("right_wrist_pose", NESTED_TRANSLATION), 6: ("head_pose", ZERO_QUATERNION)},
    {3: ("fingertips", [[0.0, 0.0]] * 10), 6: ("left_wrist_pose", NAN_TRANSLATION)},
    {6: ("fingertips", [[0.0, 0.0]] * 10), 3: ("left_wrist_pose", NAN_TRANSLATION)},
    {5: ("head_pose", ZERO_QUATERNION), 3: ("right_wrist_pose", NAN_TRANSLATION)},
], ids=["value_then_arity", "arity_then_value", "tips_then_pose", "pose_then_tips",
        "right_then_head"])
def test_ingest_reports_the_first_bad_pose_record(tmp_path, edits):
    """Of several bad records the first in synced order is reported,
    whichever check each fails."""
    root = write_human_raw(tmp_path)

    def edit(records):
        for k, (key, value) in edits.items():
            records[k][key] = value
        return records

    rewrite_records(root, edit)
    with pytest.raises(ParseError) as err:
        ingest(load_raw_capture(root), options=IngestOptions(feature_dim=4))
    assert err.value.line_no == 4


@pytest.mark.parametrize("edits", [
    {2: {"left_hand": [1.5] * 6}, 5: {"left_arm": [0.0] * 4}},
    {2: {"neck": [[0.0, 0.0]]}, 5: {"right_hand": [-0.5] * 6}},
    {5: {"left_arm": [0.0] * 4}, 2: {"right_hand": [-0.5] * 6}},
], ids=["range_then_arity", "arity_then_range", "later_field_first"])
def test_ingest_reports_the_first_bad_joints_record(tmp_path, edits):
    root = write_robot_raw(tmp_path)

    def edit(records):
        for k, joints in edits.items():
            records[k]["joints"].update(joints)
        return records

    rewrite_records(root, edit)
    with pytest.raises(ParseError) as err:
        ingest(load_raw_capture(root), config=humanoid_a_config(),
               options=IngestOptions(feature_dim=4))
    assert err.value.line_no == 3


def test_ingest_refuses_a_wrist_that_overflows_in_the_canonical_frame(tmp_path):
    """A finite wrist translation whose canonical-frame value overflows
    is refused as a non-finite state component."""
    root = write_human_raw(tmp_path)
    turn = geometry.rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.7)

    def edit(records):
        for r in records:
            r["head_pose"] = pose_json(turn, r["head_pose"]["translation"])
        records[4]["left_wrist_pose"]["translation"] = [1.7e308, 1.7e308, 0.0]
        return records

    rewrite_records(root, edit)
    with (pytest.raises(InvalidComponent, match="row 4: left_wrist_pos contains non-finite values"),
          np.errstate(over="ignore")):
        ingest(load_raw_capture(root), options=IngestOptions(feature_dim=4))


@pytest.mark.parametrize("pitch", [-np.pi / 2, np.pi / 2], ids=["up", "down"])
def test_ingest_head_looking_straight_up_or_down_keeps_world_heading(tmp_path, pitch):
    """A first head pose whose forward axis is vertical has no heading; the
    canonical frame then keeps the world x axis."""
    root = write_human_raw(tmp_path)
    R = geometry.rotation_about_axis(np.array([0.0, 1.0, 0.0]), pitch)
    rewrite_records(root, lambda recs: [
        r | {"head_pose": pose_json(R, r["head_pose"]["translation"])} for r in recs])
    state = unified_space.decode_state(
        ingest(load_raw_capture(root), options=IngestOptions(feature_dim=4)).states[0])
    np.testing.assert_allclose(state.left_wrist_pos, [0.2, 0.2, 0.1], atol=1e-9)
    np.testing.assert_allclose(state.head_rot, geometry.encode_rot6d(R), atol=1e-9)


def test_ingest_single_visual_frame_pairs_every_record(tmp_path):
    """One visual frame gives no frame period to bound the skew by: every
    pose record pairs with it."""
    root = write_human_raw(tmp_path)

    def keep_first_feature(records):
        for r in records[1:]:
            del r["feature_vector"]
        return records

    rewrite_records(root, keep_first_feature)
    ep = ingest(load_raw_capture(root), options=IngestOptions(feature_dim=4))
    assert ep.metadata["dropped_frames"] == 0
    np.testing.assert_array_equal(ep.features, np.tile([0.0, 0.5, -0.5, 1.0], (len(ep), 1)))


def _without_features(records):
    return [{k: v for k, v in r.items() if k != "feature_vector"} for r in records]


SYNC_EXHAUSTED = {
    "one_pose_record": (lambda recs: recs[:1] + [
        {"t": r["t"], "feature_vector": r["feature_vector"]} for r in recs[1:]],
        "fewer than two proprioceptive records"),
    "no_visual_records": (_without_features, "no visual records"),
    "visual_far_from_poses": (lambda recs: _without_features(recs) + [
        {"t": 100.0 + i, "feature_vector": [0.0] * 4} for i in range(2)],
        r"synchronization left 0 frame\(s\); dropped 12"),
    "one_pose_near_visual": (lambda recs: _without_features(recs) + [
        {"t": recs[-1]["t"] + 0.001 + 0.01 * i, "feature_vector": [0.0] * 4} for i in range(2)],
        r"synchronization left 1 frame\(s\); dropped 11"),
}


@pytest.mark.parametrize("case", sorted(SYNC_EXHAUSTED))
def test_ingest_sync_exhausted(tmp_path, case):
    root = write_human_raw(tmp_path)
    edit, message = SYNC_EXHAUSTED[case]
    rewrite_records(root, edit)
    with pytest.raises(FrameSyncExhausted, match=message):
        ingest(load_raw_capture(root), options=IngestOptions(feature_dim=4))


BAD_META = {
    "missing_tag": json.dumps({"device": "vr", "kind": "human"}),
    "not_object": json.dumps(["embodiment_tag", "human"]),
    "unparsable": '{"embodiment_tag": "human"',
    "tag_not_string": json.dumps({"embodiment_tag": 3}),
    "unknown_kind": json.dumps({"embodiment_tag": "human", "kind": "alien"}),
}


@pytest.mark.parametrize("case", sorted(BAD_META))
def test_load_raw_capture_rejects_bad_meta(tmp_path, case):
    root = write_human_raw(tmp_path)
    (root / "meta.json").write_text(BAD_META[case])
    with pytest.raises(InvalidMetadata):
        load_raw_capture(root)


def test_ingest_image_ref_features(tmp_path):
    root = write_human_raw(tmp_path, n=10)
    lines = [json.loads(l) for l in (root / "frames.jsonl").read_text().splitlines()]
    for rec in lines:
        del rec["feature_vector"]
        rec["image_ref"] = f"frame-{rec['t']:.3f}.png"
    (root / "frames.jsonl").write_text("\n".join(json.dumps(r) for r in lines) + "\n")
    ep = ingest(load_raw_capture(root), options=IngestOptions(feature_dim=6))
    assert ep.feature_dim == 6
    # deterministic synthesis
    np.testing.assert_array_equal(
        ep.features[0], ds.synthetic_features("frame-0.000.png", 6)
    )


@pytest.mark.parametrize("first", ["a", "b"])
def test_ingest_duplicate_visual_timestamps_pair_the_earlier_record(tmp_path, first):
    """Two visual records at one time, 5 ms before pose record 5, which
    lost its own feature: the pose record, coming from after the pair of
    equal times, pairs the one earlier in the file, and nothing is dropped."""
    root = write_human_raw(tmp_path, n=12)
    lines = [json.loads(l) for l in (root / "frames.jsonl").read_text().splitlines()]
    del lines[5]["feature_vector"]
    features = {"a": [9.0, 9.0, 9.0, 9.0], "b": [-9.0, -9.0, -9.0, -9.0]}
    order = [first, "b" if first == "a" else "a"]
    lines[5:5] = [{"t": lines[5]["t"] - 0.005, "feature_vector": features[key]}
                  for key in order]
    (root / "frames.jsonl").write_text("\n".join(json.dumps(r) for r in lines) + "\n")
    ep = ingest(load_raw_capture(root))
    assert ep.metadata["dropped_frames"] == 0
    kept = {tuple(row) for row in ep.features.tolist()}
    assert tuple(features[order[0]]) in kept
    assert tuple(features[order[1]]) not in kept
    # Every other pose record keeps its own feature.
    assert len(kept) == 12


def _turned(records):
    """The human records seen from a world frame turned and shifted, each
    right wrist also turned by its own angle."""
    W = geometry.rotation_about_axis(np.array([0.36, -0.48, 0.8]), 0.7)
    shift = np.array([1.2, -0.5, 0.1])
    for k, rec in enumerate(records):
        for key in ("head_pose", "left_wrist_pose", "right_wrist_pose"):
            R = geometry.quat_to_matrix(np.array(rec[key]["rotation_quaternion"]))
            if key == "right_wrist_pose":
                R = R @ geometry.rotation_about_axis(np.array([0.0, 1.0, 0.0]), 0.1 * k)
            rec[key] = pose_json(W @ R, W @ np.array(rec[key]["translation"]) + shift)
        rec["fingertips"] = (np.array(rec["fingertips"]) @ W.T + shift).tolist()
    return records


def _moving_joints(records):
    for k, rec in enumerate(records):
        rec["joints"]["left_arm"] = [0.03 * k, 0.1, -0.02 * k, 0.2, 0.01 * k]
        rec["joints"]["neck"] = [0.05 * k, -0.02 * k]
        rec["joints"]["right_hand"] = [0.1 * (k % 10)] * 6
    return records


PINNED_INGEST_BYTES = "f6663b504ec308692c160933a8d6a940ae43c7517690573791b4cf4b57a5969e"


def test_ingest_bytes_pinned(tmp_path):
    """SHA-256 of manifest.json and the episode files that ingest and
    `write_dataset` make of the suite's captures: plain, turned in the
    world, and a robot capture with moving joints."""
    turned = write_human_raw(tmp_path, n=30, episode_id="turned")
    rewrite_records(turned, _turned)
    robot = write_robot_raw(tmp_path, n=12)
    rewrite_records(robot, _moving_joints)
    cfg = humanoid_a_config()
    episodes = [ingest(load_raw_capture(root), config=cfg, options=IngestOptions(feature_dim=4))
                for root in (write_human_raw(tmp_path), turned, robot)]
    write_dataset(episodes, tmp_path / "d")
    h = hashlib.sha256()
    for path in sorted((tmp_path / "d").rglob("*.*")):
        h.update(path.relative_to(tmp_path / "d").as_posix().encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == PINNED_INGEST_BYTES



# --- storage -------------------------------------------------------------

@pytest.mark.parametrize("states, features, message", [
    (np.zeros((4, 53)), np.zeros((4, 2)), "states shape"),
    (np.tile(IDENTITY_STATE, (4, 1)), np.zeros(4), "features shape"),
    (np.tile(IDENTITY_STATE, (4, 1)), np.zeros((3, 2)), "features shape"),
], ids=["states_53_wide", "features_1d", "features_3_rows"])
def test_episode_refuses_states_or_features_of_wrong_shape(states, features, message):
    with pytest.raises(DegenerateTrajectory, match=message):
        DemonstrationEpisode("e", "human", "", np.arange(4) / 30.0, states, features)


def test_write_read_empty(tmp_path):
    manifest = write_dataset([], tmp_path / "d")
    m2, eps = read_dataset(tmp_path / "d")
    assert eps == []
    assert m2["episodes"] == []


@pytest.mark.parametrize("ids, message", [
    (["a", "b", "a"], "'a' is repeated"),
    (["a", "../../escaped"], "is not a file name"),
    (["sub/a"], "is not a file name"),
    (["a\\b"], "is not a file name"),
    (["a\0b"], "is not a file name"),
    ([""], "is not a file name"),
    (["."], "is not a file name"),
    ([".."], "is not a file name"),
], ids=["repeated", "escape", "slash", "backslash", "nul", "empty", "dot", "dotdot"])
def test_write_dataset_refuses_ids_before_writing(tmp_path, ids, message):
    eps = [synthetic_episode(ep_id, "robot") for ep_id in ids]
    with pytest.raises(InvalidMetadata, match=message):
        write_dataset(eps, tmp_path / "a" / "d")
    assert list(tmp_path.iterdir()) == []


def test_write_read_roundtrip_bit_exact(tmp_path):
    eps = [synthetic_episode(f"ep{i:03d}", "human" if i % 2 else "robot", seed=i)
           for i in range(100)]
    write_dataset(eps, tmp_path / "d")
    _, back = read_dataset(tmp_path / "d")
    assert [e.id for e in back] == [e.id for e in eps]
    for a, b in zip(eps, back):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert a.features.tobytes() == b.features.tobytes()
        assert a.instruction == b.instruction
        assert a.metadata == b.metadata


def test_read_detects_corruption(tmp_path):
    eps = [synthetic_episode("ep0", "robot")]
    write_dataset(eps, tmp_path / "d")
    target = tmp_path / "d" / "episodes" / "ep0.bin"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        read_dataset(tmp_path / "d")


def test_read_rejects_bad_version(tmp_path):
    write_dataset([synthetic_episode("ep0", "robot")], tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["format_version"] = 99
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(VersionUnsupported):
        read_dataset(tmp_path / "d")


@pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b[:12], lambda b: b + bytes(8)],
                         ids=["truncated", "cut_in_header", "trailing_bytes"])
def test_read_rejects_episode_file_of_wrong_length(tmp_path, edit):
    """A file whose manifest checksum matches but whose length disagrees
    with its header."""
    write_dataset([synthetic_episode("ep0", "robot")], tmp_path / "d")
    path = tmp_path / "d" / "episodes" / "ep0.bin"
    blob = edit(path.read_bytes())
    path.write_bytes(blob)
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["episodes"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(CorruptEpisode):
        read_dataset(tmp_path / "d")


def _drop(key):
    def edit(doc):
        del doc[key]
    return edit


def _drop_entry(key):
    def edit(doc):
        del doc["episodes"][0][key]
    return edit


BAD_MANIFEST = {
    "no_episodes": _drop("episodes"),
    "no_feature_dim": _drop("feature_dim"),
    "episodes_not_list": lambda doc: doc.update(episodes={"ep0": {}}),
    "entry_not_object": lambda doc: doc["episodes"].__setitem__(0, "episodes/ep0.bin"),
    "entry_no_file": _drop_entry("file"),
    "entry_no_sha256": _drop_entry("sha256"),
    "entry_no_id": _drop_entry("id"),
    "entry_sha256_not_string": lambda doc: doc["episodes"][0].update(sha256=None),
    "entry_file_absolute": lambda doc: doc["episodes"][0].update(file="/etc/hostname"),
    "entry_file_outside": lambda doc: doc["episodes"][0].update(file="../d/episodes/ep0.bin"),
}


def test_read_rejects_bad_episode_magic(tmp_path):
    """An episode file of another format, stored under a matching checksum."""
    write_dataset([synthetic_episode("ep0", "robot")], tmp_path / "d")
    path = tmp_path / "d" / "episodes" / "ep0.bin"
    blob = b"CEEPISO9" + path.read_bytes()[8:]
    path.write_bytes(blob)
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["episodes"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(VersionUnsupported, match="bad episode magic b'CEEPISO9'"):
        read_dataset(tmp_path / "d")


def test_write_dataset_refuses_episodes_of_different_feature_widths(tmp_path):
    eps = [synthetic_episode("a", "robot", feature_dim=4),
           synthetic_episode("b", "human", feature_dim=5)]
    with pytest.raises(DegenerateTrajectory, match=r"feature dims differ across episodes: \[4, 5\]"):
        write_dataset(eps, tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_read_ignores_stats_files_of_older_manifests(tmp_path):
    """Datasets written when the manifest could name statistics files
    still read, with or without them."""
    eps = [synthetic_episode("ep0", "robot")]
    write_dataset(eps, tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    assert "stats_files" not in doc
    for stats_files in (None, {"state": "stats/state.json"}, ["state.json"]):
        manifest_path.write_text(json.dumps(doc | {"stats_files": stats_files}))
        _, back = read_dataset(tmp_path / "d")
        np.testing.assert_array_equal(back[0].states, eps[0].states)


@pytest.mark.parametrize("case", sorted(BAD_MANIFEST))
def test_read_rejects_malformed_manifest(tmp_path, case):
    write_dataset([synthetic_episode("ep0", "robot")], tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    BAD_MANIFEST[case](doc)
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(InvalidMetadata):
        read_dataset(tmp_path / "d")


@pytest.mark.parametrize("feature_dim", [3, 5, 0, -2])
def test_read_rejects_manifest_feature_dim_other_than_the_episodes(tmp_path, feature_dim):
    """The episodes are 4 wide; an empty dataset keeps its manifest's 0."""
    write_dataset([synthetic_episode("ep0", "robot"), synthetic_episode("ep1", "human")],
                  tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps(doc | {"feature_dim": feature_dim}))
    with pytest.raises(InvalidMetadata, match=f"feature_dim {feature_dim}, but episode ep0 has 4"):
        read_dataset(tmp_path / "d")
    write_dataset([], tmp_path / "empty")
    assert read_dataset(tmp_path / "empty") == ({"format_version": 1, "feature_dim": 0,
                                                 "episodes": []}, [])


@pytest.mark.parametrize(
    "blob", [b"{not json", b"[1, 2]", b"\xff\xfe{}"], ids=["unparsable", "not_object", "not_utf8"]
)
def test_read_rejects_unparsable_manifest(tmp_path, blob):
    write_dataset([synthetic_episode("ep0", "robot")], tmp_path / "d")
    (tmp_path / "d" / "manifest.json").write_bytes(blob)
    with pytest.raises(InvalidMetadata):
        read_dataset(tmp_path / "d")


# --- training pairs --------------------------------------------------------

def test_extract_pairs_counts():
    ep = synthetic_episode("e", "human", n=4)
    assert len(extract_pairs([ep], 3, 1)) == 1
    ep = synthetic_episode("e", "human", n=10)
    assert len(extract_pairs([ep], 3, 1)) == 7
    with pytest.raises(EpisodeTooShort):
        extract_pairs([synthetic_episode("e", "human", n=3)], 3, 1)


def test_extract_pairs_contents_match_index_oracle():
    n, K, stride = 12, 4, 2
    ep = synthetic_episode("e", "robot", n=n, seed=9)
    pairs = extract_pairs([ep], K, stride)
    expected_count = (n - 1 - K) // stride + 1
    assert len(pairs) == expected_count
    states, feats, chunks = pairs.take(np.arange(len(pairs)))
    for i in range(len(pairs)):
        start = i * stride
        np.testing.assert_array_equal(states[i], ep.states[start])
        np.testing.assert_array_equal(feats[i], ep.features[start])
        np.testing.assert_array_equal(chunks[i], ep.states[start + 1 : start + 1 + K])
        assert pairs.ids[i] == f"e#{start}"


def test_extract_pairs_refuses_bad_sizes_and_mixed_tags():
    ep = synthetic_episode("e", "human", n=10)
    for chunk_length, stride in ((0, 1), (3, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            extract_pairs([ep], chunk_length, stride)
    with pytest.raises(ValueError, match="exactly one tag"):
        extract_pairs([ep, synthetic_episode("r", "robot", n=10)], 3)
    with pytest.raises(ValueError, match="exactly one tag"):
        extract_pairs([], 3)


def test_pairs_never_cross_episodes():
    eps = [synthetic_episode(f"e{i}", "human", n=8, seed=i) for i in range(3)]
    pairs = ds.episodes_to_pairs_by_tag(eps, chunk_length=3)["human"]
    _, _, chunks = pairs.take(np.arange(len(pairs)))
    for pair_id, chunk in zip(pairs.ids, chunks):
        ep_id = pair_id.split("#")[0]
        ep = next(e for e in eps if e.id == ep_id)
        start = int(pair_id.split("#")[1])
        np.testing.assert_array_equal(chunk, ep.states[start + 1 : start + 4])


# --- mixed sampler -----------------------------------------------------------

def make_pairs(tag, count):
    """`count` one-pair episodes (K = 2, F = 2), all at the identity state."""
    episodes = [
        DemonstrationEpisode(
            id=f"{tag}-{i}",
            embodiment_tag=tag,
            instruction="",
            times=np.arange(3) / 30.0,
            states=np.tile(IDENTITY_STATE, (3, 1)),
            features=np.zeros((3, 2)),
        )
        for i in range(count)
    ]
    return extract_pairs(episodes, 2)


def stream_ids(stream, n):
    return [pair_set.ids[row] for pair_set, row in itertools.islice(stream, n)]


def test_sampler_exact_ratio():
    pairs = {"human": make_pairs("human", 50), "robot": make_pairs("robot", 20)}
    sampler = MixedSampler(pairs, {"human": 3.0, "robot": 1.0}, seed=0)
    stream = sampler.stream()
    counts = {"human": 0, "robot": 0}
    for _ in range(4000):
        counts[next(stream)[0].tag] += 1
    assert counts == {"human": 3000, "robot": 1000}


def test_sampler_single_tag_passthrough_permutation():
    pairs = {"robot": make_pairs("robot", 10)}
    sampler = MixedSampler(pairs, {"robot": 1.0}, seed=5)
    first_epoch = stream_ids(sampler.stream(), 10)
    assert sorted(first_epoch) == sorted(pairs["robot"].ids)


def test_sampler_two_seeds_same_multiset():
    pairs = {"human": make_pairs("human", 30), "robot": make_pairs("robot", 10)}
    a = MixedSampler(pairs, {"human": 3.0, "robot": 1.0}, seed=1)
    b = MixedSampler(pairs, {"human": 3.0, "robot": 1.0}, seed=2)
    ids_a = stream_ids(a.stream(), 120)
    ids_b = stream_ids(b.stream(), 120)
    assert ids_a != ids_b
    assert sorted(ids_a) == sorted(ids_b)


def test_sampler_digest_stable():
    pairs = {"human": make_pairs("human", 40), "robot": make_pairs("robot", 15)}
    d1 = pair_stream_digest(MixedSampler(pairs, {"human": 3, "robot": 1}, seed=7), n=10_000)
    d2 = pair_stream_digest(MixedSampler(pairs, {"human": 3, "robot": 1}, seed=7), n=10_000)
    assert d1 == d2
    d3 = pair_stream_digest(MixedSampler(pairs, {"human": 3, "robot": 1}, seed=8), n=10_000)
    assert d1 != d3


def test_sampler_skip_matches_uninterrupted():
    pairs = {"human": make_pairs("human", 25), "robot": make_pairs("robot", 9)}
    ids_full = stream_ids(MixedSampler(pairs, {"human": 2, "robot": 1}, seed=3).stream(), 200)
    resumed = MixedSampler(pairs, {"human": 2, "robot": 1}, seed=3).stream()
    ids_resumed = stream_ids(itertools.islice(resumed, 120, None), 80)
    assert ids_full[120:] == ids_resumed


def test_sampler_empty_source():
    with pytest.raises(EmptySource):
        MixedSampler({"human": []}, {"human": 1.0}, seed=0)
    with pytest.raises(EmptySource):
        MixedSampler({"human": make_pairs("human", 3)}, {"human": 1.0, "robot": 1.0}, seed=0)
    with pytest.raises(EmptySource):
        MixedSampler({"human": make_pairs("human", 3)}, {}, seed=0)


@pytest.mark.parametrize("weight", [0.0, -1.0])
def test_sampler_refuses_nonpositive_weight(weight):
    pairs = {"human": make_pairs("human", 3), "robot": make_pairs("robot", 3)}
    with pytest.raises(ValueError, match="'robot' must be positive"):
        MixedSampler(pairs, {"human": 1.0, "robot": weight}, seed=0)


def test_sampler_digest_pinned():
    """Digests of a fixed episode set, recorded before pairs became arrays."""
    eps = [synthetic_episode(f"h{i}", "human", n=10 + i, seed=i) for i in range(5)]
    eps += [synthetic_episode(f"r{i}", "robot", n=9 + i, seed=10 + i) for i in range(3)]
    pairs = ds.episodes_to_pairs_by_tag(eps, 3)
    assert pair_stream_digest(MixedSampler(pairs, ds.default_ratio(pairs), seed=0), n=5000) == (
        "d549f38180836a3881f66bd0d818b76b5407d468ed61049b262900e16f4de146"
    )
    assert pair_stream_digest(MixedSampler(pairs, {"human": 3, "robot": 1}, seed=7), n=5000) == (
        "b5abb11fc58aed456c14d2e597670994e5df27ad9cc237b054da26a23d024a32"
    )


def test_sampler_tied_schedule_and_skip():
    """Three-tag streams with tied shares keep the schedule of the numpy-based
    sampler they were recorded on, and a fresh stream skipped ahead resumes
    past epoch reshuffles."""
    pairs = {tag: make_pairs(tag, n) for tag, n in (("a", 7), ("b", 5), ("c", 11))}
    tied = MixedSampler(pairs, {"a": 1, "b": 1, "c": 1}, seed=2)
    assert pair_stream_digest(tied, n=3000) == (
        "2dd1c15670386a4f1466063c3838535fbe6a5568c8e77d126aa12a5440cca854"
    )
    halves = MixedSampler(pairs, {"a": 1, "b": 2, "c": 1}, seed=4)
    assert pair_stream_digest(halves, n=3000) == (
        "b516939bf016b6ae94013e22a16fc73c760bc1b35932b09022e559bae06c82b3"
    )
    full = stream_ids(halves.stream(), 3000)
    for k in (1, 23, 1000, 2222):
        assert stream_ids(itertools.islice(halves.stream(), k, None), 3000 - k) == full[k:]
