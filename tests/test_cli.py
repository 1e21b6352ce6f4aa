import argparse
import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from crossemb import dataset, geometry, harness, policy, unified_space
from crossemb.cli import build_parser, cli
from crossemb.dataset import read_dataset, write_dataset
from crossemb.embodiments import humanoid_a_config, load_embodiment_config
from crossemb.kinematics import IkParams, forward_kinematics
from crossemb.retiming import Trajectory, retime

from test_dataset import (IDENTITY_STATE, rewrite_records, synthetic_episode, write_human_raw,
                          write_robot_raw)
from test_policy import BAD_STATS_HEADERS, MISTYPED_HEADERS, OTHER_SHAPE_HEADERS, rewrite_header


# humanoid_a as a config file, in the format `load_embodiment_config` reads.
HUMANOID_A_FILE = Path(__file__).resolve().parent / "data" / "humanoid_a.json"


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(HUMANOID_A_FILE.read_text())
    return str(path)


def test_config_file_loads_equal_to_builtin():
    """The committed file is humanoid_a: its degrees and quaternions load
    to the builtin's radians and rotations to within rounding."""
    loaded, builtin = load_embodiment_config(HUMANOID_A_FILE), humanoid_a_config()
    assert loaded.name == builtin.name
    assert loaded.canonical_frame_offset == builtin.canonical_frame_offset
    for chain in ("left_arm", "right_arm", "neck"):
        a, b = getattr(loaded, chain), getattr(builtin, chain)
        assert [j.name for j in a.joints] == [j.name for j in b.joints]
        for x, y in zip(a.arrays, b.arrays):
            if x is None or y is None:  # None stands for identity origin rotations
                x, y = np.broadcast_arrays(*(np.eye(3) if v is None else v for v in (x, y)))
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
    for field in dataclasses.fields(builtin.hand_model):
        np.testing.assert_allclose(getattr(loaded.hand_model, field.name),
                                   getattr(builtin.hand_model, field.name), rtol=0, atol=1e-12)


def fixture_traj_doc(n=10, rate=30.0):
    times = np.arange(n) / rate
    frames = []
    for i, f in enumerate(np.linspace(0, 1, n)):
        vec = IDENTITY_STATE.copy()
        vec[unified_space.LEFT_WRIST_POS] = [f, 0, 0]
        frames.append({"t": float(times[i]), "state": vec.tolist()})
    return {"embodiment_tag": "human", "nominal_rate": rate, "frames": frames}


def test_usage_error_exit_2(capsys):
    assert cli([]) == 2
    assert cli(["fk"]) == 2  # missing required flags
    assert cli(["definitely-not-a-command"]) == 2


def test_validate_ok_and_failure(tmp_path, capsys):
    eps = [synthetic_episode(f"e{i}", "robot", seed=i) for i in range(3)]
    write_dataset(eps, tmp_path / "d")
    assert cli(["validate", "--dataset", str(tmp_path / "d")]) == 0
    # corrupt one episode -> exit 1
    target = tmp_path / "d" / "episodes" / "e0.bin"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    assert cli(["validate", "--dataset", str(tmp_path / "d")]) == 1


def test_validate_non_increasing_times_exit_1(tmp_path, capsys):
    """Times that do not increase, stored under a matching checksum, fail
    the episode's own check when the dataset is read."""
    write_dataset([synthetic_episode("e0", "robot")], tmp_path / "d")
    target = tmp_path / "d" / "episodes" / "e0.bin"
    blob = bytearray(target.read_bytes())
    blob[24:32] = blob[16:24]  # times[1] = times[0]
    target.write_bytes(bytes(blob))
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["episodes"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
    manifest_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli(["validate", "--dataset", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "strictly increasing" in err


def test_validate_check_reach_exit_1(tmp_path, capsys):
    ep = synthetic_episode("e0", "robot")
    states = ep.states.copy()
    states[7, 24:27] = states[7, 18:21] + [1.0, 0.0, 0.0]  # left thumb 1 m from its wrist
    write_dataset([dataclasses.replace(ep, states=states)], tmp_path / "d")
    assert cli(["validate", "--dataset", str(tmp_path / "d")]) == 0
    capsys.readouterr()
    assert cli(["validate", "--dataset", str(tmp_path / "d"), "--check-reach"]) == 1
    assert "FAIL e0 row 7: left fingertip 0 is 1.000 m from wrist" in capsys.readouterr().out


def test_validate_malformed_manifest_exit_1(tmp_path, capsys):
    write_dataset([synthetic_episode("e0", "robot")], tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    del doc["episodes"]
    manifest_path.write_text(json.dumps(doc))
    assert cli(["validate", "--dataset", str(tmp_path / "d")]) == 1
    manifest_path.write_text("{not json")
    assert cli(["validate", "--dataset", str(tmp_path / "d")]) == 1
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("meta", ['{"device": "vr"}', "[]", "{not json"])
def test_ingest_bad_meta_exit_1(tmp_path, meta, capsys):
    raw = write_human_raw(tmp_path, n=12, episode_id="h1")
    (raw / "meta.json").write_text(meta)
    assert cli(["ingest", "--raw", str(raw), "--out", str(tmp_path / "data")]) == 1
    assert "meta.json" in capsys.readouterr().err


def test_fk_matches_library_and_byte_stable(config_file, capsys):
    argv = ["fk", "--embodiment-config", config_file, "--chain", "right_arm",
            "--q", "0,0,0,0,0"]
    assert cli(argv) == 0
    out1 = capsys.readouterr().out
    assert cli(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    pose = forward_kinematics(humanoid_a_config().right_arm, np.zeros(5))
    np.testing.assert_allclose(doc["translation"], pose.translation, atol=1e-15)


def test_ik_byte_stable(config_file, capsys):
    argv = ["ik", "--embodiment-config", config_file, "--chain", "right_arm",
            "--target-pos", "0.2,-0.25,0.1"]
    assert cli(argv) == 0
    out1 = capsys.readouterr().out
    assert cli(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["status"] in ("converged", "best_effort")


def test_ik_target_quat(capsys):
    """A unit `--target-quat` is the rotation IK solves for; a zero one
    exits 1 naming the flag."""
    chain = load_embodiment_config("humanoid_b").right_arm
    target = forward_kinematics(chain, chain.mid_range() + 0.2)
    argv = ["ik", "--embodiment-config", "humanoid_b", "--chain", "right_arm",
            "--target-pos=" + ",".join(map(str, target.translation.tolist()))]
    quat = geometry.quat_from_matrix(target.rotation)
    rotation_errors = []
    for extra in (["--target-quat=" + ",".join(map(str, quat.tolist()))], []):
        assert cli(argv + extra) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "converged"
        achieved = forward_kinematics(chain, np.array(doc["q"])).rotation
        rotation_errors.append(np.linalg.norm(geometry.rotation_log(achieved.T @ target.rotation)))
    # Without the flag IK solves for the identity rotation instead.
    assert rotation_errors[0] <= IkParams.rot_tol < rotation_errors[1]
    assert cli(argv + ["--target-quat", "0,0,0,0"]) == 1
    assert "error: --target-quat: quaternion norm is degenerate" in capsys.readouterr().err


def test_retime_head_positions_to_stdout(tmp_path, capsys):
    """Without `--output` the retimed trajectory, head positions included,
    goes to stdout."""
    doc = fixture_traj_doc()
    head = np.array([[0.01 * i, 0.0, 0.6] for i in range(len(doc["frames"]))])
    src = tmp_path / "traj.json"
    src.write_text(json.dumps(doc | {"head_positions": head.tolist()}))
    assert cli(["retime", "--input", str(src), "--alpha", "4", "--rate", "30"]) == 0
    out = json.loads(capsys.readouterr().out)
    lib = retime(Trajectory(times=np.array([f["t"] for f in doc["frames"]]),
                            states=np.array([f["state"] for f in doc["frames"]]),
                            embodiment_tag="human", nominal_rate=30.0, head_positions=head),
                 4.0, 30.0)
    np.testing.assert_array_equal(out["head_positions"], lib.head_positions)
    np.testing.assert_array_equal([f["state"] for f in out["frames"]], lib.states)
    assert list(tmp_path.iterdir()) == [src]


def test_retime_golden_file(tmp_path, capsys):
    src = tmp_path / "traj.json"
    src.write_text(json.dumps(fixture_traj_doc()))
    out1 = tmp_path / "out1.json"
    out2 = tmp_path / "out2.json"
    base = ["retime", "--input", str(src), "--alpha", "4", "--rate", "30"]
    assert cli(base + ["--output", str(out1)]) == 0
    assert cli(base + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # equals the library result
    doc = json.loads(out1.read_text())
    traj = Trajectory(
        times=np.array([f["t"] for f in fixture_traj_doc()["frames"]]),
        states=np.array([f["state"] for f in fixture_traj_doc()["frames"]]),
        embodiment_tag="human",
        nominal_rate=30.0,
    )
    lib = retime(traj, 4.0, 30.0)
    np.testing.assert_array_equal(
        np.array([f["state"] for f in doc["frames"]]), lib.states
    )
    assert len(doc["frames"]) == 37


def test_ingest_stats_validate_pipeline(tmp_path, config_file):
    """Ingest, validate, then train: the statistics, one entry shared by
    both tags, are computed by `train` and stored in the checkpoint."""
    h = write_human_raw(tmp_path, n=12, episode_id="h1")
    r = write_robot_raw(tmp_path, n=12, episode_id="r1")
    data_dir = tmp_path / "data"
    assert cli([
        "ingest", "--raw", str(h), str(r), "--out", str(data_dir),
        "--embodiment-config", config_file, "--feature-dim", "4",
    ]) == 0
    assert cli(["validate", "--dataset", str(data_dir)]) == 0
    ckpt = tmp_path / "model.ckpt"
    assert cli(["train", "--dataset", str(data_dir), "--out", str(ckpt), "--chunk-length", "3",
                "--hidden", "8", "--steps", "2", "--batch-size", "4"]) == 0
    model = policy.load_checkpoint(ckpt)
    _, episodes = read_dataset(data_dir)
    pairs = dataset.episodes_to_pairs_by_tag(episodes, 3)
    assert {ep.embodiment_tag for ep in episodes} == {"human", "robot"}
    for stored, computed in zip((model.state_stats, model.action_stats),
                                harness.stats_from_pairs(pairs)):
        assert stored.to_json_dict()["entries"].keys() == {"shared"}
        assert stored.digest() == computed.digest()


def test_train_and_predict_cli(tmp_path):
    eps = [synthetic_episode(f"e{i}", "human", n=12, seed=i) for i in range(4)]
    data_dir = tmp_path / "d"
    write_dataset(eps, data_dir)
    ckpt = tmp_path / "model.ckpt"
    assert cli([
        "train", "--dataset", str(data_dir), "--out", str(ckpt),
        "--chunk-length", "3", "--hidden", "8", "--steps", "30",
        "--lr", "0.01", "--batch-size", "4",
    ]) == 0
    assert ckpt.exists()
    state = ",".join(str(v) for v in IDENTITY_STATE)
    feature = "0,0,0,0"
    assert cli([
        "predict", "--checkpoint", str(ckpt), "--state", state, "--feature", feature,
    ]) == 0


def test_retarget_cli(config_file, capsys):
    cfg = humanoid_a_config()
    from crossemb.kinematics import RobotCommand, embed_robot_state

    cmd = RobotCommand(
        left_arm_q=cfg.left_arm.mid_range(),
        right_arm_q=cfg.right_arm.mid_range(),
        neck_q=np.zeros(2),
        left_hand=np.full(6, 0.5),
        right_hand=np.full(6, 0.5),
    )
    vec = unified_space.encode_state(embed_robot_state(cmd, cfg))
    action = ",".join(repr(float(v)) for v in vec)
    q_prev = ",".join(
        repr(float(v))
        for v in np.concatenate(
            [cmd.left_arm_q, cmd.right_arm_q, cmd.neck_q, cmd.left_hand, cmd.right_hand]
        )
    )
    assert cli([
        "retarget", "--embodiment-config", config_file,
        "--action", action, "--q-prev", q_prev,
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["right_arm_q"], cmd.right_arm_q, atol=1e-3)


def test_config_file_defaults(tmp_path, config_file, capsys):
    defaults = tmp_path / "defaults.json"
    defaults.write_text(json.dumps({"chain": "right_arm", "q": "0,0,0,0,0"}))
    assert cli([
        "fk", "--embodiment-config", config_file, "--config", str(defaults),
        "--q", "0,0,0,0,0",
    ]) == 0


def write_config(tmp_path, doc):
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_file_overrides_flag_defaults(tmp_path, config_file, capsys):
    src = tmp_path / "traj.json"
    src.write_text(json.dumps(fixture_traj_doc()))
    out = tmp_path / "out.json"
    base = ["retime", "--input", str(src), "--alpha", "4", "--output", str(out)]
    assert cli(base + ["--config", write_config(tmp_path, {"rate": 60})]) == 0
    assert len(json.loads(out.read_text())["frames"]) == 73
    # an explicit flag still wins over the file
    assert cli(base + ["--config", write_config(tmp_path, {"rate": 60}), "--rate", "30"]) == 0
    assert len(json.loads(out.read_text())["frames"]) == 37

    fk = ["fk", "--embodiment-config", config_file, "--q", "0,0,0,0,0"]
    assert cli(fk + ["--config", write_config(tmp_path, {"chain": "left_arm"})]) == 0
    pose = forward_kinematics(humanoid_a_config().left_arm, np.zeros(5))
    np.testing.assert_allclose(json.loads(capsys.readouterr().out)["translation"],
                               pose.translation, atol=1e-15)

    h = write_human_raw(tmp_path, n=12, episode_id="h1")
    assert cli(["ingest", "--raw", str(h), "--out", str(tmp_path / "data"),
                "--feature-dim", "4",
                "--config", write_config(tmp_path, {"alpha": 2.0})]) == 0
    _, (ep,) = read_dataset(tmp_path / "data")
    assert ep.metadata["alpha_applied"] == 2.0


def test_config_file_supplies_required_flag(tmp_path, capsys):
    src = tmp_path / "traj.json"
    src.write_text(json.dumps(fixture_traj_doc()))
    out = tmp_path / "out.json"
    assert cli(["retime", "--input", str(src), "--output", str(out),
                "--config", write_config(tmp_path, {"alpha": 4})]) == 0
    assert len(json.loads(out.read_text())["frames"]) == 37
    # still required when neither the file nor the command line gives it
    assert cli(["retime", "--input", str(src),
                "--config", write_config(tmp_path, {"rate": 30})]) == 2


@pytest.mark.parametrize("text", ["[1, 2]", "not json", '{"no-such-flag": 1}',
                                  '{"rate": "fast"}'])
def test_bad_config_file_exit_1(tmp_path, text, capsys):
    path = tmp_path / "defaults.json"
    path.write_text(text)
    src = tmp_path / "traj.json"
    src.write_text(json.dumps(fixture_traj_doc()))
    assert cli(["retime", "--input", str(src), "--alpha", "4",
                "--config", str(path)]) == 1


def test_predict_truncated_checkpoint_exit_1(tmp_path, capsys):
    eps = [synthetic_episode(f"e{i}", "human", n=12, seed=i) for i in range(2)]
    write_dataset(eps, tmp_path / "d")
    ckpt = tmp_path / "model.ckpt"
    assert cli(["train", "--dataset", str(tmp_path / "d"), "--out", str(ckpt),
                "--chunk-length", "3", "--hidden", "8", "--steps", "2",
                "--batch-size", "4"]) == 0
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    state = ",".join(str(v) for v in IDENTITY_STATE)
    assert cli(["predict", "--checkpoint", str(ckpt), "--state", state,
                "--feature", "0,0,0,0"]) == 1


@pytest.mark.parametrize("case", sorted(BAD_STATS_HEADERS))
def test_predict_checkpoint_with_invalid_stats_exit_1(tmp_path, case, capsys):
    eps = [synthetic_episode(f"e{i}", "human", n=12, seed=i) for i in range(2)]
    write_dataset(eps, tmp_path / "d")
    ckpt = tmp_path / "model.ckpt"
    assert cli(["train", "--dataset", str(tmp_path / "d"), "--out", str(ckpt),
                "--chunk-length", "3", "--hidden", "8", "--steps", "2",
                "--batch-size", "4"]) == 0
    ckpt.write_bytes(rewrite_header(ckpt.read_bytes(), BAD_STATS_HEADERS[case]))
    state = ",".join(str(v) for v in IDENTITY_STATE)
    capsys.readouterr()
    assert cli(["predict", "--checkpoint", str(ckpt), "--state", state,
                "--feature", "0,0,0,0"]) == 1
    assert "bad checkpoint header" in capsys.readouterr().err


def test_predict_checkpoint_of_another_model_shape_exit_1(tiny_checkpoint, capsys):
    """Each header of `OTHER_SHAPE_HEADERS` fails, naming its config entry."""
    ckpt = Path(tiny_checkpoint)
    blob = ckpt.read_bytes()
    state = ",".join(str(v) for v in IDENTITY_STATE)
    for case, edit in sorted(OTHER_SHAPE_HEADERS.items()):
        header = {"config": {}}
        edit(header)
        [key] = header["config"]
        ckpt.write_bytes(rewrite_header(blob, edit))
        capsys.readouterr()
        assert cli(["predict", "--checkpoint", str(ckpt), "--state", state,
                    "--feature", "0,0,0,0"]) == 1, case
        assert key in capsys.readouterr().err, case


def test_predict_checkpoint_with_mistyped_config_exit_1(tiny_checkpoint, capsys):
    ckpt = Path(tiny_checkpoint)
    ckpt.write_bytes(rewrite_header(ckpt.read_bytes(), MISTYPED_HEADERS["feature_dim_4.0"]))
    state = ",".join(str(v) for v in IDENTITY_STATE)
    capsys.readouterr()
    assert cli(["predict", "--checkpoint", str(ckpt), "--state", state,
                "--feature", "0,0,0,0"]) == 1
    assert "feature_dim must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["bad_magic", "version_2"])
def test_predict_checkpoint_of_unknown_format_exit_1(tiny_checkpoint, case, capsys):
    ckpt = Path(tiny_checkpoint)
    blob = ckpt.read_bytes()
    ckpt.write_bytes(b"NOTACKPT" + blob[8:] if case == "bad_magic" else
                     rewrite_header(blob, lambda header: header.update(format_version=2)))
    state = ",".join(str(v) for v in IDENTITY_STATE)
    capsys.readouterr()
    assert cli(["predict", "--checkpoint", str(ckpt), "--state", state,
                "--feature", "0,0,0,0"]) == 1
    err = capsys.readouterr().err
    assert ("bad checkpoint magic b'NOTACKPT'" if case == "bad_magic"
            else "checkpoint version 2") in err


@pytest.fixture
def tiny_checkpoint(tmp_path):
    eps = [synthetic_episode(f"e{i}", "human", n=12, seed=i) for i in range(2)]
    write_dataset(eps, tmp_path / "d")
    ckpt = tmp_path / "model.ckpt"
    assert cli(["train", "--dataset", str(tmp_path / "d"), "--out", str(ckpt),
                "--chunk-length", "3", "--hidden", "8", "--steps", "2",
                "--batch-size", "4"]) == 0
    return str(ckpt)


@pytest.mark.parametrize("argv, flag", [
    (["fk", "--q", "a,b"], "--q"),
    (["retarget", "--action", "1,2,x"], "--action"),
    (["ik", "--target-pos", "0.3,0.1"], "--target-pos"),
    (["ik", "--target-pos", "0.3,0.1,0.2", "--target-quat", "1,0,0"], "--target-quat"),
    (["rollout", "--goal", "1,2"], "--goal"),
    (["experiment", "cotraining", "--robot-counts", "x"], "--robot-counts"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_malformed_numeric_flag_exit_1(tmp_path, config_file, tiny_checkpoint, argv, flag,
                                       capsys):
    extra = {
        "fk": ["--embodiment-config", config_file],
        "retarget": ["--embodiment-config", config_file],
        "ik": ["--embodiment-config", config_file],
        "rollout": ["--checkpoint", tiny_checkpoint],
        "experiment": ["--out", str(tmp_path / "out")],
    }[argv[0]]
    capsys.readouterr()
    assert cli(argv + extra) == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--steps", "0"), ("--steps", "-3"), ("--batch-size", "0"), ("--batch-size", "-1"),
    ("--chunk-length", "0"), ("--stride", "0"), ("--hidden", "0"), ("--hidden", "8,0"),
])
def test_train_nonpositive_size_flag_exit_1(tmp_path, flag, value, capsys):
    write_dataset([synthetic_episode(f"e{i}", "human", n=12, seed=i) for i in range(2)],
                  tmp_path / "d")
    argv = ["train", "--dataset", str(tmp_path / "d"), "--out", str(tmp_path / "m.ckpt"),
            "--chunk-length", "3", "--hidden", "8", "--steps", "2", "--batch-size", "4"]
    capsys.readouterr()
    assert cli(argv + [flag, value]) == 1
    assert f"error: {flag}: expected" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("flag, value", [
    ("--cell", "9"), ("--cell", "-1"), ("--max-steps", "0"), ("--max-steps", "-2"),
    ("--seed", "-1"),
])
def test_rollout_out_of_range_flag_exit_1(tmp_path, flag, value, capsys):
    """Checked before the checkpoint is read: the missing one never shows."""
    argv = ["rollout", "--checkpoint", str(tmp_path / "missing.ckpt"), flag, value]
    capsys.readouterr()
    assert cli(argv) == 1
    assert f"error: {flag}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["cotraining", "--seeds", "0"], "--seeds"),
    (["ablation", "--seeds", "-1"], "--seeds"),
    (["cotraining", "--robot-counts", "8,0"], "--robot-counts"),
    (["cotraining", "--human-demos", "-1"], "--human-demos"),
    (["ablation", "--human-demos", "0"], "--human-demos"),
], ids=["cotraining_seeds", "ablation_seeds", "robot_counts", "cotraining_human_demos",
        "ablation_human_demos"])
def test_experiment_out_of_range_flag_exit_1(tmp_path, monkeypatch, argv, flag, capsys):
    """Checked before any demo is built."""
    def draw_demos(*args, **kwargs):
        raise AssertionError("demos were drawn")

    monkeypatch.setattr(harness, "_draw_demos", draw_demos)
    capsys.readouterr()
    assert cli(["experiment", *argv, "--out", str(tmp_path / "out")]) == 1
    assert f"error: {flag}: expected" in capsys.readouterr().err


def test_retarget_q_prev_hand_out_of_range_exit_1(config_file, capsys):
    cfg = humanoid_a_config()
    q_prev = np.concatenate([cfg.left_arm.mid_range(), cfg.right_arm.mid_range(), np.zeros(2),
                             np.full(6, 0.5), np.full(6, 1.5)])
    argv = ["retarget", "--embodiment-config", config_file,
            "--action", ",".join(map(str, IDENTITY_STATE)),
            "--q-prev", ",".join(map(str, q_prev))]
    capsys.readouterr()
    assert cli(argv) == 1
    assert "error: --q-prev: right_hand values must lie in [0, 1]" in capsys.readouterr().err


def test_rollout_cli_reports_errors_apart_from_clamps(tiny_checkpoint, capsys):
    capsys.readouterr()
    assert cli(["rollout", "--checkpoint", tiny_checkpoint, "--max-steps", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["steps_executed"] == 3
    assert isinstance(out["errors"], int) and isinstance(out["clamp_events"], int)


BAD_EMBODIMENT_CONFIGS = {
    "unparsable": "{not json",
    "empty_object": "{}",
    "list": "[]",
    "four_fingers": lambda doc: doc["hand_model"].update(fingers=4),
    "one_joint_neck": lambda doc: doc["neck"]["joints"].pop(),
    "five_and_seven_joint_arms": lambda doc: doc["right_arm"]["joints"].extend(
        doc["right_arm"]["joints"][:2]),
    # Necks whose joints retargeting cannot read back as ZYX yaw and pitch.
    "neck_axes_y_then_z": lambda doc: [joint.update(axis=axis) for joint, axis in zip(
        doc["neck"]["joints"], ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]))],
    "neck_pitch_to_90": lambda doc: doc["neck"]["joints"][1].update(limits_deg=[-45.0, 90.0]),
    "neck_pitch_to_minus_90": lambda doc: doc["neck"]["joints"][1].update(
        limits_deg=[-90.0, 45.0]),
    "neck_turned_base": lambda doc: doc["neck"]["base_frame"].update(
        rotation_quaternion=[1.0, 0.0, 0.0, 0.1]),
    "neck_turned_origin": lambda doc: doc["neck"]["joints"][1]["origin"].update(
        rotation_quaternion=[1.0, 0.0, 0.0, 0.1]),
    "neck_turned_tip": lambda doc: doc["neck"]["tip_offset"].update(
        rotation_quaternion=[1.0, 0.0, 0.0, 0.1]),
    "nan_canonical_frame_offset": lambda doc: doc.update(canonical_frame_offset_m=float("nan")),
    "two_value_axis": lambda doc: doc["left_arm"]["joints"][0].update(axis=[0.0, 1.0]),
    "non_unit_axis": lambda doc: doc["left_arm"]["joints"][0].update(axis=[0.0, 2.0, 0.0]),
    "swapped_limits": lambda doc: doc["right_arm"]["joints"][1].update(
        limits_deg=[178.0, -19.0]),
    "chain_without_joints": lambda doc: doc["left_arm"].update(joints=[]),
    "zero_fingertip_extent": lambda doc: doc["hand_model"]["fingertip_extent_m"].__setitem__(
        2, 0.0),
    "four_finger_dirs": lambda doc: doc["hand_model"]["finger_dirs"].pop(),
    "non_unit_finger_dir": lambda doc: doc["hand_model"]["finger_dirs"].__setitem__(
        1, [0.0, 2.0, 0.0]),
    "non_unit_palm_normal": lambda doc: doc["hand_model"].update(palm_normal=[2.0, 0.0, 0.0]),
    "thumb_ray_along_palm_normal": lambda doc: doc["hand_model"].update(
        palm_normal=[0.0, 1.0, 0.0]),
    "swapped_thumb_range": lambda doc: doc["hand_model"].update(
        thumb_rot_range_deg=[60.0, -60.0]),
    "two_value_origin": lambda doc: doc["left_arm"]["joints"][0]["origin"].update(
        translation=[0.0, 0.1]),
    "nan_base_frame": lambda doc: doc["right_arm"]["base_frame"].update(
        translation=[float("nan"), -0.2, 1.3]),
}


@pytest.mark.parametrize("command", ["fk", "ik", "retarget", "rollout", "ingest"])
def test_malformed_embodiment_config_exit_1(tmp_path, config_file, command, request, capsys):
    argv = {
        "fk": lambda: ["fk", "--q", "0,0,0,0,0"],
        "ik": lambda: ["ik", "--target-pos", "0.3,-0.2,0.2"],
        "retarget": lambda: ["retarget", "--action",
                             ",".join(map(str, IDENTITY_STATE))],
        "rollout": lambda: ["rollout", "--checkpoint", request.getfixturevalue("tiny_checkpoint"),
                            "--max-steps", "1"],
        "ingest": lambda: ["ingest", "--raw", str(write_robot_raw(tmp_path)),
                           "--out", str(tmp_path / "o"), "--feature-dim", "4"],
    }[command]()
    # The same command runs with the well-formed file.
    assert cli(argv + ["--embodiment-config", config_file]) == 0
    with open(config_file) as fh:
        good = fh.read()
    for case, bad in sorted(BAD_EMBODIMENT_CONFIGS.items()):
        if callable(bad):
            doc = json.loads(good)
            bad(doc)
            bad = json.dumps(doc)
        path = tmp_path / f"{case}.json"
        path.write_text(bad)
        capsys.readouterr()
        assert cli(argv + ["--embodiment-config", str(path)]) == 1, case
        assert f"embodiment config {path}" in capsys.readouterr().err, case


@pytest.mark.parametrize("doc", [
    {"nominal_rate": 30},
    {"frames": 3},
    {"frames": [{"t": 0.0}]},
    {"frames": [{"t": "a", "state": [0.0] * 54}] * 2},
    {"frames": [{"t": 0.0, "state": [0.0] * 54}, {"t": 0.1, "state": [0.0] * 53}]},
    dict(fixture_traj_doc(), head_positions=[[0.0, 0.0, 0.0]] * 9 + [[0.0, 0.0]]),
    dict(fixture_traj_doc(), nominal_rate="fast"),
], ids=["no_frames", "frames_not_list", "frame_without_state", "time_not_number",
        "ragged_states", "ragged_head", "rate_not_number"])
def test_retime_malformed_input_exit_1(tmp_path, doc, capsys):
    src = tmp_path / "traj.json"
    src.write_text(json.dumps(doc))
    assert cli(["retime", "--input", str(src), "--alpha", "4"]) == 1
    assert "--input" in capsys.readouterr().err


# An integer beyond the float range, and one of more digits than `int` converts.
BIG, HUGE = 10 ** 400, "1" * 5000
# Where a capture's records get BIG: record, keys down to the container, slot.
BIG_CAPTURE_SLOTS = {
    "frames_t": (1, [], "t"),
    "first_head_translation": (0, ["head_pose", "translation"], 0),
    "feature_entry": (3, ["feature_vector"], 0),
    "robot_joints_entry": (2, ["joints", "left_arm"], 0),
}


def write_with_huge(path, doc, key):
    """Write JSON object `doc` to `path` with `key` set to HUGE, as text."""
    path.write_text(json.dumps(doc)[:-1] + f', "{key}": {HUGE}}}')
    return str(path)


@pytest.mark.parametrize("case", [*sorted(BIG_CAPTURE_SLOTS), "meta_json", "embodiment_config",
                                  "checkpoint_stats", "retime_input_time", "config_file"])
def test_json_integer_beyond_the_float_range_exit_1(tmp_path, config_file, case, request,
                                                    capsys):
    """Every JSON input refuses an integer that no float holds, as JSON
    that does not decode."""
    raw = (write_robot_raw if case == "robot_joints_entry" else write_human_raw)(tmp_path)
    argv = ["ingest", "--raw", str(raw), "--out", str(tmp_path / "ds"), "--feature-dim", "4",
            "--embodiment-config", config_file]
    traj = fixture_traj_doc()
    retime = ["retime", "--alpha", "4", "--input", str(tmp_path / "traj.json")]
    if case in BIG_CAPTURE_SLOTS:
        k, keys, slot = BIG_CAPTURE_SLOTS[case]

        def edit(records):
            target = records[k]
            for key in keys:
                target = target[key]
            target[slot] = BIG
            return records

        rewrite_records(raw, edit)
    elif case == "meta_json":
        write_with_huge(raw / "meta.json", json.loads((raw / "meta.json").read_text()), "x")
    elif case == "embodiment_config":
        doc = json.loads(Path(config_file).read_text()) | {"canonical_frame_offset_m": BIG}
        Path(config_file).write_text(json.dumps(doc))
        argv = ["fk", "--q", "0,0,0,0,0", "--embodiment-config", config_file]
    elif case == "checkpoint_stats":
        ckpt = Path(request.getfixturevalue("tiny_checkpoint"))
        ckpt.write_bytes(rewrite_header(ckpt.read_bytes(), lambda header: header[
            "state_stats"]["entries"]["shared"]["mean"].__setitem__(0, BIG)))
        argv = ["predict", "--checkpoint", str(ckpt), "--feature", "0,0,0,0",
                "--state", ",".join(map(str, IDENTITY_STATE))]
    elif case == "retime_input_time":
        traj["frames"][1]["t"] = BIG
        argv = retime
    else:
        argv = retime + ["--config", write_with_huge(tmp_path / "c.json", {"rate": 30}, "alpha")]
    (tmp_path / "traj.json").write_text(json.dumps(traj))
    capsys.readouterr()
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "digits is beyond the float range" in err


@pytest.mark.parametrize("doc, message", [
    (dict(fixture_traj_doc(), frames=[dict(f, state=f["state"][:53])
                                      for f in fixture_traj_doc()["frames"]]),
     "states must be (N, 54)"),
    (dict(fixture_traj_doc(), head_positions=[[0.0, 0.0]] * 10), "head_positions must be (N, 3)"),
], ids=["states_53_wide", "head_positions_2_wide"])
def test_retime_trajectory_of_wrong_width_exit_1(tmp_path, doc, message, capsys):
    src = tmp_path / "traj.json"
    src.write_text(json.dumps(doc))
    assert cli(["retime", "--input", str(src), "--alpha", "4"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("where", ["time", "fingertip", "head_position"])
def test_retime_nan_input_exit_1(tmp_path, where, capsys):
    """A NaN time, state entry or head position is refused before any
    output is written."""
    doc = fixture_traj_doc()
    if where == "time":
        doc["frames"][4]["t"] = float("nan")
    elif where == "fingertip":
        doc["frames"][2]["state"][unified_space.FINGERTIPS.start + 4] = float("nan")
    else:
        doc["head_positions"] = [[0.0, 0.0, 0.6]] * 9 + [[0.0, float("nan"), 0.6]]
    src, out = tmp_path / "traj.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    assert cli(["retime", "--input", str(src), "--alpha", "4", "--output", str(out)]) == 1
    assert "error: times, states and head positions must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("retime", "--alpha", "0.5"), ("retime", "--alpha", "nan"), ("retime", "--rate", "0"),
    ("ingest", "--alpha", "0.5"), ("ingest", "--rate", "0"), ("ingest", "--rate", "nan"),
])
def test_bad_alpha_or_rate_exit_1(tmp_path, command, flag, value, capsys):
    """Checked before any capture or trajectory is read."""
    if command == "retime":
        src = tmp_path / "traj.json"
        src.write_text(json.dumps(fixture_traj_doc()))
        argv = ["retime", "--input", str(src), "--alpha", "4"]
    else:
        raw = write_human_raw(tmp_path, n=12, episode_id="h1")
        argv = ["ingest", "--raw", str(raw), "--out", str(tmp_path / "data"),
                "--feature-dim", "4"]
    capsys.readouterr()
    assert cli(argv + [flag, value]) == 1
    assert f"error: {flag}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["fk", "retime", "config"])
def test_input_path_that_is_a_directory_exit_1(tmp_path, config_file, command, capsys):
    src = tmp_path / "traj.json"
    src.write_text(json.dumps(fixture_traj_doc()))
    argv = {
        "fk": ["fk", "--embodiment-config", str(tmp_path), "--q", "0,0,0,0,0"],
        "retime": ["retime", "--input", str(tmp_path), "--alpha", "4"],
        "config": ["retime", "--input", str(src), "--alpha", "4", "--config", str(tmp_path)],
    }[command]
    assert cli(argv) == 1
    assert f"{tmp_path}: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "train", "predict"])
def test_binary_or_frames_path_that_is_a_directory_exit_1(tmp_path, command, capsys):
    state = ",".join(str(v) for v in IDENTITY_STATE)
    if command == "ingest":
        raw = write_human_raw(tmp_path, n=12, episode_id="h1")
        blocked = raw / "frames.jsonl"
        argv = ["ingest", "--raw", str(raw), "--out", str(tmp_path / "data")]
    elif command == "train":
        write_dataset([synthetic_episode("e0", "human", n=12)], tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        blocked = tmp_path / "d" / manifest["episodes"][0]["file"]
        argv = ["train", "--dataset", str(tmp_path / "d"), "--out", str(tmp_path / "m.ckpt"),
                "--chunk-length", "3", "--hidden", "8", "--steps", "2", "--batch-size", "4"]
    else:
        blocked = tmp_path / "model.ckpt"
        argv = ["predict", "--checkpoint", str(blocked), "--state", state,
                "--feature", "0,0,0,0"]
    if blocked.exists():
        blocked.unlink()
    blocked.mkdir()
    assert cli(argv) == 1
    assert f"{blocked}: cannot read" in capsys.readouterr().err


def test_ingest_robot_capture_without_config_exit_1(tmp_path, capsys):
    raw = write_robot_raw(tmp_path)
    assert cli(["ingest", "--raw", str(raw), "--out", str(tmp_path / "o")]) == 1
    assert "robot captures require an embodiment config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def files_under(root):
    return {p for p in Path(root).rglob("*") if p.is_file()}


def test_ingest_captures_of_one_name_exit_1(tmp_path, capsys):
    """Two capture directories named `cap`, their meta without `id`: both
    episodes would be `cap`, the second file overwriting the first."""
    raws = []
    for side in ("x", "y"):
        (tmp_path / side).mkdir()
        raws.append(write_human_raw(tmp_path / side, episode_id="cap"))
    for raw in raws:
        meta = json.loads((raw / "meta.json").read_text())
        del meta["id"]
        (raw / "meta.json").write_text(json.dumps(meta))
    before = files_under(tmp_path)
    capsys.readouterr()
    assert cli(["ingest", "--raw", *map(str, raws), "--out", str(tmp_path / "ds")]) == 1
    assert "error: episode id 'cap' is repeated" in capsys.readouterr().err
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("episode_id", ["../../escaped", "", ".", "..", "a\\b", "a\0b"],
                         ids=["escape", "empty", "dot", "dotdot", "backslash", "nul"])
def test_ingest_id_that_is_no_file_name_exit_1(tmp_path, episode_id, capsys):
    """Nothing is written, inside `--out` or outside it."""
    (tmp_path / "caps").mkdir()
    raw = write_human_raw(tmp_path / "caps", episode_id="h1")
    meta = json.loads((raw / "meta.json").read_text())
    (raw / "meta.json").write_text(json.dumps(meta | {"id": episode_id}))
    before = files_under(tmp_path)
    capsys.readouterr()
    assert cli(["ingest", "--raw", str(raw), "--out", str(tmp_path / "caps" / "ds")]) == 1
    assert "is not a file name" in capsys.readouterr().err
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("record", [{"feature_vector": [0.0] * 4}, [0.1]],
                         ids=["no_t", "not_an_object"])
def test_ingest_record_without_timestamp_exit_1(tmp_path, record, capsys):
    raw = write_human_raw(tmp_path)
    lines = (raw / "frames.jsonl").read_text().splitlines()
    lines[3] = json.dumps(record)
    (raw / "frames.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli(["ingest", "--raw", str(raw), "--out", str(tmp_path / "ds")]) == 1
    assert "error: line 4: record missing timestamp 't'" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_ingest_wrist_out_of_reach_of_its_fingertips_exit_1(tmp_path, capsys):
    """A finite wrist 1.7e308 m out, its fingertips where they were."""
    raw = write_human_raw(tmp_path)

    def edit(records):
        records[4]["left_wrist_pose"]["translation"] = [1.7e308, 1.7e308, 0.0]
        return records

    rewrite_records(raw, edit)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning, numpy's overflow one among them, raises
        assert cli(["ingest", "--raw", str(raw), "--out", str(tmp_path / "ds")]) == 1
    assert "error: row 4: left fingertip 0 is inf m from wrist" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_ingest_zero_width_features_exit_1(tmp_path, capsys):
    raw = write_human_raw(tmp_path)
    lines = [json.loads(line) for line in (raw / "frames.jsonl").read_text().splitlines()]
    (raw / "frames.jsonl").write_text("".join(json.dumps(rec | {"feature_vector": []}) + "\n"
                                              for rec in lines))
    capsys.readouterr()
    assert cli(["ingest", "--raw", str(raw), "--out", str(tmp_path / "ds")]) == 1
    assert "error: line 1: feature_vector must be a non-empty flat list" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("episodes", [1, 0], ids=["zero_width_episode", "no_episodes"])
def test_train_without_feature_columns_exit_1(tmp_path, episodes, capsys):
    """A dataset of zero-width features, as ingest once wrote, or a
    hand-written manifest of feature_dim 0 and no episodes."""
    write_dataset([synthetic_episode(f"e{i}", "human", n=12, feature_dim=0)
                   for i in range(episodes)], tmp_path / "d")
    assert json.loads((tmp_path / "d" / "manifest.json").read_text())["feature_dim"] == 0
    capsys.readouterr()
    assert cli(["train", "--dataset", str(tmp_path / "d"), "--out", str(tmp_path / "m.ckpt"),
                "--chunk-length", "3", "--hidden", "8", "--steps", "2", "--batch-size", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "training needs at least one feature column" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_validate_flags_unretimed_human_and_scaled_robot_episodes(tmp_path, capsys):
    write_dataset([synthetic_episode("h0", "human"), synthetic_episode("r0", "robot")],
                  tmp_path / "d")
    assert cli(["validate", "--dataset", str(tmp_path / "d")]) == 0
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["episodes"][0]["metadata"]["retimed"] = False
    doc["episodes"][1]["metadata"]["alpha_applied"] = 4.0
    manifest_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli(["validate", "--dataset", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL h0: human episode not retimed", "FAIL r0: robot episode has alpha != 1"]


# Default settings of a few training steps and rollouts and no OOD goals:
# the experiment command's whole path at a tiny size.
TINY = dict(train_steps=5, max_steps=3, id_eval_goals=1, ood_eval_goals_per_cell=0)


@pytest.mark.parametrize("kind, rows", [("cotraining", 2), ("ablation", 3)])
def test_experiment_writes_the_harness_report(tmp_path, monkeypatch, kind, rows, capsys):
    monkeypatch.setattr(harness.ExperimentSettings.__init__, "__defaults__", tuple(
        TINY.get(f.name, f.default) for f in dataclasses.fields(harness.ExperimentSettings)))
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli(["experiment", kind, "--out", str(out), "--robot-counts", "2", "--seeds", "1",
                "--human-demos", "2"]) == 0
    assert capsys.readouterr().out == f"experiment {kind}: {rows} rows written to {out}\n"
    got = json.loads((out / f"{kind}.json").read_text())
    want = (harness.cotraining_experiment(robot_counts=(2,), human_demos=2, seeds=(0,))
            if kind == "cotraining" else harness.ablation_suite(seeds=(0,), human_demos=2))
    del got["wall_time_s"], want["wall_time_s"]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)  # NaN probes too
    assert len((out / f"{kind}.csv").read_text().splitlines()) == 1 + rows


@pytest.mark.parametrize("feature_dim", [4, 0, -2])
def test_manifest_feature_dim_unlike_the_episodes_exit_1(tmp_path, feature_dim, capsys):
    eps = [synthetic_episode(f"e{i}", "human", n=12, feature_dim=16, seed=i) for i in range(2)]
    write_dataset(eps, tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps(doc | {"feature_dim": feature_dim}))
    capsys.readouterr()
    assert cli(["train", "--dataset", str(tmp_path / "d"), "--out", str(tmp_path / "m.ckpt"),
                "--chunk-length", "3", "--hidden", "8", "--steps", "2", "--batch-size", "4"]) == 1
    assert f"feature_dim {feature_dim}, but episode e0 has 16" in capsys.readouterr().err
    assert cli(["validate", "--dataset", str(tmp_path / "d")]) == 1
    assert "error:" in capsys.readouterr().err


def _subcommands():
    """(name, parser) of each subcommand of `crossemb`."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices.items())


# Each subcommand's required arguments. None of the paths exists: a malformed
# value must be refused before any input is read.
WALK_ARGV = {
    "experiment": ["cotraining", "--out", "o"],
    "fk": ["--embodiment-config", "humanoid_a", "--q", "0,0,0,0,0"],
    "ik": ["--embodiment-config", "humanoid_a", "--target-pos", "0.3,-0.2,0.2"],
    "ingest": ["--raw", "r", "--out", "o"],
    "predict": ["--checkpoint", "m.ckpt", "--state", ",".join(map(str, IDENTITY_STATE)),
                "--feature", "0,0,0,0"],
    "retarget": ["--embodiment-config", "humanoid_a",
                 "--action", ",".join(map(str, IDENTITY_STATE))],
    "retime": ["--input", "t.json", "--alpha", "4"],
    "rollout": ["--checkpoint", "m.ckpt"],
    "train": ["--dataset", "d", "--out", "m.ckpt"],
    "validate": ["--dataset", "d"],
}
VALUE_FLAGS = [pytest.param(name, a.option_strings[-1], a.nargs == "+",
                            id=f"{name} {a.option_strings[-1]}")
               for name, p in _subcommands() for a in p._actions
               if a.option_strings and a.nargs != 0 and a.dest != "config"]
SWITCHES = [(name, a.option_strings[-1]) for name, p in _subcommands()
            for a in p._actions if a.option_strings and a.nargs == 0 and a.dest != "help"]


def test_walk_covers_every_subcommand():
    assert sorted(WALK_ARGV) == [name for name, _ in _subcommands()]


@pytest.mark.parametrize("command, flag, many", VALUE_FLAGS)
def test_every_value_flag_checks_its_value(tmp_path, monkeypatch, command, flag, many, capsys):
    """An empty value fails the flag's check on the command line and in a
    config file alike: exit 1, one error naming the flag or its key. A flag
    added without a check runs its command instead, and fails here."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_draw_demos", lambda *a, **k: pytest.fail("demos were drawn"))
    key = flag[2:]
    config = write_config(tmp_path, {key: [""] if many else ""})
    for argv, named in (([flag, ""], f"error: {flag}: expected"),
                        (["--config", config], f"error: config file {config}: bad {key!r}")):
        capsys.readouterr()
        assert cli([command, *WALK_ARGV[command], *argv]) == 1, argv
        assert capsys.readouterr().err.startswith(named), argv


@pytest.mark.parametrize("command", sorted(WALK_ARGV))
def test_config_path_is_checked_and_no_config_key(tmp_path, monkeypatch, command, capsys):
    """`--config ""` is malformed; `config` and `help` are no config keys."""
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli([command, *WALK_ARGV[command], "--config", ""]) == 1
    assert capsys.readouterr().err.startswith("error: --config: expected")
    for key, value in (("config", "other.json"), ("help", True)):
        config = write_config(tmp_path, {key: value})
        assert cli([command, *WALK_ARGV[command], "--config", config]) == 1, key
        assert f"unknown key {key!r}" in capsys.readouterr().err, key


@pytest.mark.parametrize("command, flag", SWITCHES, ids=lambda v: v)
def test_every_switch_takes_a_boolean_from_config(tmp_path, monkeypatch, command, flag, capsys):
    monkeypatch.chdir(tmp_path)
    key = flag[2:]
    for value in ("false", 0, None, [True]):
        config = write_config(tmp_path, {key: value})
        capsys.readouterr()
        assert cli([command, *WALK_ARGV[command], "--config", config]) == 1, value
        assert f"{key!r} must be true or false" in capsys.readouterr().err, value


@pytest.mark.parametrize("value", ["r", [], [1], 5])
def test_raw_takes_a_list_of_strings_from_config(tmp_path, monkeypatch, value, capsys):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, {"raw": value})
    assert cli(["ingest", "--out", "o", "--config", config]) == 1
    assert "'raw' must be a non-empty list of strings" in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc, named", [
    (["train", "--seed", "-1"], None, "--seed"),
    (["train", "--lr", "-5"], None, "--lr"),
    (["train", "--steps", "abc"], None, "--steps"),
    (["train"], {"hidden": [64, 64]}, "'hidden'"),
    (["train"], {"steps": 2.5}, "'steps'"),
    (["train"], {"steps": True}, "'steps'"),
    (["ingest", "--raw", "{raw}", "--feature-dim", "-3"], None, "--feature-dim"),
    (["ingest", "--raw", "{raw}", "--feature-dim", "0"], None, "--feature-dim"),
    (["ingest", "--raw", "{raw}"], {"out": 5}, "'out'"),
    (["ingest"], {"raw": "{raw}"}, "'raw'"),
    (["fk", "--embodiment-config", "humanoid_a"], {"q": [0] * 7}, "'q'"),
    (["fk", "--embodiment-config", "humanoid_a", "--chain", "neck", "--q", "90,0"],
     {"degrees": "no"}, "'degrees'"),
    (["validate", "--dataset", "{d}"], {"check_reach": "false"}, "'check_reach'"),
], ids=["seed", "lr", "steps_text", "hidden_list", "steps_fraction", "steps_bool",
        "feature_dim_negative", "feature_dim_0", "out_number", "raw_text", "q_list",
        "degrees_text", "check_reach_text"])
def test_malformed_value_exit_1_before_any_output(tmp_path, argv, doc, named, capsys):
    """Values that once raised a bare exception, or ran as something else."""
    write_dataset([synthetic_episode(f"e{i}", "human", n=12, seed=i) for i in range(2)],
                  tmp_path / "d")
    paths = {"d": str(tmp_path / "d"), "raw": str(write_human_raw(tmp_path, n=12))}
    base = {"train": ["--dataset", "{d}", "--out", "{out}", "--chunk-length", "3",
                      "--hidden", "8", "--steps", "2", "--batch-size", "4"],
            "ingest": ["--out", "{out}", "--feature-dim", "4"]}.get(argv[0], [])
    argv = [a.format(out=tmp_path / "out", **paths) for a in argv[:1] + base + argv[1:]]
    if doc is not None:
        doc = {k: v.format(**paths) if isinstance(v, str) else v for k, v in doc.items()}
        argv += ["--config", write_config(tmp_path, doc)]
    capsys.readouterr()
    assert cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert not captured.out and not (tmp_path / "out").exists()


def test_config_numbers_run_as_their_command_line_text(tmp_path):
    """A JSON number, or text, for a numeric flag trains the model its
    command-line text does; a whole float counts as whole."""
    write_dataset([synthetic_episode(f"e{i}", "human", n=12, seed=i) for i in range(2)],
                  tmp_path / "d")
    base = ["train", "--dataset", str(tmp_path / "d"), "--chunk-length", "3",
            "--batch-size", "4"]
    assert cli(base + ["--out", str(tmp_path / "a.ckpt"), "--hidden", "8,8", "--steps", "2",
                       "--lr", "0.002", "--seed", "3"]) == 0
    config = write_config(tmp_path, {"hidden": "8,8", "steps": 2.0, "lr": 2e-3, "seed": 3})
    assert cli(base + ["--out", str(tmp_path / "b.ckpt"), "--config", config]) == 0
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
