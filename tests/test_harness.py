import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import crossemb
from crossemb import geometry, harness, tasks, unified_space
from crossemb.dataset import DemonstrationEpisode, write_dataset
from crossemb.embodiments import humanoid_a_config, humanoid_b_config
from crossemb.errors import CrossembError, EmptyDataset
from crossemb.kinematics import (
    IkParams,
    RobotCommand,
    embed_rows,
    fingertip_rows,
    forward_kinematics,
    retarget_action,
)
from crossemb.harness import (
    CONDITIONS,
    COTRAINING_REPORT_SCHEMA,
    EXPERIMENT_POLICY,
    ExperimentSettings,
    PolicyAgent,
    RolloutResult,
    _draw_demos,
    _run_condition,
    ablation_suite,
    cotraining_experiment,
    embodiment_probe_accuracy,
    evaluate_policy,
    pairs_from_bundles,
    rollout,
    rollouts,
    speed_fluctuation,
    train_policy_on_bundles,
)
from crossemb.tasks import (
    generate_human_demo,
    generate_robot_demo,
    ideal_reach_trajectory,
    make_reach_task,
    teleop_simulate,
)

CFG = humanoid_b_config()
FAST = ExperimentSettings(train_steps=300, max_steps=30)


class OracleReplayAgent:
    """Replays a reference trajectory; isolates pipeline error from policy error."""

    def __init__(self, reference_states: np.ndarray, chunk_length: int):
        self.reference = np.asarray(reference_states, dtype=float)
        self.chunk_length = chunk_length

    def predict(self, state: np.ndarray, feature: np.ndarray, step: int) -> np.ndarray:
        n = self.reference.shape[0]
        idx = np.minimum(np.arange(step + 1, step + 1 + self.chunk_length), n - 1)
        return self.reference[idx]


@pytest.fixture(scope="module")
def task():
    return make_reach_task(CFG)


def test_demo_generators_deterministic(task):
    goal = task.grid.cell_center(4)
    [a] = generate_robot_demo(task, CFG, [goal], seeds=[5], demo_ids=["d"])
    [b] = generate_robot_demo(task, CFG, [goal], seeds=[5], demo_ids=["d"])
    np.testing.assert_array_equal(a.episode.states, b.episode.states)
    np.testing.assert_array_equal(a.joint_states, b.joint_states)
    h1 = generate_human_demo(task, CFG, goal, seed=5, demo_id="h")
    h2 = generate_human_demo(task, CFG, goal, seed=5, demo_id="h")
    np.testing.assert_array_equal(h1.episode.states, h2.episode.states)


def per_demo_teleop_reference(states, config, home):
    """Achieved states and joint view of one demo tracked frame by frame
    with `retarget_action`, each frame warm-started at the last command."""
    cmd, commands = home, []
    for state in states:
        cmd, _ = retarget_action(state, config, cmd)
        commands.append(cmd.vector())
    commands = np.array(commands)
    joints = np.zeros((len(commands), 54))
    joints[:, : commands.shape[1]] = commands
    return embed_rows(config, commands), joints


# The 5-joint arms of humanoid_a cannot follow the reach's wrist rotations,
# so nearly every solve restarts; a shorter reference and fewer iterations
# keep its per-demo loop short.
@pytest.mark.parametrize("config, ik_settings, n_frames", [
    (humanoid_a_config(), {"max_iters": 20, "restarts": 2}, 8),
    (humanoid_b_config(), {}, None),
], ids=["humanoid_a", "humanoid_b"])
def test_lockstep_teleop_equals_per_demo_retarget_loop(config, ik_settings, n_frames, monkeypatch):
    for name, value in ik_settings.items():
        monkeypatch.setattr(IkParams, name, value)
    task = make_reach_task(config)
    home = task.home_command(config)
    references = np.stack([
        ideal_reach_trajectory(task, config, task.grid.sample_goal(i % 9, rng), rng,
                               capture_rate=task.rate, move_duration=task.move_duration,
                               hold_duration=task.hold_duration, embodiment_tag="robot",
                               start_spread=0.01).states
        for i, rng in enumerate(np.random.default_rng(s) for s in range(8))
    ])[:, :n_frames]
    want = [per_demo_teleop_reference(ref, config, home) for ref in references]
    for D in (1, 3, 8):
        states, joints = teleop_simulate(references[:D], config, home)
        assert states.shape == joints.shape == references[:D].shape
        for d in range(D):
            assert states[d].tobytes() == want[d][0].tobytes()
            assert joints[d].tobytes() == want[d][1].tobytes()


def test_lockstep_teleop_rejects_ragged_and_degenerate_references(task):
    home = task.home_command(CFG)
    ref = ideal_reach_trajectory(task, CFG, task.grid.cell_center(4), np.random.default_rng(0),
                                 capture_rate=task.rate, move_duration=task.move_duration,
                                 hold_duration=task.hold_duration,
                                 embodiment_tag="robot").states
    with pytest.raises(CrossembError):
        teleop_simulate([ref, ref[:-1]], CFG, home)
    with pytest.raises(CrossembError):
        teleop_simulate(ref, CFG, home)  # one reference, not a stack
    for bad in (0.0, np.nan):
        broken = ref.copy()
        broken[5, unified_space.RIGHT_WRIST_ROT] = bad
        with pytest.raises(CrossembError) as err:
            teleop_simulate([ref, broken, ref], CFG, home)
        # The error retarget_action raises for that frame.
        with pytest.raises(type(err.value)):
            retarget_action(broken[5], CFG, RobotCommand.from_vector(CFG, home.vector()))


def test_robot_demos_in_one_batch_equal_one_by_one(task):
    goals = [task.grid.sample_goal(c, np.random.default_rng(c)) for c in (4, 5, 4)]
    batch = generate_robot_demo(task, CFG, goals, seeds=[3, 4, 5], demo_ids=["a", "b", "c"])
    for bundle, goal, seed, demo_id in zip(batch, goals, [3, 4, 5], ["a", "b", "c"]):
        [alone] = generate_robot_demo(task, CFG, [goal], seeds=[seed], demo_ids=[demo_id])
        assert bundle.episode.id == alone.episode.id
        assert bundle.episode.metadata == alone.episode.metadata
        for field in ("times", "states", "features"):
            assert (getattr(bundle.episode, field).tobytes()
                    == getattr(alone.episode, field).tobytes())
        assert bundle.joint_states.tobytes() == alone.joint_states.tobytes()
    assert generate_robot_demo(task, CFG, [], seeds=[], demo_ids=[]) == []


def test_human_demo_retiming_metadata(task):
    goal = task.grid.cell_center(0)
    fast = generate_human_demo(task, CFG, goal, seed=1, demo_id="h", retime_demo=False)
    slow = generate_human_demo(task, CFG, goal, seed=1, demo_id="h", retime_demo=True)
    assert slow.episode.metadata["retimed"] is True
    assert slow.episode.metadata["alpha_applied"] == task.alpha
    assert fast.episode.metadata["retimed"] is False
    # retimed: raw (move+hold)/alpha stretched back to move+hold
    want_slow = task.move_duration + task.hold_duration
    assert abs(slow.episode.metadata["duration_s"] - want_slow) <= 0.15
    # non-retimed keeps real time: move/alpha plus the padded hold
    want_fast = task.move_duration / task.alpha + task.hold_duration
    assert abs(fast.episode.metadata["duration_s"] - want_fast) <= 0.15


def test_human_demo_speed_gap(task):
    """Non-retimed human chunks move ~alpha times faster per frame."""
    goal = task.grid.cell_center(2)
    fast = generate_human_demo(task, CFG, goal, seed=3, demo_id="h", retime_demo=False)
    slow = generate_human_demo(task, CFG, goal, seed=3, demo_id="h", retime_demo=True)

    def mean_step(ep):
        wrist = ep.states[:, 21:24]
        steps = np.linalg.norm(np.diff(wrist, axis=0), axis=1)
        return steps[steps > 1e-5].mean()

    assert mean_step(fast.episode) > 2.5 * mean_step(slow.episode)


def per_frame_reach_states(task, config, goal, rng, capture_rate, move_duration,
                           hold_duration, start_spread):
    """Reference for `ideal_reach_trajectory`: the same draws, each frame
    built on its own through `UnifiedState` and `encode_state`."""
    right_home = forward_kinematics(config.right_arm, task.home_arm_q)
    left_home = forward_kinematics(config.left_arm, task.home_arm_q)
    p0 = right_home.translation + start_spread * rng.uniform(-1.0, 1.0, size=3)
    n = int(round((move_duration + hold_duration) * capture_rate)) + 1
    times = np.arange(n) / capture_rate
    s = tasks._min_jerk(times / move_duration)
    wrist_path = p0[None, :] + s[:, None] * (np.asarray(goal) - p0)[None, :]
    jit = tasks.JITTER
    smooth = tasks._smooth_noise
    pos_noise = smooth(rng, n, 3, jit, times) + jit * rng.standard_normal((n, 3))
    left_noise = smooth(rng, n, 3, jit, times) + jit * rng.standard_normal((n, 3))
    rot_noise = smooth(rng, n, 9, 0.01, times) + 0.005 * rng.standard_normal((n, 9))
    hand_noise = smooth(rng, n, 12, 0.01, times) + 0.005 * rng.standard_normal((n, 12))
    head_positions = np.zeros((n, 3))
    head_positions[:, 2] = config.canonical_frame_offset
    head_positions += smooth(rng, n, 3, jit, times)

    def rotation(v):
        norm = np.linalg.norm(v)
        axis = v / norm if norm > 1e-12 else np.array([1.0, 0.0, 0.0])
        return geometry.rotation_about_axis(axis, norm)

    states = np.empty((n, 54))
    for i in range(n):
        Rr = right_home.rotation @ rotation(rot_noise[i, 0:3])
        Rl = left_home.rotation @ rotation(rot_noise[i, 3:6])
        right_pos = wrist_path[i] + pos_noise[i]
        left_pos = left_home.translation + left_noise[i]
        left_act = np.clip(tasks.HAND_REST + hand_noise[i, :6], 0.0, 1.0)
        right_act = np.clip(tasks.HAND_REST + hand_noise[i, 6:], 0.0, 1.0)
        tips = np.concatenate([
            fingertip_rows(left_act[None], Rl[None], left_pos[None], config.hand_model)[0],
            fingertip_rows(right_act[None], Rr[None], right_pos[None], config.hand_model)[0],
        ])
        states[i] = unified_space.encode_state(unified_space.UnifiedState(
            head_rot=geometry.encode_rot6d(rotation(rot_noise[i, 6:9])),
            left_wrist_rot=geometry.encode_rot6d(Rl),
            right_wrist_rot=geometry.encode_rot6d(Rr),
            left_wrist_pos=left_pos,
            right_wrist_pos=right_pos,
            fingertips=tips,
        ))
    return times, states, head_positions


@pytest.mark.parametrize("config", [humanoid_a_config(), humanoid_b_config()],
                         ids=lambda c: c.name)
def test_ideal_reach_trajectory_equals_per_frame_reference(config):
    task = make_reach_task(config)
    for seed, (rate, move, hold, spread) in enumerate(
        [(10.0, 2.4, 0.4, 0.01), (30.0, 0.6, 0.1, 0.04), (30.0, 0.6, 0.0, 0.0)]
    ):
        goal = task.grid.cell_center(seed * 4)
        kwargs = dict(capture_rate=rate, move_duration=move, hold_duration=hold,
                      start_spread=spread)
        traj = ideal_reach_trajectory(task, config, goal, np.random.default_rng(seed),
                                      embodiment_tag="x", **kwargs)
        times, states, head = per_frame_reach_states(task, config, goal,
                                                     np.random.default_rng(seed), **kwargs)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert traj.head_positions.tobytes() == head.tobytes()


def test_oracle_replay_rollout(task):
    rng = np.random.Generator(np.random.PCG64(0))
    goal = task.grid.cell_center(4)
    reference = ideal_reach_trajectory(
        task, CFG, goal, rng, capture_rate=task.rate,
        move_duration=task.move_duration, hold_duration=task.hold_duration,
        embodiment_tag="robot", start_spread=0.0,
    )
    agent = OracleReplayAgent(reference.states, chunk_length=8)
    res = rollout(agent, CFG, task, goal, max_steps=60, seed=0)
    assert res.success
    assert res.tracking_error.max() <= 2e-3


class HoldAgent:
    def __init__(self, chunk_length=8):
        self.chunk_length = chunk_length

    def predict(self, state, feature, step):
        return np.tile(state, (self.chunk_length, 1))


def test_rollout_zero_motion_model_fails(task):
    goal = task.grid.cell_center(0)  # away from home
    res = rollout(HoldAgent(), CFG, task, goal, max_steps=20, seed=0)
    assert not res.success
    assert res.steps_executed == 20


def test_rollout_deterministic(task):
    rng = np.random.Generator(np.random.PCG64(0))
    goal = task.grid.cell_center(4)
    reference = ideal_reach_trajectory(
        task, CFG, goal, rng, capture_rate=task.rate,
        move_duration=task.move_duration, hold_duration=task.hold_duration,
        embodiment_tag="robot", start_spread=0.0,
    )
    agent = OracleReplayAgent(reference.states, chunk_length=8)
    r1 = rollout(agent, CFG, task, goal, max_steps=40, seed=7)
    r2 = rollout(agent, CFG, task, goal, max_steps=40, seed=7)
    assert r1.success == r2.success
    assert r1.steps_executed == r2.steps_executed
    np.testing.assert_array_equal(r1.tracking_error, r2.tracking_error)
    np.testing.assert_array_equal(r1.commanded_displacements, r2.commanded_displacements)


def draw_bundles(task, n_robot, n_human):
    """Robot and retimed human demos of seed 0, by tag."""
    robot, human = _draw_demos(task, CFG, n_robot, n_human, 0, (True,))
    return {"robot": robot, "human": human[True]}


def test_draw_demos_layout(task):
    robot, human = _draw_demos(task, CFG, 4, 9, 0, (True, False))
    assert len(robot) == 4
    assert len(human[True]) == len(human[False]) == 9
    cells = {tuple(np.round(b.episode.metadata["goal"][:2], 3)) for b in human[True]}
    assert len(cells) == 9  # one goal per cell
    assert robot[0].joint_states is not None


def test_train_policy_smoke_and_probe(task):
    bundles = draw_bundles(task, 2, 9)
    model = train_policy_on_bundles(bundles, FAST, seed=0)
    pairs = pairs_from_bundles(bundles, EXPERIMENT_POLICY.chunk_length)
    acc = embodiment_probe_accuracy(model, pairs, seed=0)
    assert 0.5 <= acc <= 1.0
    metrics = evaluate_policy(model, task, CFG, FAST, seed=0)
    assert 0.0 <= metrics["id_success"] <= 1.0


def test_joint_space_condition_trains(task):
    bundles = draw_bundles(task, 2, 4)
    model = train_policy_on_bundles(bundles, FAST, seed=0, joint_space_robot_states=True)
    res = rollouts(
        PolicyAgent(model), CFG, task, [task.grid.cell_center(4)], [0],
        max_steps=10, joint_space=True,
    )[0]
    assert res.steps_executed == 10 or res.success


def test_joint_space_pairs_swap_only_robot_states(task):
    bundles = draw_bundles(task, 2, 2)
    unified = pairs_from_bundles(bundles, EXPERIMENT_POLICY.chunk_length)
    joint = pairs_from_bundles(bundles, EXPERIMENT_POLICY.chunk_length,
                               joint_space_robot_states=True)
    by_id = {b.episode.id: b for items in bundles.values() for b in items}
    for tag in ("robot", "human"):
        rows = np.arange(len(joint[tag]))
        states, feats, chunks = joint[tag].take(rows)
        u_states, u_feats, u_chunks = unified[tag].take(rows)
        np.testing.assert_array_equal(chunks, u_chunks)
        np.testing.assert_array_equal(feats, u_feats)
        if tag == "human":
            np.testing.assert_array_equal(states, u_states)
            continue
        for pair_id, state in zip(joint[tag].ids, states):
            ep_id, start = pair_id.split("#")
            np.testing.assert_array_equal(state, by_id[ep_id].joint_states[int(start)])


def test_cotraining_zero_human_identical_rows():
    settings = ExperimentSettings(train_steps=150, max_steps=20, id_eval_goals=2,
                                  ood_eval_goals_per_cell=1, human_demos=0)
    report = cotraining_experiment(
        robot_counts=(2,), human_demos=0, seeds=(0,), settings=settings
    )
    rows = report["rows"]
    assert len(rows) == 2
    a, b = rows
    assert a["condition"] == "robot_only" and b["condition"] == "cotrained"
    for key in ("id_success", "ood_success", "mean_tracking_error_m"):
        assert a[key] == b[key]


def test_cotraining_report_shape_and_schema(tmp_path):
    import jsonschema

    settings = ExperimentSettings(train_steps=100, max_steps=15, id_eval_goals=1,
                                  ood_eval_goals_per_cell=0, human_demos=4)
    report = cotraining_experiment(
        robot_counts=(2, 3), human_demos=4, seeds=(0, 1), settings=settings,
        out_dir=tmp_path,
    )
    assert len(report["rows"]) == len((2, 3)) * 2 * len((0, 1))
    jsonschema.validate(report, COTRAINING_REPORT_SCHEMA)
    assert (tmp_path / "cotraining.json").exists()
    csv_text = (tmp_path / "cotraining.csv").read_text().splitlines()
    assert csv_text[0] == "condition,robot_demos,seed,id_success,ood_success,mean_tracking_error_m"
    assert len(csv_text) == 1 + len(report["rows"])


ABLATION_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "task", "seeds", "conditions", "rows"],
    "properties": {
        "schema_version": {"type": "integer"},
        "task": {"type": "string"},
        "seeds": {"type": "array", "items": {"type": "integer"}},
        "conditions": {"type": "array", "items": {"type": "string"}},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["condition", "seed", "ood_success",
                             "displacement_variance", "trained"],
            },
        },
    },
}


def test_ablation_report_schema(tmp_path):
    import jsonschema

    settings = ExperimentSettings(train_steps=100, max_steps=15, id_eval_goals=1,
                                  ood_eval_goals_per_cell=0, human_demos=4)
    report = ablation_suite(seeds=(0,), n_robot=2, human_demos=4,
                            settings=settings, out_dir=tmp_path)
    jsonschema.validate(report, ABLATION_REPORT_SCHEMA)
    assert len(report["rows"]) == 3
    assert all(r["trained"] for r in report["rows"])


def test_speed_fluctuation_runs(task, monkeypatch):
    monkeypatch.setattr(harness, "FLUCTUATION_ROLLOUTS", 2)
    bundles = draw_bundles(task, 2, 4)
    model = train_policy_on_bundles(bundles, FAST, seed=0)
    v = speed_fluctuation(model, task, CFG, FAST, seed=0)
    assert np.isfinite(v) and v >= 0.0


# --- lockstep rollouts: each row equals its goal run alone -------------------


@pytest.fixture(scope="module")
def models(task):
    bundles = draw_bundles(task, 2, 4)
    return (train_policy_on_bundles(bundles, FAST, seed=0),
            train_policy_on_bundles(bundles, FAST, seed=0, joint_space_robot_states=True))


class DegenerateAtStep:
    """Replays the current state; action 1 of the chunk predicted at step
    `step` (or at every step) has a zero left-wrist rotation column."""

    def __init__(self, step=None, chunk_length=8):
        self.step = step
        self.chunk_length = chunk_length

    def predict(self, state, feature, step):
        chunk = np.tile(state, (self.chunk_length, 1))
        if self.step is None or step == self.step:
            chunk[1, 6:9] = 0.0
        return chunk


def oracle_agent(task, chunk_length=8):
    reference = ideal_reach_trajectory(
        task, CFG, task.grid.cell_center(4), np.random.Generator(np.random.PCG64(0)),
        capture_rate=task.rate, move_duration=task.move_duration,
        hold_duration=task.hold_duration, embodiment_tag="robot", start_spread=0.0,
    )
    return OracleReplayAgent(reference.states, chunk_length)


def assert_same_rollout(got, want):
    for field in dataclasses.fields(RolloutResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


@pytest.mark.parametrize("case", ["oracle", "policy", "no_stop", "joint_space", "error_row"])
def test_rollouts_rows_equal_single_goal_rollouts(task, models, case):
    model, joint_model = models
    agent = {"oracle": oracle_agent(task), "policy": PolicyAgent(model),
             "no_stop": PolicyAgent(model), "joint_space": PolicyAgent(joint_model),
             "error_row": DegenerateAtStep()}[case]
    kwargs = dict(max_steps=24)
    if case == "no_stop":
        kwargs["stop_on_goal"] = False
    if case == "joint_space":
        kwargs["joint_space"] = True
    # The home cell first: some rows stop early while the others go on.
    goals = [task.grid.cell_center(4)] + [task.grid.cell_center(c) for c in (0, 5, 8)]
    seeds = [3, 1, 4, 1]
    results = rollouts(agent, CFG, task, goals, seeds, **kwargs)
    for goal, seed, got in zip(goals, seeds, results):
        assert_same_rollout(got, rollouts(agent, CFG, task, [goal], [seed], **kwargs)[0])
    if case == "error_row":
        assert all(res.errors == 6 for res in results)
    else:
        assert all(res.errors == 0 for res in results)


def rollout_digest_update(h, results):
    """Feed every field of `results` but the IK statuses into `h`."""
    for res in results:
        h.update(json.dumps([res.success, res.steps_executed, res.clamp_events, res.errors,
                             res.final_goal_error.hex()]).encode())
        for arr in (res.tracking_error, res.commanded_displacements):
            h.update(arr.dtype.str.encode() + arr.tobytes())


PINNED_ROLLOUT_DIGESTS = {
    "degenerate": "82e37e7ef28ad35fad6e7c2e35be949c5a62c78d69003f2b70d033d730596f3e",
    "hold": "c90fa89bc8dce970f6ea9a25934c5fe2f6019c6f140d2648ea62fa4b0150990e",
    "joint_space": "e922bd9e429c195615c47dbe8dbb1205b5c45f9d1b082ba03c12b407fc1f8663",
    "oracle": "f593428b5c7dd917fe23e8c5eea9d4ba110b1d57274bb27b91936cb32b48f48f",
    "policy": "3f9b1fd1d38df7bd17608252e0d92e20f28307e939799e81c9d71d68d1dbd407",
}


@pytest.mark.parametrize("case", sorted(PINNED_ROLLOUT_DIGESTS))
def test_rollouts_pinned(task, models, case):
    """Rollouts over 23 steps (no multiple of the period), with and
    without the stop on the goal. An agent replans every half chunk, so
    the replay agents run chunks of 2 * min(p, 8) for p in 1, 3, 4, 8 and
    12; their digests were recorded with chunks of 8 replanned every p
    steps (at most the chunk) on the nested chunk-and-replan loop that the
    one step loop replaced. The trained models' chunk of 8 replans every 4."""
    model, joint_model = models
    if case in ("policy", "joint_space"):
        agents = [PolicyAgent(model if case == "policy" else joint_model)]
    else:
        make = {"oracle": lambda k: oracle_agent(task, k), "hold": HoldAgent,
                "degenerate": lambda k: DegenerateAtStep(chunk_length=k)}[case]
        agents = [make(2 * min(period, 8)) for period in (1, 3, 4, 8, 12)]
    goals = [task.grid.cell_center(4)] + [task.grid.cell_center(c) for c in (0, 5, 8)]
    h = hashlib.sha256()
    for agent in agents:
        for stop_on_goal in (True, False):
            rollout_digest_update(h, rollouts(
                agent, CFG, task, goals, [3, 1, 4, 1], max_steps=23,
                joint_space=case == "joint_space", stop_on_goal=stop_on_goal,
            ))
    assert h.hexdigest() == PINNED_ROLLOUT_DIGESTS[case]


def test_rollouts_of_no_goals():
    assert rollouts(HoldAgent(), CFG, make_reach_task(CFG), [], []) == []


def test_rollout_counts_errors_apart_from_clamps(task):
    """One degenerate action is held over, counted once in `errors` and
    never in `clamp_events`."""
    res = rollout(DegenerateAtStep(step=0), CFG, task, task.grid.cell_center(0), max_steps=8)
    assert res.steps_executed == 8
    assert res.errors == 1 and res.clamp_events == 0


@pytest.mark.parametrize("kwargs", [dict(max_steps=-1)], ids=["max_steps_-1"])
def test_rollouts_reject_bad_replan_and_step_counts(task, kwargs):
    """A negative step count is no horizon."""
    with pytest.raises(ValueError):
        rollout(HoldAgent(), CFG, task, task.grid.cell_center(0), **kwargs)


def test_rollouts_refuse_a_seed_count_unlike_the_goal_count(task):
    goals = [task.grid.cell_center(0), task.grid.cell_center(4)]
    with pytest.raises(ValueError, match="2 goals but 1 seeds"):
        rollouts(HoldAgent(), CFG, task, goals, [0])


# SHA-256 of the reduced reports below, without `wall_time_s`, with one
# BLAS thread, as produced by the in-process, per-goal rollout loop that
# the lockstep rollouts and the process pool replaced.
REDUCED_COTRAINING_DIGEST = "feb6516a0ade94a9259062be0a71e9971d3afd78262e3e842ef92cb587232771"
REDUCED_ABLATION_DIGEST = "a464efc92a646468a6c61f1f8674d96dc0fd7e14c497c4c971ba29aec0c4f5d2"


def report_digest(report):
    doc = {k: v for k, v in report.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def reduced_reports():
    settings = ExperimentSettings(train_steps=300, human_demos=12, id_eval_goals=2,
                                  max_steps=40)
    cotraining = cotraining_experiment(robot_counts=(4,), human_demos=12, seeds=(0,),
                                       settings=settings)
    ablation = ablation_suite(seeds=(0,), n_robot=4, human_demos=12, settings=settings)
    return cotraining, ablation


def test_reduced_experiment_reports_pinned(reduced_reports):
    """Covers evaluate_policy, speed_fluctuation and joint-space rollouts."""
    cotraining, ablation = reduced_reports
    assert report_digest(cotraining) == REDUCED_COTRAINING_DIGEST
    assert report_digest(ablation) == REDUCED_ABLATION_DIGEST


def test_cotrained_row_equals_unified_retimed_row(reduced_reports):
    """One model stands for both names, as the claims gate assumes."""
    assert CONDITIONS["cotrained"] == CONDITIONS["unified_retimed"]
    cotraining, ablation = reduced_reports
    [cotrained] = [r for r in cotraining["rows"] if r["condition"] == "cotrained"]
    [unified] = [r for r in ablation["rows"] if r["condition"] == "unified_retimed"]
    for key in ("seed", "id_success", "ood_success"):
        assert cotrained[key] == unified[key]


def test_ablation_builds_each_demo_set_once(monkeypatch):
    """Robot demos once per seed, human demos once per retime flag."""
    robot_calls, human_calls = [], []

    def robot_demo(task, config, goals, seeds, demo_ids):
        robot_calls.append(tuple(demo_ids))
        return generate_robot_demo(task, config, goals, seeds, demo_ids)

    def human_demo(task, config, goal, seed, demo_id, retime_demo=True):
        human_calls.append((demo_id, retime_demo))
        return generate_human_demo(task, config, goal, seed, demo_id, retime_demo)

    monkeypatch.setattr(harness, "generate_robot_demo", robot_demo)
    monkeypatch.setattr(harness, "generate_human_demo", human_demo)
    settings = ExperimentSettings(train_steps=10, max_steps=5, id_eval_goals=1,
                                  ood_eval_goals_per_cell=0, human_demos=3)
    report = ablation_suite(seeds=(0, 1), n_robot=2, human_demos=3, settings=settings)
    assert len(report["rows"]) == 6
    assert robot_calls == [("robot-0-0", "robot-0-1"), ("robot-1-0", "robot-1-1")]
    assert sorted(human_calls) == sorted(
        (f"human-{seed}-{i}", flag) for seed in (0, 1) for i in range(3) for flag in (True, False)
    )


@pytest.mark.parametrize("experiment", ["cotraining", "ablation"])
def test_settings_human_demos_must_match_the_experiment(monkeypatch, experiment):
    """Given settings whose `human_demos` differ from the experiment's raise
    before any demo is drawn; default settings take the experiment's."""
    monkeypatch.setattr(harness, "_draw_demos", lambda *args: pytest.fail("demos drawn"))
    run = {
        "cotraining": lambda **kw: cotraining_experiment(robot_counts=(2,), seeds=(0,), **kw),
        "ablation": lambda **kw: ablation_suite(seeds=(0,), n_robot=2, **kw),
    }[experiment]
    with pytest.raises(ValueError, match="human_demos"):
        run(human_demos=5, settings=ExperimentSettings(human_demos=3))
    used = []
    monkeypatch.setattr(harness, "run_conditions",
                        lambda *args: used.append(args[-1]) or iter(()))
    run(human_demos=5)
    assert [settings.human_demos for settings in used] == [5]


# --- conditions in a process pool --------------------------------------------

POOL_SETTINGS = ExperimentSettings(train_steps=60, max_steps=12, id_eval_goals=1,
                                   ood_eval_goals_per_cell=1)


@pytest.fixture
def pooled(monkeypatch):
    """Run `run_conditions` in a two-worker pool whatever the machine and
    the BLAS set-up; the list collects each job sent to a pool."""
    submitted = []
    submit = ProcessPoolExecutor.submit

    def counting_submit(pool, fn, *args, **kwargs):
        submitted.append(fn)
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(crossemb, "BLAS_PINNED", True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    return submitted


def test_pooled_conditions_equal_in_process_jobs(task, pooled):
    """Six jobs on two workers: every row and model equals the job run in
    this process, by bytes, in the serial order."""
    counts = (2, 3)
    got = harness.run_conditions(harness.ABLATION_CONDITIONS, counts, 3, (0,), task, CFG,
                                 POOL_SETTINGS)
    first = next(got)
    assert multiprocessing.active_children() == []  # a consumer may stop here
    got = [first, *got]
    assert len(pooled) == 6
    assert [(row["condition"], row["robot_demos"]) for row, _, _ in got] == [
        (name, n) for n in counts for name in harness.ABLATION_CONDITIONS
    ]
    for row, model, bundles in got:
        want_row, want_model = _run_condition(row["condition"], row["robot_demos"], 0, bundles,
                                              task, CFG, POOL_SETTINGS)
        assert json.dumps(row) == json.dumps(want_row)
        for got_arrays, want_arrays in ((model.weights, want_model.weights),
                                        (model.biases, want_model.biases)):
            assert [a.tobytes() for a in got_arrays] == [b.tobytes() for b in want_arrays]


def test_in_process_conditions_equal_pooled_jobs(task, pooled, monkeypatch):
    """Where BLAS is not pinned to one thread, the jobs run one after
    another in this process: same rows, models and order as the pool."""
    def run():
        return list(harness.run_conditions(harness.ABLATION_CONDITIONS, (2,), 3, (0,), task, CFG,
                                           POOL_SETTINGS))

    pooled_results = run()
    assert len(pooled) == 3
    monkeypatch.setattr(crossemb, "BLAS_PINNED", False)
    in_process = run()
    assert len(pooled) == 3  # nothing more was sent to a pool
    assert len(in_process) == len(pooled_results)
    for (row, model, _), (want_row, want_model, _) in zip(in_process, pooled_results):
        assert json.dumps(row) == json.dumps(want_row)
        for got_arrays, want_arrays in ((model.weights, want_model.weights),
                                        (model.biases, want_model.biases)):
            assert [a.tobytes() for a in got_arrays] == [b.tobytes() for b in want_arrays]


def test_job_error_reaches_caller_and_leaves_no_worker(pooled):
    """No robot demos: the robot-only job fails in its worker with the
    error a serial run raises first."""
    settings = ExperimentSettings(train_steps=10, max_steps=5, id_eval_goals=1,
                                  ood_eval_goals_per_cell=0, human_demos=2)
    with pytest.raises(EmptyDataset) as info:
        cotraining_experiment(robot_counts=(0,), human_demos=2, seeds=(0,), settings=settings)
    assert str(info.value) == "no frames to compute statistics over"
    assert len(pooled) == 2
    assert multiprocessing.active_children() == []


ONE = {var: "1" for var in crossemb._BLAS_VARS}
# Whether numpy bundles the OpenBLAS that crossemb pins where numpy loaded first.
BUNDLED = crossemb._pin_bundled_openblas()


def blas_env(preset):
    """This process's environment without BLAS thread variables, plus
    `preset`, importing crossemb from this tree."""
    env = {k: v for k, v in os.environ.items() if k not in ONE} | preset
    return env | {"PYTHONPATH": str(Path(crossemb.__file__).parents[1])}


@pytest.mark.parametrize("preset, numpy_first, pinned, values", [
    ({}, False, True, ONE),
    ({}, True, BUNDLED, ONE),
    (ONE, True, True, ONE),
    ({"OPENBLAS_NUM_THREADS": "2"}, False, False, ONE | {"OPENBLAS_NUM_THREADS": "2"}),
], ids=["unset", "numpy_first", "numpy_first_preset", "two_threads"])
def test_import_pins_one_blas_thread(preset, numpy_first, pinned, values):
    """Importing crossemb sets each unset BLAS thread variable to 1, and
    counts BLAS as pinned where numpy loads after them, or where numpy
    loaded first and crossemb pinned numpy's bundled OpenBLAS."""
    env = blas_env(preset)
    code = ("import numpy\n" if numpy_first else "") + (
        "import json, os, crossemb\n"
        "print(json.dumps([crossemb.BLAS_PINNED, {v: os.environ[v] for v in crossemb._BLAS_VARS}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert json.loads(proc.stdout) == [pinned, values]


def test_no_bundled_openblas_pins_nothing(tmp_path, monkeypatch):
    """A numpy without a loadable bundled OpenBLAS leaves BLAS unpinned."""
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert crossemb._pin_bundled_openblas() is False


@pytest.mark.skipif(not BUNDLED, reason="numpy has no bundled OpenBLAS to pin")
def test_numpy_first_trains_the_pinned_bytes(tmp_path):
    """A script that imports numpy before crossemb, with no BLAS variable
    set, trains a few steps at the CLI's shape (chunk 30, 256x256, batch
    64) to the checkpoint bytes of a run whose variables pin BLAS: there
    the (64, 256) @ (256, 1620) products give other bits on two BLAS
    threads than on one. On a 1-CPU machine BLAS runs one thread either
    way, so there this test cannot tell a pinned run from an unpinned one."""
    # Every state entry varies: trained on states with mostly constant
    # entries, the weights kept their bits on two threads as well.
    rng = np.random.default_rng(1)
    write_dataset([DemonstrationEpisode(f"e{i}", ("human", "robot")[i % 2], "", np.arange(40) / 30,
                                        rng.standard_normal((40, 54)), rng.standard_normal((40, 4)))
                   for i in range(4)], tmp_path / "d")
    digests = []
    for numpy_first, preset in ((False, ONE), (True, {})):
        out = tmp_path / f"{numpy_first}.ckpt"
        code = ("import numpy\n" if numpy_first else "") + (
            "import sys, crossemb\nfrom crossemb.cli import cli\n"
            "assert cli(sys.argv[1:]) == 0 and crossemb.BLAS_PINNED")
        subprocess.run([sys.executable, "-c", code, "train", "--dataset", str(tmp_path / "d"),
                        "--out", str(out), "--steps", "3"], env=blas_env(preset),
                       capture_output=True, timeout=120, check=True)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
