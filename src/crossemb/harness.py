"""Closed-loop kinematic rollout and the desk-scale experiments.

The simulated plant executes commands exactly through forward
kinematics, isolating retargeting and learning quality from dynamics.
Experiments reproduce two qualitative trends: co-training with
human-style data lifts out-of-distribution success, and skipping the
slow-down step inflates commanded-speed variance.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import policy as policy_mod
from . import unified_space
from .dataset import MixedSampler, PairSet, extract_pairs
from .errors import CrossembError
from .kinematics import (
    EmbodimentConfig,
    IkParams,
    RobotCommand,
    embed_robot_state,
    retarget_action,
)
from .policy import PolicyConfig, PolicyModel, init_model, predict, train
from .tasks import (
    DemoBundle,
    ReachTask,
    generate_human_demo,
    generate_robot_demo,
    goal_cell,
    joint_state_vector,
    make_reach_task,
)
from .unified_space import MODE_SHARED, NormalizationStats, compute_stats

REPORT_SCHEMA_VERSION = 1
CSV_COLUMNS = ("condition", "robot_demos", "seed", "id_success", "ood_success",
               "mean_tracking_error_m")

COTRAINING_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "task", "robot_demo_counts", "human_demos",
                 "seeds", "rows"],
    "properties": {
        "schema_version": {"type": "integer"},
        "task": {"type": "string"},
        "robot_demo_counts": {"type": "array", "items": {"type": "integer"}},
        "human_demos": {"type": "integer"},
        "seeds": {"type": "array", "items": {"type": "integer"}},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": list(CSV_COLUMNS),
                "properties": {
                    "condition": {"type": "string"},
                    "robot_demos": {"type": "integer"},
                    "seed": {"type": "integer"},
                    "id_success": {"type": "number"},
                    "ood_success": {"type": "number"},
                    "mean_tracking_error_m": {"type": "number"},
                },
            },
        },
    },
}

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


@dataclass(frozen=True)
class RolloutResult:
    success: bool
    steps_executed: int
    tracking_error: np.ndarray  # per executed step, meters
    clamp_events: int
    ik_statuses: tuple[str, ...]
    final_goal_error: float
    commanded_displacements: np.ndarray  # per executed step, meters


class PolicyAgent:
    """Adapts a trained model to the rollout loop."""

    def __init__(self, model: PolicyModel, tag: str | None = "robot"):
        self.model = model
        self.tag = tag

    def predict(self, state: np.ndarray, feature: np.ndarray, step: int) -> np.ndarray:
        return predict(self.model, state, feature, tag=self.tag)

    @property
    def chunk_length(self) -> int:
        return self.model.config.chunk_length


class OracleReplayAgent:
    """Replays a reference trajectory; isolates pipeline error from policy error."""

    def __init__(self, reference_states: np.ndarray, chunk_length: int):
        self.reference = np.asarray(reference_states, dtype=float)
        self.chunk_length = chunk_length

    def predict(self, state: np.ndarray, feature: np.ndarray, step: int) -> np.ndarray:
        n = self.reference.shape[0]
        idx = np.minimum(np.arange(step + 1, step + 1 + self.chunk_length), n - 1)
        return self.reference[idx]


def rollout(
    agent,
    config: EmbodimentConfig,
    task: ReachTask,
    goal: np.ndarray,
    max_steps: int = 40,
    replan_every: int | None = None,
    seed: int = 0,
    ik_params: IkParams = IkParams(),
    state_adapter: Callable[[RobotCommand, np.ndarray], np.ndarray] | None = None,
    stop_on_goal: bool = True,
) -> RolloutResult:
    """Closed-loop execution: predict a chunk, retarget and execute the
    first `replan_every` actions through the kinematic plant, repeat."""
    if replan_every is None:
        replan_every = max(1, agent.chunk_length // 2)
    feature_rng = np.random.Generator(np.random.PCG64(seed))
    cmd = task.home_command(config)
    unified = unified_space.encode_state(embed_robot_state(cmd, config))
    prev_cmd_wrist = unified[unified_space.RIGHT_WRIST_POS].copy()

    tracking, displacements, statuses = [], [], []
    clamp_events = 0
    success = False
    executed = 0
    while executed < max_steps and not (success and stop_on_goal):
        obs = unified if state_adapter is None else state_adapter(cmd, unified)
        feature = task.codec.observe(goal, feature_rng)
        chunk = agent.predict(obs, feature, executed)
        for action in chunk[:replan_every]:
            try:
                cmd, diag = retarget_action(action, config, cmd, ik_params)
                statuses.append(diag.left.status)
                statuses.append(diag.right.status)
                clamp_events += len(diag.clamp_events)
            except CrossembError:
                # Degenerate action: hold the previous command, keep going.
                statuses.append("error")
                clamp_events += 1
            unified = unified_space.encode_state(embed_robot_state(cmd, config))
            cmd_wrist = np.asarray(action)[unified_space.RIGHT_WRIST_POS]
            displacements.append(float(np.linalg.norm(cmd_wrist - prev_cmd_wrist)))
            prev_cmd_wrist = cmd_wrist
            err_l = np.linalg.norm(
                unified[unified_space.LEFT_WRIST_POS] - action[unified_space.LEFT_WRIST_POS]
            )
            err_r = np.linalg.norm(
                unified[unified_space.RIGHT_WRIST_POS] - action[unified_space.RIGHT_WRIST_POS]
            )
            tracking.append(float(max(err_l, err_r)))
            executed += 1
            if task.goal_reached(unified, goal):
                success = True
                if stop_on_goal:
                    break
            if executed >= max_steps:
                break
    final_err = float(
        np.linalg.norm(unified[unified_space.RIGHT_WRIST_POS] - np.asarray(goal))
    )
    return RolloutResult(
        success=success,
        steps_executed=executed,
        tracking_error=np.array(tracking),
        clamp_events=clamp_events,
        ik_statuses=tuple(statuses),
        final_goal_error=final_err,
        commanded_displacements=np.array(displacements),
    )


# --------------------------------------------------------------------------
# Experiment plumbing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSettings:
    feature_dim: int = 12
    chunk_length: int = 8
    hidden_layers: tuple[int, ...] = (64, 64)
    learning_rate: float = 0.05
    batch_size: int = 32
    train_steps: int = 4000
    grad_clip: float = 1.0
    stats_epsilon: float = 0.02
    human_weight: float = 3.0   # human:robot mixing ratio
    max_steps: int = 80
    replan_every: int = 4
    id_eval_goals: int = 4
    ood_eval_goals_per_cell: int = 1
    human_demos: int = 72


def build_demo_bundles(
    task: ReachTask,
    config: EmbodimentConfig,
    n_robot: int,
    n_human: int,
    seed: int,
    retime_human: bool = True,
    robot_cells: tuple[int, ...] | None = None,
) -> dict[str, list[DemoBundle]]:
    """Robot demos cycle `robot_cells` (the task's restricted cells by
    default); human demos sweep every cell."""
    cells = robot_cells if robot_cells is not None else task.robot_cells
    root = np.random.SeedSequence(entropy=seed)
    robot_seeds = root.spawn(1)[0].generate_state(max(n_robot, 1))
    human_seeds = root.spawn(2)[1].generate_state(max(n_human, 1))
    goal_rng = np.random.Generator(np.random.PCG64(root.spawn(3)[2]))
    bundles: dict[str, list[DemoBundle]] = {"robot": [], "human": []}
    for i in range(n_robot):
        cell = cells[i % len(cells)]
        goal = task.grid.sample_goal(cell, goal_rng)
        bundles["robot"].append(
            generate_robot_demo(task, config, goal, int(robot_seeds[i]), f"robot-{seed}-{i}")
        )
    for i in range(n_human):
        cell = i % task.grid.n_cells
        goal = task.grid.sample_goal(cell, goal_rng)
        bundles["human"].append(
            generate_human_demo(
                task, config, goal, int(human_seeds[i]), f"human-{seed}-{i}",
                retime_demo=retime_human,
            )
        )
    if not bundles["human"]:
        del bundles["human"]
    return bundles


def pairs_from_bundles(
    bundles: Mapping[str, Sequence[DemoBundle]],
    chunk_length: int,
    joint_space_robot_states: bool = False,
) -> dict[str, PairSet]:
    """One pair set per tag that has bundles. `joint_space_robot_states` makes
    robot pairs observe the joint-state view; actions stay unified."""
    out: dict[str, PairSet] = {}
    for tag, items in bundles.items():
        if not items:
            continue
        pair_set = extract_pairs([bundle.episode for bundle in items], chunk_length)
        if joint_space_robot_states and tag == "robot":
            pair_set = replace(pair_set, obs=np.concatenate([b.joint_states for b in items]))
        out[tag] = pair_set
    return out


def stats_from_pairs(
    pairs_by_tag: Mapping[str, PairSet],
    epsilon: float,
    mode: str = MODE_SHARED,
) -> tuple[NormalizationStats, NormalizationStats]:
    states, actions = {}, {}
    for tag, pair_set in pairs_by_tag.items():
        states[tag], _, actions[tag] = pair_set.take(np.arange(len(pair_set)))
    return (
        compute_stats(states, mode=mode, epsilon=epsilon),
        compute_stats(actions, mode=mode, epsilon=epsilon),
    )


def train_policy_on_bundles(
    bundles: Mapping[str, Sequence[DemoBundle]],
    settings: ExperimentSettings,
    seed: int,
    joint_space_robot_states: bool = False,
) -> PolicyModel:
    pairs = pairs_from_bundles(bundles, settings.chunk_length, joint_space_robot_states)
    state_stats, action_stats = stats_from_pairs(pairs, settings.stats_epsilon)
    # A tag without bundles stays in the ratio, so the sampler rejects it.
    ratio = {tag: 1.0 for tag in bundles}
    if "human" in ratio:
        ratio["human"] = settings.human_weight
    sampler = MixedSampler(pairs, ratio, seed=seed)
    cfg = PolicyConfig(
        feature_dim=settings.feature_dim,
        chunk_length=settings.chunk_length,
        hidden_layers=settings.hidden_layers,
        learning_rate=settings.learning_rate,
        batch_size=settings.batch_size,
        grad_clip=settings.grad_clip,
        seed=seed,
    )
    model = init_model(cfg, state_stats, action_stats)
    model, _ = train(model, sampler.stream(), settings.train_steps)
    return model


def evaluation_goals(
    task: ReachTask, settings: ExperimentSettings, seed: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Held-out in-distribution and out-of-distribution goals."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed,
                                                                     spawn_key=(99,))))
    id_goals = [
        task.grid.sample_goal(task.robot_cells[i % len(task.robot_cells)], rng)
        for i in range(settings.id_eval_goals)
    ]
    ood_goals = [
        task.grid.sample_goal(cell, rng)
        for cell in task.ood_cells
        for _ in range(settings.ood_eval_goals_per_cell)
    ]
    return id_goals, ood_goals


def evaluate_policy(
    model: PolicyModel,
    task: ReachTask,
    config: EmbodimentConfig,
    settings: ExperimentSettings,
    seed: int,
    state_adapter=None,
) -> dict:
    agent = PolicyAgent(model)
    id_goals, ood_goals = evaluation_goals(task, settings, seed)
    results = {"id": [], "ood": []}
    tracking = []
    for key, goals in (("id", id_goals), ("ood", ood_goals)):
        for i, goal in enumerate(goals):
            res = rollout(
                agent,
                config,
                task,
                goal,
                max_steps=settings.max_steps,
                replan_every=settings.replan_every,
                seed=seed * 1000 + i,
                state_adapter=state_adapter,
            )
            results[key].append(res.success)
            if res.tracking_error.size:
                tracking.append(float(res.tracking_error.mean()))
    return {
        "id_success": float(np.mean(results["id"])) if results["id"] else 0.0,
        "ood_success": float(np.mean(results["ood"])) if results["ood"] else 0.0,
        "mean_tracking_error_m": float(np.mean(tracking)) if tracking else 0.0,
    }


def embodiment_probe_accuracy(
    model: PolicyModel,
    pairs_by_tag: Mapping[str, PairSet],
    seed: int = 0,
    max_per_tag: int = 256,
) -> float:
    """Accuracy of a logistic probe predicting the embodiment from the
    penultimate layer on a balanced set. Diagnostic only; chance is 0.5."""
    tags = sorted(t for t in pairs_by_tag if pairs_by_tag[t])
    if len(tags) != 2:
        return float("nan")
    rng = np.random.Generator(np.random.PCG64(seed))
    feats, labels = [], []
    n = min(max_per_tag, *(len(pairs_by_tag[t]) for t in tags))
    for label, tag in enumerate(tags):
        pair_set = pairs_by_tag[tag]
        idx = rng.permutation(len(pair_set))[:n]
        x, _ = policy_mod.assemble_batch(model, [(pair_set, i) for i in idx])
        feats.append(policy_mod.penultimate_activations(model, x))
        labels.append(np.full(n, label))
    X = np.concatenate(feats)
    y = np.concatenate(labels)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(300):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        g = p - y
        w -= 0.1 * (X.T @ g) / len(y)
        b -= 0.1 * float(g.mean())
    acc = float(np.mean((X @ w + b > 0) == (y == 1)))
    return max(acc, 1.0 - acc)


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------


def cotraining_experiment(
    robot_counts: Sequence[int] = (4, 8, 16, 32),
    human_demos: int = 72,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    config: EmbodimentConfig | None = None,
    settings: ExperimentSettings | None = None,
    out_dir: str | Path | None = None,
) -> dict:
    """Robot-only vs co-trained success across robot demo counts.

    With `human_demos` = 0 both conditions run identical code paths and
    produce identical rows.
    """
    from .embodiments import humanoid_b_config

    config = config or humanoid_b_config()
    settings = settings or ExperimentSettings(human_demos=human_demos)
    task = make_reach_task(
        config, feature_dim=settings.feature_dim
    )
    rows = []
    probe_values = []
    t0 = time.perf_counter()
    for n_robot in robot_counts:
        for seed in seeds:
            bundles = build_demo_bundles(task, config, n_robot, human_demos, seed)
            robot_only = {"robot": bundles["robot"]}
            for condition, data in (("robot_only", robot_only), ("cotrained", bundles)):
                model = train_policy_on_bundles(data, settings, seed)
                metrics = evaluate_policy(model, task, config, settings, seed)
                rows.append(
                    {
                        "condition": condition,
                        "robot_demos": int(n_robot),
                        "seed": int(seed),
                        **metrics,
                    }
                )
                if condition == "cotrained" and "human" in data and n_robot == max(robot_counts):
                    # Match goal cells so the probe cannot read the goal
                    # feature instead of the embodiment.
                    matched = {
                        "robot": data["robot"],
                        "human": [
                            b
                            for b in data["human"]
                            if goal_cell(task, np.array(b.episode.metadata["goal"]))
                            in task.robot_cells
                        ],
                    }
                    pairs = pairs_from_bundles(matched, settings.chunk_length)
                    probe_values.append(embodiment_probe_accuracy(model, pairs, seed))
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "task": task.name,
        "robot_demo_counts": [int(n) for n in robot_counts],
        "human_demos": int(human_demos),
        "seeds": [int(s) for s in seeds],
        "rows": rows,
        "embodiment_probe_accuracy": probe_values,
        "wall_time_s": time.perf_counter() - t0,
    }
    if out_dir is not None:
        write_report(report, out_dir, "cotraining")
    return report


def speed_fluctuation(
    model: PolicyModel,
    task: ReachTask,
    config: EmbodimentConfig,
    settings: ExperimentSettings,
    seed: int,
    n_rollouts: int = 6,
    state_adapter=None,
) -> float:
    """Mean per-rollout variance of commanded wrist displacement, measured
    over a fixed horizon (no early stop, so arrival holds count)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    agent = PolicyAgent(model)
    variances = []
    for i in range(n_rollouts):
        cell = int(rng.integers(0, task.grid.n_cells))
        goal = task.grid.sample_goal(cell, rng)
        res = rollout(
            agent,
            config,
            task,
            goal,
            max_steps=settings.max_steps,
            replan_every=settings.replan_every,
            seed=seed * 77 + i,
            stop_on_goal=False,
            state_adapter=state_adapter,
        )
        if res.commanded_displacements.size:
            variances.append(float(np.var(res.commanded_displacements)))
    return float(np.mean(variances)) if variances else 0.0


ABLATION_CONDITIONS = ("unified_retimed", "unified_not_retimed", "joint_space_retimed")


def ablation_suite(
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    n_robot: int = 8,
    human_demos: int = 72,
    config: EmbodimentConfig | None = None,
    settings: ExperimentSettings | None = None,
    out_dir: str | Path | None = None,
) -> dict:
    """State-space and action-speed ablation on a human-heavy mix."""
    from .embodiments import humanoid_b_config

    config = config or humanoid_b_config()
    settings = settings or ExperimentSettings()
    task = make_reach_task(config, feature_dim=settings.feature_dim)
    rows = []
    t0 = time.perf_counter()
    for seed in seeds:
        for condition in ABLATION_CONDITIONS:
            retimed = condition != "unified_not_retimed"
            joint_space = condition == "joint_space_retimed"
            bundles = build_demo_bundles(
                task, config, n_robot, human_demos, seed, retime_human=retimed
            )
            adapter = None
            if joint_space:
                adapter = lambda cmd, unified: joint_state_vector(cmd)
            model = train_policy_on_bundles(
                bundles, settings, seed, joint_space_robot_states=joint_space
            )
            metrics = evaluate_policy(
                model, task, config, settings, seed, state_adapter=adapter
            )
            variance = speed_fluctuation(
                model, task, config, settings, seed, state_adapter=adapter
            )
            rows.append(
                {
                    "condition": condition,
                    "seed": int(seed),
                    "ood_success": metrics["ood_success"],
                    "id_success": metrics["id_success"],
                    "displacement_variance": variance,
                    "trained": True,
                }
            )
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "task": task.name,
        "seeds": [int(s) for s in seeds],
        "conditions": list(ABLATION_CONDITIONS),
        "rows": rows,
        "wall_time_s": time.perf_counter() - t0,
    }
    if out_dir is not None:
        write_report(report, out_dir, "ablation")
    return report


def write_report(report: dict, out_dir: str | Path, name: str) -> None:
    """Emit <name>.json plus a plot-ready <name>.csv."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    (root / f"{name}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    rows = report.get("rows", [])
    with open(root / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        if rows and "robot_demos" in rows[0]:
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([row[c] for c in CSV_COLUMNS])
        else:
            cols = list(rows[0].keys()) if rows else []
            writer.writerow(cols)
            for row in rows:
                writer.writerow([row[c] for c in cols])
