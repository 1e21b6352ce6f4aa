"""Closed-loop kinematic rollout and the desk-scale experiments.

The simulated plant executes commands exactly through forward
kinematics, isolating retargeting and learning quality from dynamics.
Experiments check the paper's three trends: co-training with human-style
data lifts out-of-distribution success, skipping the slow-down step
inflates commanded-speed variance, and the unified state space beats a
joint-space state.

Rollouts run in lockstep: `rollouts` is one loop over steps, with one
batched retarget (`retarget_rows`) and one batched state embedding
(`embed_rows`) of every goal still running, one row per goal. Each row
keeps its own command and feature RNG, and leaves on reaching its goal
(with `stop_on_goal`) or at `max_steps`. The running rows share the step
count, so they replan together, every `max(1, agent.chunk_length // 2)`
steps. `agent.predict` stays one call per row: a batched forward takes
a matrix-matrix BLAS product where one row takes a matrix-vector one,
and the two differ in the last bits. Every result therefore equals that
of its goal run alone; `rollout` is `rollouts` of one goal. Agents must
be stateless: `predict` may depend only on its arguments, since rows
call it interleaved.

The experiments train one model shape, `EXPERIMENT_POLICY`, its seed
replaced per job, so their rollouts replan every 4 steps; an
`ExperimentSettings` sets only their sizes: training steps, rollout
length, evaluation goals and human demos.

Both experiments are views of one condition table. `CONDITIONS` maps a
name to three facts: whether human demos join the robot demos, whether
they are retimed, and whether robot states are joint-space. Per (robot
count, seed), `run_conditions` draws the robot demos and the human goals
and seeds once, builds the human demos once per retime flag needed, and
trains and evaluates each condition once; `ABLATION_CONDITIONS` also get
their commanded-speed variance.

The conditions are independent jobs, and they run in parallel: one
`fork` process pool per `run_conditions` call, with a worker per
available core (at most one per job). The parent draws each (robot
count, seed) group's demos, in the same RNG order as a serial run, while
the workers train the jobs already sent; it collects every result and
shuts the pool down before it yields the first row, so no worker
outlives the call. A job computes exactly what it would in process, as
long as BLAS runs one thread in both. crossemb sets that up when it is
imported (see the package docstring); where it could not (a BLAS thread
variable set to another value, or numpy loaded first without a bundled
OpenBLAS), the jobs run one after another in the calling process, where
a multi-threaded BLAS has the cores to itself. Spans or counters recorded
inside a worker stay in that worker.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import geometry
from . import policy as policy_mod
from .dataset import MixedSampler, PairSet, episodes_to_pairs_by_tag
from .kinematics import EmbodimentConfig, embed_rows, retarget_rows
from .policy import PolicyConfig, PolicyModel, TrainReport, init_model, predict, train
from .tasks import (
    DemoBundle,
    ReachTask,
    generate_human_demo,
    generate_robot_demo,
    goal_cell,
    joint_space_states,
    make_reach_task,
)
from .unified_space import (
    LEFT_WRIST_POS,
    RIGHT_WRIST_POS,
    STATE_DIM,
    NormalizationStats,
    compute_stats,
)

REPORT_SCHEMA_VERSION = 1
# Lower bound on the per-dimension std of the training statistics.
STATS_EPSILON = 0.02
# Human:robot mixing ratio of the experiments' training streams.
HUMAN_WEIGHT = 3.0
# The experiments' model and training settings; each job replaces the seed.
EXPERIMENT_POLICY = PolicyConfig(feature_dim=12, chunk_length=8, hidden_layers=(64, 64),
                                 learning_rate=0.05, batch_size=32)
# Rollouts, each to a seeded random goal, that `speed_fluctuation` averages.
FLUCTUATION_ROLLOUTS = 6
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


@dataclass(frozen=True)
class RolloutResult:
    success: bool
    steps_executed: int
    tracking_error: np.ndarray  # per executed step, meters
    clamp_events: int           # best-effort arm solves and neck clamps
    errors: int                 # actions that could not be retargeted
    final_goal_error: float
    commanded_displacements: np.ndarray  # per executed step, meters


class PolicyAgent:
    """Adapts a trained model to the rollout loop."""

    def __init__(self, model: PolicyModel):
        self.model = model

    def predict(self, state: np.ndarray, feature: np.ndarray, step: int) -> np.ndarray:
        return predict(self.model, state, feature)

    @property
    def chunk_length(self) -> int:
        return self.model.config.chunk_length


def rollouts(
    agent,
    config: EmbodimentConfig,
    task: ReachTask,
    goals: Sequence[np.ndarray],
    seeds: Sequence[int],
    max_steps: int = 40,
    joint_space: bool = False,
    stop_on_goal: bool = True,
) -> list[RolloutResult]:
    """Closed-loop execution towards each goal, its feature noise seeded
    by the matching seed: predict a `(chunk_length, 54)` chunk, retarget
    and execute its first half (at least one action) through the
    kinematic plant, repeat. With `joint_space` the agent observes the
    zero-padded command vector instead of the unified state. ValueError
    for `max_steps` < 0.

    The goals run in lockstep (see the module docstring); result i equals
    that of goal i run alone.
    """
    if max_steps < 0:
        raise ValueError(f"need max_steps >= 0, got {max_steps}")
    period = max(1, agent.chunk_length // 2)
    goals = np.array(goals, dtype=float).reshape(-1, 3)
    n = len(goals)
    if len(seeds) != n:
        raise ValueError(f"{n} goals but {len(seeds)} seeds")
    feature_rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    commands = np.tile(task.home_command(config).vector(), (n, 1))
    unified = embed_rows(config, commands)
    prev_cmd_wrist = unified[:, RIGHT_WRIST_POS].copy()

    chunks = np.empty((n, period, STATE_DIM))
    tracking = np.empty((n, max_steps))
    displacements = np.empty((n, max_steps))
    clamp_events = np.zeros(n, dtype=int)
    errors = np.zeros(n, dtype=int)
    success = np.zeros(n, dtype=bool)
    executed = np.zeros(n, dtype=int)
    active = np.arange(n)
    for step in range(max_steps):
        if not active.size:
            break
        if step % period == 0:
            for i in active:
                obs = joint_space_states(commands[i]) if joint_space else unified[i]
                feature = task.codec.observe(goals[i], feature_rngs[i])
                chunks[i] = agent.predict(obs, feature, step)[:period]
        actions = chunks[active, step % period]
        rows = retarget_rows(actions, config, commands[active])
        # A degenerate action fails to retarget: its row holds its previous command.
        failed = np.array([e is not None for e in rows.errors], dtype=bool)
        errors[active] += failed
        clamp_events[active] += np.where(
            failed, 0, (~rows.converged).sum(axis=1) + rows.neck_clamped
        )
        commands[active] = rows.commands
        achieved = embed_rows(config, rows.commands)
        # A fresh array: an agent may keep the observations it was given.
        unified = unified.copy()
        unified[active] = achieved
        cmd_wrist = actions[:, RIGHT_WRIST_POS]
        displacements[active, step] = geometry.norms(cmd_wrist - prev_cmd_wrist[active])
        prev_cmd_wrist[active] = cmd_wrist
        err_l = geometry.norms(achieved[:, LEFT_WRIST_POS] - actions[:, LEFT_WRIST_POS])
        err_r = geometry.norms(achieved[:, RIGHT_WRIST_POS] - actions[:, RIGHT_WRIST_POS])
        tracking[active, step] = np.where(err_r > err_l, err_r, err_l)  # max() of the scalar loop
        executed[active] += 1
        reached = task.goal_reached(achieved, goals[active])
        success[active] |= reached
        if stop_on_goal:
            active = active[~reached]
    final_err = geometry.norms(unified[:, RIGHT_WRIST_POS] - goals)
    return [
        RolloutResult(
            success=bool(success[i]),
            steps_executed=int(executed[i]),
            tracking_error=tracking[i, : executed[i]],
            clamp_events=int(clamp_events[i]),
            errors=int(errors[i]),
            final_goal_error=float(final_err[i]),
            commanded_displacements=displacements[i, : executed[i]],
        )
        for i in range(n)
    ]


def rollout(
    agent,
    config: EmbodimentConfig,
    task: ReachTask,
    goal: np.ndarray,
    max_steps: int = 40,
    seed: int = 0,
) -> RolloutResult:
    """`rollouts` of a single goal."""
    return rollouts(agent, config, task, [goal], [seed], max_steps)[0]


# --------------------------------------------------------------------------
# Experiment plumbing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSettings:
    """The sizes of an experiment run (see the module docstring)."""

    train_steps: int = 4000
    max_steps: int = 80
    id_eval_goals: int = 4
    ood_eval_goals_per_cell: int = 1
    human_demos: int = 72


def _draw_demos(
    task: ReachTask, config: EmbodimentConfig, n_robot: int, n_human: int, seed: int,
    retime_flags: Sequence[bool],
) -> tuple[list[DemoBundle], dict[bool, list[DemoBundle]]]:
    """Robot demos, cycling the task's robot cells, and the human demos
    under each retime flag; human goals sweep every cell. Goals and seeds
    are drawn once for both flags, yet their human demos differ beyond
    retiming: unretimed, a raw trajectory holds its goal alpha times longer,
    so it has more frames. Past its start point and right-wrist noise, every
    draw from the demo's RNG (left wrist, rotations, hands, head, features)
    differs."""
    root = np.random.SeedSequence(entropy=seed)
    robot_seeds = root.spawn(1)[0].generate_state(max(n_robot, 1))
    human_seeds = root.spawn(2)[1].generate_state(max(n_human, 1))
    goal_rng = np.random.Generator(np.random.PCG64(root.spawn(3)[2]))
    cells = task.robot_cells
    robot_goals = [task.grid.sample_goal(cells[i % len(cells)], goal_rng) for i in range(n_robot)]
    human_goals = [task.grid.sample_goal(i % task.grid.n_cells, goal_rng) for i in range(n_human)]
    robot = generate_robot_demo(task, config, robot_goals, [int(s) for s in robot_seeds[:n_robot]],
                                [f"robot-{seed}-{i}" for i in range(n_robot)])
    human = {flag: [generate_human_demo(task, config, goal, int(s), f"human-{seed}-{i}",
                                        retime_demo=flag)
                    for i, (goal, s) in enumerate(zip(human_goals, human_seeds))]
             for flag in retime_flags}
    return robot, human


def pairs_from_bundles(
    bundles: Mapping[str, Sequence[DemoBundle]],
    chunk_length: int,
    joint_space_robot_states: bool = False,
) -> dict[str, PairSet]:
    """One pair set per tag that has bundles. `joint_space_robot_states` makes
    robot pairs observe the joint-state view; actions stay unified."""
    pairs = episodes_to_pairs_by_tag(
        [bundle.episode for items in bundles.values() for bundle in items], chunk_length
    )
    if joint_space_robot_states and "robot" in pairs:
        joint_states = np.concatenate([b.joint_states for b in bundles["robot"]])
        pairs["robot"] = replace(pairs["robot"], obs=joint_states)
    return pairs


def stats_from_pairs(
    pairs_by_tag: Mapping[str, PairSet],
) -> tuple[NormalizationStats, NormalizationStats]:
    """State and action statistics shared by every tag: each pair's state,
    and each frame of its action chunk."""
    states, actions = {}, {}
    for tag, pair_set in pairs_by_tag.items():
        states[tag], _, actions[tag] = pair_set.take(np.arange(len(pair_set)))
    return (compute_stats(states, epsilon=STATS_EPSILON),
            compute_stats(actions, epsilon=STATS_EPSILON))


def train_on_pairs(
    pairs_by_tag: Mapping[str, PairSet],
    ratio: Mapping[str, float],
    config: PolicyConfig,
    steps: int,
) -> tuple[PolicyModel, TrainReport]:
    """The one training recipe, for `crossemb train` and the experiments:
    `stats_from_pairs`, a `MixedSampler` mixing tags by `ratio` under
    `config.seed`, `init_model` and `steps` steps of `train`."""
    state_stats, action_stats = stats_from_pairs(pairs_by_tag)
    sampler = MixedSampler(pairs_by_tag, ratio, seed=config.seed)
    return train(init_model(config, state_stats, action_stats), sampler.stream(), steps)


def train_policy_on_bundles(
    bundles: Mapping[str, Sequence[DemoBundle]],
    settings: ExperimentSettings,
    seed: int,
    joint_space_robot_states: bool = False,
) -> PolicyModel:
    pairs = pairs_from_bundles(bundles, EXPERIMENT_POLICY.chunk_length,
                               joint_space_robot_states)
    # A tag without bundles stays in the ratio, so the sampler rejects it.
    ratio = {tag: 1.0 for tag in bundles}
    if "human" in ratio:
        ratio["human"] = HUMAN_WEIGHT
    config = replace(EXPERIMENT_POLICY, seed=seed)
    return train_on_pairs(pairs, ratio, config, settings.train_steps)[0]


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
    joint_space: bool = False,
) -> dict:
    id_goals, ood_goals = evaluation_goals(task, settings, seed)
    seeds = [seed * 1000 + i for goals in (id_goals, ood_goals) for i in range(len(goals))]
    results = rollouts(PolicyAgent(model), config, task, id_goals + ood_goals, seeds,
                       settings.max_steps, joint_space)
    success = [res.success for res in results]
    id_success, ood_success = success[: len(id_goals)], success[len(id_goals) :]
    tracking = [float(res.tracking_error.mean()) for res in results if res.tracking_error.size]
    return {
        "id_success": float(np.mean(id_success)) if id_success else 0.0,
        "ood_success": float(np.mean(ood_success)) if ood_success else 0.0,
        "mean_tracking_error_m": float(np.mean(tracking)) if tracking else 0.0,
    }


def embodiment_probe_accuracy(
    model: PolicyModel,
    pairs_by_tag: Mapping[str, PairSet],
    seed: int = 0,
) -> float:
    """Accuracy of a logistic probe predicting the embodiment from the
    penultimate layer on a balanced set of at most 256 pairs per tag.
    Diagnostic only; chance is 0.5."""
    tags = sorted(t for t in pairs_by_tag if pairs_by_tag[t])
    if len(tags) != 2:
        return float("nan")
    rng = np.random.Generator(np.random.PCG64(seed))
    feats, labels = [], []
    n = min(256, *(len(pairs_by_tag[t]) for t in tags))
    table = policy_mod.BatchTable()
    for label, tag in enumerate(tags):
        pair_set = pairs_by_tag[tag]
        idx = rng.permutation(len(pair_set))[:n]
        x, _ = policy_mod.assemble_batch(model, [(pair_set, i) for i in idx], table)
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


class Condition(NamedTuple):
    human: bool        # human demos join the robot demos
    retimed: bool      # human demos are slowed down by the task's alpha
    joint_space: bool  # robot states are observed as joint positions


CONDITIONS = {
    "robot_only": Condition(human=False, retimed=False, joint_space=False),
    "cotrained": Condition(human=True, retimed=True, joint_space=False),
    "unified_retimed": Condition(human=True, retimed=True, joint_space=False),
    "unified_not_retimed": Condition(human=True, retimed=False, joint_space=False),
    "joint_space_retimed": Condition(human=True, retimed=True, joint_space=True),
}
ABLATION_CONDITIONS = ("unified_retimed", "unified_not_retimed", "joint_space_retimed")


def speed_fluctuation(
    model: PolicyModel,
    task: ReachTask,
    config: EmbodimentConfig,
    settings: ExperimentSettings,
    seed: int,
    joint_space: bool = False,
) -> float:
    """Mean per-rollout variance of commanded wrist displacement over
    `FLUCTUATION_ROLLOUTS` rollouts to seeded random goals, measured over
    a fixed horizon (no early stop, so arrival holds count)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    goals = []
    for _ in range(FLUCTUATION_ROLLOUTS):
        cell = int(rng.integers(0, task.grid.n_cells))
        goals.append(task.grid.sample_goal(cell, rng))
    results = rollouts(PolicyAgent(model), config, task, goals,
                       [seed * 77 + i for i in range(FLUCTUATION_ROLLOUTS)], settings.max_steps,
                       joint_space, stop_on_goal=False)
    variances = [float(np.var(res.commanded_displacements))
                 for res in results if res.commanded_displacements.size]
    return float(np.mean(variances)) if variances else 0.0


def _run_condition(
    name: str,
    n_robot: int,
    seed: int,
    bundles: dict[str, list[DemoBundle]],
    task: ReachTask,
    config: EmbodimentConfig,
    settings: ExperimentSettings,
) -> tuple[dict, PolicyModel]:
    """One job of `run_conditions`: train condition `name` on `bundles`,
    evaluate it, and return its row and model."""
    cond = CONDITIONS[name]
    model = train_policy_on_bundles(bundles, settings, seed, cond.joint_space)
    row = {"condition": name, "robot_demos": int(n_robot), "seed": int(seed),
           **evaluate_policy(model, task, config, settings, seed, cond.joint_space)}
    if name in ABLATION_CONDITIONS:
        row["displacement_variance"] = speed_fluctuation(
            model, task, config, settings, seed, joint_space=cond.joint_space
        )
    return row, model


def run_conditions(
    names: Sequence[str],
    robot_counts: Sequence[int],
    human_demos: int,
    seeds: Sequence[int],
    task: ReachTask,
    config: EmbodimentConfig,
    settings: ExperimentSettings,
) -> Iterator[tuple[dict, PolicyModel, dict[str, list[DemoBundle]]]]:
    """Train and evaluate each named condition of `CONDITIONS` once per
    robot count and seed, in that order; yield its row, model and
    training bundles. A row holds `condition`, `robot_demos`, `seed`, the
    `evaluate_policy` metrics and, for `ABLATION_CONDITIONS`, the
    `displacement_variance`. The jobs run in a process pool (see the
    module docstring); the first job error is raised here."""
    from . import BLAS_PINNED

    retime_flags = dict.fromkeys(CONDITIONS[name].retimed for name in names
                                 if CONDITIONS[name].human)

    def jobs():
        for n_robot in robot_counts:
            for seed in seeds:
                robot, human = _draw_demos(task, config, n_robot, human_demos, seed,
                                           retime_flags)
                for name in names:
                    cond = CONDITIONS[name]
                    bundles = {"robot": robot}
                    if cond.human and human[cond.retimed]:
                        bundles["human"] = human[cond.retimed]
                    yield name, n_robot, seed, bundles

    n_jobs = len(names) * len(robot_counts) * len(seeds)
    workers = min(n_jobs, len(os.sched_getaffinity(0))) if BLAS_PINNED else 1
    if workers <= 1:
        for name, n_robot, seed, bundles in jobs():
            yield *_run_condition(name, n_robot, seed, bundles, task, config, settings), bundles
        return

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [
            (pool.submit(_run_condition, name, n_robot, seed, bundles, task, config, settings),
             bundles)
            for name, n_robot, seed, bundles in jobs()
        ]
        results = [(*future.result(), bundles) for future, bundles in futures]
    finally:
        pool.shutdown(cancel_futures=True)
    yield from results


def _experiment_setup(
    config: EmbodimentConfig | None, settings: ExperimentSettings | None, human_demos: int
) -> tuple[EmbodimentConfig, ExperimentSettings, ReachTask]:
    """An experiment's embodiment (humanoid_b unless given), its settings
    (the defaults with `human_demos` unless given; ValueError if they
    disagree with `human_demos`) and its reach task."""
    from .embodiments import humanoid_b_config

    config = config or humanoid_b_config()
    if settings is None:
        settings = ExperimentSettings(human_demos=human_demos)
    elif settings.human_demos != human_demos:
        raise ValueError(f"settings.human_demos is {settings.human_demos} but the experiment "
                         f"draws {human_demos} human demos")
    return config, settings, make_reach_task(config, feature_dim=EXPERIMENT_POLICY.feature_dim)


def _finish_report(name: str, task: ReachTask, seeds: Sequence[int], started: float,
                   out_dir: str | Path | None, **fields) -> dict:
    """The report of experiment `name`: `schema_version`, `task`, `seeds`,
    `fields` and the `wall_time_s` since `started`, written to `out_dir`
    by `write_report` if given."""
    report = {"schema_version": REPORT_SCHEMA_VERSION, "task": task.name,
              "seeds": [int(s) for s in seeds], **fields,
              "wall_time_s": time.perf_counter() - started}
    if out_dir is not None:
        write_report(report, out_dir, name)
    return report


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
    config, settings, task = _experiment_setup(config, settings, human_demos)
    rows, probe_values = [], []
    t0 = time.perf_counter()
    for row, model, bundles in run_conditions(("robot_only", "cotrained"), robot_counts,
                                              human_demos, seeds, task, config, settings):
        rows.append(row)
        if (row["condition"] == "cotrained" and "human" in bundles
                and row["robot_demos"] == max(robot_counts)):
            # Match goal cells so the probe cannot read the goal
            # feature instead of the embodiment.
            matched = {"robot": bundles["robot"], "human": [
                b for b in bundles["human"]
                if goal_cell(task, np.array(b.episode.metadata["goal"])) in task.robot_cells
            ]}
            pairs = pairs_from_bundles(matched, EXPERIMENT_POLICY.chunk_length)
            probe_values.append(embodiment_probe_accuracy(model, pairs, row["seed"]))
    return _finish_report("cotraining", task, seeds, t0, out_dir,
                          robot_demo_counts=[int(n) for n in robot_counts],
                          human_demos=int(human_demos), rows=rows,
                          embodiment_probe_accuracy=probe_values)


def ablation_suite(
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    n_robot: int = 8,
    human_demos: int = 72,
    config: EmbodimentConfig | None = None,
    settings: ExperimentSettings | None = None,
    out_dir: str | Path | None = None,
) -> dict:
    """State-space and action-speed ablation on a human-heavy mix."""
    config, settings, task = _experiment_setup(config, settings, human_demos)
    t0 = time.perf_counter()
    rows = [
        {key: row[key] for key in ("condition", "seed", "ood_success", "id_success",
                                   "displacement_variance")} | {"trained": True}
        for row, _, _ in run_conditions(ABLATION_CONDITIONS, (n_robot,), human_demos, seeds,
                                        task, config, settings)
    ]
    return _finish_report("ablation", task, seeds, t0, out_dir,
                          conditions=list(ABLATION_CONDITIONS), rows=rows)


def write_report(report: dict, out_dir: str | Path, name: str) -> None:
    """Emit <name>.json plus a plot-ready <name>.csv whose columns are the
    keys of the first row."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    (root / f"{name}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    rows = report.get("rows", [])
    cols = list(rows[0]) if rows else []
    with open(root / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows([row[c] for c in cols] for row in rows)
