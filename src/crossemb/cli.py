"""Command-line toolchain for the pipeline.

Every subcommand accepts `--config FILE` (a JSON object whose keys mirror
the subcommand's long flag names); its values replace the flag defaults
and may supply required flags, and explicit flags override the file. Exit
codes: 0 success, 1 validation failure (a bad config file included), 2
usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset as dataset_mod
from . import geometry, harness, policy, retiming, unified_space
from .embodiments import load_embodiment_config
from .errors import CrossembError, ParseError
from .kinematics import IkParams, RobotCommand, forward_kinematics, ik_solve, retarget_action
from .geometry import Pose

EXIT_OK = 0
EXIT_FAILURE = 1


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Make the subcommand's `--config` file values its flag defaults, so
    every flag not given on the command line, required or not, takes them."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    commands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    if not path or not argv or argv[0] not in commands:
        return
    doc = dataset_mod.read_json_object(path, "config file")
    flags = {a.dest: a for a in commands[argv[0]]._actions if a.option_strings}
    for key, value in doc.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise CrossembError(f"config file {path}: unknown key {key!r}")
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError) as exc:
            raise CrossembError(f"config file {path}: bad {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise CrossembError(f"config file {path}: {key!r} must be one of {action.choices}")
        action.default = value
        action.required = False


def _parse_floats(text: str, flag: str, count: int | None = None) -> np.ndarray:
    """Comma-separated finite numbers of `flag`; `count`, if given, is how many."""
    try:
        values = np.array([float(v) for v in text.split(",")], dtype=float)
        finite = bool(np.all(np.isfinite(values)))
    except ValueError:
        finite = False
    if not finite:
        raise ParseError(None, f"expected comma-separated finite numbers, got {text!r}", flag)
    if count is not None and len(values) != count:
        raise ParseError(None, f"expected {count} values, got {len(values)}", flag)
    return values


def _parse_counts(text: str, flag: str, minimum: int = 0) -> tuple[int, ...]:
    values = _parse_floats(text, flag)
    if not np.all((values >= minimum) & (values == np.floor(values))):
        raise ParseError(None, f"expected whole numbers >= {minimum}, got {text!r}", flag)
    return tuple(int(v) for v in values)


def _check_retime_flags(alpha: float, rate: float) -> None:
    """ParseError unless `--alpha` and `--rate` are values `retiming.retime`
    takes: a finite slow-down >= 1 and a finite rate > 0."""
    if not (np.isfinite(alpha) and alpha >= 1.0):
        raise ParseError(None, f"expected a finite number >= 1, got {alpha}", "--alpha")
    if not (np.isfinite(rate) and rate > 0.0):
        raise ParseError(None, f"expected a finite number > 0, got {rate}", "--rate")


def _chain(config, name: str):
    if name not in ("left_arm", "right_arm", "neck"):
        raise CrossembError(f"unknown chain {name!r}; use left_arm, right_arm, or neck")
    return getattr(config, name)


def _trajectory_to_json(traj: retiming.Trajectory) -> dict:
    doc = {
        "embodiment_tag": traj.embodiment_tag,
        "nominal_rate": traj.nominal_rate,
        "frames": [
            {"t": float(t), "state": s.tolist()}
            for t, s in zip(traj.times, traj.states)
        ],
    }
    if traj.head_positions is not None:
        doc["head_positions"] = traj.head_positions.tolist()
    return doc


def _trajectory_from_json(doc: dict) -> retiming.Trajectory:
    """The trajectory a `retime --input` document holds; ParseError for a
    document without well-formed `frames`."""
    try:
        frames = doc["frames"]
        times = np.array([f["t"] for f in frames], dtype=float)
        states = np.array([f["state"] for f in frames], dtype=float)
        nominal_rate = float(doc.get("nominal_rate", 30.0))
        head = np.array(doc["head_positions"], dtype=float) if "head_positions" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(None, f"bad trajectory: {exc!r}", "--input") from exc
    return retiming.Trajectory(
        times=times,
        states=states,
        embodiment_tag=doc.get("embodiment_tag", "unknown"),
        nominal_rate=nominal_rate,
        head_positions=head,
    )


def _cmd_ingest(args) -> int:
    _check_retime_flags(args.alpha, args.rate)
    options = dataset_mod.IngestOptions(
        alpha=args.alpha,
        out_rate=args.rate,
        feature_dim=args.feature_dim,
    )
    config = load_embodiment_config(args.embodiment_config) if args.embodiment_config else None
    episodes = []
    for raw_dir in args.raw:
        raw = dataset_mod.load_raw_capture(raw_dir)
        episodes.append(dataset_mod.ingest(raw, config=config, options=options))
    dataset_mod.write_dataset(episodes, args.out)
    print(f"ingested {len(episodes)} episode(s) into {args.out}")
    return EXIT_OK


def _cmd_retime(args) -> int:
    _check_retime_flags(args.alpha, args.rate)
    traj = _trajectory_from_json(dataset_mod.read_json_object(args.input, "trajectory"))
    out = retiming.retime(traj, args.alpha, args.rate)
    text = _dumps(_trajectory_to_json(out))
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text)
    return EXIT_OK


def _cmd_train(args) -> int:
    for flag, value in (("--steps", args.steps), ("--batch-size", args.batch_size),
                        ("--chunk-length", args.chunk_length), ("--stride", args.stride)):
        if value < 1:
            raise ParseError(None, f"expected a whole number >= 1, got {value}", flag)
    hidden = _parse_counts(args.hidden, "--hidden", minimum=1)
    manifest, episodes = dataset_mod.read_dataset(args.dataset)
    pairs = dataset_mod.episodes_to_pairs_by_tag(episodes, args.chunk_length, args.stride)
    config = policy.PolicyConfig(
        feature_dim=manifest["feature_dim"],
        chunk_length=args.chunk_length,
        hidden_layers=hidden,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    model, report = harness.train_on_pairs(pairs, dataset_mod.default_ratio(pairs), config,
                                           args.steps)
    policy.save_checkpoint(model, args.out)
    print(f"trained {args.steps} step(s); final loss {report.total[-1]:.6f}; saved {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = policy.load_checkpoint(args.checkpoint)
    state = _parse_floats(args.state, "--state", unified_space.STATE_DIM)
    feature = _parse_floats(args.feature, "--feature", model.config.feature_dim)
    chunk = policy.predict(model, state, feature)
    print(_dumps({"action_chunk": chunk.tolist()}))
    return EXIT_OK


def _cmd_retarget(args) -> int:
    config = load_embodiment_config(args.embodiment_config)
    action = _parse_floats(args.action, "--action", unified_space.STATE_DIM)
    if args.q_prev:
        n_cmd = config.left_arm.n_joints + config.right_arm.n_joints + 14
        try:
            q_prev = RobotCommand.from_vector(config, _parse_floats(args.q_prev, "--q-prev", n_cmd))
        except ValueError as exc:  # hand values outside [0, 1]
            raise ParseError(None, str(exc), "--q-prev") from exc
    else:
        q_prev = RobotCommand(config.left_arm.mid_range(), config.right_arm.mid_range(),
                              np.zeros(2), np.full(6, 0.5), np.full(6, 0.5))
    out, diag = retarget_action(action, config, q_prev)
    print(
        _dumps(
            {
                "left_arm_q": out.left_arm_q.tolist(),
                "right_arm_q": out.right_arm_q.tolist(),
                "neck_q": out.neck_q.tolist(),
                "left_hand": out.left_hand.tolist(),
                "right_hand": out.right_hand.tolist(),
                "diagnostics": dataclasses.asdict(diag),
            }
        )
    )
    return EXIT_OK


def _cmd_fk(args) -> int:
    config = load_embodiment_config(args.embodiment_config)
    chain = _chain(config, args.chain)
    q = _parse_floats(args.q, "--q", chain.n_joints)
    if args.degrees:
        q = np.deg2rad(q)
    pose = forward_kinematics(chain, q)
    print(
        _dumps(
            {
                "translation": pose.translation.tolist(),
                "rotation_matrix": pose.rotation.tolist(),
                "rotation_quaternion": geometry.quat_from_matrix(pose.rotation).tolist(),
            }
        )
    )
    return EXIT_OK


def _cmd_ik(args) -> int:
    config = load_embodiment_config(args.embodiment_config)
    chain = _chain(config, args.chain)
    rotation = np.eye(3)
    if args.target_quat:
        quat = _parse_floats(args.target_quat, "--target-quat", 4)
        try:
            rotation = geometry.quat_to_matrix(quat)
        except ValueError as exc:
            raise ParseError(None, str(exc), "--target-quat") from exc
    target = Pose(rotation, _parse_floats(args.target_pos, "--target-pos", 3))
    q_init = (
        _parse_floats(args.q_init, "--q-init", chain.n_joints) if args.q_init
        else chain.mid_range()
    )
    q, status = ik_solve(chain, target, q_init, IkParams())
    achieved = forward_kinematics(chain, q)
    print(
        _dumps(
            {
                "q": q.tolist(),
                "status": status,
                "achieved_translation": achieved.translation.tolist(),
                "position_error": float(
                    np.linalg.norm(achieved.translation - target.translation)
                ),
            }
        )
    )
    return EXIT_OK


def _cmd_rollout(args) -> int:
    from .tasks import GoalGrid, make_reach_task

    n_cells = GoalGrid().n_cells  # the grid make_reach_task lays out
    if not 0 <= args.cell < n_cells:
        raise ParseError(None, f"expected a cell in 0..{n_cells - 1}, got {args.cell}", "--cell")
    for flag, value, minimum in (("--max-steps", args.max_steps, 1), ("--seed", args.seed, 0)):
        if value < minimum:
            raise ParseError(None, f"expected a whole number >= {minimum}, got {value}", flag)
    config = load_embodiment_config(args.embodiment_config)
    model = policy.load_checkpoint(args.checkpoint)
    task = make_reach_task(config, feature_dim=model.config.feature_dim)
    goal = (
        _parse_floats(args.goal, "--goal", 3)
        if args.goal
        else task.grid.cell_center(args.cell)
    )
    result = harness.rollout(
        harness.PolicyAgent(model),
        config,
        task,
        goal,
        max_steps=args.max_steps,
        seed=args.seed,
    )
    print(
        _dumps(
            {
                "success": result.success,
                "steps_executed": result.steps_executed,
                "final_goal_error_m": result.final_goal_error,
                "mean_tracking_error_m": float(result.tracking_error.mean())
                if result.tracking_error.size
                else 0.0,
                "clamp_events": result.clamp_events,
                "errors": result.errors,
            }
        )
    )
    return EXIT_OK


def _cmd_experiment(args) -> int:
    # Ablation conditions all train on human demos; co-training may run without.
    min_human = 1 if args.kind == "ablation" else 0
    for flag, value, minimum in (("--seeds", args.seeds, 1),
                                 ("--human-demos", args.human_demos, min_human)):
        if value < minimum:
            raise ParseError(None, f"expected a whole number >= {minimum}, got {value}", flag)
    if args.kind == "cotraining":
        report = harness.cotraining_experiment(
            robot_counts=_parse_counts(args.robot_counts, "--robot-counts", minimum=1),
            human_demos=args.human_demos,
            seeds=tuple(range(args.seeds)),
            out_dir=args.out,
        )
    else:
        report = harness.ablation_suite(
            seeds=tuple(range(args.seeds)),
            human_demos=args.human_demos,
            out_dir=args.out,
        )
    print(f"experiment {args.kind}: {len(report['rows'])} rows written to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    problems = []
    try:
        manifest, episodes = dataset_mod.read_dataset(args.dataset)
    except CrossembError as exc:
        print(f"validation failed: {exc}")
        return EXIT_FAILURE
    feature_dim = manifest["feature_dim"]
    for ep in episodes:
        if ep.feature_dim != feature_dim:
            problems.append(f"{ep.id}: feature dim {ep.feature_dim} != {feature_dim}")
        meta = ep.metadata
        if ep.embodiment_tag == "human" and not meta.get("retimed", False):
            problems.append(f"{ep.id}: human episode not retimed")
        if ep.embodiment_tag != "human" and meta.get("alpha_applied", 1.0) != 1.0:
            problems.append(f"{ep.id}: robot episode has alpha != 1")
        try:
            unified_space.check_state_rows(
                ep.states, unified_space.DEFAULT_MAX_HAND_REACH if args.check_reach else None
            )
        except CrossembError as exc:
            problems.append(f"{ep.id} {exc}")
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return EXIT_FAILURE
    print(f"ok: {len(episodes)} episode(s) valid")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossemb",
        description="Cross-embodiment demonstration pipeline toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert raw capture directories into a dataset")
    p.add_argument("--raw", nargs="+", required=True, help="raw episode directories")
    p.add_argument("--out", required=True)
    p.add_argument("--embodiment-config", dest="embodiment_config")
    p.add_argument("--alpha", type=float, default=dataset_mod.DEFAULT_ALPHA)
    p.add_argument("--rate", type=float, default=dataset_mod.DEFAULT_OUT_RATE)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=16)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("retime", help="retime a trajectory JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rate", type=float, default=30.0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_retime)

    p = sub.add_parser("train", help="train a policy on a dataset; its normalization "
                       "statistics, shared by every embodiment, go in the checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chunk-length", dest="chunk_length", type=int, default=30)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--hidden", default="256,256")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict an action chunk from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--state", required=True, help="54 comma-separated values")
    p.add_argument("--feature", required=True, help="F comma-separated values")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("retarget", help="retarget a unified action to a robot command")
    p.add_argument("--embodiment-config", dest="embodiment_config", required=True)
    p.add_argument("--action", required=True, help="54 comma-separated values")
    p.add_argument("--q-prev", dest="q_prev", help="warm-start command values")
    p.set_defaults(func=_cmd_retarget)

    p = sub.add_parser("fk", help="forward kinematics of a chain")
    p.add_argument("--embodiment-config", dest="embodiment_config", required=True)
    p.add_argument("--chain", default="right_arm")
    p.add_argument("--q", required=True, help="joint values, comma separated (radians)")
    p.add_argument("--degrees", action="store_true")
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("ik", help="inverse kinematics for a chain")
    p.add_argument("--embodiment-config", dest="embodiment_config", required=True)
    p.add_argument("--chain", default="right_arm")
    p.add_argument("--target-pos", dest="target_pos", required=True)
    p.add_argument("--target-quat", dest="target_quat", help="w,x,y,z")
    p.add_argument("--q-init", dest="q_init")
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser("rollout", help="closed-loop rollout of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embodiment-config", dest="embodiment_config", default="humanoid_b")
    p.add_argument("--goal", help="x,y,z")
    p.add_argument("--cell", type=int, default=4)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_rollout)

    p = sub.add_parser("experiment", help="run the co-training or ablation experiment")
    p.add_argument("kind", choices=["cotraining", "ablation"])
    p.add_argument("--out", required=True)
    p.add_argument("--robot-counts", dest="robot_counts", default="4,8,16,32")
    p.add_argument("--human-demos", dest="human_demos", type=int, default=72)
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("validate", help="run the invariant suite over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--check-reach", dest="check_reach", action="store_true")
    p.set_defaults(func=_cmd_validate)

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON file of flag defaults (see the module docstring)")
    return parser


def cli(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code) if exc.code is not None else EXIT_OK
    except (CrossembError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def main() -> None:
    sys.exit(cli())
