"""Command-line toolchain for the pipeline.

Every subcommand accepts `--config FILE`, a JSON object whose keys mirror
the subcommand's long flag names. Its values replace the flag defaults and
may supply required flags; explicit flags override the file. A switch
takes true or false, `--raw` a list of strings, a numeric flag a number
or its command-line text, and any other flag a string. Each value, typed
or read from the file, passes its flag's one check (its argparse `type`).

Exit codes: 0 success; 1 a failed run or a malformed value, on the command
line and in the config file alike (an unreadable config file included);
2 a usage error, such as a missing or unknown flag or subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from decimal import Decimal
from functools import partial
from pathlib import Path

import numpy as np

from . import dataset as dataset_mod
from . import geometry, harness, policy, retiming, unified_space
from .embodiments import load_embodiment_config
from .errors import CrossembError, InvalidMetadata, ParseError
from .kinematics import RobotCommand, forward_kinematics, ik_solve, retarget_action
from .geometry import Pose
from .tasks import GoalGrid, make_reach_task

EXIT_OK = 0
EXIT_FAILURE = 1


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Make the subcommand's `--config` file values its flag defaults, so
    every flag not given on the command line, required or not, takes them.
    Each value must have its flag's shape (module docstring) and pass its
    flag's check."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    commands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    if not path or not argv or argv[0] not in commands:
        return
    doc = dataset_mod.read_json_object(path, "config file")
    flags = {a.dest: a for a in commands[argv[0]]._actions
             if a.option_strings and a.dest not in ("help", "config")}
    for key, value in doc.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise CrossembError(f"config file {path}: unknown key {key!r}")
        if action.nargs == 0:
            shape, ok = "true or false", isinstance(value, bool)
        elif action.nargs == "+":
            shape = "a non-empty list of strings"
            ok = isinstance(value, list) and value and all(isinstance(v, str) for v in value)
        else:
            numeric = getattr(action.type, "func", None) is _numbers
            shape = "a number or a string" if numeric else "a string"
            ok = isinstance(value, str) or numeric and type(value) in (int, float)
        if not ok:
            raise CrossembError(f"config file {path}: {key!r} must be {shape}")
        try:
            if action.nargs == "+":
                value = [action.type(v) for v in value]
            elif action.nargs != 0:
                value = action.type(str(value))
        except CrossembError as exc:
            raise CrossembError(f"config file {path}: bad {key!r}: {exc}") from exc
        action.default = value
        action.required = False


def _text(text: str, flag: str, choices: tuple[str, ...] = ()) -> str:
    """The check of a flag that names a file, an embodiment or a chain:
    non-empty text without NUL, one of `choices` if any."""
    if not text or "\0" in text or choices and text not in choices:
        expected = f"one of {', '.join(choices)}" if choices else "a name"
        raise ParseError(None, f"expected {expected}, got {text!r}", flag)
    return text


def _number(piece, whole: bool) -> float | int:
    """`piece` as a finite number, an int if `whole` (exact past 2**53);
    ValueError if it is not one."""
    value = float(piece)
    if not math.isfinite(value) or whole and not value.is_integer():
        raise ValueError(piece)
    return int(Decimal(piece)) if whole else value


def _numbers(text, flag: str, count: int | None = 1, whole: bool = False,
             low: float = -math.inf, high: float = math.inf, strict: bool = False):
    """The check of a numeric flag: `count` (any if None) comma-separated
    finite numbers, whole if `whole`, each in [low, high] (above `low` if
    `strict`). Gives the number for a count of 1, else a tuple of whole
    numbers or an array; ParseError naming `flag` otherwise. Run-time calls
    pass the values a first check gave, with a count read from a file or a
    bound set by another flag."""
    pieces = text.split(",") if isinstance(text, str) else np.atleast_1d(text).tolist()
    try:
        values = [_number(piece, whole) for piece in pieces]
    except ValueError:
        values = []
    if not values or count not in (None, len(values)) or not all(
            (v > low if strict else v >= low) and v <= high for v in values):
        kind = "whole" if whole else "finite"
        what = f"a {kind} number" if count == 1 else f"{count or 'comma-separated'} {kind} numbers"
        bound = (f" in {low}..{high}" if high < math.inf
                 else f" {'>' if strict else '>='} {low}" if low > -math.inf else "")
        got = ",".join(map(str, pieces))
        raise ParseError(None, f"expected {what}{bound}, got {got!r}", flag)
    if count == 1:
        return values[0]
    return tuple(values) if whole else np.array(values)


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
    options = dataset_mod.IngestOptions(args.alpha, args.rate, args.feature_dim)
    config = load_embodiment_config(args.embodiment_config) if args.embodiment_config else None
    episodes = []
    for raw_dir in args.raw:
        raw = dataset_mod.load_raw_capture(raw_dir)
        episodes.append(dataset_mod.ingest(raw, config=config, options=options))
    dataset_mod.write_dataset(episodes, args.out)
    print(f"ingested {len(episodes)} episode(s) into {args.out}")
    return EXIT_OK


def _cmd_retime(args) -> int:
    traj = _trajectory_from_json(dataset_mod.read_json_object(args.input, "trajectory"))
    out = retiming.retime(traj, args.alpha, args.rate)
    text = _dumps(_trajectory_to_json(out))
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text)
    return EXIT_OK


def _cmd_train(args) -> int:
    manifest, episodes = dataset_mod.read_dataset(args.dataset)
    if manifest["feature_dim"] < 1:
        raise InvalidMetadata(f"dataset {args.dataset}: feature_dim {manifest['feature_dim']}; "
                              "training needs at least one feature column")
    pairs = dataset_mod.episodes_to_pairs_by_tag(episodes, args.chunk_length, args.stride)
    config = policy.PolicyConfig(
        feature_dim=manifest["feature_dim"],
        chunk_length=args.chunk_length,
        hidden_layers=args.hidden,
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
    _numbers(args.feature, "--feature", model.config.feature_dim)
    chunk = policy.predict(model, args.state, args.feature)
    print(_dumps({"action_chunk": chunk.tolist()}))
    return EXIT_OK


def _cmd_retarget(args) -> int:
    config = load_embodiment_config(args.embodiment_config)
    if args.q_prev is not None:
        n_cmd = config.left_arm.n_joints + config.right_arm.n_joints + 14
        _numbers(args.q_prev, "--q-prev", n_cmd)
        try:
            q_prev = RobotCommand.from_vector(config, args.q_prev)
        except ValueError as exc:  # hand values outside [0, 1]
            raise ParseError(None, str(exc), "--q-prev") from exc
    else:
        q_prev = RobotCommand(config.left_arm.mid_range(), config.right_arm.mid_range(),
                              np.zeros(2), np.full(6, 0.5), np.full(6, 0.5))
    out, diag = retarget_action(args.action, config, q_prev)
    doc = {name: getattr(out, name).tolist() for name in
           ("left_arm_q", "right_arm_q", "neck_q", "left_hand", "right_hand")}
    print(_dumps(dict(doc, diagnostics=dataclasses.asdict(diag))))
    return EXIT_OK


def _cmd_fk(args) -> int:
    chain = getattr(load_embodiment_config(args.embodiment_config), args.chain)
    _numbers(args.q, "--q", chain.n_joints)
    pose = forward_kinematics(chain, np.deg2rad(args.q) if args.degrees else args.q)
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
    chain = getattr(load_embodiment_config(args.embodiment_config), args.chain)
    rotation = np.eye(3)
    if args.target_quat is not None:
        try:
            rotation = geometry.quat_to_matrix(args.target_quat)
        except ValueError as exc:
            raise ParseError(None, str(exc), "--target-quat") from exc
    target = Pose(rotation, args.target_pos)
    q_init = chain.mid_range() if args.q_init is None else args.q_init
    _numbers(q_init, "--q-init", chain.n_joints)
    q, status = ik_solve(chain, target, q_init)
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
    config = load_embodiment_config(args.embodiment_config)
    model = policy.load_checkpoint(args.checkpoint)
    task = make_reach_task(config, feature_dim=model.config.feature_dim)
    goal = args.goal if args.goal is not None else task.grid.cell_center(args.cell)
    result = harness.rollout(harness.PolicyAgent(model), config, task, goal,
                             max_steps=args.max_steps, seed=args.seed)
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
    if args.kind == "cotraining":
        report = harness.cotraining_experiment(
            robot_counts=args.robot_counts,
            human_demos=args.human_demos,
            seeds=tuple(range(args.seeds)),
            out_dir=args.out,
        )
    else:
        # Ablation conditions all train on human demos; co-training may run without.
        _numbers(args.human_demos, "--human-demos", whole=True, low=1)
        report = harness.ablation_suite(
            seeds=tuple(range(args.seeds)),
            human_demos=args.human_demos,
            out_dir=args.out,
        )
    print(f"experiment {args.kind}: {len(report['rows'])} rows written to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    problems = []
    _, episodes = dataset_mod.read_dataset(args.dataset)
    for ep in episodes:
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
    """The `crossemb` parser. Every flag that takes a value has a check as
    its `type` (`_text` or `_numbers`), which names the flag in its errors."""
    parser = argparse.ArgumentParser(
        prog="crossemb",
        description="Cross-embodiment demonstration pipeline toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    alpha, positive = partial(_numbers, low=1), partial(_numbers, low=0, strict=True)
    size, natural = partial(_numbers, whole=True, low=1), partial(_numbers, whole=True, low=0)
    floats, sizes = partial(_numbers, count=None), partial(_numbers, count=None, whole=True, low=1)
    state, point = partial(_numbers, count=unified_space.STATE_DIM), partial(_numbers, count=3)
    cell = partial(_numbers, whole=True, low=0, high=GoalGrid().n_cells - 1)  # the task's grid
    chain = partial(_text, choices=("left_arm", "right_arm", "neck"))

    p = sub.add_parser("ingest", help="convert raw capture directories into a dataset")
    p.add_argument("--raw", type=_text, nargs="+", required=True, help="raw episode directories")
    p.add_argument("--out", type=_text, required=True)
    p.add_argument("--embodiment-config", type=_text)
    p.add_argument("--alpha", type=alpha, default=dataset_mod.DEFAULT_ALPHA)
    p.add_argument("--rate", type=positive, default=dataset_mod.DEFAULT_OUT_RATE)
    p.add_argument("--feature-dim", type=size, default=16)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("retime", help="retime a trajectory JSON file")
    p.add_argument("--input", type=_text, required=True)
    p.add_argument("--alpha", type=alpha, required=True)
    p.add_argument("--rate", type=positive, default=dataset_mod.DEFAULT_OUT_RATE)
    p.add_argument("--output", type=_text)
    p.set_defaults(func=_cmd_retime)

    p = sub.add_parser("train", help="train a policy on a dataset; its normalization "
                       "statistics, shared by every embodiment, go in the checkpoint")
    p.add_argument("--dataset", type=_text, required=True)
    p.add_argument("--out", type=_text, required=True)
    p.add_argument("--chunk-length", type=size, default=30)
    p.add_argument("--stride", type=size, default=1)
    p.add_argument("--hidden", type=sizes, default="256,256")
    p.add_argument("--steps", type=size, default=2000)
    p.add_argument("--lr", type=positive, default=1e-3)
    p.add_argument("--batch-size", type=size, default=64)
    p.add_argument("--seed", type=natural, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict an action chunk from a checkpoint")
    p.add_argument("--checkpoint", type=_text, required=True)
    p.add_argument("--state", type=state, required=True, help="54 comma-separated values")
    p.add_argument("--feature", type=floats, required=True, help="F comma-separated values")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("retarget", help="retarget a unified action to a robot command")
    p.add_argument("--embodiment-config", type=_text, required=True)
    p.add_argument("--action", type=state, required=True, help="54 comma-separated values")
    p.add_argument("--q-prev", type=floats, help="warm-start command values")
    p.set_defaults(func=_cmd_retarget)

    p = sub.add_parser("fk", help="forward kinematics of a chain")
    p.add_argument("--embodiment-config", type=_text, required=True)
    p.add_argument("--chain", type=chain, default="right_arm")
    p.add_argument("--q", type=floats, required=True,
                   help="joint values, comma separated (radians)")
    p.add_argument("--degrees", action="store_true")
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("ik", help="inverse kinematics for a chain")
    p.add_argument("--embodiment-config", type=_text, required=True)
    p.add_argument("--chain", type=chain, default="right_arm")
    p.add_argument("--target-pos", type=point, required=True)
    p.add_argument("--target-quat", type=partial(_numbers, count=4), help="w,x,y,z")
    p.add_argument("--q-init", type=floats)
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser("rollout", help="closed-loop rollout of a checkpoint")
    p.add_argument("--checkpoint", type=_text, required=True)
    p.add_argument("--embodiment-config", type=_text, default="humanoid_b")
    p.add_argument("--goal", type=point, help="x,y,z")
    p.add_argument("--cell", type=cell, default=4)
    p.add_argument("--max-steps", type=size, default=60)
    p.add_argument("--seed", type=natural, default=0)
    p.set_defaults(func=_cmd_rollout)

    p = sub.add_parser("experiment", help="run the co-training or ablation experiment")
    p.add_argument("kind", choices=["cotraining", "ablation"])
    p.add_argument("--out", type=_text, required=True)
    p.add_argument("--robot-counts", type=sizes, default="4,8,16,32")
    p.add_argument("--human-demos", type=natural, default=72)
    p.add_argument("--seeds", type=size, default=5)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("validate", help="run the invariant suite over a dataset")
    p.add_argument("--dataset", type=_text, required=True)
    p.add_argument("--check-reach", action="store_true")
    p.set_defaults(func=_cmd_validate)

    for p in sub.choices.values():
        p.add_argument("--config", type=_text,
                       help="JSON file of flag defaults (see the module docstring)")
        for a in p._actions:
            if a.type is not None:
                a.type = partial(a.type, flag=a.option_strings[0])
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
