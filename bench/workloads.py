"""The benchmark's three workloads, driven through crossemb's public API.

Each workload generates its inputs from a seed when it is constructed
(untimed), then runs passes. A pass is a fixed amount of work:
`execute()` is the timed part and returns the raw outputs with the
benchmark's own timings; `check()` verifies those outputs outside the
timed region and counts operations attempted and failed. An operation
that raises counts as failed; it is never skipped.

- cotrain: the reduced co-training experiment (8 robot + 36 human demos,
  1000 steps). Its experiment seed is fixed, so its quality numbers
  compare across commits.
- retarget: warm-started `retarget_action` streams over min-jerk reaches
  at robot and at (unretimed) human speed, plus cold unreachable targets.
- ingest_train: raw JSONL captures through load, ingest, dataset write and
  read-back, then pairs, stats, the mixed sampler and `policy.train` at
  the CLI's default policy shape. No IK.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from crossemb import dataset, geometry, harness, kinematics, policy, tasks, unified_space
from crossemb.embodiments import humanoid_b_config


@dataclass
class PassResult:
    wall_s: float
    outputs: object
    timings: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


def metric(value, unit, n=None, **extra) -> dict:
    doc = {"value": value, "unit": unit}
    if n is not None:
        doc["n"] = n
    doc.update(extra)
    return doc


def tail(values) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}", float(np.percentile(values, p))
    return "max", float(max(values))


def _only(values) -> float:
    """The single value every pass produced, or NaN when passes disagree
    (each pass repeats the same seeded work, so they must agree)."""
    values = set(values)
    return values.pop() if len(values) == 1 else float("nan")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


# --------------------------------------------------------------------------
# cotrain
# --------------------------------------------------------------------------


class Cotrain:
    """`harness.cotraining_experiment` at the reduced size.

    The experiment seed stays at 0 whatever the benchmark seed: its
    success rates and its amount of work (rollouts stop at the goal)
    depend on that seed, so only a fixed one compares across commits.
    """

    EXPERIMENT_SEED = 0

    def __init__(self, seed: int, size: str = "full"):
        if size == "full":
            self.kwargs = dict(
                robot_counts=(8,),
                human_demos=36,
                seeds=(self.EXPERIMENT_SEED,),
                settings=harness.ExperimentSettings(train_steps=1000, human_demos=36),
            )
        else:
            self.kwargs = self._tiny_kwargs()

    @staticmethod
    def _tiny_kwargs() -> dict:
        return dict(
            robot_counts=(2,),
            human_demos=2,
            seeds=(Cotrain.EXPERIMENT_SEED,),
            settings=harness.ExperimentSettings(
                train_steps=10, human_demos=2, id_eval_goals=1, max_steps=6
            ),
        )

    def warmup(self) -> None:
        harness.cotraining_experiment(**self._tiny_kwargs())

    def execute(self) -> PassResult:
        t0 = time.perf_counter()
        try:
            report = harness.cotraining_experiment(**self.kwargs)
        except Exception as exc:  # counted as a failed operation by check()
            report = exc
        return PassResult(time.perf_counter() - t0, report)

    def check(self, result: PassResult) -> CheckResult:
        out = CheckResult(attempted=1)
        report = result.outputs
        if isinstance(report, Exception):
            out.fail(f"cotraining_experiment raised {report!r}")
            return out
        try:
            jsonschema.validate(report, harness.COTRAINING_REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            out.fail(f"report fails COTRAINING_REPORT_SCHEMA: {exc.message}")
            return out
        if self.cotrained_row(report) is None:
            out.fail("report has no cotrained row")
        return out

    @staticmethod
    def cotrained_row(report) -> dict | None:
        rows = [r for r in report.get("rows", []) if r.get("condition") == "cotrained"]
        return rows[0] if rows else None

    def figures(self, passes: list[PassResult]) -> dict:
        rows = [self.cotrained_row(p.outputs) if isinstance(p.outputs, dict) else None
                for p in passes]
        out = {key: metric(_only(row[key] if row else float("nan") for row in rows), "ratio")
               for key in ("ood_success", "id_success")}
        out["quality"] = dict(out["ood_success"], what="cotrained ood_success")
        return out


# --------------------------------------------------------------------------
# retarget
# --------------------------------------------------------------------------


@dataclass
class _RetargetOutputs:
    reachable: list       # (action, (command, diagnostics) or the exception) per call
    unreachable: list
    reachable_ms: list
    unreachable_ms: list
    reachable_s: float = 0.0


class Retarget:
    """Warm-started retargeting of reach references, plus unreachable targets."""

    UNREACHABLE_DISTANCE_M = 2.0   # well beyond either arm's reach

    def __init__(self, seed: int, size: str = "full"):
        self.config = humanoid_b_config()
        self.task = tasks.make_reach_task(self.config)
        self.home = self.task.home_command(self.config)
        rng = _rng(seed, 1)
        cells = range(self.task.grid.n_cells) if size == "full" else (0, 8)
        self.streams = []
        for cell in cells:
            goal = self.task.grid.sample_goal(cell, rng)
            for move, spread in ((self.task.move_duration, 0.01),
                                 (self.task.move_duration / self.task.alpha, 0.04)):
                # Both speeds sampled at the robot rate: the human-speed
                # stream is not retimed, so its per-step jumps are larger.
                traj = tasks.ideal_reach_trajectory(
                    self.task, self.config, goal, rng,
                    capture_rate=self.task.rate,
                    move_duration=move,
                    hold_duration=self.task.hold_duration,
                    embodiment_tag="robot",
                    start_spread=spread,
                )
                self.streams.append(traj.states)
        home_state = unified_space.encode_state(
            kinematics.embed_robot_state(self.home, self.config)
        )
        # One target beyond reach along each of +-x, +-y, +-z, the same for
        # every seed: the cost of the 31-attempt path depends strongly on
        # the direction, so a fixed set keeps the pass size steady.
        directions = np.vstack([np.eye(3), -np.eye(3)]) if size == "full" else np.eye(3)[:1]
        self.unreachable = []
        for direction in directions:
            action = home_state.copy()
            action[unified_space.RIGHT_WRIST_POS] += self.UNREACHABLE_DISTANCE_M * direction
            self.unreachable.append(action)

    def warmup(self) -> None:
        Retarget(0, "tiny").execute()

    def _call(self, action, q_prev, latencies):
        t0 = time.perf_counter()
        try:
            return kinematics.retarget_action(action, self.config, q_prev)
        except Exception as exc:  # counted as a failed operation by check()
            return exc
        finally:
            latencies.append((time.perf_counter() - t0) * 1e3)

    def execute(self) -> PassResult:
        out = _RetargetOutputs([], [], [], [])
        t0 = time.perf_counter()
        for states in self.streams:
            cmd = self.home
            for action in states:
                res = self._call(action, cmd, out.reachable_ms)
                out.reachable.append((action, res))
                if not isinstance(res, Exception):
                    cmd = res[0]
        t1 = time.perf_counter()
        for action in self.unreachable:
            out.unreachable.append((action, self._call(action, self.home, out.unreachable_ms)))
        t2 = time.perf_counter()
        out.reachable_s = t1 - t0
        return PassResult(t2 - t0, out)

    def _limb_error(self, chain, q, action, rot_sl, pos_sl):
        target_R = geometry.decode_rot6d(action[rot_sl])
        achieved = kinematics.forward_kinematics(chain, q)
        pos_err = float(np.linalg.norm(action[pos_sl] - achieved.translation))
        rot_err = float(np.linalg.norm(geometry.rotation_log(target_R @ achieved.rotation.T)))
        return pos_err, rot_err

    def check(self, result: PassResult) -> CheckResult:
        params = kinematics.IkParams()
        out = CheckResult()
        limbs = (
            ("left", self.config.left_arm, "left_arm_q",
             unified_space.LEFT_WRIST_ROT, unified_space.LEFT_WRIST_POS),
            ("right", self.config.right_arm, "right_arm_q",
             unified_space.RIGHT_WRIST_ROT, unified_space.RIGHT_WRIST_POS),
        )
        for stream, reachable in ((result.outputs.reachable, True),
                                  (result.outputs.unreachable, False)):
            for action, res in stream:
                out.attempted += 1
                if isinstance(res, Exception):
                    out.fail(f"retarget_action raised {res!r}")
                    continue
                cmd, diag = res
                bad = cmd.validate_limits(self.config)
                if bad:
                    out.fail(f"command outside joint limits: {bad}")
                    continue
                for side, chain, q_name, rot_sl, pos_sl in limbs:
                    limb = getattr(diag, side)
                    q = getattr(cmd, q_name)
                    if not reachable and side == "right":
                        if limb.status != kinematics.STATUS_BEST_EFFORT or not np.all(np.isfinite(q)):
                            out.fail(f"unreachable target returned {limb.status}")
                        continue
                    if limb.status != kinematics.STATUS_CONVERGED:
                        continue
                    pos_err, rot_err = self._limb_error(chain, q, action, rot_sl, pos_sl)
                    if pos_err > params.pos_tol or rot_err > params.rot_tol:
                        out.fail(f"{side} limb reports converged at error "
                                 f"{pos_err:.2e} m / {rot_err:.2e} rad")
        return out

    def figures(self, passes: list[PassResult]) -> dict:
        reach = np.concatenate([p.outputs.reachable_ms for p in passes])
        unreach = np.concatenate([p.outputs.unreachable_ms for p in passes])
        rate = [len(p.outputs.reachable_ms) / p.outputs.reachable_s for p in passes]
        name, value = tail(reach)
        return {
            "actions_per_s": metric(statistics.median(rate), "1/s", len(rate)),
            "retarget_p50_ms": metric(float(np.median(reach)), "ms", len(reach)),
            "retarget_p99_ms": metric(float(np.percentile(reach, 99)), "ms", len(reach),
                                      tail=name, tail_ms=value),
            "unreachable_p50_ms": metric(float(np.median(unreach)), "ms", len(unreach)),
            "quality": metric(min(self.converged_share(p) for p in passes), "ratio",
                              what="converged share of reachable limb solves"),
        }

    @staticmethod
    def converged_share(result: PassResult) -> float:
        solved = converged = 0
        for _, res in result.outputs.reachable:
            if isinstance(res, Exception):
                continue
            for limb in (res[1].left, res[1].right):
                solved += 1
                converged += limb.status == kinematics.STATUS_CONVERGED
        return converged / solved if solved else 0.0


# --------------------------------------------------------------------------
# ingest_train
# --------------------------------------------------------------------------


def _pose_json(pose: geometry.Pose) -> dict:
    return {
        "translation": pose.translation.tolist(),
        "rotation_quaternion": geometry.quat_from_matrix(pose.rotation).tolist(),
    }


def _same_episode(a, b) -> bool:
    """Bit-equal arrays and equal identity fields."""
    return (a.embodiment_tag, a.instruction, a.metadata) == (b.embodiment_tag, b.instruction,
                                                             b.metadata) and all(
        getattr(a, f).shape == getattr(b, f).shape
        and getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("times", "states", "features")
    )


def _visual_records(times: np.ndarray, prefix: str, rng, gap_every: int) -> list[dict]:
    """Image references on their own clock: jittered, with periodic gaps
    that leave some pose records without a close enough frame."""
    records = []
    for k, t in enumerate(times):
        if gap_every and k % gap_every == gap_every - 1:
            continue
        records.append({"t": float(t + rng.uniform(-0.004, 0.004)),
                        "image_ref": f"{prefix}/frame_{k:05d}.jpg"})
    return records


class IngestTrain:
    """Capture ingest, dataset write/read-back and training at the CLI shape."""

    CHUNK = 30
    HIDDEN = (256, 256)
    BATCH = 64

    def __init__(self, seed: int, workdir: Path, size: str = "full"):
        self.seed = seed
        self.workdir = Path(workdir)
        self.config = humanoid_b_config()
        self.task = tasks.make_reach_task(self.config)
        self.options = dataset.IngestOptions()
        full = size == "full"
        n_human, n_robot = (8, 4) if full else (1, 1)
        self.train_steps = 80 if full else 3
        rng = _rng(seed, 2)
        raw_root = self.workdir / "raw"
        self.captures = []
        self.raw_frames = 0
        for i in range(n_human):
            self.captures.append(self._write_human(raw_root / f"human-{i:03d}", rng))
        for i in range(n_robot):
            self.captures.append(self._write_robot(raw_root / f"robot-{i:03d}", rng))

    def _write_capture(self, root: Path, meta: dict, records: list[dict]) -> Path:
        root.mkdir(parents=True, exist_ok=True)
        (root / "meta.json").write_text(json.dumps(meta))
        records.sort(key=lambda r: r["t"])
        (root / "frames.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        return root

    def _write_human(self, root: Path, rng) -> Path:
        task = self.task
        goal = task.grid.sample_goal(int(rng.integers(task.grid.n_cells)), rng)
        traj = tasks.ideal_reach_trajectory(
            task, self.config, goal, rng,
            capture_rate=task.human_capture_rate,
            move_duration=task.move_duration / task.alpha,
            hold_duration=task.hold_duration / task.alpha,
            embodiment_tag="human",
            start_spread=0.04,
        )
        # Place the canonical-frame capture somewhere in the world.
        world = geometry.Pose(
            geometry.rotation_about_axis(np.array([0.0, 0.0, 1.0]), rng.uniform(-np.pi, np.pi)),
            np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.9]),
        )
        t0 = rng.uniform(0.0, 100.0)
        times = t0 + traj.times
        records = []
        for k, state in enumerate(traj.states):
            def pose(rot_sl, pos):
                return _pose_json(world.compose(
                    geometry.Pose(geometry.decode_rot6d(state[rot_sl]), pos)))
            records.append({
                "t": float(times[k]),
                "head_pose": pose(unified_space.HEAD_ROT, traj.head_positions[k]),
                "left_wrist_pose": pose(unified_space.LEFT_WRIST_ROT,
                                        state[unified_space.LEFT_WRIST_POS]),
                "right_wrist_pose": pose(unified_space.RIGHT_WRIST_ROT,
                                         state[unified_space.RIGHT_WRIST_POS]),
                "fingertips": world.apply(
                    state[unified_space.FINGERTIPS].reshape(10, 3)).tolist(),
            })
        self.raw_frames += len(records)
        records += _visual_records(times, root.name, rng, gap_every=9)
        meta = {"id": root.name, "device": "vr-capture", "embodiment_tag": "human",
                "instruction": "reach the point", "kind": "human", "scene": "grid-table"}
        return self._write_capture(root, meta, records)

    def _write_robot(self, root: Path, rng) -> Path:
        cfg = self.config
        n = 91  # 3 s at 30 Hz
        times = rng.uniform(0.0, 100.0) + np.arange(n) / 30.0
        home = self.task.home_command(cfg)

        def wave(q0, chain_or_none, amp):
            freq = 0.2 + 0.4 * rng.random(len(q0))
            phase = rng.uniform(0, 2 * np.pi, len(q0))
            q = q0 + amp * np.sin(2 * np.pi * freq * (times - times[0])[:, None] + phase)
            if chain_or_none is None:
                return np.clip(q, 0.0, 1.0)
            return np.clip(q, chain_or_none.lower_limits, chain_or_none.upper_limits)

        parts = {
            "left_arm": wave(home.left_arm_q, cfg.left_arm, 0.15),
            "right_arm": wave(home.right_arm_q, cfg.right_arm, 0.15),
            "neck": wave(home.neck_q, cfg.neck, 0.1),
            "left_hand": wave(home.left_hand, None, 0.2),
            "right_hand": wave(home.right_hand, None, 0.2),
        }
        records = [
            {"t": float(times[k]), "joints": {key: v[k].tolist() for key, v in parts.items()}}
            for k in range(n)
        ]
        self.raw_frames += n
        records += _visual_records(times, root.name, rng, gap_every=0)
        meta = {"id": root.name, "device": "teleop", "embodiment_tag": "robot",
                "instruction": "wave", "kind": "robot", "scene": "grid-table"}
        return self._write_capture(root, meta, records)

    def warmup(self) -> None:
        self.execute()

    def execute(self) -> PassResult:
        store = self.workdir / "dataset"
        shutil.rmtree(store, ignore_errors=True)
        outputs = {"episodes": [], "ingest_errors": [], "read_back": None, "losses": None}
        t0 = time.perf_counter()
        for path in self.captures:
            try:
                raw = dataset.load_raw_capture(path)
                outputs["episodes"].append(
                    dataset.ingest(raw, config=self.config, options=self.options))
            except Exception as exc:  # counted as a failed operation by check()
                outputs["ingest_errors"].append(exc)
        t1 = time.perf_counter()
        try:
            dataset.write_dataset(outputs["episodes"], store)
            _, outputs["read_back"] = dataset.read_dataset(store)
        except Exception as exc:  # counted as a failed operation by check()
            outputs["store_error"] = exc
        t2 = time.perf_counter()
        try:
            back = outputs["read_back"]
            pairs = dataset.episodes_to_pairs_by_tag(back, self.CHUNK)
            sampler = dataset.MixedSampler(pairs, dataset.default_ratio(pairs), seed=self.seed)
            state_stats = dataset.stats_from_episodes(back, kind="state")
            action_stats = dataset.stats_from_episodes(back, kind="action")
            cfg = policy.PolicyConfig(
                feature_dim=back[0].feature_dim,
                chunk_length=self.CHUNK,
                hidden_layers=self.HIDDEN,
                batch_size=self.BATCH,
                seed=self.seed,
            )
            model = policy.init_model(cfg, state_stats, action_stats)
            t3 = time.perf_counter()
            _, report = policy.train(model, sampler.stream(), self.train_steps)
            outputs["losses"] = report.total
        except Exception as exc:  # counted as a failed operation by check()
            outputs["train_error"] = exc
            t3 = time.perf_counter()
        t4 = time.perf_counter()
        timings = {"ingest_s": t1 - t0, "store_s": t2 - t1, "train_s": t4 - t3}
        return PassResult(t4 - t0, outputs, timings)

    def check(self, result: PassResult) -> CheckResult:
        """One operation per capture ingested, per episode round-tripped
        through the store, and one for the training run."""
        outs = result.outputs
        written = outs["episodes"]
        out = CheckResult(attempted=len(self.captures) + len(written) + 1)
        for exc in outs["ingest_errors"]:
            out.fail(f"ingest raised {exc!r}")
        back = {ep.id: ep for ep in outs["read_back"] or ()}
        for ep in written:
            if "store_error" in outs:
                out.fail(f"episode {ep.id}: dataset write/read raised {outs['store_error']!r}")
            elif ep.id not in back or not _same_episode(ep, back[ep.id]):
                out.fail(f"episode {ep.id} read back differs from the one written")
        losses = outs["losses"]
        if "train_error" in outs:
            out.fail(f"training raised {outs['train_error']!r}")
        elif not losses or not np.isfinite(losses[-1]):
            out.fail(f"final training loss is not finite: {losses}")
        return out

    def figures(self, passes: list[PassResult]) -> dict:
        ingest = [self.raw_frames / p.timings["ingest_s"] for p in passes]
        train = [self.train_samples / p.timings["train_s"] for p in passes]
        return {
            "ingest_frames_per_s": metric(statistics.median(ingest), "1/s", len(ingest)),
            "train_samples_per_s": metric(statistics.median(train), "1/s", len(train)),
            "final_loss": metric(_only((p.outputs["losses"] or [float("nan")])[-1]
                                       for p in passes), "loss"),
            "quality": metric(min(self.kept_share(p) for p in passes), "ratio",
                              what="share of raw frames kept by stream sync"),
        }

    def kept_share(self, result: PassResult) -> float:
        """Share of raw pose/joint frames that stream sync kept."""
        dropped = sum(ep.metadata.get("dropped_frames", 0) for ep in result.outputs["episodes"])
        return 1.0 - dropped / self.raw_frames

    @property
    def train_samples(self) -> int:
        return self.train_steps * self.BATCH
