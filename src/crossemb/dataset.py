"""Capture-log ingestion, processed-dataset storage, and co-training sampling.

Raw captures are JSON Lines (one frame per line) plus a meta.json sidecar.
Human frames carry world-frame head/wrist poses and ten fingertips; robot
frames carry joint readings and require an embodiment config. Ingest
pairs the pose or joint records with visual frames (`_synced_frames`)
and reads each synced record once into rows of per-capture arrays
(`_record_arrays`; masked checks name the first bad record). Geometry
runs once per capture, and the (N, 54) states are written by
`unified_space.state_rows` (human) or `kinematics.embed_rows` (robot).
Processed episodes are little-endian float64 blocks (`pack_blocks`, the
layout checkpoints share) indexed by manifest.json, so write/read
round-trips are bit-exact. The manifest lists episodes and checksums
only: normalization statistics are computed at training time
(`harness.train_on_pairs`) and live in the checkpoint.

Training pairs are ACT-style chunks: state `obs[s]`, feature
`features[s]` and actions `frames[s+1 : s+1+K]`, with s = `starts[row]`.
One `PairSet` per tag holds its episodes concatenated into `frames`,
`obs` (both (M, 54)) and `features` (M, F), plus `starts` (N,) and the
"<episode>#<start>" `ids`; chunks never cross episodes. Training stacks
each set once, normalized, into a `policy.BatchTable` and gathers batches
from it. `MixedSampler.stream()` yields `(pair_set, row)`, scheduled with
plain list arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import geometry, retiming, unified_space
from .errors import (
    BodyMotionRejected,
    ChecksumMismatch,
    ConfigRequired,
    CorruptEpisode,
    CrossembError,
    DegenerateTrajectory,
    EmptySource,
    EpisodeTooShort,
    FrameSyncExhausted,
    InvalidMetadata,
    ParseError,
    UnreadableFile,
    VersionUnsupported,
)
from .geometry import Pose
from .kinematics import HAND_ACTUATOR_COUNT, EmbodimentConfig, embed_rows, hands_outside
from .retiming import Trajectory, sync_streams
from .unified_space import NormalizationStats

FORMAT_VERSION = 1
EPISODE_MAGIC = b"CEEPISO1"
DEFAULT_ALPHA = 4.0
DEFAULT_OUT_RATE = 30.0
# Human captures whose head strays farther (m) from its first position are rejected.
BODY_MOTION_THRESHOLD_M = 0.15


@dataclass(frozen=True)
class RawCapture:
    """Parsed raw log: per-line records plus the meta sidecar."""

    device: str
    embodiment_tag: str
    instruction: str
    records: tuple  # dicts, timestamp-sorted
    episode_id: str = ""
    scene: str = ""
    kind: str = "human"  # "human" | "robot"


@dataclass(frozen=True)
class DemonstrationEpisode:
    id: str
    embodiment_tag: str
    instruction: str
    times: np.ndarray     # (N,)
    states: np.ndarray    # (N, 54)
    features: np.ndarray  # (N, F)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype="<f8")
        states = np.ascontiguousarray(self.states, dtype="<f8")
        features = np.ascontiguousarray(self.features, dtype="<f8")
        n = times.shape[0]
        if states.shape != (n, unified_space.STATE_DIM):
            raise DegenerateTrajectory("states shape must be (N, 54)")
        if features.ndim != 2 or features.shape[0] != n:
            raise DegenerateTrajectory("features shape must be (N, F)")
        if n >= 2 and np.any(np.diff(times) <= 0):
            raise DegenerateTrajectory("timestamps must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "features", features)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def __len__(self) -> int:
        return int(self.times.shape[0])


@dataclass(frozen=True)
class IngestOptions:
    alpha: float = DEFAULT_ALPHA
    out_rate: float = DEFAULT_OUT_RATE
    feature_dim: int = 16          # for synthesized features from image refs


def new_episode(
    episode_id: str, tag: str, instruction: str, times: np.ndarray, states: np.ndarray,
    features: np.ndarray, device: str, scene: str, retimed: bool, alpha: float, **extras,
) -> DemonstrationEpisode:
    """An episode with the metadata every episode carries (`device`,
    `scene`, `duration_s` from first to last time, `retimed` and
    `alpha_applied`), then its source's `extras`."""
    metadata = {"device": device, "scene": scene, "duration_s": float(times[-1] - times[0]),
                "retimed": retimed, "alpha_applied": alpha, **extras}
    return DemonstrationEpisode(episode_id, tag, instruction, times, states, features, metadata)


def _capture_episode(raw: RawCapture, times, states, features, retimed, alpha, **extras):
    """The episode of capture `raw`: its id, tag, instruction, device and scene."""
    return new_episode(raw.episode_id, raw.embodiment_tag, raw.instruction, times, states,
                       features, raw.device, raw.scene, retimed, alpha, **extras)


def synthetic_features(key: str, dim: int) -> np.ndarray:
    """Deterministic stand-in feature vector for an image reference."""
    digest = hashlib.sha256(key.encode()).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(dim)


def pose_from_json(doc: dict) -> Pose:
    """The pose of a `{"translation": [x, y, z], "rotation_quaternion":
    [w, x, y, z]}` object; KeyError, TypeError or ValueError unless `doc`
    is one."""
    t = np.array(doc["translation"], dtype=float)
    q = np.array(doc["rotation_quaternion"], dtype=float)
    if t.shape != (3,) or q.shape != (4,):
        raise ValueError("wrong arity")
    return Pose(geometry.quat_to_matrix(q), t)


def read_file(path: str | Path, text: bool = False) -> str | bytes:
    """The bytes (or decoded text) of file `path`; UnreadableFile if it is
    a directory or cannot be read or decoded."""
    try:
        return Path(path).read_text() if text else Path(path).read_bytes()
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableFile(f"{path}: cannot read: {exc}") from exc


def _json_int(digits: str) -> int:
    """`int(digits)`; ValueError, as for JSON that does not decode, if no
    float holds it (so also past the 4,300 digits that `int` converts)."""
    if not math.isfinite(float(digits)):
        raise ValueError(f"integer of {len(digits)} digits is beyond the float range")
    return int(digits)


# The decoder of every JSON input; its errors are ValueErrors.
JSON_DECODER = json.JSONDecoder(parse_int=_json_int)


def read_json_object(path: str | Path, what: str = "") -> dict:
    """The JSON object stored in `path`; InvalidMetadata, naming the file
    as `what` and its path, if it cannot be read or holds anything else."""
    name = f"{what} {path}" if what else str(path)
    try:
        doc = JSON_DECODER.decode(Path(path).read_text())
    except OSError as exc:
        raise InvalidMetadata(f"{name}: cannot read: {exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError too
        raise InvalidMetadata(f"{name}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidMetadata(f"{name}: must hold a JSON object")
    return doc


def _check_fields(doc: dict, where: str, required: dict, optional: dict | None = None) -> None:
    """Raise InvalidMetadata unless each required key, and each optional
    key present, holds a value of its type(s); booleans are not integers."""
    present = {key: kind for key, kind in (optional or {}).items() if key in doc}
    for key, kind in {**required, **present}.items():
        value = doc.get(key)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidMetadata(f"{where}: field {key!r} is missing or mistyped ({value!r})")


def load_raw_capture(path: str | Path) -> RawCapture:
    """Read <dir>/meta.json and <dir>/frames.jsonl."""
    root = Path(path)
    meta = read_json_object(root / "meta.json")
    _check_fields(
        meta,
        str(root / "meta.json"),
        required={"embodiment_tag": str},
        optional={key: str for key in ("device", "instruction", "id", "scene", "kind")},
    )
    if meta.get("kind", "robot") not in ("robot", "human"):
        raise InvalidMetadata(f"{root / 'meta.json'}: kind must be 'robot' or 'human'")
    records = []
    # read_text already turned every line ending into "\n".
    for line_no, line in enumerate(read_file(root / "frames.jsonl", text=True).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = JSON_DECODER.decode(line)
        except ValueError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "t" not in doc:
            raise ParseError(line_no, "record missing timestamp 't'")
        t = doc["t"]
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
            raise ParseError(line_no, f"timestamp 't' must be a finite number, got {t!r}")
        doc["_line"] = line_no
        records.append(doc)
    records.sort(key=lambda d: d["t"])
    kind = meta.get("kind", "robot" if any("joints" in r for r in records) else "human")
    return RawCapture(
        device=meta.get("device", "unknown"),
        embodiment_tag=meta["embodiment_tag"],
        instruction=meta.get("instruction", ""),
        records=tuple(records),
        episode_id=meta.get("id", root.name),
        scene=meta.get("scene", ""),
        kind=kind,
    )


def canonical_frame(head_R: np.ndarray, head_t: np.ndarray, drop: float):
    """World-to-canonical rotation R (3, 3) and offset (3,), p -> R @ p +
    offset, of the gravity-aligned frame at head pose (`head_R`, `head_t`).

    x-axis: the head's forward (+x) direction projected to horizontal;
    origin: the head position dropped by `drop` meters along world z
    (an embodiment's `canonical_frame_offset`).
    """
    fwd = np.array([*head_R[:2, 0], 0.0])
    n = np.linalg.norm(fwd)
    if n < 1e-9:
        # Head looking straight up/down; keep the world x direction.
        fwd = np.array([1.0, 0.0, 0.0])
    else:
        fwd /= n
    z = np.array([0.0, 0.0, 1.0])
    # Axes as rows, kept a transposed view: its F order keeps the products' bits.
    R = np.stack([fwd, np.cross(z, fwd), z], axis=1).T
    return R, -(R @ (head_t - np.array([0.0, 0.0, drop])))


def _visual_feature(doc: dict, feature_dim: int) -> np.ndarray:
    if "feature_vector" not in doc:
        return synthetic_features(str(doc["image_ref"]), feature_dim)
    try:
        feature = np.array(doc["feature_vector"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(doc["_line"], f"bad feature_vector: {exc}") from exc
    if feature.ndim != 1 or not feature.size:
        raise ParseError(doc["_line"],
                         f"feature_vector must be a non-empty flat list, got {feature.shape}")
    if not np.isfinite(feature).all():
        raise ParseError(doc["_line"], "feature_vector contains non-finite values")
    return feature


def _synced_frames(raw: RawCapture, pose_keys: tuple[str, ...], options: IngestOptions):
    """Pair the capture's records holding every key of `pose_keys` with
    their nearest visual frames (`sync_streams`). Returns the synced
    pairs' times (N,), records and visual features (N, F), and how many
    records sync dropped."""
    proprio = [doc for doc in raw.records if all(k in doc for k in pose_keys)]
    visual = [doc for doc in raw.records if "feature_vector" in doc or "image_ref" in doc]
    if len(proprio) < 2:
        raise FrameSyncExhausted("fewer than two proprioceptive records in the capture")
    if not visual:
        raise FrameSyncExhausted("no visual records in the capture")
    times, vis_times = (np.array([d["t"] for d in docs], dtype=float) for docs in (proprio, visual))
    # Half the median visual frame period; a single visual frame bounds no skew.
    skew = float(np.median(np.diff(vis_times))) / 2.0 if len(visual) > 1 else np.inf
    sync = sync_streams(times, vis_times, skew)
    if len(sync.proprio) < 2:
        raise FrameSyncExhausted(
            f"synchronization left {len(sync.proprio)} frame(s); dropped {sync.dropped}"
        )
    feats = [_visual_feature(visual[j], options.feature_dim) for j in sync.visual.tolist()]
    for j, feat in zip(sync.visual.tolist(), feats):
        if len(feat) != len(feats[0]):
            raise ParseError(visual[j]["_line"], f"feature length {len(feat)} != {len(feats[0])}")
    docs = [proprio[i] for i in sync.proprio.tolist()]
    return times[sync.proprio], docs, np.array(feats), sync.dropped


def _record_arrays(docs: Sequence[dict], fields) -> list[np.ndarray]:
    """One float array (N, *shape) per field (what, read, shape, check) of
    `fields`: `read(doc)` of each record. ParseError, naming `what`, at the
    first record whose value is no array of `shape` numbers or is flagged
    by `check`, None or (rows -> one flag per row, reason)."""
    arrays, first, error = [], len(docs), None
    for what, read, shape, check in fields:
        rows = []
        for doc in docs[:first]:
            try:
                row = np.array(read(doc), dtype=float)
                if row.shape != shape:
                    raise ValueError(f"expected shape {shape}, got {row.shape}")
            except (KeyError, TypeError, ValueError) as exc:
                first, error = len(rows), f"{what}: {exc}"
                break
            rows.append(row)
        rows = np.array(rows).reshape(len(rows), *shape)
        if check and check[0](rows).any():
            first, error = int(np.argmax(check[0](rows))), f"{what}: {check[1]}"
        arrays.append(rows)
    if error is not None:
        raise ParseError(docs[first]["_line"], error)
    return arrays


_HUMAN_POSES = ("head_pose", "left_wrist_pose", "right_wrist_pose")
_POSE_PARTS = (("translation", 3, (lambda t: ~np.isfinite(t).all(axis=1),
                                   "pose contains non-finite values")),
               ("rotation_quaternion", 4, (geometry.degenerate_quats,
                                           "quaternion norm is degenerate")))
# Each pose's translation and quaternion, then the fingertips.
_HUMAN_FIELDS = [(f"bad pose field {key!r}", lambda d, key=key, part=part: d[key][part], (size,),
                  check) for key in _HUMAN_POSES for part, size, check in _POSE_PARTS]
_HUMAN_FIELDS.append(("bad fingertips", lambda d: d["fingertips"], (10, 3), None))


def _ingest_human(raw: RawCapture, drop: float, options: IngestOptions) -> DemonstrationEpisode:
    times, docs, feats, dropped = _synced_frames(raw, (*_HUMAN_POSES, "fingertips"), options)
    *poses, tips = _record_arrays(docs, _HUMAN_FIELDS)
    # (N, 3, 3) translations and (N, 3, 3, 3) rotations, poses in `_HUMAN_POSES` order.
    t, rot = np.stack(poses[0::2], axis=1), geometry.quat_to_matrix(np.stack(poses[1::2], axis=1))
    R, origin = canonical_frame(rot[0, 0], t[0, 0], drop)
    positions = (R @ t[..., None])[..., 0] + origin
    states = unified_space.state_rows(
        *geometry.encode_rot6d((R @ rot).swapaxes(0, 1)),
        *positions[:, 1:].swapaxes(0, 1), tips @ R.T + origin)
    unified_space.check_state_rows(states, unified_space.DEFAULT_MAX_HAND_REACH)

    traj = Trajectory(
        times=times,
        states=states,
        embodiment_tag=raw.embodiment_tag,
        nominal_rate=options.out_rate,
        head_positions=positions[:, 0],
    )
    excursion = retiming.body_motion_check(traj)
    if not excursion <= BODY_MOTION_THRESHOLD_M:
        raise BodyMotionRejected(excursion, BODY_MOTION_THRESHOLD_M)

    retimed = retiming.retime(traj, options.alpha, options.out_rate)
    # Visual features cannot be interpolated; each output frame takes the
    # nearest source frame's feature under the stretched time map.
    src_times = (retimed.times - retimed.times[0]) / options.alpha + traj.times[0]
    idx = retiming.nearest_frames(traj.times, src_times)

    return _capture_episode(raw, retimed.times, retimed.states, feats[idx], True, options.alpha,
                            dropped_frames=dropped, head_excursion_m=excursion)


_JOINT_KEYS = ("left_arm", "right_arm", "neck", "left_hand", "right_hand")


def _ingest_robot(
    raw: RawCapture, config: EmbodimentConfig, options: IngestOptions
) -> DemonstrationEpisode:
    times, docs, feats, dropped = _synced_frames(raw, ("joints",), options)
    sizes = (config.left_arm.n_joints, config.right_arm.n_joints, 2,
             HAND_ACTUATOR_COUNT, HAND_ACTUATOR_COUNT)
    hands = (lambda v: hands_outside(v).any(axis=1), "values must lie in [0, 1]")
    commands = np.concatenate(_record_arrays(docs, [
        (f"bad joints record: {key}", lambda d, key=key: d["joints"][key], (size,),
         hands if key.endswith("hand") else None) for key, size in zip(_JOINT_KEYS, sizes)]),
        axis=1)
    return _capture_episode(raw, times, embed_rows(config, commands), feats, False, 1.0,
                            dropped_frames=dropped)


def ingest(
    raw: RawCapture,
    config: EmbodimentConfig | None = None,
    options: IngestOptions = IngestOptions(),
) -> DemonstrationEpisode:
    """Convert a raw capture into a processed episode.

    Human captures are re-expressed in the canonical base frame, its
    origin `config.canonical_frame_offset` below the first head position
    (the field's default without a config), stream synchronized, checked
    for hand reach and body motion, and retimed; robot captures are
    embedded as one batch and never retimed.
    """
    if raw.kind == "robot":
        if config is None:
            raise ConfigRequired(f"capture {raw.episode_id!r}: robot captures require an "
                                 "embodiment config")
        return _ingest_robot(raw, config, options)
    return _ingest_human(raw, (config or EmbodimentConfig).canonical_frame_offset, options)


# --------------------------------------------------------------------------
# Processed dataset storage
# --------------------------------------------------------------------------


def pack_blocks(magic: bytes, header: bytes, arrays: Sequence[np.ndarray]) -> bytes:
    """The binary layout of episode and checkpoint files: `magic`, then
    `header`, then each array as a block of little-endian float64."""
    blocks = (np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    return b"".join([magic, header, *blocks])


def unpack_blocks(
    blob: bytes, offset: int, shapes: Sequence[tuple[int, ...]], error: type[CrossembError]
) -> list[np.ndarray]:
    """Inverse of `pack_blocks`: the arrays of `shapes` stored from byte
    `offset` on. Raises `error` unless they fill the rest of `blob` exactly."""
    sizes = [math.prod(shape) for shape in shapes]
    if len(blob) - offset != 8 * sum(sizes):
        raise error(f"data blocks are {len(blob) - offset} bytes; header declares {8 * sum(sizes)}")
    arrays = []
    for shape, size in zip(shapes, sizes):
        arrays.append(np.frombuffer(blob, "<f8", size, offset).reshape(shape).copy())
        offset += 8 * size
    return arrays


def _episode_bytes(ep: DemonstrationEpisode) -> bytes:
    header = struct.pack("<II", len(ep), ep.feature_dim)
    return pack_blocks(EPISODE_MAGIC, header, [ep.times, ep.states, ep.features])


def _episode_from_bytes(blob: bytes, entry: dict) -> DemonstrationEpisode:
    if blob[:8] != EPISODE_MAGIC:
        raise VersionUnsupported(f"bad episode magic {blob[:8]!r}")
    if len(blob) < 16:
        raise CorruptEpisode(f"episode {entry['id']}: header cut short")
    n, f = struct.unpack("<II", blob[8:16])
    times, states, features = unpack_blocks(
        blob, 16, [(n,), (n, unified_space.STATE_DIM), (n, f)], CorruptEpisode
    )
    return DemonstrationEpisode(
        id=entry["id"],
        embodiment_tag=entry["embodiment_tag"],
        instruction=entry.get("instruction", ""),
        times=times,
        states=states,
        features=features,
        metadata=dict(entry.get("metadata", {})),
    )


def write_dataset(episodes: Sequence[DemonstrationEpisode], directory: str | Path) -> dict:
    """Write episodes plus manifest.json; returns the manifest dict. Before
    writing anything, InvalidMetadata for a repeated episode id or one that
    is no plain file name (empty, `.`, `..`, or holding `/`, `\\` or NUL)."""
    dims = {ep.feature_dim for ep in episodes}
    if len(dims) > 1:
        raise DegenerateTrajectory(f"feature dims differ across episodes: {sorted(dims)}")
    seen = set()
    for ep in episodes:
        if ep.id in seen:
            raise InvalidMetadata(f"episode id {ep.id!r} is repeated")
        if ep.id in ("", ".", "..") or any(c in ep.id for c in "/\\\0"):
            raise InvalidMetadata(f"episode id {ep.id!r} is not a file name")
        seen.add(ep.id)
    root = Path(directory)
    (root / "episodes").mkdir(parents=True, exist_ok=True)
    entries = []
    for ep in episodes:
        blob = _episode_bytes(ep)
        rel = f"episodes/{ep.id}.bin"
        (root / rel).write_bytes(blob)
        entries.append(
            {
                "id": ep.id,
                "embodiment_tag": ep.embodiment_tag,
                "frame_count": len(ep),
                "file": rel,
                "sha256": hashlib.sha256(blob).hexdigest(),
                "instruction": ep.instruction,
                "metadata": ep.metadata,
            }
        )
    manifest = {
        "format_version": FORMAT_VERSION,
        "feature_dim": dims.pop() if dims else 0,
        "episodes": entries,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def read_dataset(directory: str | Path) -> tuple[dict, list[DemonstrationEpisode]]:
    """Load manifest + episodes, verifying version, checksums and that each
    episode has the manifest's `feature_dim` feature columns. Keys the
    manifest holds besides those `write_dataset` writes (such as the
    `stats_files` of older datasets) are ignored."""
    root = Path(directory)
    where = str(root / "manifest.json")
    manifest = read_json_object(root / "manifest.json")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise VersionUnsupported(
            f"dataset format_version {manifest.get('format_version')!r} unsupported"
        )
    _check_fields(manifest, where, required={"episodes": list, "feature_dim": int})
    for i, entry in enumerate(manifest["episodes"]):
        if not isinstance(entry, dict):
            raise InvalidMetadata(f"{where}: episode entry {i} is not a JSON object")
        _check_fields(
            entry, f"{where}: episode entry {i}",
            required={key: str for key in ("id", "file", "sha256", "embodiment_tag")},
            optional={"instruction": str, "metadata": dict},
        )
        file = Path(entry["file"])
        if file.is_absolute() or ".." in file.parts:
            raise InvalidMetadata(f"{where}: episode entry {i}: file must lie inside the dataset")
    episodes = []
    for entry in manifest["episodes"]:
        blob = read_file(root / entry["file"])
        digest = hashlib.sha256(blob).hexdigest()
        if digest != entry["sha256"]:
            raise ChecksumMismatch(f"episode {entry['id']}: checksum mismatch")
        ep = _episode_from_bytes(blob, entry)
        if ep.feature_dim != manifest["feature_dim"]:
            raise InvalidMetadata(f"{where}: feature_dim {manifest['feature_dim']}, but episode "
                                  f"{ep.id} has {ep.feature_dim} feature columns")
        episodes.append(ep)
    return manifest, episodes


# --------------------------------------------------------------------------
# Training pairs and the mixed-embodiment sampler
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairSet:
    """Every training pair of one embodiment tag (layout in the module
    docstring). Compared by identity, so a batch can be grouped by set."""

    tag: str
    frames: np.ndarray    # (M, 54) episode states, concatenated
    obs: np.ndarray       # (M, 54) state view; `frames` except in the joint-space ablation
    features: np.ndarray  # (M, F)
    starts: np.ndarray    # (N,) frame row of each pair's state
    chunk_length: int
    ids: tuple[str, ...]  # "<episode>#<start>" per pair

    def __len__(self) -> int:
        return int(self.starts.shape[0])

    def take(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """States (B, 54), features (B, F) and action chunks (B, K, 54)."""
        at = self.starts[rows]
        chunk_rows = at[:, None] + np.arange(1, self.chunk_length + 1)
        return self.obs[at], self.features[at], self.frames[chunk_rows]


def extract_pairs(
    episodes: Sequence[DemonstrationEpisode], chunk_length: int, stride: int = 1
) -> PairSet:
    """Pairs (state_i, actions i+1..i+K) of same-tag episodes; short tails are dropped."""
    if chunk_length < 1 or stride < 1:
        raise ValueError("chunk_length and stride must be positive")
    tags = {ep.embodiment_tag for ep in episodes}
    if len(tags) != 1:
        raise ValueError(f"a pair set needs episodes of exactly one tag, got {sorted(tags)}")
    starts, ids, offset = [], [], 0
    for ep in episodes:
        n = len(ep)
        if n < chunk_length + 1:
            raise EpisodeTooShort(f"episode {ep.id} has {n} frames; needs >= {chunk_length + 1}")
        local = np.arange(0, n - chunk_length, stride)
        starts.append(offset + local)
        ids.extend(f"{ep.id}#{start}" for start in local)
        offset += n
    frames = np.concatenate([ep.states for ep in episodes])
    return PairSet(
        tag=tags.pop(),
        frames=frames,
        obs=frames,
        features=np.concatenate([ep.features for ep in episodes]),
        starts=np.concatenate(starts),
        chunk_length=chunk_length,
        ids=tuple(ids),
    )


class MixedSampler:
    """Deterministic interleaved pair stream over multiple embodiments.

    The tag schedule realizes the weight ratio exactly at every prefix
    (largest-remainder apportionment, ties to the lexicographically first
    tag); within a tag, pairs follow a seeded permutation reshuffled per
    epoch. Single-owner iterator: not safe to share across consumers.
    """

    def __init__(
        self,
        pairs_by_tag: Mapping[str, PairSet],
        ratio: Mapping[str, float],
        seed: int = 0,
    ):
        self.tags = sorted(ratio.keys())
        if not self.tags:
            raise EmptySource("<no tags>")
        for tag in self.tags:
            if ratio[tag] <= 0:
                raise ValueError(f"weight for tag {tag!r} must be positive")
            if tag not in pairs_by_tag or len(pairs_by_tag[tag]) == 0:
                raise EmptySource(tag)
        self._sets = [pairs_by_tag[tag] for tag in self.tags]
        total = float(sum(ratio[t] for t in self.tags))
        self._shares = [ratio[t] / total for t in self.tags]
        self.seed = seed

    def stream(self) -> Iterator[tuple[PairSet, int]]:
        """Infinite deterministic stream of (pair_set, row) references. Tag i
        draws its rows from a permutation of its set, drawn anew each epoch by
        a PCG64 seeded with child i of `SeedSequence(seed)`; the tag's count
        of emitted items is its cursor."""
        sets, shares = self._sets, self._shares
        sizes = [len(pairs) for pairs in sets]
        rngs = list(map(np.random.default_rng, np.random.SeedSequence(self.seed).spawn(len(sets))))
        perms: list[list[int]] = [[] for _ in sets]
        emitted = [0] * len(sets)
        step = 0
        while True:
            step += 1
            # Largest-remainder pick: the most under-served tag wins, ties to the first.
            tag, top = 0, shares[0] * step - emitted[0]
            for other in range(1, len(sets)):
                deficit = shares[other] * step - emitted[other]
                if deficit > top:
                    tag, top = other, deficit
            k = emitted[tag] % sizes[tag]
            if k == 0:
                perms[tag] = rngs[tag].permutation(sizes[tag]).tolist()
            emitted[tag] += 1
            yield sets[tag], perms[tag][k]


def pair_stream_digest(sampler: MixedSampler, n: int = 10_000) -> str:
    """SHA-256 over the first n pair ids; stable for a fixed seed."""
    h = hashlib.sha256()
    stream = sampler.stream()
    for _ in range(n):
        pair_set, row = next(stream)
        h.update(pair_set.ids[row].encode())
        h.update(b"\n")
    return h.hexdigest()


def episodes_to_pairs_by_tag(
    episodes: Sequence[DemonstrationEpisode], chunk_length: int, stride: int = 1
) -> dict[str, PairSet]:
    by_tag: dict[str, list[DemonstrationEpisode]] = {}
    for ep in episodes:
        by_tag.setdefault(ep.embodiment_tag, []).append(ep)
    return {tag: extract_pairs(eps, chunk_length, stride) for tag, eps in by_tag.items()}


def default_ratio(pairs_by_tag: Mapping[str, PairSet]) -> dict[str, float]:
    """Proportional-to-size mixing weights."""
    return {tag: float(len(pairs)) for tag, pairs in pairs_by_tag.items() if len(pairs) > 0}


def stats_from_episodes(
    episodes: Sequence[DemonstrationEpisode], kind: str = "state"
) -> NormalizationStats:
    """Statistics over episode frames, by `unified_space.compute_stats` with
    its default epsilon: state stats use every frame, action stats frames
    1..N (targets). Training uses `harness.stats_from_pairs` instead."""
    frames: dict[str, list[np.ndarray]] = {}
    for ep in episodes:
        arr = ep.states if kind == "state" else ep.states[1:]
        frames.setdefault(ep.embodiment_tag, []).append(arr)
    stacked = {tag: np.concatenate(chunks, axis=0) for tag, chunks in frames.items()}
    return unified_space.compute_stats(stacked)
