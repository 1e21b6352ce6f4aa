"""Reference embodiment configurations and config-file loading.

Two humanoids are shipped: `humanoid_a` (5-joint arms, wrist roll only)
and `humanoid_b` (7-joint arms with a full 3-DoF wrist). Their arm joint
ranges follow the published range-of-motion comparison for the two
platforms; link lengths, neck ranges, and the hand geometry are artifact
defaults. Config files carry angles in degrees; everything is radians in
memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import pose_from_json, read_json_object
from .errors import InvalidMetadata
from .geometry import Pose
from .kinematics import (
    HAND_ACTUATOR_COUNT,
    EmbodimentConfig,
    HandModel,
    Joint,
    KinematicChain,
)
from .unified_space import FINGERS_PER_HAND

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

# Published range-of-motion values, degrees (lo, hi).
HUMANOID_A_ARM_LIMITS_DEG = {
    "shoulder_pitch": (-164.0, 164.0),
    "shoulder_roll": (-19.0, 178.0),
    "shoulder_yaw": (-74.0, 255.0),
    "elbow": (-71.0, 150.0),
    "wrist_roll": (-175.0, 175.0),
}
HUMANOID_B_ARM_LIMITS_DEG = {
    "shoulder_pitch": (-180.0, 90.0),
    "shoulder_roll": (-21.0, 194.0),
    "shoulder_yaw": (-152.0, 172.0),
    "elbow": (-54.0, 182.0),
    "wrist_roll": (-172.0, 157.0),
}
# The 3-DoF wrist's pitch/yaw spans are not published; artifact defaults.
HUMANOID_B_WRIST_EXTRA_DEG = {
    "wrist_pitch": (-90.0, 90.0),
    "wrist_yaw": (-90.0, 90.0),
}

SHOULDER_HEIGHT = 0.45
SHOULDER_HALF_SPAN = 0.20
UPPER_ARM = 0.34
FOREARM = 0.30
WRIST_TO_TIP = 0.08
NECK_HEIGHT = 0.60
NECK_LIMITS_DEG = {"yaw": (-90.0, 90.0), "pitch": (-45.0, 45.0)}


def _joint(name: str, axis: np.ndarray, origin_t, limits_deg) -> Joint:
    return Joint(
        name=name,
        axis=axis,
        origin=Pose.from_translation(np.array(origin_t, dtype=float)),
        limits=(np.deg2rad(limits_deg[0]), np.deg2rad(limits_deg[1])),
    )


def _arm_chain(side: str, limits_deg: dict, seven_dof: bool) -> KinematicChain:
    sign = 1.0 if side == "left" else -1.0
    base = Pose.from_translation([0.0, sign * SHOULDER_HALF_SPAN, SHOULDER_HEIGHT])
    joints = [
        _joint("shoulder_pitch", Y, [0, 0, 0], limits_deg["shoulder_pitch"]),
        _joint("shoulder_roll", X, [0, 0, 0], limits_deg["shoulder_roll"]),
        _joint("shoulder_yaw", Z, [0, 0, 0], limits_deg["shoulder_yaw"]),
        _joint("elbow", Y, [0, 0, -UPPER_ARM], limits_deg["elbow"]),
    ]
    if seven_dof:
        joints += [
            _joint("wrist_pitch", Y, [0, 0, -FOREARM], HUMANOID_B_WRIST_EXTRA_DEG["wrist_pitch"]),
            _joint("wrist_roll", Z, [0, 0, 0], limits_deg["wrist_roll"]),
            _joint("wrist_yaw", X, [0, 0, 0], HUMANOID_B_WRIST_EXTRA_DEG["wrist_yaw"]),
        ]
    else:
        joints += [
            _joint("wrist_roll", Z, [0, 0, -FOREARM], limits_deg["wrist_roll"]),
        ]
    return KinematicChain(
        joints=tuple(joints),
        base_frame=base,
        tip_offset=Pose.from_translation([0.0, 0.0, -WRIST_TO_TIP]),
    )


def _neck_chain() -> KinematicChain:
    return KinematicChain(
        joints=(
            _joint("neck_yaw", Z, [0, 0, 0], NECK_LIMITS_DEG["yaw"]),
            _joint("neck_pitch", Y, [0, 0, 0], NECK_LIMITS_DEG["pitch"]),
        ),
        base_frame=Pose.from_translation([0.0, 0.0, NECK_HEIGHT]),
        tip_offset=Pose.identity(),
    )


def default_hand_model() -> HandModel:
    # Rays fan out from the wrist in its local frame; the thumb ray is
    # perpendicular to the palm normal so its rotation is invertible.
    dirs = np.array(
        [
            [0.0, 1.0, 0.0],    # thumb (rotated about the palm normal)
            [0.4, 0.25, -0.88],
            [0.45, 0.1, -0.89],
            [0.45, -0.05, -0.89],
            [0.4, -0.2, -0.89],
        ]
    )
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # Re-project the thumb ray exactly onto the palm plane (normal = x).
    normal = np.array([1.0, 0.0, 0.0])
    dirs[0] -= (dirs[0] @ normal) * normal
    dirs[0] /= np.linalg.norm(dirs[0])
    return HandModel(
        fingertip_extent=np.array([0.13, 0.19, 0.20, 0.19, 0.16]),
        finger_dirs=dirs,
        palm_normal=normal,
        thumb_rot_range=(-1.2, 1.2),
    )


def humanoid_a_config() -> EmbodimentConfig:
    return EmbodimentConfig(
        name="humanoid_a",
        left_arm=_arm_chain("left", HUMANOID_A_ARM_LIMITS_DEG, seven_dof=False),
        right_arm=_arm_chain("right", HUMANOID_A_ARM_LIMITS_DEG, seven_dof=False),
        neck=_neck_chain(),
        hand_model=default_hand_model(),
    )


def humanoid_b_config() -> EmbodimentConfig:
    return EmbodimentConfig(
        name="humanoid_b",
        left_arm=_arm_chain("left", HUMANOID_B_ARM_LIMITS_DEG, seven_dof=True),
        right_arm=_arm_chain("right", HUMANOID_B_ARM_LIMITS_DEG, seven_dof=True),
        neck=_neck_chain(),
        hand_model=default_hand_model(),
    )


BUILTIN_CONFIGS = {
    "humanoid_a": humanoid_a_config,
    "humanoid_b": humanoid_b_config,
}


def _chain_from_json(doc: dict) -> KinematicChain:
    joints = tuple(
        Joint(
            name=j["name"],
            axis=np.array(j["axis"], dtype=float),
            origin=pose_from_json(j["origin"]),
            limits=(np.deg2rad(j["limits_deg"][0]), np.deg2rad(j["limits_deg"][1])),
        )
        for j in doc["joints"]
    )
    return KinematicChain(
        joints=joints,
        base_frame=pose_from_json(doc["base_frame"]),
        tip_offset=pose_from_json(doc["tip_offset"]),
    )


def config_from_json_dict(doc: dict) -> EmbodimentConfig:
    hm = doc["hand_model"]
    if hm.get("fingers", FINGERS_PER_HAND) != FINGERS_PER_HAND or (
        hm.get("actuators", HAND_ACTUATOR_COUNT) != HAND_ACTUATOR_COUNT
    ):
        raise ValueError(
            f"hand model must have {FINGERS_PER_HAND} fingers and {HAND_ACTUATOR_COUNT} actuators"
        )
    hand = HandModel(
        fingertip_extent=np.array(hm["fingertip_extent_m"], dtype=float),
        finger_dirs=np.array(hm["finger_dirs"], dtype=float),
        palm_normal=np.array(hm["palm_normal"], dtype=float),
        thumb_rot_range=(
            np.deg2rad(hm["thumb_rot_range_deg"][0]),
            np.deg2rad(hm["thumb_rot_range_deg"][1]),
        ),
    )
    return EmbodimentConfig(
        name=doc["name"],
        left_arm=_chain_from_json(doc["left_arm"]),
        right_arm=_chain_from_json(doc["right_arm"]),
        neck=_chain_from_json(doc["neck"]),
        hand_model=hand,
        canonical_frame_offset=float(
            doc.get("canonical_frame_offset_m", EmbodimentConfig.canonical_frame_offset)),
    )


def load_embodiment_config(path: str | Path) -> EmbodimentConfig:
    """Load a config file, or a builtin by name (`humanoid_a`, `humanoid_b`);
    InvalidMetadata for a file that does not hold a valid config."""
    key = str(path)
    if key in BUILTIN_CONFIGS:
        return BUILTIN_CONFIGS[key]()
    try:
        return config_from_json_dict(read_json_object(path, "embodiment config"))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidMetadata(f"embodiment config {path}: {exc!r}") from exc
