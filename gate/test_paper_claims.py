"""The paper's three claims as a gate, on seeds and settings fixed in advance.

- Co-training with human demos lifts out-of-distribution (OOD) success
  over robot-only training.
- Slowing the human demos down (retiming) lowers the variance of the
  commanded wrist displacement.
- The unified state space beats a joint-space robot state on OOD success.

Each seed trains `robot_only`, `unified_retimed`, `unified_not_retimed` and
`joint_space_retimed` once through `harness.run_conditions` (8 robot and 36
human demos, 1000 training steps); `unified_retimed` is the co-trained
model. The claims are asserted on the seed means. Evaluation has 7 OOD
goals, so one seed's success moves in steps of 1/7. If a claim fails,
report the failure: the seeds and settings are not to be changed after
seeing a result.

Run with `python -m pytest gate`. It takes longer than the Tier-1 suite's
budget, so it lives outside `tests/`.
"""

import numpy as np
import pytest

from crossemb import harness
from crossemb.embodiments import humanoid_b_config
from crossemb.tasks import make_reach_task

SEEDS = (0, 1, 2)
N_ROBOT = 8
HUMAN_DEMOS = 36
SETTINGS = harness.ExperimentSettings(train_steps=1000, human_demos=HUMAN_DEMOS)
NAMES = ("robot_only", "unified_retimed", "unified_not_retimed", "joint_space_retimed")
METRICS = ("id_success", "ood_success", "displacement_variance")


@pytest.fixture(scope="module")
def per_seed():
    """{condition: {metric: [value per seed]}}"""
    config = humanoid_b_config()
    task = make_reach_task(config, feature_dim=harness.EXPERIMENT_POLICY.feature_dim)
    out = {name: {key: [] for key in METRICS} for name in NAMES}
    for row, _, _ in harness.run_conditions(NAMES, (N_ROBOT,), HUMAN_DEMOS, SEEDS,
                                            task, config, SETTINGS):
        for key in METRICS:
            if key in row:
                out[row["condition"]][key].append(row[key])
    return out


def mean(per_seed, condition, metric):
    return float(np.mean(per_seed[condition][metric]))


def test_print_per_seed_results(per_seed, capsys):
    """Not a claim: shows the numbers behind the three claims, and the
    in-distribution (ID) success that co-training costs."""
    lines = [f"{'condition':<21}{'metric':<23}" + "".join(f"seed {s:<7}" for s in SEEDS) + "mean"]
    for name in NAMES:
        for key in METRICS:
            values = per_seed[name][key]
            if values:
                lines.append(f"{name:<21}{key:<23}" + "".join(f"{v:<12.4g}" for v in values)
                             + f"{np.mean(values):.4g}")
    with capsys.disabled():
        print("\n" + "\n".join(lines))
        print(f"mean ID success: robot-only {mean(per_seed, 'robot_only', 'id_success'):.3f}, "
              f"co-trained {mean(per_seed, 'unified_retimed', 'id_success'):.3f}")
    for name in NAMES:
        assert len(per_seed[name]["ood_success"]) == len(SEEDS)


def test_human_data_lifts_ood_success(per_seed):
    assert mean(per_seed, "unified_retimed", "ood_success") > mean(
        per_seed, "robot_only", "ood_success")


def test_retiming_steadies_commanded_speed(per_seed):
    assert mean(per_seed, "unified_retimed", "displacement_variance") < mean(
        per_seed, "unified_not_retimed", "displacement_variance")


def test_unified_space_beats_joint_space(per_seed):
    assert mean(per_seed, "unified_retimed", "ood_success") > mean(
        per_seed, "joint_space_retimed", "ood_success")
