#!/usr/bin/env python3
"""Interleaved A/B timing of one benchmark workload on two checkouts.

    python3 tools/ab_interleaved.py PARENT_DIR CHANGE_DIR --workload retarget --pairs 20

Loads each checkout's `src/crossemb` and `bench/workloads.py` into one
interpreter, builds the workload on both sides from the same seed, runs
one untimed warm-up pass per side, then alternates timed passes (A then B,
then B then A, ...), so both sides see the same CPU-speed drift. Prints
one line per pair (its index, the side that ran first, and both pass wall
times, the `wall_s` of `bench/run.py`), then each side's median and
quartiles, how many pairs B won, the median per-pair ratio B/A, and
whether B shows a gain: it won at least 9/10 of the pairs (ties count for
neither) and A's median exceeds B's by more than A's quartile distance.

Only the retarget and ingest_train workloads are allowed. cotrain is
refused: its conditions run in forked pool workers, which resolve
`harness._run_condition` by module name, so the two sides' modules would
not stay apart.

BLAS runs on one thread, as in `bench/run.py`. Each side's modules are put
back into `sys.modules` before each of its passes, so imports made inside
functions resolve to the same checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("retarget", "ingest_train")


class Side:
    """One checkout's crossemb and workloads modules, and its workload."""

    def __init__(self, label: str, checkout: Path, workload: str, seed: int, workdir: Path):
        self.label = label
        for name in [m for m in sys.modules if m == "crossemb" or m.startswith("crossemb.")]:
            del sys.modules[name]
        spec = importlib.util.spec_from_file_location(
            "crossemb", checkout / "src" / "crossemb" / "__init__.py",
            submodule_search_locations=[str(checkout / "src" / "crossemb")])
        package = importlib.util.module_from_spec(spec)
        sys.modules["crossemb"] = package
        spec.loader.exec_module(package)
        spec = importlib.util.spec_from_file_location(
            f"workloads_{label}", checkout / "bench" / "workloads.py")
        self.workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = self.workloads  # dataclasses look their module up
        spec.loader.exec_module(self.workloads)
        self.modules = {m: mod for m, mod in sys.modules.items()
                        if m == "crossemb" or m.startswith("crossemb.")}
        self.install()
        if workload == "retarget":
            self.workload = self.workloads.Retarget(seed)
        else:
            self.workload = self.workloads.IngestTrain(seed, workdir / label)
        self.walls: list[float] = []

    def install(self) -> None:
        sys.modules.update(self.modules)

    def run(self, keep: bool = True):
        self.install()
        result = self.workload.execute()
        if keep:
            self.walls.append(result.wall_s)
        return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(a_walls: list[float], b_walls: list[float]) -> list[str]:
    """The report of pairs of walls, A's and B's, of which pair i ran A
    first when i is even: a line per pair, then the statistics."""
    lines = [f"pair {i}: {'AB'[i % 2]} first, A {a:.4f} s, B {b:.4f} s"
             for i, (a, b) in enumerate(zip(a_walls, b_walls))]
    for label, walls in (("A", a_walls), ("B", b_walls)):
        q1, q2, q3 = quartiles(walls)
        lines.append(f"{label}: median {q2:.4f} s, quartiles {q1:.4f} / {q3:.4f} s "
                     f"over {len(walls)} passes")
    n, wins = len(a_walls), sum(b < a for a, b in zip(a_walls, b_walls))
    ratio = statistics.median(b / a for a, b in zip(a_walls, b_walls))
    lines.append(f"B faster in {wins} of {n} pairs; median per-pair ratio B/A {ratio:.3f}")
    a_q1, a_q2, a_q3 = quartiles(a_walls)
    gap, spread = a_q2 - statistics.median(b_walls), a_q3 - a_q1
    won, apart = 10 * wins >= 9 * n, gap > spread
    lines.append(f"gain rule {'met' if won and apart else 'not met'}: B won "
                 f"{'at least' if won else 'under'} 9/10 of the pairs; A median - B median "
                 f"{gap:.4f} s {'>' if apart else '<='} A quartile distance {spread:.4f} s")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A (the reference)")
    parser.add_argument("b", type=Path, help="checkout B (the change)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("cotrain",))
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=47)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"{args.workload} is not supported: its forked workers resolve "
              "harness._run_condition by module name", file=sys.stderr)
        return 2
    if args.pairs < 2:
        print("--pairs must be at least 2", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix="ab_interleaved-"))
    try:
        sides = [Side(label, path.resolve(), args.workload, args.seed, workdir)
                 for label, path in (("A", args.a), ("B", args.b))]
        for side in sides:
            check = side.workload.check(side.run(keep=False))
            print(f"{side.label}: warm-up pass, {check.attempted} operations, "
                  f"{check.failed} failed")
        for i in range(args.pairs):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                side.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(summary(sides[0].walls, sides[1].walls)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
