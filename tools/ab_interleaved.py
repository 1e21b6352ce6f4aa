#!/usr/bin/env python3
"""Interleaved A/B timing of one benchmark workload on two checkouts.

    python3 tools/ab_interleaved.py PARENT_DIR CHANGE_DIR --workload retarget --pairs 20

Loads each checkout's `src/crossemb` and `bench/workloads.py` into one
interpreter, builds the workload on both sides from the same seed, runs
one untimed warm-up pass per side, then alternates timed passes (A then B,
then B then A, ...), so both sides see the same CPU-speed drift. Prints
each side's median and quartiles of the pass wall time (the `wall_s` of
`bench/run.py`), how many pairs B won, and the median per-pair ratio B/A.

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
    a, b = sides
    for side in sides:
        q1, q2, q3 = quartiles(side.walls)
        print(f"{side.label}: median {q2:.4f} s, quartiles {q1:.4f} / {q3:.4f} s "
              f"over {len(side.walls)} passes")
    wins = sum(y < x for x, y in zip(a.walls, b.walls))
    ratio = statistics.median(y / x for x, y in zip(a.walls, b.walls))
    print(f"B faster in {wins} of {args.pairs} pairs; median per-pair ratio B/A {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
