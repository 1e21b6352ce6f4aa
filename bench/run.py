#!/usr/bin/env python3
"""Run one crossemb benchmark workload and print its metrics.

    python3 bench/run.py --workload cotrain --seed 1 --seconds 20 --trace 0

Workloads: cotrain, retarget, ingest_train (see bench/workloads.py).
With --trace 0 the run repeats untraced passes for --seconds seconds
(at least one) after one untimed warm-up pass, and reports the
end-to-end metrics listed in BENCHMARK.json. With --trace 1 it runs one
untraced and one traced pass and reports the per-layer metrics; the
spans go to .bench_out/ in the checkout.

The second-to-last line of output is a JSON record of every measured
figure with its unit and sample count, plus nproc, the numpy version and
the BLAS library. The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os

# Fix BLAS threads before numpy loads: one thread, at most nproc, steadiest.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT_DIR = REPO / ".bench_out"

# Set-up samples are spread over the run (a few first, then one between
# passes at most every SETUP_GAP_S): CPU speed on a shared virtual machine
# can shift for seconds at a time, and back-to-back samples would all see
# one speed.
SETUP_FIRST = 3
SETUP_MAX = 12
SETUP_GAP_S = 2.5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import crossemb\n"
    "from crossemb import embodiments, tasks\n"
    "tasks.make_reach_task(embodiments.humanoid_b_config())\n"
    "print(time.perf_counter() - t0)\n"
)


def measure_setup() -> float:
    """Seconds to import crossemb and build the config and reach task, in
    a fresh interpreter (interpreter start-up itself excluded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Set-up time samples taken at the start and then between passes."""

    def __init__(self):
        self.samples = [measure_setup() for _ in range(SETUP_FIRST)]
        self.last = time.perf_counter()

    def between_passes(self) -> None:
        if len(self.samples) < SETUP_MAX and time.perf_counter() - self.last >= SETUP_GAP_S:
            self.samples.append(measure_setup())
            self.last = time.perf_counter()


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except Exception:  # numpy builds differ in what they describe
        return "unknown"


def end_to_end(workload, passes, checks, setup) -> dict:
    """Every end-to-end figure of one workload, by name."""
    from workloads import metric

    walls = [p.wall_s for p in passes]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "wall_s": metric(statistics.median(walls), "s", len(walls)),
        "error_rate": metric(failed / attempted, "ratio", attempted),
        **workload.figures(passes),
        "pass_walls_s": metric(walls, "s", len(walls)),
    }


def per_layer(tracer, traced, untraced) -> dict:
    metrics = tracer.metrics()
    calls = metrics.get("kinematics.ik_solve.calls")
    if calls is None:
        metrics["kinematics.ik_solve.converged_ratio"] = None
    else:
        conv = metrics["kinematics.ik_solve.converged"]
        metrics["kinematics.ik_solve.converged_ratio"] = conv / calls if calls else 0.0
    next_s = metrics.pop("dataset.sampler.self_s")
    metrics["dataset.sampler.next_s"] = next_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    return metrics


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cotrain", "retarget", "ingest_train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path at toy size (for tests)")
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, size: str, workdir: Path):
    from workloads import Cotrain, IngestTrain, Retarget

    if name == "cotrain":
        return Cotrain(seed, size)
    if name == "retarget":
        return Retarget(seed, size)
    return IngestTrain(seed, workdir, size)


def run(args) -> int:
    import layertrace
    from workloads import metric

    spec = load_spec()
    setup = SetupSampler()
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = make_workload(args.workload, args.seed, args.size, workdir)
        workload.warmup()
        passes, checks = [], []
        if args.trace:
            untraced = workload.execute()
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                with tracer.root():
                    traced = workload.execute()
            finally:
                tracer.uninstall()
            setup.between_passes()
            passes, checks = [untraced, traced], [workload.check(untraced), workload.check(traced)]
            figures = per_layer(tracer, traced, untraced)
            tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
            wanted = spec["per_layer"]
            report = {m["name"]: metric(figures.get(m["name"]), m["unit"]) for m in wanted}
        else:
            deadline = time.perf_counter() + args.seconds
            while not passes or time.perf_counter() < deadline:
                passes.append(workload.execute())
                checks.append(workload.check(passes[-1]))
                setup.between_passes()
            figures = end_to_end(workload, passes, checks, setup.samples)
            wanted = spec["end_to_end"]
            report = {m["name"]: metric(figures[m["name"]]["value"], m["unit"])
                      for m in wanted}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems][:20]
    values = [m["value"] for m in report.values() if m["value"] is not None]
    finite = all(np.isfinite(v) for v in values)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": int(BLAS_THREADS),
        "setup_samples_s": setup.samples,
        "problems": problems,
        "figures": figures,
    }))
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crossemb" / "__init__.py").is_file():
        print(f"crossemb sources not found under {SRC.name}/; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
