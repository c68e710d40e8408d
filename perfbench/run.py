#!/usr/bin/env python3
"""Benchmark of the jpjica CLI pipeline: simulate -> decompose -> evaluate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-bin-k20-snr10 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead.  ``--smoke`` runs one tiny case with
every check in a few seconds.  See perfbench/README.md.
"""
from __future__ import annotations

import os

# One BLAS thread in this process and in every child, before numpy loads.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
DEADLINE_S = 150.0

# Quality floors of tests/test_acceptance.py (criteria 04, 05 and 06).
NOISELESS_FLOORS = {"jsir_db": 15.0, "acc_counts_pct": 100.0, "acc_peer_sets_pct": 94.0}
# At 10 dB SNR and K=20, seeds 0-50 and five large seeds gave jSIR
# 20.7-22.3 dB with exact counts and peer sets; 18 dB sits 2.7 dB below
# the lowest, so it flags a collapse without failing on an unlucky seed.
NOISY_FLOORS = {"jsir_db": 18.0, "acc_counts_pct": 100.0, "acc_peer_sets_pct": 94.0}


@dataclass(frozen=True)
class Workload:
    subjects: int
    voxels: int
    snr_db: float | None
    binary: bool
    floors: dict

    def spec_kwargs(self, seed: int) -> dict:
        return dict(
            n_subjects=self.subjects, n_joint=3, n_pjoint=2, n_individual=1,
            n_clusters=2, n_voxels=self.voxels, n_time=150, snr_db=self.snr_db, seed=seed,
        )

    def simulate_args(self, seed: int) -> list[str]:
        args = [
            "simulate", "--subjects", str(self.subjects), "--joint", "3", "--pjoint", "2",
            "--individual", "1", "--clusters", "2", "--voxels", str(self.voxels),
            "--time", "150", "--seed", str(seed),
        ]
        if self.snr_db is not None:
            args += ["--snr-db", repr(self.snr_db)]
        return args + (["--binary"] if self.binary else [])

    def decompose_args(self, seed: int) -> list[str]:
        return ["--seed", str(seed)] + (["--binary"] if self.binary else [])


# Every workload: 3 joint + 2 partially joint (2 clusters) + 1 individual
# map per subject, T=150.  Why each exists is in perfbench/README.md.
# cli-csv-v4096 is not in BENCHMARK.json and is run by hand: text parsing
# dominates it, and on a shared 2-vCPU VM its speed drifted by up to 30 %
# from one minute to the next, which no run length evens out.
WORKLOADS = {
    "cli-csv-v4096": Workload(10, 4096, None, False, NOISELESS_FLOORS),
    "cli-bin-v65536": Workload(10, 65536, None, True, NOISELESS_FLOORS),
    "cli-bin-k20-snr10": Workload(20, 16384, 10.0, True, NOISY_FLOORS),
}
SMOKE = Workload(10, 1024, None, False, NOISELESS_FLOORS)
SETUP_REPEATS = 3


def _steal() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host CPUs, or None when unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _reference_s() -> float:
    """Median time of a fixed numpy computation, to tell host drift from the program."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((300, 300))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(5):
            np.linalg.eigh(a @ a.T)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _child(mode: str, plan: dict, work: Path, deadline: float) -> dict:
    plan_path = work / f"{mode}-plan.json"
    plan["result"] = str(work / f"{mode}-result.json")
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=f"{HERE}{os.pathsep}{SRC}")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(plan_path)],
        env=env,
        stdout=sys.stderr,
        check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return json.loads(Path(plan["result"]).read_text())


def _attempt(names: list[str], fn) -> list[tuple[str, bool, str]]:
    """Run checks; one that raises fails every check it would have made."""
    try:
        return fn()
    except Exception as exc:  # a check must fail, not end the run
        return [(name, False, f"raised {exc!r}") for name in names]


def run(workload: Workload, seed: int, seconds: float, trace: bool, label: str) -> dict:
    import checks
    from jpjica.simulate import ScenarioSpec, generate_dataset
    from spans import layer_metrics

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{label}-s{seed}-", dir=OUT))
    steal0, ref0 = _steal(), _reference_s()
    span_files = [str(OUT / f"spans-{label}-s{seed}-{m}.json") for m in ("setup", "pipeline")]
    phases = {"start": time.monotonic()}
    try:
        dataset = work / "dataset"
        setup = _child(
            "setup",
            {
                "sim_args": workload.simulate_args(seed),
                "out": str(dataset),
                "repeats": 1 if trace else SETUP_REPEATS,
                "spans": span_files[0] if trace else None,
            },
            work,
            deadline,
        )
        phases["setup"] = time.monotonic()
        pipe = _child(
            "pipeline",
            {
                "dataset": str(dataset),
                "work": str(work),
                "dec_args": workload.decompose_args(seed),
                "seconds": seconds,
                "spans": span_files[1] if trace else None,
            },
            work,
            deadline,
        )
        phases["pipeline"] = time.monotonic()
        codes = setup["codes"] + pipe["codes"]
        results = Path(pipe["last_results"])
        digests = pipe["digests"]
        outcome = [("outputs_repeat", None not in digests and len(set(digests)) == 1, "")]
        spec = ScenarioSpec(**workload.spec_kwargs(seed))
        outcome += _attempt(
            ["dataset_bits", "whitening_identity", "sources_recompute", "jsir_recompute"],
            lambda: checks.check_run(dataset, results, generate_dataset(spec)),
        )
        outcome += _attempt(
            ["label_counts"], lambda: [checks.check_label_counts(dataset, results)]
        )
        quality = checks.quality(results)
        outcome += checks.check_floors(quality, workload.floors)
        phases["checks"] = time.monotonic()
        for name, ok, detail in outcome:
            if not ok:
                print(f"check failed: {name}: {detail}", file=sys.stderr)
        failed = sum(rc != 0 for rc in codes) + sum(not ok for _, ok, _ in outcome)
        timed = pipe["timed"]
        decompose = [p["decompose_s"] for p in timed]
        pipeline = [p["pipeline_s"] for p in timed]
        if trace:
            values, missing = layer_metrics(span_files)
            metrics = {n: {"value": v, "unit": u} for n, (v, u) in values.items()}
            extractions, iterations = checks.self_mode_counts(results)
            metrics["engine.self_mode_extractions"] = {"value": extractions, "unit": "count"}
            metrics["engine.inner_iterations"] = {"value": iterations, "unit": "count"}
            overhead = pipe["traced"]["pipeline_s"] - statistics.median(pipeline)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            if missing:
                print(f"trace: missing spans (reported as 0): {missing}", file=sys.stderr)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup["setup_s"]), "unit": "s"},
                "decompose_s": {"value": statistics.median(decompose), "unit": "s"},
                "pipeline_s": {"value": statistics.median(pipeline), "unit": "s"},
                "peak_rss_mb": {"value": pipe["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
            metrics.update({n: {"value": v, "unit": u} for n, v, u in (
                ("jsir_db", quality["jsir_db"], "dB"),
                ("acc_counts_pct", quality["acc_counts_pct"], "%"),
                ("acc_peer_sets_pct", quality["acc_peer_sets_pct"], "%"),
            )})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1, ref1 = _steal(), _reference_s()
    steal_pct = None
    if steal0 and steal1 and steal1[1] > steal0[1]:
        steal_pct = 100.0 * (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
    print(
        "context: "
        + json.dumps(
            {
                "reference_s": [ref0, ref1],
                "host_steal_pct": steal_pct,
                "setup_s": setup["setup_s"],
                "decompose_s": decompose,
                "pipeline_s": pipeline,
                "checks": {name: ok for name, ok, _ in outcome},
                "phase_s": {
                    b: phases[b] - phases[a]
                    for a, b in zip(["start", "setup", "pipeline"], ["setup", "pipeline", "checks"])
                },
            }
        )
    )
    return {
        "correct": all(ok for _, ok, _ in outcome),
        "attempted": len(codes) + len(outcome),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="cli-bin-k20-snr10")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny CSV case (K=10, V=1024) with every check")
    args = parser.parse_args()
    if not (SRC / "jpjica" / "__init__.py").is_file():
        print(f"error: no jpjica sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import jpjica

    if Path(jpjica.__file__).resolve().parent != (SRC / "jpjica").resolve():
        print(f"error: imported jpjica from {jpjica.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        workload, label, seconds = SMOKE, "smoke", 0.0
    else:
        workload, label, seconds = WORKLOADS[args.workload], args.workload, args.seconds
    try:
        result = run(workload, args.seed, seconds, bool(args.trace), label)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f}s", file=sys.stderr)
        return 3
    except subprocess.CalledProcessError as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: the pipeline wrote no report: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
