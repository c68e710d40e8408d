#!/usr/bin/env python3
"""The simulation study: decomposition quality as one factor varies.

Simulates two-cluster datasets (V=4096, T=150), each once, decomposes and
evaluates them, and aggregates the reports with ``jpjica report`` into
``OUT/tables``: ``STUDY.csv`` and ``kurtosis_scatter.csv``.  ``--grid``
lists the values of the factor, ``--seeds`` the datasets per value.

convergence  outer-sweep budget (default 1,2,3,4,5,6,8,10; 3 seeds); each
             dataset is decomposed at every budget.
snr          noise in dB (default -3,0,3,6,12; 3 seeds), plus a clean arm
             that the table keys ``inf``.
subjects     subject count (default 10,12,14,16; 3 seeds).  Counts below
             10 are skipped: with two sharing clusters a fourth-order ring
             needs at least five subjects per cluster.
comparison   algorithm (default jpji,jithica; 5 seeds); each dataset is
             decomposed by every algorithm.  The single-tuple baseline
             finds no sharing clusters, so at the equal orders used here it
             labels sources joint or individual only: its partially-joint
             count accuracy is the column to watch.
"""
import argparse
import sys
from pathlib import Path

from jpjica import cli

# Each study's default grid and default number of seeds.
STUDIES = {
    "convergence": ("1,2,3,4,5,6,8,10", 3),
    "snr": ("-3,0,3,6,12", 3),
    "subjects": ("10,12,14,16", 3),
    "comparison": ("jpji,jithica", 5),
}


def _scenario(seed: int, subjects: int = 10, joint: int = 3) -> list[str]:
    return [
        "--subjects", str(subjects), "--joint", str(joint), "--pjoint", "2",
        "--individual", "1", "--voxels", "4096", "--time", "150", "--seed", str(seed),
    ]


def runs(study: str, grid: list[str], seeds: int):
    """Each run as (dataset name, simulate args, run name, decompose args), in report order."""
    if study == "convergence":
        for budget in map(int, grid):
            for i in range(seeds):
                yield (f"data_{i}", _scenario(1000 + i), f"run_m{budget}_s{i}",
                       ["--max-iter", str(budget), "--seed", str(1000 + i)])
    elif study == "snr":
        for j, snr in enumerate([*map(float, grid), None]):
            tag = "clean" if snr is None else f"{snr:g}db"
            noise = [] if snr is None else ["--snr-db", str(snr)]
            for i in range(seeds):
                yield (f"data_{tag}_{i}", _scenario(2000 + 100 * j + i) + noise,
                       f"run_{tag}_{i}", ["--seed", str(i)])
    elif study == "subjects":
        counts = [int(s) for s in grid]
        low = [k for k in counts if k < 10]
        if low:
            print(f"skipping subject counts {low}: sharing clusters would be too small",
                  file=sys.stderr)
        for j, k in enumerate(k for k in counts if k >= 10):
            for i in range(seeds):
                yield (f"data_k{k}_{i}", _scenario(3000 + 100 * j + i, subjects=k),
                       f"run_k{k}_{i}", ["--seed", str(i)])
    else:
        for i in range(seeds):
            for algo in grid:
                yield (f"data_{i}", _scenario(4000 + i, joint=2), f"run_{algo}_{i}",
                       ["--algorithm", algo, "--seed", str(i)])


def _run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != cli.EXIT_OK:
        sys.exit(f"{argv[0]} failed with exit code {code}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("study", choices=STUDIES)
    ap.add_argument("--out", type=Path, help="output directory (default: experiments/STUDY)")
    ap.add_argument("--seeds", type=int, help="datasets per grid value (default: see above)")
    ap.add_argument("--grid", help="comma-separated values of the factor (default: see above)")
    args = ap.parse_args(argv)
    default_grid, default_seeds = STUDIES[args.study]
    out = args.out or Path("experiments", args.study)
    grid = (args.grid or default_grid).split(",")
    seeds = default_seeds if args.seeds is None else args.seeds

    simulated = set()
    reports = []
    for data, scenario, run, decompose in runs(args.study, grid, seeds):
        data, run = out / data, out / run
        if data not in simulated:
            _run(["simulate", *scenario, "--out", str(data)])
            simulated.add(data)
        _run(["decompose", str(data), "--out", str(run), *decompose])
        _run(["evaluate", str(run), str(data)])
        reports.append(run / "report.json")

    tables = out / "tables"
    _run(["report", *map(str, reports), "--out", str(tables)])
    print(f"{args.study} table: {tables / f'{args.study}.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
