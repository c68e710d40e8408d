#!/usr/bin/env python3
"""Head-to-head comparison of the ring engine and the single-tuple baseline.

Runs both algorithms on the same datasets (two joint, two partially
joint and one individual map per subject, two clusters) and aggregates
the reports into ``tables/comparison.csv`` plus the feature-vs-kurtosis
scatter ``tables/kurtosis_scatter.csv``.  The baseline finds no sharing
clusters, so at the equal orders used here it labels sources joint or
individual only, and its partially-joint count accuracy is the column
to watch.
"""
import argparse
import sys
from pathlib import Path

from jpjica import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("experiments/comparison"))
    ap.add_argument("--seeds", type=int, default=5, help="datasets per algorithm")
    args = ap.parse_args(argv)

    reports = []
    for i in range(args.seeds):
        data = args.out / f"data_{i}"
        code = cli.main([
            "simulate", "--subjects", "10", "--joint", "2", "--pjoint", "2",
            "--individual", "1", "--voxels", "4096", "--time", "150",
            "--seed", str(4000 + i), "--out", str(data),
        ])
        if code != cli.EXIT_OK:
            sys.exit(f"simulate failed with exit code {code}")
        for algo in ("jpji", "jithica"):
            run = args.out / f"run_{algo}_{i}"
            for argv_step in (
                ["decompose", str(data), "--out", str(run),
                 "--algorithm", algo, "--seed", str(i)],
                ["evaluate", str(run), str(data)],
            ):
                code = cli.main(argv_step)
                if code != cli.EXIT_OK:
                    sys.exit(f"{argv_step[0]} failed with exit code {code}")
            reports.append(run / "report.json")

    tables = args.out / "tables"
    code = cli.main(["report", *[str(r) for r in reports], "--out", str(tables)])
    if code != cli.EXIT_OK:
        sys.exit(f"report failed with exit code {code}")
    print(f"comparison table: {tables / 'comparison.csv'}")
    print(f"feature scatter:  {tables / 'kurtosis_scatter.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
