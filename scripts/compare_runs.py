#!/usr/bin/env python3
"""Parity check of two ``jpjica decompose`` results directories.

    python scripts/compare_runs.py RUN_A RUN_B

The decisions must be identical: ``labels.csv`` byte for byte, and the
``orders``, ``joint_slots`` and ``self_mode`` of ``results.json``.  Every
matrix (each subject's demixing rows, sources, whitener and mean, and the
extraction costs) may differ only by rounding: the script prints the
largest difference of each, relative to the largest magnitude in it, and
fails above a fixed 1e-10.  Exit code 0 means parity, 1 a difference.
"""
import argparse
import json
import sys
from pathlib import Path

import numpy as np

from jpjica.io import load_matrix

MAX_RELATIVE_DIFFERENCE = 1e-10
DECISIONS = ("orders", "joint_slots", "self_mode")


def _relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    a, b = np.nan_to_num(a, nan=0.0), np.nan_to_num(b, nan=0.0)
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    diff = float(np.abs(a - b).max())
    return diff / scale if scale > 0 else diff


def _costs(results: dict) -> np.ndarray:
    return np.array(
        [[np.nan if x is None else x for x in row] for row in results["extraction_costs"]],
        dtype=float,
    )


def compare(run_a: Path, run_b: Path) -> list[str]:
    """Print the matrix differences and return the failures, one line each."""
    failures = []
    res_a = json.loads((run_a / "results.json").read_text())
    res_b = json.loads((run_b / "results.json").read_text())
    for key in DECISIONS:
        if res_a.get(key) != res_b.get(key):
            failures.append(f"results.json {key} differs")
    labels_a, labels_b = run_a / "labels.csv", run_b / "labels.csv"
    if labels_a.exists() or labels_b.exists():
        if not (labels_a.exists() and labels_b.exists()):
            failures.append("labels.csv exists in one run only")
        elif labels_a.read_bytes() != labels_b.read_bytes():
            failures.append("labels.csv differs")
    if res_a["subject_ids"] != res_b["subject_ids"]:
        failures.append("subject ids differ")
        return failures
    matrices = [("extraction_costs", _costs(res_a), _costs(res_b))]
    for sid in res_a["subject_ids"]:
        for kind, name in sorted(res_a["files"][sid].items()):
            other = res_b["files"][sid].get(kind)
            if other is None:
                failures.append(f"{sid} {kind}: missing in {run_b}")
                continue
            matrices.append(
                (f"{sid} {kind}", load_matrix(run_a / name), load_matrix(run_b / other))
            )
    for name, a, b in matrices:
        rel = _relative_difference(a, b)
        print(f"{name}: {rel:.3g}")
        if not rel <= MAX_RELATIVE_DIFFERENCE:
            failures.append(f"{name}: relative difference {rel:.3g} > {MAX_RELATIVE_DIFFERENCE:g}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("run_a", type=Path, metavar="RUN_A")
    ap.add_argument("run_b", type=Path, metavar="RUN_B")
    args = ap.parse_args(argv)
    failures = compare(args.run_a, args.run_b)
    for line in failures:
        print(f"FAIL {line}")
    print("parity" if not failures else f"{len(failures)} difference(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
