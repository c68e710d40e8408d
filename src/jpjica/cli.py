"""Command-line interface: simulate, decompose, evaluate, report.

Exit codes: 0 success, 2 invalid simulation scenario (argparse also
exits 2 on a command-line usage error), 3 invalid input to
decomposition or evaluation, or an ``--out`` that cannot be written,
4 missing ground truth during evaluation, 5 no usable inputs for report
aggregation.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as jio
from .baseline import run_ji_thica
from .classify import label_decomposition
from .engine import run_jpji_ica
from .errors import JpjicaError, MismatchedVoxelCount
from .metrics import acc_c, acc_k, evaluate_run
from .simulate import ScenarioSpec, stream_dataset
from .types import AlgoConfig, slot_rows

EXIT_OK = 0
EXIT_BAD_SCENARIO = 2
EXIT_BAD_INPUT = 3
EXIT_NO_TRUTH = 4
EXIT_NO_REPORTS = 5


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jpjica",
        description="Joint / partially joint / individual source separation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--subjects", type=int, default=10)
    p_sim.add_argument("--joint", type=int, default=3)
    p_sim.add_argument("--pjoint", type=str, default="0",
                       help="count, or comma-separated per-subject counts")
    p_sim.add_argument("--individual", type=str, default="0",
                       help="count, or comma-separated per-subject counts")
    p_sim.add_argument("--clusters", type=int, default=2)
    p_sim.add_argument("--voxels", type=int, default=4096)
    p_sim.add_argument("--time", type=str, default="150",
                       help="time points, or comma-separated per-subject counts")
    p_sim.add_argument("--snr-db", type=float, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--allow-small-clusters", action="store_true")
    p_sim.add_argument("--binary", action="store_true",
                       help="store matrices in the binary format")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_dec = sub.add_parser("decompose", help="run a decomposition on a dataset directory")
    p_dec.add_argument("input", help="dataset directory (manifest.json inside)")
    p_dec.add_argument("--out", required=True)
    p_dec.add_argument("--algorithm", choices=("jpji", "jithica"), default="jpji")
    p_dec.add_argument("--components", type=str, default="min",
                       help="'auto' (per-subject), 'min' (shared minimum) or an integer")
    p_dec.add_argument("--max-iter", type=int, default=3,
                       help="outer sweeps (default 3); the last one deflates")
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--binary", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_eval = sub.add_parser("evaluate", help="score results against ground truth")
    p_eval.add_argument("results", help="results directory")
    p_eval.add_argument("dataset", help="dataset directory with ground truth")
    p_eval.add_argument("--out", default=None, help="report path (default results/report.json)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="aggregate report files into CSV tables")
    p_rep.add_argument("reports", nargs="*", help="report.json files")
    p_rep.add_argument("--out", required=True, help="output directory for tables")
    p_rep.set_defaults(func=cmd_report)
    return parser


def _int_or_list(text: str) -> int | tuple[int, ...]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) == 1:
        return int(parts[0])
    return tuple(int(p) for p in parts)


def cmd_simulate(args: argparse.Namespace) -> int:
    if blocked := _blocked_out(Path(args.out)):
        return _cannot_write(blocked)
    try:
        spec = ScenarioSpec(
            n_subjects=args.subjects,
            n_joint=args.joint,
            n_pjoint=_int_or_list(args.pjoint),
            n_individual=_int_or_list(args.individual),
            n_clusters=args.clusters,
            n_voxels=args.voxels,
            n_time=_int_or_list(args.time),
            snr_db=args.snr_db,
            seed=args.seed,
            allow_small_clusters=args.allow_small_clusters,
        )
        subjects, truth = stream_dataset(spec)
    except (JpjicaError, ValueError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    # save_dataset's worker threads mix, write and drop the subjects (two binary
    # ones at a time); the manifest comes last.
    try:
        jio.save_dataset(args.out, subjects, truth, spec.to_dict(), binary=args.binary)
    except OSError as exc:
        return _cannot_write(exc)
    print(f"wrote {spec.n_subjects} subjects to {args.out}")
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    if blocked := _blocked_out(Path(args.out)):
        return _cannot_write(blocked)
    try:
        components: int | str
        if args.components == "auto":
            components = "auto-bic"
        elif args.components == "min":
            components = "global-min"
        else:
            components = int(args.components)
        config = AlgoConfig(
            max_outer=args.max_iter,
            n_components=components,
            seed=args.seed,
        )
        subjects, _ = jio.read_subjects(args.input)
    except (JpjicaError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args.algorithm == "jithica":
            decomp = run_ji_thica(subjects, config)
        else:
            decomp = label_decomposition(run_jpji_ica(subjects, config))
    except JpjicaError as exc:
        print(f"error: decomposition failed: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        jio.save_decomposition(args.out, decomp, binary=args.binary)
    except OSError as exc:
        return _cannot_write(exc)
    sigma = decomp.features.sigma_opt
    sigma_txt = "none" if sigma is None else f"{sigma:.6g}"
    print(
        f"decomposed {decomp.n_subjects} subjects, {decomp.n_slots} slots"
        f" (algorithm={decomp.algorithm}, sigma={sigma_txt})"
    )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    # The sources of both sides stay on disk until evaluate_run reads them,
    # one subject at a time.
    try:
        bundle = jio.load_decomposition(args.results)
        truth, ds_manifest = jio.load_truth(args.dataset)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _cannot_load(exc)
    if truth is None:
        print("error: dataset has no ground truth", file=sys.stderr)
        return EXIT_NO_TRUTH
    if bundle.labels is None:
        print("error: results carry no labels", file=sys.stderr)
        return EXIT_BAD_INPUT
    ds_ids = [entry["id"] for entry in ds_manifest["subjects"]]
    if bundle.subject_ids != ds_ids or len(truth.sources) != len(ds_ids):
        return _disagree()
    try:
        features_rows = _feature_rows(bundle)
    except ValueError as exc:
        print(f"error: inconsistent results: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        evaluation = evaluate_run(truth, bundle).to_dict()
    except MismatchedVoxelCount:
        return _disagree()
    except (ValueError, OSError) as exc:
        return _cannot_load(exc)
    matching = evaluation.pop("matching")
    report = {
        "dataset": {
            "scenario": ds_manifest.get("scenario"),
            "n_subjects": ds_manifest.get("n_subjects"),
            "n_voxels": ds_manifest.get("n_voxels"),
        },
        "results": {
            "algorithm": bundle.manifest.get("algorithm"),
            "config": bundle.manifest.get("config"),
            "joint_slots": bundle.manifest.get("joint_slots"),
            "sigma_opt": bundle.manifest.get("sigma_opt"),
        },
        "metrics": evaluation,
        "matching": matching,
        "features": features_rows,
    }
    out = Path(args.out) if args.out else Path(args.results) / "report.json"
    try:
        jio.save_report(out, report)
    except OSError as exc:
        return _cannot_write(exc)
    acc_txt = " ".join(
        f"{k}={'yes' if v else 'no'}" for k, v in evaluation["acc_counts"].items()
    )
    print(f"jSIR: {evaluation['jsir_db']:.2f} dB")
    print(f"count accuracy: {acc_txt}")
    print(f"peer-set accuracy: {evaluation['acc_peer_sets']:.2f}%")
    print(f"wrote {out}")
    return EXIT_OK


def _cannot_load(exc: Exception) -> int:
    print(f"error: cannot load inputs: {exc}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _disagree() -> int:
    print("error: results and dataset disagree on subjects or voxels", file=sys.stderr)
    return EXIT_BAD_INPUT


def _feature_rows(bundle: jio.ResultsBundle) -> list[dict]:
    """Report rows of the held (slot, subject) pairs, those with a finite jpjif, in slot order."""
    feats = bundle.features
    row_of = slot_rows(~np.isnan(feats.jpjif), [len(labels) for labels in bundle.labels])
    return [
        {
            "slot": int(c),
            "subject": bundle.subject_ids[k],
            "jpjif": float(feats.jpjif[c, k]),
            "kurtosis": float(feats.kurtosis[c, k]),
            "kind": bundle.labels[k][row_of[c, k]].kind.value,
        }
        for c, k in zip(*np.nonzero(row_of >= 0))
    ]


def cmd_report(args: argparse.Namespace) -> int:
    reports = []
    for path in args.reports:
        try:
            reports.append(jio.load_report(path))
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
    if not reports:
        print("error: no usable report files", file=sys.stderr)
        return EXIT_NO_REPORTS
    out = Path(args.out)
    try:
        _write_tables(out, reports)
    except OSError as exc:
        return _cannot_write(exc)
    print(f"wrote tables for {len(reports)} runs to {out}")
    return EXIT_OK


def _blocked_out(out: Path) -> str | None:
    """Why an output directory cannot be made: its nearest existing ancestor is no directory."""
    existing = next((path for path in (out, *out.parents) if path.exists()), None)
    return None if existing is None or existing.is_dir() else f"{existing} is not a directory"


def _cannot_write(why: OSError | str) -> int:
    print(f"error: cannot write output: {why}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _write_tables(out: Path, reports: list[dict]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for table, column, dotted, null in jio.REPORT_GROUP_KEYS:
        _write_group_table(out / table, reports, column, dotted, null)
    with open(out / "kurtosis_scatter.csv", "w") as fh:
        fh.write("algorithm,slot,subject,kurtosis,jpjif,kind\n")
        for rep in reports:
            algo = (rep.get("results") or {}).get("algorithm", "")
            for row in rep.get("features", []):
                fh.write(
                    f"{algo},{row['slot']},{row['subject']},"
                    f"{row['kurtosis']:.17g},{row['jpjif']:.17g},{row.get('kind') or ''}\n"
                )


def _write_group_table(
    path: Path, reports: list[dict], key_name: str, dotted: str, null: str | None
) -> None:
    groups: dict = {}
    for rep in reports:
        value = jio.report_value(rep, dotted)
        groups.setdefault(null if value is None else value, []).append(rep)
    with open(path, "w") as fh:
        fh.write(
            f"{key_name},n_runs,jsir_db_mean,acc_joint,acc_pjoint,acc_individual,"
            "acc_peer_sets_mean\n"
        )
        for key in sorted(groups, key=lambda v: (v is None, str(v))):
            reps = groups[key]
            jsirs = [r["metrics"]["jsir_db"] for r in reps]
            accs = acc_c([r["metrics"]["acc_counts"] for r in reps])
            peer = acc_k([r["metrics"]["acc_peer_sets"] for r in reps])
            fh.write(
                f"{key},{len(reps)},{float(np.mean(jsirs)):.6g},"
                f"{accs['joint']:.6g},{accs['pjoint']:.6g},{accs['individual']:.6g},"
                f"{peer:.6g}\n"
            )


if __name__ == "__main__":
    sys.exit(main())
