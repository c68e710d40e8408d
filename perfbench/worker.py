"""Child process of the benchmark: runs jpjica CLI commands in-process.

    python3 perfbench/worker.py setup PLAN.json
    python3 perfbench/worker.py pipeline PLAN.json

PLAN.json holds the arguments (see ``run.py``); timings and exit codes
are written to the path in ``plan["result"]``.  ``jpjica.cli.main`` is
called in this process, so interpreter start and imports stay outside
every timed region.  Set-up and pipeline run in separate processes so
that the peak resident memory of the pipeline excludes set-up.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

from spans import Tracer

from jpjica import cli


def fsync_tree(directory: str) -> None:
    """Flush every file of a directory, so write-back lands outside timing."""
    for name in sorted(os.listdir(directory)):
        fd = os.open(os.path.join(directory, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _call(tracer: Tracer | None, span: str, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        with tracer.span(span):
            return cli.main(argv)


def run_setup(plan: dict) -> dict:
    tracer = None
    if plan["spans"]:
        tracer = Tracer()
        tracer.install()
    out = plan["out"]
    times, codes = [], []
    for _ in range(plan["repeats"]):
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        rc = _call(tracer, "cli.simulate", plan["sim_args"] + ["--out", out])
        times.append(time.perf_counter() - t0)
        codes.append(rc)
        if rc == 0:
            fsync_tree(out)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(plan["spans"])
    return {"setup_s": times, "codes": codes}


def _digest(results: str) -> str | None:
    h = hashlib.sha256()
    try:
        for name in ("report.json", "labels.csv", "features.csv"):
            with open(os.path.join(results, name), "rb") as fh:
                h.update(fh.read())
    except OSError:
        return None
    return h.hexdigest()


def _pass(plan: dict, name: str, tracer: Tracer | None = None) -> dict:
    """One decompose + evaluate pass into a fresh results directory."""
    out = os.path.join(plan["work"], name)
    dataset = plan["dataset"]
    gc.collect()
    t0 = time.perf_counter()
    rc_d = _call(tracer, "cli.decompose", ["decompose", dataset, "--out", out] + plan["dec_args"])
    t1 = time.perf_counter()
    rc_e = _call(tracer, "cli.evaluate", ["evaluate", out, dataset]) if rc_d == 0 else -1
    t2 = time.perf_counter()
    if os.path.isdir(out):
        fsync_tree(out)
    return {
        "name": name,
        "decompose_s": t1 - t0,
        "pipeline_s": t2 - t0,
        "codes": [rc_d, rc_e],
        "digest": _digest(out),
    }


def run_pipeline(plan: dict) -> dict:
    passes = [_pass(plan, "warmup")]
    timed = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < plan["seconds"]:
        prev = passes[-1]["name"]
        timed.append(_pass(plan, f"rep{len(timed)}"))
        passes.append(timed[-1])
        shutil.rmtree(os.path.join(plan["work"], prev), ignore_errors=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    traced = None
    if plan["spans"]:
        tracer = Tracer()
        tracer.install()
        traced = _pass(plan, "traced", tracer)
        tracer.uninstall()
        tracer.dump(plan["spans"])
        passes.append(traced)
        shutil.rmtree(os.path.join(plan["work"], passes[-2]["name"]), ignore_errors=True)
    return {
        "timed": timed,
        "traced": traced,
        "last_results": os.path.join(plan["work"], passes[-1]["name"]),
        "digests": [p["digest"] for p in passes],
        "codes": [c for p in passes for c in p["codes"]],
        "peak_rss_kb": peak_kb,
    }


def main() -> int:
    mode, plan_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    result = run_setup(plan) if mode == "setup" else run_pipeline(plan)
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
