"""One pass over a workload's job list, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --out DIR
                                [--trace] [--max-workers N] [--setup-only]

Imports ptlab from the checkout's `src/`, builds the job list, runs every
job through `ptlab.cli.run` or `ptlab.cli.run_sweep` and prints one JSON
line: the monotonic time of the first job (the parent subtracts its own
spawn time to get the set-up time), wall and CPU time of the pass, peak
RSS, and each job's outcome.  Outputs are left under DIR for the parent
to check; nothing is checked here, so no reference work runs in this
process.  A traced pass also writes its spans to DIR/spans.json.  With
`--setup-only` the process stops where the first job would start, which
gives the parent one more set-up sample at a fraction of a pass's cost.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ptlab.cli  # noqa: E402  (numpy and scipy load here: part of set-up)
from ptlab.errors import PTLabError  # noqa: E402

import workloads  # noqa: E402


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_job(job, out_dir, max_workers):
    """Run one job; return its outcome without judging the outputs."""
    job_dir = os.path.join(out_dir, job["id"])
    try:
        if job["kind"] == "run":
            code, _ = ptlab.cli.run(job["subcommand"],
                                    dict(job["params"], output_dir=job_dir))
        else:
            code, _ = ptlab.cli.run_sweep(job["config_path"], output_dir=job_dir,
                                          max_workers=max_workers)
    except PTLabError as exc:
        return {"status": "error", "error": type(exc).__name__, "message": str(exc)}
    except Exception as exc:  # an unexpected exception is a job failure
        return {"status": "crash", "error": type(exc).__name__, "message": str(exc)}
    return {"status": "ok", "code": code}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--max-workers", type=int, default=workloads.SWEEP_WORKERS)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    jobs = workloads.jobs(args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for job in jobs:
        if job["kind"] == "sweep":
            job["config_path"] = os.path.join(args.out, job["id"] + ".cfg")
            with open(job["config_path"], "w", encoding="ascii") as fh:
                fh.write(job["config"])
    tracer = None
    if args.trace:
        import trace_spans
        tracer = trace_spans.Tracer()
        tracer.install()

    outcomes = []
    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return 0
    cpu0 = _cpu_s()
    for job in jobs:
        if tracer is None:
            outcomes.append(run_job(job, args.out, args.max_workers))
        else:
            with tracer.job(job["id"]):
                outcomes.append(run_job(job, args.out, args.max_workers))
    t_last = time.monotonic()
    cpu1 = _cpu_s()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"t_first": t_first, "wall_s": t_last - t_first,
              "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_kib / 1024.0,
              "outcomes": dict(zip((j["id"] for j in jobs), outcomes))}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = trace_spans.summarize(tracer.spans, t_last - t_first)
        result["layers"]["kdv.rhs_fring_us"] = trace_spans.rhs_fring_us()
        trace_spans.write_spans(tracer.spans, os.path.join(args.out, "spans.json"),
                                workload=args.workload, seed=args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
