"""The ptlab benchmark: three workloads through the public CLI entry points.

    python3 perfbench/run.py --workload {kdv-flow,grid-eig,scan-small,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each pass over a workload's fixed job list runs in a fresh interpreter
(`worker.py`).  Passes repeat until `--seconds` have gone by and the
reported figures are medians over passes; `setup_s` also counts one
set-up-only worker before each untraced pass.  After each pass has ended,
its jobs' outputs are checked against independent references
(`checks.py`), so no reference work runs inside a timer.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json.  With `--trace 1` the run alternates untraced and traced
passes (plus one single-worker pass on scan-small) and the last line
carries the per-layer metrics.  Lines before it give the same figures
for people, with the failed and attempted job counts and an environment
block.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import trace_spans  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench_out")
# a run gives up, without a result, before this many seconds have passed
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark itself could not run (not a job failure)."""


def host_probe_ms():
    """Fixed FFT-plus-Python loop; its time tracks how fast the host runs."""
    import numpy as np
    x = np.exp(1j * np.linspace(0.0, 6.0, 512))
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        x = np.fft.ifft(np.fft.fft(x))
        acc += i % 7
    return 1e3 * (time.perf_counter() - t0)


def _git_commit():
    """Commit of the checkout, read from `.git` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    """Digest of `src/ptlab/*.py`: names the code when there is no `.git`."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ptlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _blas(show_config):
    deps = show_config(mode="dicts").get("Build Dependencies", {})
    return {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")
                if f in deps[k]}
            for k in ("blas", "lapack") if k in deps}


def environment(workload, seed):
    import numpy
    import scipy
    return {
        "ptlab_commit": _git_commit(),
        "ptlab_src_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "sweep_workers": workloads.SWEEP_WORKERS,
        "workload": workload,
        "seed": seed,
    }


def _spawn(args, deadline):
    """Run `worker.py` with `args` before `deadline`; returns (result, spawn time)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {args[1]} worker")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {args[1]} worker ran past the {RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise BenchError(f"a {args[1]} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def run_pass(workload, seed, out_dir, deadline, traced=False, max_workers=None):
    """One worker process over the job list; returns its result dict."""
    args = ["--workload", workload, "--seed", str(seed), "--out", out_dir]
    if traced:
        args.append("--trace")
    if max_workers is not None:
        args += ["--max-workers", str(max_workers)]
    result, t_spawn = _spawn(args, deadline)
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def setup_sample(workload, seed, out_dir, deadline):
    """Set-up time of one worker that stops where its first job would start."""
    result, t_spawn = _spawn(["--workload", workload, "--seed", str(seed),
                              "--out", out_dir, "--setup-only"], deadline)
    shutil.rmtree(out_dir)
    return result["t_first"] - t_spawn


def run_workload(workload, seed, seconds, trace, refs, deadline):
    """Passes over one workload for `seconds`; returns (passes, probes, setups).

    Each pass is preceded by one set-up-only worker, so `setups` holds
    twice as many set-up samples as there are untraced passes.
    """
    out_root = os.path.join(OUT, f"{workload}-s{seed}-{os.getpid()}")
    jobs = workloads.jobs(workload, seed)
    required = ["plain"]
    if trace:
        required = ["plain", "traced"] + (["serial"] if workload == "scan-small" else [])
    passes, probes, costs, setups = [], [], [], []
    t_start = time.monotonic()
    try:
        # a pass starts only when a typical pass still ends within `seconds`
        while required or (time.monotonic() - t_start
                           + statistics.median(costs) <= seconds):
            t_pass = time.monotonic()
            if required:
                kind = required.pop(0)
            else:
                kind = "traced" if trace and passes[-1]["kind"] == "plain" else "plain"
            out_dir = os.path.join(out_root, f"pass{len(passes)}")
            if kind == "plain":
                setups.append(setup_sample(workload, seed, out_dir, deadline))
            probes.append(host_probe_ms())
            res = run_pass(workload, seed, out_dir, deadline, traced=kind == "traced",
                           max_workers=1 if kind == "serial" else None)
            probes.append(host_probe_ms())
            res["kind"] = kind
            res["units"], res["unexpected"] = checks.check_pass(
                workload, jobs, res["outcomes"], out_dir, refs)
            if kind == "plain":
                setups.append(res["setup_s"])
            if kind == "traced":
                os.replace(os.path.join(out_dir, "spans.json"),
                           os.path.join(OUT, f"spans-{workload}.json"))
            shutil.rmtree(out_dir)
            passes.append(res)
            costs.append(time.monotonic() - t_pass)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    return passes, probes, setups


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def _figures(passes):
    """Accuracy figures: the worst value over every unit of every pass."""
    out = {}
    for p in passes:
        for u in p["units"]:
            for k, v in u.figures.items():
                out[k] = max(out.get(k, v), v)
    return out


def per_layer(passes, probes):
    traced = [p for p in passes if p["kind"] == "traced"]
    plain = [p for p in passes if p["kind"] == "plain"]
    serial = [p for p in passes if p["kind"] == "serial"]
    layers = {k: statistics.median(p["layers"][k] for p in traced)
              for k in traced[0]["layers"]}
    for k in trace_spans.EXACT & set(layers):
        values = {p["layers"][k] for p in traced}
        if len(values) > 1:
            print(f"warning: count {k} differs between traced passes: "
                  f"{sorted(values)}", file=sys.stderr)
    sweep_units = [u for u in traced[0]["units"] if "/" in u.uid]
    plain_wall = _median(plain, "wall_s")
    layers.update({
        "cli.sweep.speedup": _median(serial, "wall_s") / plain_wall if serial else 0.0,
        "cli.sweep.cells": len(sweep_units),
        "cli.sweep.cells_failed": sum(1 for u in sweep_units if u.errored),
        "host.probe_ms": statistics.median(probes),
        "trace.overhead_frac": _median(traced, "wall_s") / plain_wall - 1.0,
    })
    figures = _figures(passes)
    for name in ACCURACY:
        layers[name] = figures.get(name, 0.0)
    return layers


ACCURACY = ("kdv.drift_rel_max", "kdv.travel_defect", "spectra.monomial_e0_err",
            "spectra.swanson_err", "spectra.metric_residual_max", "susy.level_err",
            "susy.intertwining_resid", "cms.energy_drift_max", "cms.charge_drift_A",
            "cms.lax_resid_A")


def report(workload, seed, seconds, trace, refs, layer_units, deadline):
    """Run one workload, print its human-readable block and its JSON line."""
    passes, probes, setups = run_workload(workload, seed, seconds, trace, refs,
                                          deadline)
    plain = [p for p in passes if p["kind"] == "plain"]
    samples = {name: [p[name] for p in plain] for name in END_TO_END}
    samples["setup_s"] = setups
    n_units = len(passes[0]["units"])
    attempted = sum(len(p["units"]) for p in passes)
    failed = sum(1 for p in passes for u in p["units"] if not u.ok)
    unexpected = [u for p in passes for u in p["unexpected"]]

    print("env " + json.dumps(environment(workload, seed), sort_keys=True))
    kinds = sorted({p["kind"] for p in passes})
    print(f"{workload} seed={seed}: "
          + ", ".join(f"{sum(p['kind'] == k for p in passes)} {k}" for k in kinds)
          + f" passes, {n_units} jobs per pass")
    for name, unit in END_TO_END.items():
        vals = samples[name]
        what = "set-ups" if name == "setup_s" else "untraced passes"
        print(f"  {name:<12} {statistics.median(vals):10.4f} {unit:<5} "
              f"(median of {len(vals)} {what}; min {min(vals):.4f}, "
              f"max {max(vals):.4f})")
    print(f"  {'failed_frac':<12} {failed / attempted:10.4f} ratio "
          f"({failed} failed of {attempted} attempted)")
    last = passes[-1]["units"]
    for u in last:
        if not u.ok:
            tag = "unexpected" if u in passes[-1]["unexpected"] else "known wrong"
            print(f"    {tag}: {u.uid}: {'; '.join(u.details)}")
    print(f"  host.probe_ms {statistics.median(probes):.2f} ms "
          f"(min {min(probes):.2f}, max {max(probes):.2f} over {len(probes)} probes)")

    if trace:
        layers = per_layer(passes, probes)
        if set(layers) != set(layer_units):
            raise BenchError("per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(layers) ^ set(layer_units))}")
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()}
        for k, m in metrics.items():
            print(f"  {k:<28} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (("src", "ptlab", "cli.py"), ("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, *need)):
            print(f"benchmark: {os.path.join(*need)} not found under {ROOT}; "
                  "run from a ptlab checkout", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    t_budget = time.monotonic()
    try:
        refs = checks.References(ROOT, need_cubic=any(n != "kdv-flow" for n in names))
        for name in names:
            report(name, args.seed, seconds, bool(args.trace), refs, layer_units,
                   deadline=t_budget + RUN_LIMIT_S)
            t_budget = time.monotonic()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
