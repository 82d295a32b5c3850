"""Tests of the benchmark itself (not part of the ptlab suite).

    python3 -m pytest perfbench/test_perfbench.py

The check tests run small real jobs through `ptlab.cli.run`, then corrupt
their outputs the way a wrong program would.  The count test runs two
traced passes of every workload (about two minutes on 2 cores).
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import trace_spans  # noqa: E402
import workloads  # noqa: E402
from ptlab import cli  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return checks.References(ROOT, need_cubic=True)


def _run_job(tmp_path, jid, subcommand, **params):
    job = {"id": jid, "kind": "run", "subcommand": subcommand,
           "params": {k: str(v) for k, v in params.items()}}
    cli.run(subcommand, dict(job["params"], output_dir=str(tmp_path / jid)))
    return job


def _check(workload, job, tmp_path, refs, outcome=None):
    outcome = outcome or {"status": "ok", "code": 0}
    units, unexpected = checks.check_pass(workload, [job], {job["id"]: outcome},
                                          str(tmp_path), refs)
    return units[0], unexpected


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def test_correct_outputs_pass(tmp_path, refs):
    job = _run_job(tmp_path, "n2", "spectra", model="monomial", N=2,
                   half_width=10, n_grid=400)
    unit, unexpected = _check("grid-eig", job, tmp_path, refs)
    assert unit.ok and not unexpected


def test_shifted_level_is_rejected(tmp_path, refs):
    job = _run_job(tmp_path, "sw", "spectra", model="swanson", delta=2, g=0.3,
                   gtilde=0.2, dim=40)
    assert _check("scan-small", job, tmp_path, refs)[0].ok

    def shift(doc):
        doc["eigenvalues"][2]["re"] += 1e-4
    _edit_json(tmp_path / "sw" / "spectrum.json", shift)
    unit, unexpected = _check("scan-small", job, tmp_path, refs)
    assert unit.failed == ["levels"] and unexpected == [unit]


def test_mixed_cubic_verdict_is_rejected(tmp_path, refs):
    job = _run_job(tmp_path, "spectra-monomial-N3", "spectra", model="monomial",
                   N=3, n_grid=600)
    unit, unexpected = _check("grid-eig", job, tmp_path, refs)
    # the program's own wrong verdict: a failure, but a known one
    assert unit.failed == ["verdict"] and not unexpected
    assert checks.is_known_wrong("grid-eig", unit)

    def fix(doc):
        doc["classification"] = "AllReal"
    _edit_json(tmp_path / job["id"] / "spectrum.json", fix)
    assert _check("grid-eig", job, tmp_path, refs)[0].ok

    # the same verdict on a job not listed as known wrong is unexpected
    other = dict(job, id="n3-other")
    os.rename(tmp_path / job["id"], tmp_path / other["id"])
    _edit_json(tmp_path / other["id"] / "spectrum.json",
               lambda doc: doc.update(classification="Mixed"))
    unit, unexpected = _check("grid-eig", other, tmp_path, refs)
    assert unit.failed == ["verdict"] and unexpected == [unit]


def test_drifting_charge_is_rejected(tmp_path, refs):
    job = _run_job(tmp_path, "a2", "cms", family="A", rank=2, steps=100, seed=3)
    assert _check("scan-small", job, tmp_path, refs)[0].ok

    path = tmp_path / "a2" / "trajectory.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("re_I3")
    i3 = complex(float(rows[1][col]), float(rows[1][col + 1]))
    rows[-1][col] = repr(float(rows[-1][col]) + 0.01 * abs(i3))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    unit, unexpected = _check("scan-small", job, tmp_path, refs)
    assert unit.failed == ["charge_drift"] and unexpected == [unit]

    # without I_k columns (a refusal to report charges) the cell passes
    keep = [i for i, name in enumerate(rows[0]) if "_I" not in name]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[r[i] for i in keep] for r in rows])
    assert _check("scan-small", job, tmp_path, refs)[0].ok


def test_near_collision_trajectory_is_known_wrong(tmp_path, refs):
    job = workloads.jobs("scan-small", 23)[0]          # cms-traj, 18 cells
    config = tmp_path / "cms-traj.cfg"
    config.write_text(job["config"])
    code, _ = cli.run_sweep(str(config), output_dir=str(tmp_path / job["id"]),
                            max_workers=2)
    units, unexpected = checks.check_pass("scan-small", [job],
                                          {job["id"]: {"status": "ok", "code": code}},
                                          str(tmp_path), refs)
    failed = {u.uid for u in units if not u.ok}
    # at this seed the A3 trigonometric trajectory loses its charges too
    assert "cms-traj/family=A_potential=trigonometric_rank=3" in failed
    assert len(failed) == 13 and not unexpected


@pytest.mark.parametrize("error,ok", [("CapabilityError", True),
                                      ("BranchError", True),
                                      ("SingularConfigError", False),
                                      ("ValueError", False)])
def test_refusal_is_accepted(tmp_path, refs, error, ok):
    job = {"id": "kdv-x", "kind": "run", "subcommand": "kdv", "params": {}}
    outcome = {"status": "error", "error": error, "message": "refused"}
    unit, _ = _check("kdv-flow", job, tmp_path, refs, outcome)
    assert unit.ok is ok


def test_refused_sweep_cell_is_accepted(tmp_path, refs):
    job = workloads.jobs("scan-small", 0)[1]          # cms-check, 8 cells
    _, tags = checks._sweep_cells(job["config"])
    cells = [{"dir": t, "status": "error", "error": "CapabilityError: no Lax pair"}
             for t in tags]
    os.makedirs(tmp_path / job["id"])
    with open(tmp_path / job["id"] / "sweep_manifest.json", "w") as fh:
        json.dump({"cells": cells, "failed": len(cells)}, fh)
    units, unexpected = checks.check_pass("scan-small", [job],
                                          {job["id"]: {"status": "ok", "code": 4}},
                                          str(tmp_path), refs)
    assert len(units) == 8 and all(u.ok and u.errored for u in units)
    assert not unexpected


def _traced_layers(workload, seed, out):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--out", str(out), "--trace"],
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["layers"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(tmp_path, workload):
    first = _traced_layers(workload, 7, tmp_path / "a")
    second = _traced_layers(workload, 7, tmp_path / "b")
    exact = sorted(trace_spans.EXACT & set(first))
    assert exact
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["trace.top_coverage"] >= 0.9
