"""Checks of every job's outputs against independent references.

The checks read only the artifacts a job wrote (CSV, JSON, manifests),
never ptlab objects, and they compare against references that do not
come from the code under test: closed-form levels, and the oracles in
`tests/oracles.py` (ODE shooting for the cubic ground energy, a 2x2
symplectic eigenproblem for the bilinear model).  All of this runs in
the benchmark's parent process, outside every timer.

A unit is one `cli.run` job or one sweep cell.  It succeeds when it
passes every check or when the program refused it (`REFUSALS`).  Units
that fail only in the ways listed in `KNOWN_WRONG` are the seed's known
wrong outputs: they count as failed, but they do not make the run
incorrect; any other failure does.
"""

from __future__ import annotations

import csv
import fnmatch
import itertools
import json
import os

import numpy as np

REFUSALS = ("CapabilityError", "BranchError", "ConfigurationError")

# "<job>[/<cell>]:<check>" patterns of the wrong outputs the program gives
# at the parent commit.  They stay failures; a later refusal or a fixed
# output turns them into successes.
KNOWN_WRONG = {
    "kdv-flow": (),
    "grid-eig": (
        "spectra-monomial-N3:verdict",
    ),
    "scan-small": (
        "cms-traj/family=B_*:charge_drift",
        "cms-traj/family=C_*:charge_drift",
        # fixed-step RK4 loses accuracy where a trajectory passes close to a
        # singular hyperplane of the trigonometric potential, and the
        # program reports it as completed (7 of seeds 0-90, e.g. 23)
        "cms-traj/family=A_potential=trigonometric_*:charge_drift",
        "cms-check/check=lax_family=B:residual",
        "cms-check/check=lax_family=C:residual",
        "cms-check/check=lax_family=D:residual",
        "monomial/N=3_*:verdict",
        # half_width=6 truncates levels 7-8 by up to 1.7e-5; the program
        # estimates only the grid error, so it does not flag them
        "monomial/N=2_n_grid=250:levels",
    ),
}

TOL = {
    "monomial_N2_level": 1e-6,      # |E_n - (2n + 1)|
    "monomial_N3_e0": 1e-5,         # |E_0 - oracle|
    "susy_level": 1e-2,             # |E_n - 2n| for the H_- levels
    "susy_intertwining": 1e-4,
    "swanson_level": 1e-6,          # against oracles.bilinear_levels
    "kdv_drift_rel": 1e-6,
    "kdv_travel_defect": 1e-6,
    "cms_mu_identity": 1e-10,
    "cms_lax": 1e-8,
    "cms_charge_drift_rel": 1e-3,
}

SUSY_CASE = {"gaussian": "doublet", "sech": "doublet",
             "gaussian-complex": "quartet"}


class References:
    """Reference values, computed once per invocation."""

    def __init__(self, root, need_cubic):
        import sys
        sys.path.insert(0, os.path.join(root, "tests"))
        import oracles
        self.bilinear_levels = oracles.bilinear_levels
        self.cubic_e0 = complex(oracles.cubic_ground_energy()) if need_cubic else None


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    return {name: data[:, i] for i, name in enumerate(header)}


def _levels(entries):
    return np.array([e["re"] + 1j * e["im"] for e in entries])


def _unflagged(doc, ev):
    """Indices of the levels the program did not flag as unconverged.

    A flagged level is labelled as not valid, so it is not held to the
    reference.
    """
    flagged = set(doc["diagnostics"].get("flagged", ()))
    return np.array([i for i in range(ev.size) if i not in flagged], dtype=int)


class Unit:
    """Outcome of one job or sweep cell: failed check names and figures."""

    def __init__(self, uid):
        self.uid = uid
        self.failed = []
        self.details = []
        self.figures = {}
        self.errored = False        # the program raised instead of writing output

    def check(self, name, ok, detail=""):
        if not ok:
            self.failed.append(name)
            self.details.append(f"{name}: {detail}")

    def figure(self, name, value):
        value = float(value)
        self.figures[name] = max(self.figures.get(name, value), value)

    @property
    def ok(self):
        return not self.failed


# ---------------------------------------------------------------------------
# per-subcommand output checks (the job or cell ran and wrote a manifest)
# ---------------------------------------------------------------------------

def _check_kdv(u, d, params, summary):
    if params["mode"] == "travelling":
        doc = _load_json(os.path.join(d, "travelling.json"))
        u.check("found", doc["found"] is True, "no travelling profile")
        if doc["found"]:
            u.figure("kdv.travel_defect", doc["residual"])
            u.check("travel_defect", doc["residual"] < TOL["kdv_travel_defect"],
                    f"defect {doc['residual']:.3e}")
        return
    c = _load_csv(os.path.join(d, "charges.csv"))
    E = c["re_E"] + 1j * c["im_E"]
    # normalised as in acceptance criterion 9: mass may start at zero
    rel = max(np.abs(c["M"] - c["M"][0]).max() / max(1.0, abs(c["M"][0])),
              np.abs(c["P"] - c["P"][0]).max() / abs(c["P"][0]),
              np.abs(E - E[0]).max() / abs(E[0]))
    u.figure("kdv.drift_rel_max", rel)
    u.check("drift", rel < TOL["kdv_drift_rel"], f"relative drift {rel:.3e}")


def _check_spectra(u, d, params, summary, refs):
    doc = _load_json(os.path.join(d, "spectrum.json"))
    ev = _levels(doc["eigenvalues"])
    u.check("verdict", doc["classification"] == "AllReal",
            f"classification {doc['classification']}")
    model = params["model"]
    idx = _unflagged(doc, ev)
    if model == "monomial":
        if params["N"] == 2 and params["g"] == 1.0:
            err = np.abs(ev[idx] - (2 * idx + 1)).max(initial=0.0)
            u.check("levels", err < TOL["monomial_N2_level"], f"level error {err:.3e}")
        elif params["N"] == 3 and params["g"] == 1.0 and 0 in idx:
            err = abs(ev[0] - refs.cubic_e0)
            u.figure("spectra.monomial_e0_err", err)
            u.check("e0", err < TOL["monomial_N3_e0"], f"E0 error {err:.3e}")
    elif model == "swanson":
        ref = refs.bilinear_levels(params["delta"], params["g"], params["gtilde"],
                                   ev.size)
        err = np.abs(ev[idx] - ref[idx]).max(initial=0.0)
        u.figure("spectra.swanson_err", err)
        u.check("levels", err < TOL["swanson_level"], f"level error {err:.3e}")
    if params["metric"]:
        m = doc["metric"]
        u.figure("spectra.metric_residual_max", m["residual"])
        u.check("metric", m["converged"] and m["positive"],
                f"converged={m['converged']} positive={m['positive']}")


def _check_susy(u, d, params, summary):
    resid = summary["intertwining_residual"]
    u.figure("susy.intertwining_resid", resid)
    u.check("intertwining", resid < TOL["susy_intertwining"], f"residual {resid:.3e}")
    want = SUSY_CASE[params["profile"]]
    u.check("case", summary["case"] == want, f"case {summary['case']}, want {want}")
    if params["profile"] in ("gaussian", "gaussian-complex"):
        ev = _levels(_load_json(os.path.join(d, "spectrum_minus.json")))
        err = np.abs(ev - 2 * np.arange(ev.size)).max()
        u.figure("susy.level_err", err)
        u.check("levels", err < TOL["susy_level"], f"level error {err:.3e}")


def _check_cms(u, d, params):
    family = params["family"]
    if params["check"] != "none":
        res = _load_csv(os.path.join(d, f"{params['check']}.csv"))["residual"]
        tol = TOL["cms_lax" if params["check"] == "lax" else "cms_mu_identity"]
        if params["check"] == "lax" and family == "A":
            u.figure("cms.lax_resid_A", res.max())
        u.check("residual", res.max() < tol, f"max residual {res.max():.3e}")
        return
    c = _load_csv(os.path.join(d, "trajectory.csv"))
    H = c["re_H"] + 1j * c["im_H"]
    u.figure("cms.energy_drift_max", np.abs(H - H[0]).max() / abs(H[0]))
    k = 2
    while f"re_I{k}" in c:            # absent columns are a refusal, not a failure
        ik = c[f"re_I{k}"] + 1j * c[f"im_I{k}"]
        drift = np.abs(ik - ik[0]).max()
        # a charge that starts at zero has no relative scale: any drift fails
        rel = drift / abs(ik[0]) if ik[0] != 0 else (np.inf if drift else 0.0)
        if family == "A":
            u.figure("cms.charge_drift_A", rel)
        u.check("charge_drift", rel <= TOL["cms_charge_drift_rel"],
                f"I{k} relative drift {rel:.3e}")
        k += 1


def _check_output(u, subcommand, d, refs):
    man = _load_json(os.path.join(d, "manifest.json"))
    params, summary = man["parameters"], man["summary"]
    if subcommand == "kdv":
        _check_kdv(u, d, params, summary)
    elif subcommand == "spectra":
        _check_spectra(u, d, params, summary, refs)
    elif subcommand == "susy":
        _check_susy(u, d, params, summary)
    else:
        _check_cms(u, d, params)


def _check_refusal(u, error, message):
    u.errored = True
    u.check("exception", error in REFUSALS, f"{error}: {message}")


# ---------------------------------------------------------------------------
# jobs and passes
# ---------------------------------------------------------------------------

def _sweep_cells(config):
    """(subcommand, cell tags) of a sweep config, as `cli.run_sweep` names them."""
    raw = dict(line.split("=", 1) for line in config.splitlines() if line)
    sub = raw.pop("subcommand")
    grids = {k: v.split(",") for k, v in raw.items() if "," in v}
    keys = sorted(grids)
    return sub, ["_".join(f"{k}={v}" for k, v in zip(keys, combo))
                 for combo in itertools.product(*(grids[k] for k in keys))]


def check_job(job, outcome, out_dir, refs):
    """Check one job's outputs; returns a list of Units."""
    job_dir = os.path.join(out_dir, job["id"])
    if job["kind"] == "run":
        u = Unit(job["id"])
        if outcome["status"] == "ok":
            _check_output(u, job["subcommand"], job_dir, refs)
        else:
            _check_refusal(u, outcome["error"], outcome["message"])
        return [u]

    sub, tags = _sweep_cells(job["config"])
    units = [Unit(f"{job['id']}/{tag}") for tag in tags]
    if outcome["status"] != "ok":
        for u in units:
            _check_refusal(u, outcome["error"], outcome["message"])
        return units
    index = _load_json(os.path.join(job_dir, "sweep_manifest.json"))
    cells = {c["dir"]: c for c in index["cells"]}
    for u, tag in zip(units, tags):
        cell = cells.get(tag)
        if cell is None:
            u.check("missing", False, "cell absent from the sweep manifest")
        elif cell["status"] == "ok":
            _check_output(u, sub, os.path.join(job_dir, tag), refs)
        else:
            error, _, message = cell["error"].partition(": ")
            _check_refusal(u, error, message)
    return units


def is_known_wrong(workload, unit):
    """True when every failed check of the unit is a listed known wrong output."""
    return all(any(fnmatch.fnmatchcase(f"{unit.uid}:{name}", pat)
                   for pat in KNOWN_WRONG[workload])
               for name in unit.failed)


def check_pass(workload, jobs, outcomes, out_dir, refs):
    """Check every unit of one pass.

    Returns (units, unexpected) where `unexpected` lists the failed units
    that are not known wrong outputs.
    """
    units = []
    for job in jobs:
        units += check_job(job, outcomes[job["id"]], out_dir, refs)
    unexpected = [u for u in units if not u.ok and not is_known_wrong(workload, u)]
    return units, unexpected
