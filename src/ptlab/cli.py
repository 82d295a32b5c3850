"""Config-driven experiment front end.

Subcommands `spectra`, `susy`, `cms` and `kdv` run one engine each and
write CSV/JSON artifacts plus a manifest with checksums; `sweep` runs a
Cartesian product of parameter grids from a flat key=value config in a
bounded worker pool.

Exit codes: 0 success, 2 config error, 3 engine error, 4 partial sweep
failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from . import cms, kdv, rootsys, spectra, susy
from .errors import BlowUpError, BranchError, ConfigurationError, PTLabError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENGINE = 3
EXIT_PARTIAL = 4

_FMT = "%.17e"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# per-subcommand schema: key -> (parser, default); default None means required
def _bool(s):
    if isinstance(s, bool):
        return s
    if str(s).lower() in ("1", "true", "yes"):
        return True
    if str(s).lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _choice(*opts):
    def parse(s):
        if s not in opts:
            raise ValueError(f"must be one of {opts}, got {s!r}")
        return s
    return parse


SCHEMAS = {
    "spectra": {
        "model": (_choice("monomial", "reggeon", "swanson"), None),
        "N": (int, 2),
        "g": (float, 1.0),
        "half_width": (float, 8.0),
        "n_grid": (int, 1200),
        "delta": (float, 1.0),
        "gtilde": (float, 0.0),
        "dim": (int, 80),
        "k": (int, 10),
        "tol": (float, 1e-6),
        "metric": (_bool, False),
    },
    "susy": {
        "profile": (_choice("gaussian", "gaussian-complex", "sech"), "gaussian"),
        "alpha": (float, 0.5),
        "window": (str, "-8:8"),
        "n": (int, 800),
        "E_m": (float, 0.0),
        "k": (int, 10),
    },
    "cms": {
        "family": (_choice("A", "B", "C", "D", "G2"), None),
        "rank": (int, None),
        "potential": (_choice("rational", "trigonometric", "hyperbolic"), "rational"),
        "g": (float, 1.0),
        "gtilde": (float, 0.5),
        "g_long": (float, float("nan")),
        "gtilde_long": (float, float("nan")),
        "dt": (float, 1e-3),
        "steps": (int, 1000),
        "record_every": (int, 10),
        "check": (_choice("none", "mu-identity", "lax"), "none"),
        "samples": (int, 100),
    },
    "kdv": {
        "model": (_choice("fring", "bender"), None),
        "epsilon": (float, 1.0),
        "n": (int, 256),
        "L_domain": (float, 40.0),
        "dt": (float, 1e-4),
        "t_end": (float, 1.0),
        "profile": (_choice("soliton", "cosine"), "soliton"),
        "c": (float, 1.0),
        "amplitude": (float, 0.5),
        "mode": (_choice("evolve", "travelling"), "evolve"),
        "snapshots": (int, 5),
    },
}

COMMON_KEYS = {"seed": (int, 0), "output_dir": (str, ".")}


def read_config_file(path):
    """Flat key=value file -> ({key: raw string}, {key: line number})."""
    values, lines = {}, {}
    with open(path, "r", encoding="ascii") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in values:
                raise ConfigurationError(f"{path}:{ln}: duplicate key {key!r}")
            values[key] = val
            lines[key] = ln
    return values, lines


def resolve_config(subcommand, raw, origin=None):
    """Validate raw string parameters against the subcommand schema.

    `origin` maps keys to "file:line" strings for line-precise messages.
    Returns (params dict, seed, output_dir).
    """
    schema = dict(SCHEMAS[subcommand])
    schema.update(COMMON_KEYS)
    origin = origin or {}

    def where(key):
        return f" ({origin[key]})" if key in origin else ""

    for key in raw:
        if key not in schema:
            raise ConfigurationError(f"unknown key {key!r} for subcommand "
                                     f"{subcommand!r}{where(key)}")
    out = {}
    for key, (parse, default) in schema.items():
        if key in raw and raw[key] is not None:
            try:
                out[key] = parse(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad value for {key!r}: {exc}{where(key)}")
        elif default is None:
            raise ConfigurationError(f"missing required key {key!r} for "
                                     f"subcommand {subcommand!r}")
        else:
            out[key] = default
    seed = out.pop("seed")
    output_dir = out.pop("output_dir")
    return out, seed, output_dir


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path, data):
    """Write bytes or text via temp file + rename."""
    mode = "wb" if isinstance(data, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_FMT % v if isinstance(v, float) else str(v)
                              for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(output_dir, subcommand, params, seed, artifacts, extra=None):
    manifest = {
        "subcommand": subcommand,
        "parameters": {k: params[k] for k in sorted(params)},
        "seed": seed,
        "artifacts": [{"path": os.path.basename(a), "sha256": _sha256(a)}
                      for a in sorted(artifacts)],
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(output_dir, "manifest.json")
    write_json(path, manifest)
    return path


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# subcommand runners (each returns list of artifact paths, plus extras)
# ---------------------------------------------------------------------------

def run_spectra(params, seed, output_dir):
    model = params["model"]
    if params["metric"] and model == "monomial":
        raise ConfigurationError("metric search applies to Fock-space models only")
    if model == "monomial":
        m = spectra.MonomialModel(N=params["N"], g=params["g"],
                                  half_width=params["half_width"],
                                  n_grid=params["n_grid"])
        rep = spectra.monomial_spectrum(m, k=params["k"], tol=params["tol"])
    else:
        def build(d):
            if model == "reggeon":
                return spectra.reggeon_single_site(params["delta"], params["g"], d)
            return spectra.swanson_model(params["delta"], params["g"],
                                         params["gtilde"], d)
        rep = spectra.fock_report(build, params["dim"], k=params["k"],
                                  tol=params["tol"])

    doc = {"model": model,
           "params": {k: params[k] for k in sorted(params)},
           "dim": params["dim"] if model != "monomial" else None,
           **rep.to_dict()}
    if params["metric"]:
        res = spectra.metric_search(build(params["dim"]))
        doc["metric"] = {"residual": res.residual,
                         "converged": res.converged,
                         "positive": res.positive,
                         "condition": res.condition,
                         "nfev": res.nfev,
                         "stop": res.stop,
                         "coefficients": list(res.coefficients)}
    path = os.path.join(output_dir, "spectrum.json")
    write_json(path, doc)
    return [path], {"classification": rep.classification.value}


_PROFILES = {
    "gaussian": lambda x, a: np.exp(-x**2 / 2.0),
    "gaussian-complex": lambda x, a: np.exp(-x**2 / 2.0 + 1j * a * x),
    "sech": lambda x, a: 1.0 / np.cosh(x),
}


def run_susy(params, seed, output_dir):
    lo, _, hi = params["window"].partition(":")
    try:
        window = (float(lo), float(hi))
    except ValueError:
        raise ConfigurationError(f"window must be 'lo:hi', got {params['window']!r}")
    f = _PROFILES[params["profile"]]
    psi = susy.GridWavefunction.from_callable(
        lambda x: f(x, params["alpha"]), window, params["n"])
    pair = susy.superpotential_from_groundstate(psi, E_m=params["E_m"])
    levels = {name: h.eigenvalues(params["k"])
              for name, h in zip(("minus", "plus"), susy.build_partner_hamiltonians(pair))}
    resid = susy.verify_intertwining(pair)
    case = susy.classify_case(pair)

    arts = []
    p1 = os.path.join(output_dir, "groundstate.csv")
    write_csv(p1, ["x", "re_psi", "im_psi"],
              [(x, v.real, v.imag) for x, v in zip(psi.x, psi.values)])
    arts.append(p1)
    p2 = os.path.join(output_dir, "partner_potentials.csv")
    write_csv(p2, ["x", "re_w", "im_w", "re_v_minus", "im_v_minus",
                   "re_v_plus", "im_v_plus"],
              [(x, w.real, w.imag, vm.real, vm.imag, vp.real, vp.imag)
               for x, w, vm, vp in zip(pair.x, pair.W, pair.V_minus, pair.V_plus)])
    arts.append(p2)
    for name, ev in levels.items():
        path = os.path.join(output_dir, f"spectrum_{name}.json")
        write_json(path, [{"re": e.real, "im": e.imag} for e in ev])
        arts.append(path)
    return arts, {"intertwining_residual": resid, "case": case.value}


def _random_cms_state(rng, system):
    """Rejection-sample a nonsingular (q, p) for the system's geometry."""
    d = system.dim
    for _ in range(1000):
        q = rng.uniform(-2.0, 2.0, size=d)
        p = rng.uniform(-1.0, 1.0, size=d)
        aq = system.root_system.roots @ q
        if system.potential.hyperplane_distance(aq).min() > 0.2:
            return q, p
    raise ConfigurationError("could not sample a nonsingular configuration")


def run_cms(params, seed, output_dir):
    couplings = cms.OrbitCouplings(
        g_short=params["g"],
        gtilde_short=params["gtilde"],
        g_long=None if np.isnan(params["g_long"]) else params["g_long"],
        gtilde_long=None if np.isnan(params["gtilde_long"]) else params["gtilde_long"])
    rs = rootsys.build_root_system(params["family"], params["rank"])
    rng = np.random.default_rng(seed)
    zero = np.zeros(rs.dim)
    system = cms.CMSSystem(root_system=rs,
                           potential=cms.PotentialKind(params["potential"]),
                           couplings=couplings, q=zero + 1.0, p=zero)
    # Lax pairs exist only for LAX_FAMILIES; `cms` refuses the others by name
    lax = rs.family in cms.LAX_FAMILIES and params["check"] != "mu-identity"
    basis = rootsys.build_cartan_weyl(rs) if lax else None

    if params["check"] != "none":
        if params["samples"] < 1:
            raise ConfigurationError(f"samples must be >= 1, got {params['samples']}")
        rows = []
        for i in range(params["samples"]):
            q, p = _random_cms_state(rng, system)
            s = system.at(q, p)
            if params["check"] == "mu-identity":
                rows.append((i, cms.verify_mu_identity(s)))
            else:
                rows.append((i, cms.lax_residual(s, basis)))
        path = os.path.join(output_dir, f"{params['check']}.csv")
        write_csv(path, ["sample", "residual"], rows)
        res = np.array([r[1] for r in rows])
        return [path], {"max_residual": float(res.max()),
                        "median_residual": float(np.median(res))}

    q, p = _random_cms_state(rng, system)
    system = system.at(q, p)
    traj = cms.integrate_trajectory(system, params["dt"], params["steps"],
                                    record_every=params["record_every"])
    d = rs.dim
    header = (["t"]
              + [f"{nm}_{i+1}_{part}" for nm in ("q", "p")
                 for i in range(d) for part in ("re", "im")]
              + ["re_H", "im_H"])
    n_charge = 3 if basis is not None else 0
    header += [f"{part}_I{k}" for k in range(2, 2 + n_charge) for part in ("re", "im")]
    rows = []
    for j, t in enumerate(traj.times):
        row = [float(t)]
        for i in range(d):
            row += _c(traj.q[j, i])
        for i in range(d):
            row += _c(traj.p[j, i])
        row += _c(traj.energy[j])
        if basis is not None:
            charges = cms.conserved_charges(
                system.at(traj.q[j], traj.p[j]), basis, 2 + n_charge - 1)
            for ck in charges[1:]:
                row += _c(ck)
        rows.append(row)
    path = os.path.join(output_dir, "trajectory.csv")
    write_csv(path, header, rows)
    return [path], {"completed": traj.completed}


def run_kdv(params, seed, output_dir):
    eps = params["epsilon"]
    if params["mode"] == "travelling":
        rep = kdv.traveling_wave(eps, params["c"], L=params["L_domain"],
                                 n=params["n"])
        arts = []
        entry = {"found": rep.exists, "reason": rep.reason,
                 "profile_file": None, "residual": None}
        if rep.exists:
            ppath = os.path.join(output_dir, "profile.csv")
            write_csv(ppath, ["x", "re_u", "im_u"],
                      [(x, u.real, u.imag)
                       for x, u in zip(rep.profile.x, rep.profile.values)])
            arts.append(ppath)
            entry["profile_file"] = os.path.basename(ppath)
            entry["residual"] = kdv.traveling_wave_defect(rep, dt=params["dt"])
        jpath = os.path.join(output_dir, "travelling.json")
        write_json(jpath, {"epsilon": eps, "c": params["c"], **entry})
        arts.append(jpath)
        return arts, {"found": rep.exists}

    if params["profile"] == "soliton":
        field = kdv.soliton(params["c"], params["L_domain"], params["n"])
    else:
        L = params["L_domain"]
        field = kdv.KdVField.from_callable(
            lambda x: params["amplitude"] * np.cos(2 * np.pi * x / L), L, params["n"])
    try:
        ev = kdv.evolve(field, params["model"], eps, params["t_end"], params["dt"],
                        n_snapshots=params["snapshots"])
    except (BranchError, BlowUpError) as exc:
        # keep what was reached; the run still fails (exit code 3)
        _write_evolution(exc.partial, output_dir)
        raise
    arts = _write_evolution(ev, output_dir)
    # M, P and E are charges of the fring flow and of KdV itself (eps = 1);
    # the bender flow at eps != 1 does not conserve them
    conserved = params["model"] == "fring" or eps == 1
    return arts, {"drift": {k: v for k, v in ev.monitor.drift().items()},
                  "conserved": conserved}


def _write_evolution(ev, output_dir):
    """Snapshot CSVs and charges.csv of a KdV evolution; returns their paths."""
    arts = []
    for j, (t, snap) in enumerate(zip(ev.times, ev.snapshots)):
        path = os.path.join(output_dir, f"snapshot_{j:03d}.csv")
        write_csv(path, ["x", "re_u", "im_u"],
                  [(x, u.real, u.imag) for x, u in zip(snap.x, snap.values)])
        arts.append(path)
    mon = ev.monitor
    cpath = os.path.join(output_dir, "charges.csv")
    write_csv(cpath, ["t", "M", "P", "re_E", "im_E"],
              [(t, m.real, p.real, e.real, e.imag)
               for t, m, p, e in zip(mon.times, mon.M, mon.P, mon.E)])
    arts.append(cpath)
    return arts


RUNNERS = {"spectra": run_spectra, "susy": run_susy, "cms": run_cms,
           "kdv": run_kdv}


def run(subcommand, raw_params, origin=None):
    """Resolve, run and write the manifest. Returns (exit_code, manifest_path)."""
    params, seed, output_dir = resolve_config(subcommand, raw_params, origin)
    os.makedirs(output_dir, exist_ok=True)
    artifacts, extra = RUNNERS[subcommand](params, seed, output_dir)
    manifest = write_manifest(output_dir, subcommand, params, seed, artifacts,
                              extra={"summary": extra})
    return EXIT_OK, manifest


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_cell(args):
    subcommand, raw, cell_dir = args
    try:
        code, manifest = run(subcommand, dict(raw, output_dir=cell_dir))
        return {"dir": os.path.basename(cell_dir), "status": "ok",
                "manifest": os.path.basename(manifest)}
    except PTLabError as exc:
        return {"dir": os.path.basename(cell_dir), "status": "error",
                "error": f"{type(exc).__name__}: {exc}"}


def run_sweep(config_path, output_dir=None, max_workers=4):
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    raw, lines = read_config_file(config_path)
    origin = {k: f"{config_path}:{ln}" for k, ln in lines.items()}
    if "subcommand" not in raw:
        raise ConfigurationError(f"{config_path}: sweep config needs a "
                                 "'subcommand' key")
    subcommand = raw.pop("subcommand")
    if subcommand not in RUNNERS:
        raise ConfigurationError(f"unknown subcommand {subcommand!r} "
                                 f"({origin.get('subcommand', config_path)})")
    if output_dir is None:
        output_dir = raw.pop("output_dir", "sweep_out")
    else:
        raw.pop("output_dir", None)

    grids = {k: v.split(",") for k, v in raw.items() if "," in v}
    if len(grids) > 3:
        raise ConfigurationError(f"at most 3 gridded keys, got {len(grids)}: "
                                 f"{sorted(grids)}")
    scalars = {k: v for k, v in raw.items() if k not in grids}
    keys = sorted(grids)
    cells = []
    for idx, combo in enumerate(itertools.product(*(grids[k] for k in keys))):
        cell = dict(scalars)
        cell.update(dict(zip(keys, combo)))
        # validate every cell before launching anything
        resolve_config(subcommand, dict(cell, output_dir="."), origin)
        tag = "_".join(f"{k}={v}" for k, v in zip(keys, combo)) or f"cell{idx}"
        cells.append((subcommand, cell, os.path.join(output_dir, tag)))

    os.makedirs(output_dir, exist_ok=True)
    results = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=max_workers) as pool:
        for res in pool.map(_sweep_cell, cells):
            results.append(res)
    n_failed = sum(1 for r in results if r["status"] != "ok")
    index = {"subcommand": subcommand,
             "gridded_keys": keys,
             "scalars": {k: scalars[k] for k in sorted(scalars)},
             "cells": results,
             "failed": n_failed}
    write_json(os.path.join(output_dir, "sweep_manifest.json"), index)
    return (EXIT_PARTIAL if n_failed else EXIT_OK), index


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="ptlab",
        description="Non-Hermitian spectra, deformed many-body flows, partner "
                    "potentials and deformed KdV evolution.")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, schema in SCHEMAS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value config file")
        for key in schema:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
        for key in COMMON_KEYS:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    sw = sub.add_parser("sweep")
    sw.add_argument("config", help="flat key=value config with gridded keys")
    sw.add_argument("--output-dir", default=None)
    sw.add_argument("--max-workers", type=int, default=4)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if args.subcommand == "sweep":
            code, index = run_sweep(args.config, output_dir=args.output_dir,
                                    max_workers=args.max_workers)
            if code != EXIT_OK:
                print(f"sweep: {index['failed']} cell(s) failed", file=sys.stderr)
            return code
        raw, origin = {}, {}
        if args.config:
            raw, lines = read_config_file(args.config)
            origin = {k: f"{args.config}:{ln}" for k, ln in lines.items()}
        keys = list(SCHEMAS[args.subcommand]) + list(COMMON_KEYS)
        for key in keys:
            val = getattr(args, key, None)
            if val is not None:
                raw[key] = val
                origin.pop(key, None)
        code, manifest = run(args.subcommand, raw, origin)
        print(manifest)
        return code
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PTLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
