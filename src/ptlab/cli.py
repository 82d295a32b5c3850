"""Config-driven experiment front end.

Subcommands `spectra`, `susy`, `cms` and `kdv` run one engine each and
write CSV/JSON artifacts plus a manifest with checksums; `sweep` runs a
Cartesian product of parameter grids from a flat key=value config, one
cell after another.

Exit codes: 0 success, 2 config error, 3 engine error, 4 partial sweep
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from . import _blas, cms, kdv, rootsys, spectra, susy
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
    try:
        with open(path, "r", encoding="ascii") as fh:
            file_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    values, lines = {}, {}
    for ln, raw in enumerate(file_lines, start=1):
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


def _window(text):
    """The (lo, hi) of a susy window "lo:hi"."""
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise ConfigurationError(f"window must be 'lo:hi', got {text!r}")


def _check_spectra(params):
    if params["metric"] and params["model"] == "monomial":
        raise ConfigurationError("metric search applies to Fock-space models only")


def _check_susy(params):
    _window(params["window"])


def _check_cms(params):
    rs = rootsys.build_root_system(params["family"], params["rank"])
    long_set = not np.isnan([params["g_long"], params["gtilde_long"]]).all()
    if long_set and not rs.long.any():
        raise ConfigurationError(f"{rs.family}_{rs.rank} has no long roots: "
                                 "g_long and gtilde_long do not apply")
    if params["check"] != "none" and params["samples"] < 1:
        raise ConfigurationError(f"samples must be >= 1, got {params['samples']}")


# the refusals a subcommand's params decide, made before any engine runs
CHECKS = {"spectra": _check_spectra, "susy": _check_susy, "cms": _check_cms}


def resolve_config(subcommand, raw, origin=None):
    """Validate raw string parameters against the subcommand schema, then
    against its CHECKS.

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
    if subcommand in CHECKS:
        CHECKS[subcommand](out)
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


def write_csv(path, header, columns):
    """One line of header, then a row per entry of the equal-length columns:
    integer columns as %d, the others, real, as _FMT."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%d" if c.dtype.kind in "iu" else _FMT for c in columns)
    rows = [fmt % r + "\n" for r in zip(*(c.tolist() for c in columns))]
    _atomic_write(path, "".join([",".join(header) + "\n", *rows]))


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


# ---------------------------------------------------------------------------
# subcommand runners (each returns list of artifact paths, plus extras)
# ---------------------------------------------------------------------------

def run_spectra(params, seed, output_dir):
    model = params["model"]
    if model == "monomial":
        m = spectra.MonomialModel(N=params["N"], g=params["g"],
                                  half_width=params["half_width"],
                                  n_grid=params["n_grid"])
        rep = spectra.monomial_spectrum(m, k=params["k"])
    else:
        def build(d):
            if model == "reggeon":
                return spectra.reggeon_single_site(params["delta"], params["g"], d)
            return spectra.swanson_model(params["delta"], params["g"],
                                         params["gtilde"], d)
        rep = spectra.fock_report(build, params["dim"], k=params["k"])

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
    window = _window(params["window"])
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
    write_csv(p1, ["x", "re_psi", "im_psi"], [psi.x, psi.values.real, psi.values.imag])
    arts.append(p1)
    p2 = os.path.join(output_dir, "partner_potentials.csv")
    write_csv(p2, ["x", "re_w", "im_w", "re_v_minus", "im_v_minus",
                   "re_v_plus", "im_v_plus"],
              [pair.x, *(part for z in (pair.W, pair.V_minus, pair.V_plus)
                         for part in (z.real, z.imag))])
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

    if params["check"] != "none":
        res = []
        for _ in range(params["samples"]):
            q, p = _random_cms_state(rng, system)
            s = system.at(q, p)
            if params["check"] == "mu-identity":
                res.append(cms.verify_mu_identity(s))
            else:
                res.append(cms.lax_residual(s))
        res = np.array(res, dtype=float)
        path = os.path.join(output_dir, f"{params['check']}.csv")
        write_csv(path, ["sample", "residual"], [np.arange(res.size), res])
        return [path], {"max_residual": float(res.max()),
                        "median_residual": float(np.median(res))}

    q, p = _random_cms_state(rng, system)
    system = system.at(q, p)
    traj = cms.integrate_trajectory(system, params["dt"], params["steps"],
                                    record_every=params["record_every"])
    d = rs.dim
    # Lax pairs exist only for LAX_FAMILIES; `cms` refuses the others by name
    lax = rs.family in cms.LAX_FAMILIES
    header = (["t"]
              + [f"{nm}_{i+1}_{part}" for nm in ("q", "p")
                 for i in range(d) for part in ("re", "im")]
              + ["re_H", "im_H"])
    n_charge = 3 if lax else 0
    header += [f"{part}_I{k}" for k in range(2, 2 + n_charge) for part in ("re", "im")]
    # complex columns: q_i, p_i, H and the charges I_k
    cplx = [*traj.q.T, *traj.p.T, traj.energy]
    if lax:
        charges = [cms.conserved_charges(system.at(q, p), 2 + n_charge - 1)[1:]
                   for q, p in zip(traj.q, traj.p)]
        cplx += list(np.array(charges, dtype=complex).reshape(-1, n_charge).T)
    path = os.path.join(output_dir, "trajectory.csv")
    write_csv(path, header, [traj.times, *(part for z in cplx for part in (z.real, z.imag))])
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
            u = rep.profile.values
            write_csv(ppath, ["x", "re_u", "im_u"], [rep.profile.x, u.real, u.imag])
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
                  [snap.x, snap.values.real, snap.values.imag])
        arts.append(path)
    mon = ev.monitor
    cpath = os.path.join(output_dir, "charges.csv")
    M, P, E = (np.array(v, dtype=complex) for v in (mon.M, mon.P, mon.E))
    write_csv(cpath, ["t", "M", "P", "re_E", "im_E"],
              [mon.times, M.real, P.real, E.real, E.imag])
    arts.append(cpath)
    return arts


RUNNERS = {"spectra": run_spectra, "susy": run_susy, "cms": run_cms,
           "kdv": run_kdv}


def run(subcommand, raw_params, origin=None):
    """Resolve, run and write the manifest. Returns (exit_code, manifest_path).

    The engines run with both OpenBLAS copies at one thread (`_blas`)."""
    params, seed, output_dir = resolve_config(subcommand, raw_params, origin)
    with _blas.one_thread():
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


def run_sweep(config_path, output_dir=None, max_workers=1):
    """Run every cell of a sweep config; returns (exit_code, index).

    Keys whose value holds commas are gridded (at most 3); each cell is one
    combination of their values and runs through `run` into its own
    directory, tagged `key=value_...` in sorted key order.  Before any cell
    runs, every cell passes `resolve_config` (its schema and the
    subcommand's CHECKS), and a gridded key that repeats a value is
    refused, since two cells would share a directory; either refusal
    raises ConfigurationError and writes nothing.  The cells then run one
    after another in the calling thread, in the order of `index["cells"]`.
    A cell whose engine fails, or refuses what only it can check, is
    recorded as an error and the rest still run; the exit code is
    EXIT_PARTIAL if any failed, else EXIT_OK.  `sweep_manifest.json` in
    `output_dir` holds the index.

    `max_workers` has no effect.  It remains only because
    `perfbench/worker.py` passes it; the benchmark-only change that stops
    passing it deletes it.
    """
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

    grids = {k: [x.strip() for x in v.split(",")] for k, v in raw.items() if "," in v}
    if len(grids) > 3:
        raise ConfigurationError(f"at most 3 gridded keys, got {len(grids)}: "
                                 f"{sorted(grids)}")
    for key, vals in grids.items():
        for i, v in enumerate(vals):
            if v in vals[:i]:
                raise ConfigurationError(f"gridded key {key!r} repeats value {v!r}, "
                                         f"so two cells would share a directory "
                                         f"({origin[key]})")
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
    # the cells' own entries nest inside this one, so the counts are set
    # and restored once per sweep, never between cells
    with _blas.one_thread():
        results = [_sweep_cell(cell) for cell in cells]
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
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if args.subcommand == "sweep":
            code, index = run_sweep(args.config, output_dir=args.output_dir)
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
