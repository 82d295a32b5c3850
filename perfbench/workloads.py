"""Fixed job lists of the three benchmark workloads.

A job is either one `ptlab.cli.run` call (kind "run") or one
`ptlab.cli.run_sweep` call (kind "sweep").  The lists are fixed; the
seed reaches the program only as the `seed` key of each config.  The
reasons for each choice are in README.md.
"""

from __future__ import annotations

SWEEP_WORKERS = 2

_KDV = [
    # integrating-factor RK4, fring at eps = 1
    ("kdv-fring-soliton", dict(model="fring", epsilon=1, n=256, dt=1e-4,
                               t_end=0.25)),
    # the other right-hand side at a larger grid
    ("kdv-bender-soliton", dict(model="bender", epsilon=1, n=512, dt=5e-5,
                                t_end=0.05)),
    # plain RK4 in the configuration of acceptance criterion 9, shortened
    ("kdv-fring3-cosine", dict(model="fring", epsilon=3, profile="cosine",
                               amplitude=0.8, n=512, dt=1e-5, t_end=0.03)),
    ("kdv-travelling", dict(model="fring", epsilon=1, mode="travelling", c=1,
                            n=256, dt=1e-3)),
]

_GRID = [
    ("spectra-monomial-N3", "spectra", dict(model="monomial", N=3, n_grid=600)),
    ("spectra-monomial-N4", "spectra", dict(model="monomial", N=4, half_width=3,
                                            n_grid=1200)),
    ("spectra-monomial-N2", "spectra", dict(model="monomial", N=2, half_width=10,
                                            n_grid=800)),
    ("susy-gaussian-complex", "susy", dict(profile="gaussian-complex", n=800)),
    ("susy-gaussian", "susy", dict(profile="gaussian", n=1600)),
    ("susy-sech", "susy", dict(profile="sech", n=800)),
]

# sweep configs in the flat key=value format of `ptlab sweep`; a value
# with commas is a gridded key
_SCAN = [
    ("cms-traj", dict(subcommand="cms", family="A,B,C", rank="2,3",
                      potential="rational,trigonometric,hyperbolic", steps=500)),
    ("cms-check", dict(subcommand="cms", family="A,B,C,D", rank=3,
                       check="lax,mu-identity", samples=100)),
    ("fock", dict(subcommand="spectra", model="reggeon,swanson",
                  dim="40,80,160,240", delta=2, g=0.3, gtilde=0.2)),
    ("metric", dict(subcommand="spectra", model="swanson", delta=2, g="0.5,0.3",
                    gtilde=0.2, dim="24,40", metric="true")),
    ("monomial", dict(subcommand="spectra", model="monomial", N="2,3,4",
                      n_grid="150,250", half_width=6)),
]

WORKLOADS = ("kdv-flow", "grid-eig", "scan-small")


def jobs(workload, seed):
    """The workload's job list; each job is a dict with `id` and `kind`.

    A "run" job carries `subcommand` and `params` (raw config values as
    strings, like the CLI passes them); a "sweep" job carries the text of
    its config file.
    """
    def raw(params):
        return {k: str(v) for k, v in dict(params, seed=seed).items()}

    if workload == "kdv-flow":
        return [{"id": jid, "kind": "run", "subcommand": "kdv", "params": raw(p)}
                for jid, p in _KDV]
    if workload == "grid-eig":
        return [{"id": jid, "kind": "run", "subcommand": sub, "params": raw(p)}
                for jid, sub, p in _GRID]
    if workload == "scan-small":
        return [{"id": jid, "kind": "sweep",
                 "config": "".join(f"{k}={v}\n" for k, v in raw(p).items())}
                for jid, p in _SCAN]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
