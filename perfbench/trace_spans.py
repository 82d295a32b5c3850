"""Spans around ptlab's public functions and the library kernels they call.

Used only by a traced worker pass.  `Tracer.install` replaces, in every
ptlab module that binds them, the public functions of the modules in
`LAYERS` (plus the few methods in `METHODS` that own eigensolver calls)
and the kernels in `KERNELS` with wrappers that record a span: name,
start, end, parent span and job id.  Spans are kept in memory; after the
pass `summarize` turns them into the per-layer metrics described in
README.md and `write_spans` writes them out.  No file of ptlab is
changed.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
import time

LAYERS = ("cli", "kdv", "spectra", "susy", "gridops", "cms", "rootsys")

# methods that call eigensolvers directly from `cli` runners
METHODS = (
    ("spectra", "TruncatedFockOperator", "eigenvalues"),
    ("susy", "DiscretizedHamiltonian", "eigenvalues"),
    ("susy", "DiscretizedHamiltonian", "eigensystem"),
)

KERNELS = {
    "numpy.fft": ("fft", "ifft"),
    "scipy.linalg": ("eigvals", "eig", "eigh", "eig_banded", "expm", "expm_frechet"),
    "scipy.optimize": ("minimize",),
    "scipy.sparse.linalg": ("eigs", "eigsh", "splu"),
}
DENSE_EIG = ("scipy.linalg.eigvals", "scipy.linalg.eig", "scipy.linalg.eigh")
FFT = ("numpy.fft.fft", "numpy.fft.ifft")
EXPM = ("scipy.linalg.expm", "scipy.linalg.expm_frechet")

# metrics that must repeat exactly across runs at one seed
EXACT = frozenset({
    "cli.sweep.cells", "cli.sweep.cells_failed",
    "kdv.steps", "kdv.fft_calls_per_step",
    "spectra.dense_eig_calls", "spectra.dense_eig_n3", "spectra.banded_eig_calls",
    "spectra.fock_eig_calls", "spectra.metric_nfev", "spectra.metric_expm_calls",
    "susy.dense_eig_n3", "gridops.calls", "gridops.dense_mb", "cms.eom_calls",
})


def _matrix_n(args, kwargs, result):
    return args[0].shape[-1]


def _evolve_steps(args, kwargs, result):
    from ptlab import kdv
    bound = inspect.signature(kdv.evolve).bind(*args, **kwargs)
    return int(round(bound.arguments["t_final"] / bound.arguments["dt"]))


def _dense_bytes(args, kwargs, result):
    return result.nbytes if getattr(result, "ndim", 0) == 2 else 0


# per-call figure kept with a span: matrix size, RK4 steps, nfev or bytes
EXTRA = {
    **{name: _matrix_n for name in DENSE_EIG + ("scipy.linalg.eig_banded",)},
    "scipy.optimize.minimize": lambda args, kwargs, result: result.nfev,
    "kdv.evolve": _evolve_steps,
    "gridops.diff_matrix": _dense_bytes,
    "gridops.schrodinger_matrix": _dense_bytes,
}


SPAN_FIELDS = ("id", "name", "layer", "t0", "t1", "parent", "job", "extra")


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        # tuples in the order of SPAN_FIELDS
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = (None, None)       # (span id, job) of the running job
        self._main = []                 # span stack of the thread running jobs
        self._patched = []              # (owner, attribute, original)

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, name, layer):
        tracer = self
        extra = EXTRA.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, job = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append((sid, job))
            result = value = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if extra is not None and result is not None:
                    value = extra(args, kwargs, result)
                tracer.spans.append((sid, name, layer, t0, t1, parent, job, value))

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding of the traced functions and kernels."""
        wrappers = {}
        modules = {lay: importlib.import_module(f"ptlab.{lay}") for lay in LAYERS}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in modules:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{home}.{obj.__name__}", home)
                self._patch(mod, attr, wrappers[obj])
        for lay, cls, meth in METHODS:
            owner = getattr(modules[lay], cls)
            self._patch(owner, meth, self._wrap(getattr(owner, meth),
                                                f"{lay}.{cls}.{meth}", lay))
        # a pool thread's spans belong to its sweep cell
        cli = modules["cli"]
        self._patch(cli, "_sweep_cell", self._cell(cli._sweep_cell))
        for modname, names in KERNELS.items():
            mod = importlib.import_module(modname)
            for attr in names:
                self._patch(mod, attr, self._wrap(getattr(mod, attr),
                                                  f"{modname}.{attr}", "kernel"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _cell(self, fn):
        tracer = self

        def cell(args):
            # the job thread waits inside `run_sweep`, the cell's parent
            sid = tracer._main[-1][0]
            job = f"{tracer._root[1]}/{os.path.basename(args[2])}"
            tracer._stack().append((sid, job))
            try:
                return fn(args)
            finally:
                tracer._stack().pop()
        return cell

    @contextlib.contextmanager
    def job(self, job_id):
        """Top-level span around one job of the pass."""
        sid = next(self._ids)
        self._root = (sid, job_id)
        stack = self._main = self._stack()
        stack.append((sid, job_id))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._root = (None, None)
            self.spans.append((sid, "job", "bench", t0, t1, None, job_id, None))


def write_spans(spans, path, **meta):
    """Write spans as JSON: `meta`, the field names, then one list per span."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(meta, fields=SPAN_FIELDS, spans=spans), fh,
                  separators=(",", ":"), default=lambda v: v.item())


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (t0, t1) intervals."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def summarize(spans, wall_s):
    """Per-layer metrics of one traced pass (see README.md for each)."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[5], []).append((s[3], s[4]))
    self_s = {s[0]: (s[4] - s[3]) - _covered(children.get(s[0], ())) for s in spans}

    def context(s, names):
        """Nearest ancestor whose name is in `names`, else None."""
        p = by_id.get(s[5])
        while p is not None:
            if p[1] in names:
                return p[1]
            p = by_id.get(p[5])
        return None

    def owner_layer(s):
        """Layer of the nearest non-kernel ancestor."""
        p = by_id.get(s[5])
        while p is not None and p[2] == "kernel":
            p = by_id.get(p[5])
        return p[2] if p is not None else "bench"

    def total(name):
        return sum(s[4] - s[3] for s in spans if s[1] == name)

    def count(name):
        return sum(1 for s in spans if s[1] == name)

    kern = [s for s in spans if s[2] == "kernel"]
    spec_ctx = ("spectra.monomial_spectrum", "spectra.fock_report",
                "spectra.metric_search")
    grid_k = [s for s in kern if context(s, spec_ctx) == "spectra.monomial_spectrum"]
    fock_k = [s for s in kern if context(s, spec_ctx) == "spectra.fock_report"]
    metric_k = [s for s in kern if context(s, spec_ctx) == "spectra.metric_search"]
    kdv_fft = [s for s in kern if s[1] in FFT and owner_layer(s) == "kdv"]
    evolve_fft = [s for s in kdv_fft if context(s, ("kdv.evolve",))]
    susy_eig = [s for s in kern if s[1] in DENSE_EIG and owner_layer(s) == "susy"]

    steps = sum(s[7] for s in spans if s[1] == "kdv.evolve")
    evolve_s = total("kdv.evolve")
    nfev = sum(s[7] for s in metric_k if s[1] == "scipy.optimize.minimize")
    metric_s = total("spectra.metric_search")
    eom_calls = count("cms.equations_of_motion")
    lax_calls = count("cms.lax_residual")
    jobs = [s for s in spans if s[1] == "job"]

    return {
        "cli.run.self_s": sum(self_s[s[0]] for s in spans if s[2] == "cli"),
        "kdv.evolve_s": evolve_s,
        "kdv.evolve_self_s": sum(self_s[s[0]] for s in spans if s[1] == "kdv.evolve"),
        "kdv.fft_s": sum(s[4] - s[3] for s in kdv_fft),
        "kdv.steps": steps,
        "kdv.step_us": 1e6 * evolve_s / steps if steps else 0.0,
        "kdv.fft_calls_per_step": len(evolve_fft) / steps if steps else 0.0,
        "kdv.monitor_s": total("kdv.mass") + total("kdv.momentum") + total("kdv.energy"),
        "spectra.monomial_s": total("spectra.monomial_spectrum"),
        "spectra.dense_eig_calls": sum(1 for s in grid_k if s[1] in DENSE_EIG),
        "spectra.dense_eig_n3": sum(s[7] ** 3 for s in grid_k if s[1] in DENSE_EIG),
        "spectra.banded_eig_calls": sum(1 for s in grid_k
                                        if s[1] == "scipy.linalg.eig_banded"),
        "spectra.classify_s": total("spectra.classify_spectrum"),
        "spectra.fock_s": total("spectra.fock_report"),
        "spectra.fock_eig_calls": sum(1 for s in fock_k if s[1] in DENSE_EIG),
        "spectra.metric_s": metric_s,
        "spectra.metric_nfev": nfev,
        "spectra.metric_eval_ms": 1e3 * metric_s / nfev if nfev else 0.0,
        "spectra.metric_expm_calls": sum(1 for s in metric_k if s[1] in EXPM),
        "susy.eig_s": sum(s[4] - s[3] for s in susy_eig),
        "susy.dense_eig_n3": sum(s[7] ** 3 for s in susy_eig),
        "susy.intertwining_s": total("susy.verify_intertwining"),
        "susy.build_s": total("susy.build_partner_hamiltonians"),
        "gridops.calls": sum(1 for s in spans if s[2] == "gridops"),
        "gridops.dense_mb": sum(s[7] or 0 for s in spans if s[2] == "gridops") / 2**20,
        "cms.trajectory_s": total("cms.integrate_trajectory"),
        "cms.eom_calls": eom_calls,
        "cms.eom_us": 1e6 * total("cms.equations_of_motion") / eom_calls
        if eom_calls else 0.0,
        "cms.charges_s": total("cms.conserved_charges"),
        "cms.lax_s": total("cms.lax_residual"),
        "cms.lax_us": 1e6 * total("cms.lax_residual") / lax_calls if lax_calls else 0.0,
        "rootsys.build_s": total("rootsys.build_root_system")
        + total("rootsys.build_cartan_weyl"),
        "trace.top_coverage": _covered((s[3], s[4]) for s in jobs)
        / wall_s,
    }


def rhs_fring_us(n=512, eps=3.0, calls=200, repeats=7):
    """Median time of one direct `kdv.rhs_fring` call (n=512, eps=3).

    The right-hand sides are held in `kdv._RHS`, not looked up by name,
    so they are timed here by calling them directly.
    """
    import numpy as np
    from ptlab import kdv
    f = kdv.KdVField.from_callable(lambda x: 0.8 * np.cos(2 * np.pi * x / 40.0),
                                   40.0, n)
    rhs = kdv._RHS[kdv.Flow.FRING]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            rhs(f, eps)
        samples.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(samples)
