"""Config parsing, artifact writing, exit codes and sweeps."""

import csv
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from oracles import reference_csv_text
from ptlab import _blas, cli, gridops, spectra
from ptlab.errors import ConfigurationError, PTLabError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("columns", [
    [np.arange(-3, 4), [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, -1 / 3],
     np.array([0, 1, -1, 2 ** 62, -(2 ** 62), 7, 10 ** 18], dtype=np.int64)],
    [np.array([4]), np.array([0.1])],
    [np.array([], dtype=int), np.array([])],
], ids=["specials", "one-row", "no-rows"])
def test_write_csv_is_the_row_writer_byte_for_byte(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "out.csv"
    cli.write_csv(str(path), header, columns)
    assert path.read_bytes() == reference_csv_text(header, zip(*columns)).encode()


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_read_config_file(tmp_path):
    p = write(tmp_path, "a.cfg", "# comment\nmodel = swanson\n\ndim=40\n")
    values, lines = cli.read_config_file(p)
    assert values == {"model": "swanson", "dim": "40"}
    assert lines == {"model": 2, "dim": 4}


def test_read_config_rejects_bad_line(tmp_path):
    p = write(tmp_path, "a.cfg", "model swanson\n")
    with pytest.raises(ConfigurationError, match=r"a\.cfg:1"):
        cli.read_config_file(p)


def test_read_config_rejects_duplicate_key(tmp_path):
    p = write(tmp_path, "a.cfg", "dim=40\ndim=50\n")
    with pytest.raises(ConfigurationError, match=r"a\.cfg:2.*duplicate"):
        cli.read_config_file(p)


def test_resolve_applies_defaults_and_types():
    params, seed, outdir = cli.resolve_config(
        "spectra", {"model": "swanson", "dim": "24", "seed": "7"})
    assert params["dim"] == 24
    assert params["g"] == 1.0
    assert seed == 7 and outdir == "."


def test_resolve_reports_origin_of_unknown_key():
    with pytest.raises(ConfigurationError, match=r"c\.cfg:3"):
        cli.resolve_config("spectra", {"model": "swanson", "bogus": "1"},
                           origin={"bogus": "c.cfg:3"})


def test_resolve_rejects_bad_value_and_missing_required():
    with pytest.raises(ConfigurationError, match="bad value"):
        cli.resolve_config("spectra", {"model": "swanson", "dim": "many"})
    with pytest.raises(ConfigurationError, match="missing required"):
        cli.resolve_config("spectra", {})
    with pytest.raises(ConfigurationError, match="must be one of"):
        cli.resolve_config("spectra", {"model": "quartic"})


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------

def run_main(tmp_path, *argv):
    return cli.main(list(argv) + ["--output-dir", str(tmp_path)])


def test_spectra_swanson_run(tmp_path):
    code = run_main(tmp_path, "spectra", "--model", "swanson",
                    "--delta", "2", "--g", "0.3", "--gtilde", "0.2",
                    "--dim", "40", "--k", "6")
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["classification"] == "AllReal"
    assert len(doc["eigenvalues"]) == 6
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["classification"] == "AllReal"
    names = [a["path"] for a in manifest["artifacts"]]
    assert "spectrum.json" in names


def test_cubic_default_is_all_real(tmp_path):
    # solved in its real form, p^2 + i z^3 gives exactly real levels; the
    # complex solve left |Im| 2.3e-6 on level 10 and said Mixed
    assert run_main(tmp_path, "spectra", "--model", "monomial", "--N", "3") == cli.EXIT_OK
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["classification"] == "AllReal"
    assert len(doc["eigenvalues"]) == 10
    assert all(e["im"] == 0.0 for e in doc["eigenvalues"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["classification"] == "AllReal"


@pytest.mark.parametrize("argv, dtype", [
    (["spectra", "--model", "monomial", "--N", "3"], np.float64),
    (["spectra", "--model", "reggeon"], np.float64),
    (["spectra", "--model", "swanson"], np.float64),
    # the partner potentials come from sampled psi: not PT-symmetric to the bit
    (["susy", "--profile", "gaussian-complex"], np.complex128),
], ids=["monomial-N3", "reggeon", "swanson", "susy-gaussian-complex"])
def test_pt_symmetric_operators_are_solved_in_real_form(tmp_path, monkeypatch, argv, dtype):
    solve, seen = gridops.eigenpairs_near, []

    def recording(bands, *args, **kwargs):
        seen.append(bands.dtype)
        return solve(bands, *args, **kwargs)

    # every ptlab module that holds the solver, so no caller bypasses the record
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ptlab" and getattr(module, "eigenpairs_near", None) is solve:
            monkeypatch.setattr(module, "eigenpairs_near", recording)
    assert run_main(tmp_path, *argv) == cli.EXIT_OK
    assert seen and set(seen) == {np.dtype(dtype)}


def test_spectra_metric_reports_condition(tmp_path):
    code = run_main(tmp_path, "spectra", "--model", "swanson", "--delta", "2",
                    "--g", "0.3", "--gtilde", "0.2", "--dim", "24", "--metric", "true")
    assert code == cli.EXIT_OK
    metric = json.loads((tmp_path / "spectrum.json").read_text())["metric"]
    assert metric["converged"] and metric["positive"]
    assert 1.0 < metric["condition"] < 1.0 / np.finfo(float).eps
    assert metric["stop"] == "floor" and 0 < metric["nfev"] <= spectra.METRIC_MAX_NFEV


def test_spectra_metric_ignores_seed(tmp_path):
    # the search runs once from a fixed start; the seed draws only CMS states
    docs = []
    for seed in ("0", "1", "777"):
        out = tmp_path / seed
        assert cli.main(["spectra", "--model", "reggeon", "--metric", "true",
                         "--seed", seed, "--output-dir", str(out)]) == cli.EXIT_OK
        docs.append((out / "spectrum.json").read_bytes())
    assert docs[0] == docs[1] == docs[2]


def test_susy_run_writes_all_artifacts(tmp_path):
    code = run_main(tmp_path, "susy", "--n", "400", "--window=-6:6")
    assert code == cli.EXIT_OK
    for name in ("groundstate.csv", "partner_potentials.csv",
                 "spectrum_minus.json", "spectrum_plus.json", "manifest.json"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["case"]
    assert manifest["summary"]["intertwining_residual"] < 1e-2


@pytest.mark.parametrize("profile", ["gaussian", "gaussian-complex"])
def test_susy_defaults_give_converged_levels(tmp_path, profile):
    # psi = exp(-x^2/2 + i alpha x): H_- = p^2 + (x - i alpha)^2 - 1 has the
    # levels 2n and H_+ the levels 2n + 2.  At n = 800 on -8:8 the 4th-order
    # Laplacian misses them by 4.9e-6 and 2.3e-5; the 3-point one by 4.5e-3
    assert run_main(tmp_path, "susy", "--profile", profile) == cli.EXIT_OK
    for name, first, bound in (("minus", 0.0, 1e-5), ("plus", 2.0, 5e-5)):
        doc = json.loads((tmp_path / f"spectrum_{name}.json").read_text())
        levels = np.array([e["re"] + 1j * e["im"] for e in doc])
        assert levels.size == 10
        assert np.abs(levels - (first + 2.0 * np.arange(10))).max() < bound


def test_cms_check_run(tmp_path):
    code = run_main(tmp_path, "cms", "--family", "A", "--rank", "2",
                    "--check", "mu-identity", "--samples", "5")
    assert code == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["max_residual"] < 1e-10
    text = (tmp_path / "mu-identity.csv").read_text()
    assert text.splitlines()[0] == "sample,residual"
    assert len(text.splitlines()) == 6


def test_cms_trajectory_run(tmp_path):
    code = run_main(tmp_path, "cms", "--family", "A", "--rank", "1",
                    "--steps", "50", "--record-every", "10")
    assert code == cli.EXIT_OK
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0].split(",")
    assert header[:2] == ["t", "q_1_re"]
    assert "re_H" in header and "re_I4" in header


def test_cms_trajectory_without_lax_pair_has_no_charge_columns(tmp_path):
    code = run_main(tmp_path, "cms", "--family", "C", "--rank", "2", "--steps", "50")
    assert code == cli.EXIT_OK
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0].split(",")
    assert header[-2:] == ["re_H", "im_H"]


@pytest.mark.parametrize("family, rank", [("A", 2), ("D", 3), ("B", 2)])
def test_cms_long_couplings_refused_without_long_roots(tmp_path, capsys, family, rank):
    # A and D have no long roots, so g_long and gtilde_long would change
    # nothing but the manifest; B has long roots and runs
    for i, flags in enumerate((["--g-long", "5"], ["--gtilde-long", "3"],
                               ["--g-long", "5", "--gtilde-long", "3"])):
        code = run_main(tmp_path / str(i), "cms", "--family", family,
                        "--rank", str(rank), "--steps", "10", *flags)
        if family == "B":
            assert code == cli.EXIT_OK
        else:
            assert code == cli.EXIT_CONFIG
            assert "no long roots" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [23, 62])
def test_cms_trajectory_near_collision_keeps_charges(tmp_path, seed):
    # this start passes close to a collision; fixed-step RK4 lost the
    # charges here (I_k drifts of 1e2 to 5e5, relative)
    code = run_main(tmp_path, "cms", "--family", "A", "--rank", "3",
                    "--potential", "trigonometric", "--steps", "500",
                    "--seed", str(seed))
    assert code == cli.EXIT_OK
    assert json.loads((tmp_path / "manifest.json").read_text())["summary"]["completed"]
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for k in (2, 3, 4):
        ik = np.array([complex(float(r[f"re_I{k}"]), float(r[f"im_I{k}"])) for r in rows])
        assert np.abs(ik - ik[0]).max() <= 1e-6 * abs(ik[0]), k


def run_python(tmp_path, *argv, timeout=120):
    """`python argv` in tmp_path with ptlab importable; TimeoutExpired past
    `timeout` s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=timeout)


def run_python_dash_m(tmp_path, *argv, timeout=120):
    """`python -m ptlab argv` in tmp_path; TimeoutExpired past `timeout` s."""
    return run_python(tmp_path, "-m", "ptlab", *argv, timeout=timeout)


def loaded_after(tmp_path, argv, module):
    """Whether `module` is in sys.modules after `cli.main(argv)` (after
    importing the CLI alone for an empty argv) in a fresh interpreter."""
    done = run_python(tmp_path, "-c", "import sys; from ptlab import cli; "
                      "code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0; "
                      "print(code, sys.argv[1] in sys.modules)", module, *argv)
    assert done.returncode == 0, done.stderr
    code, loaded = done.stdout.splitlines()[-1].split()
    assert int(code) == cli.EXIT_OK, argv
    return loaded == "True"


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # importing scipy.integrate costs about 0.2-0.3 s; the stepping loop
    # carries its own DOP853, so not even the runs that step load it
    for argv in ([], ["kdv", "--model", "fring", "--t-end", "0.01"],
                 ["cms", "--family", "A", "--rank", "2", "--steps", "5"]):
        assert not loaded_after(tmp_path, argv, "scipy.integrate"), argv


def test_metric_run_leaves_scipy_optimize_unloaded(tmp_path):
    # importing scipy.optimize costs about 0.2 s; the metric search runs
    # its own Levenberg-Marquardt loop
    assert not loaded_after(tmp_path, ["spectra", "--model", "swanson", "--dim", "24",
                                       "--metric", "true"], "scipy.optimize")


def test_python_dash_m_runs_the_cli(tmp_path):
    done = run_python_dash_m(tmp_path, "cms", "--family", "A", "--rank", "2",
                             "--steps", "5")
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert "Warning" not in done.stderr
    assert (tmp_path / "trajectory.csv").exists()


def test_kdv_evolve_run(tmp_path):
    code = run_main(tmp_path, "kdv", "--model", "fring", "--n", "128",
                    "--t-end", "0.05", "--dt", "1e-3", "--snapshots", "3")
    assert code == cli.EXIT_OK
    charges = (tmp_path / "charges.csv").read_text().splitlines()
    assert charges[0] == "t,M,P,re_E,im_E"
    assert (tmp_path / "snapshot_000.csv").exists()


def test_kdv_writes_the_snapshot_count_asked_for(tmp_path):
    # 10 steps in 3 intervals: steps 0, 3, 6 and 10
    code = run_main(tmp_path, "kdv", "--model", "fring", "--n", "64",
                    "--t-end", "0.01", "--dt", "1e-3", "--snapshots", "4")
    assert code == cli.EXIT_OK
    snaps = sorted(tmp_path.glob("snapshot_*.csv"))
    assert [p.name for p in snaps] == [f"snapshot_{j:03d}.csv" for j in range(4)]


def test_monomial_metric_refused_before_eigensolves(tmp_path, capsys, monkeypatch):
    def no_eigensolve(*args):
        raise AssertionError("a grid eigensolve ran before the refusal")

    monkeypatch.setattr(spectra, "_grid_eigs", no_eigensolve)
    code = run_main(tmp_path, "spectra", "--model", "monomial", "--metric", "true")
    assert code == cli.EXIT_CONFIG
    assert "Fock-space models only" in capsys.readouterr().err


def test_refused_run_writes_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["cms", "--family", "A", "--rank", "2", "--g-long", "5",
                     "--output-dir", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "no long roots" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_diagnostics_share_one_schema(tmp_path):
    docs = []
    for model, flags in (("monomial", ["--n-grid", "200", "--k", "4"]),
                         ("swanson", ["--dim", "24", "--k", "4"])):
        assert run_main(tmp_path / model, "spectra", "--model", model,
                        *flags) == cli.EXIT_OK
        docs.append(json.loads((tmp_path / model / "spectrum.json").read_text()))
    assert [sorted(d["diagnostics"]) for d in docs] == [["change", "flagged",
                                                         "resolutions"]] * 2
    assert [d["diagnostics"]["resolutions"] for d in docs] == [[200, 399], [24, 44]]
    assert all("tol" not in d["params"] for d in docs)


def test_verdict_tolerance_is_not_a_config_key(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", "model=swanson\ndim=24\ntol=1e-6\n")
    assert run_main(tmp_path / "out", "spectra", "--config", cfg) == cli.EXIT_CONFIG
    assert "unknown key 'tol'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [None, "model=swanson\n# général\n".encode("latin-1")],
                         ids=["missing", "not-ascii"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, content):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    for argv in (["spectra", "--config", str(cfg), "--output-dir", str(tmp_path / "out")],
                 ["sweep", str(cfg), "--output-dir", str(tmp_path / "sw")]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"cannot read config file {cfg}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "sw").exists()


@pytest.mark.parametrize("model, eps, conserved", [
    ("bender", "2", False), ("bender", "1", True), ("fring", "3", True)])
def test_kdv_manifest_labels_charge_conservation(tmp_path, model, eps, conserved):
    code = run_main(tmp_path, "kdv", "--model", model, "--epsilon", eps,
                    "--profile", "cosine", "--amplitude", "0.3", "--n", "64",
                    "--t-end", "0.01", "--dt", "1e-3", "--snapshots", "2")
    assert code == cli.EXIT_OK
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    assert summary["conserved"] is conserved
    assert set(summary["drift"]) == {"M", "P", "E"}


def test_kdv_blow_up_keeps_partial_artifacts(tmp_path, capsys):
    code = run_main(tmp_path, "kdv", "--model", "fring", "--epsilon", "3",
                    "--n", "128", "--dt", "1e-3")
    assert code == cli.EXIT_ENGINE
    assert "BlowUpError" in capsys.readouterr().err
    charges = (tmp_path / "charges.csv").read_text().splitlines()
    assert charges[0] == "t,M,P,re_E,im_E" and len(charges) > 1
    assert (tmp_path / "snapshot_000.csv").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_kdv_travelling_nonexistence_run(tmp_path):
    code = run_main(tmp_path, "kdv", "--model", "fring", "--epsilon", "3",
                    "--mode", "travelling")
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "travelling.json").read_text())
    assert doc["found"] is False
    assert doc["reason"]


def test_config_file_with_flag_override(tmp_path):
    cfg = write(tmp_path, "run.cfg",
                "model=swanson\ndelta=2\ng=0.3\ngtilde=0.2\ndim=80\n")
    out = tmp_path / "out"
    code = cli.main(["spectra", "--config", cfg, "--dim", "24",
                     "--output-dir", str(out)])
    assert code == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["dim"] == 24


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_config_error(tmp_path, capsys):
    code = run_main(tmp_path, "spectra", "--model", "nonsense")
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exit_code_engine_error(tmp_path, capsys):
    # G2 has no closed Lax pair: refused by the rule that refuses B, C and D
    code = run_main(tmp_path, "cms", "--family", "G2", "--rank", "2",
                    "--check", "lax", "--samples", "2")
    assert code == cli.EXIT_ENGINE
    assert "CapabilityError: no closed Lax pair for family G2" in capsys.readouterr().err


def test_lax_check_refused_off_the_A_series(tmp_path, capsys):
    # B has matrices but no closed Lax pair: the check refuses, as for G2
    code = run_main(tmp_path, "cms", "--family", "B", "--rank", "3",
                    "--check", "lax", "--samples", "3")
    assert code == cli.EXIT_ENGINE
    assert "CapabilityError" in capsys.readouterr().err


_NAN_FORCE = ["cms", "--family", "A", "--rank", "2", "--g", "nan", "--steps", "10"]


@pytest.mark.parametrize("argv", [
    ["spectra", "--model", "monomial", "--N", "2", "--n-grid", "10"],
    ["spectra", "--model", "monomial", "--N", "2", "--n-grid", "100", "--k", "0"],
    ["susy", "--n", "16", "--k", "20"],
    ["cms", "--family", "A", "--rank", "2", "--dt", "-1"],
    ["cms", "--family", "A", "--rank", "2", "--record-every", "0"],
    ["cms", "--family", "A", "--rank", "2", "--check", "lax", "--samples", "0"],
    ["cms", "--family", "A", "--rank", "2", "--steps", "-5"],
    ["cms", "--family", "D", "--rank", "2"],
    ["susy", "--n", "10"],
    ["susy", "--window", "8:-8"],
    ["spectra", "--model", "reggeon", "--dim", "40", "--k", "0"],
    ["spectra", "--model", "reggeon", "--dim", "40", "--k", "50"],
    ["susy", "--window", "8"],
    # NaN where a positive number is required
    ["spectra", "--model", "monomial", "--g", "nan"],
    ["kdv", "--model", "fring", "--dt", "nan"],
    ["kdv", "--model", "fring", "--L-domain", "nan"],
    ["kdv", "--model", "fring", "--c", "nan"],
    ["susy", "--window", "nan:8"],
    # NaN or infinity where a finite number is required
    _NAN_FORCE,
    ["cms", "--family", "A", "--rank", "2", "--gtilde", "inf", "--steps", "10"],
    ["cms", "--family", "B", "--rank", "2", "--g-long", "inf", "--steps", "10"],
    ["cms", "--family", "A", "--rank", "2", "--dt", "inf", "--steps", "10"],
    ["kdv", "--model", "fring", "--t-end", "inf"],
    ["kdv", "--model", "fring", "--epsilon", "nan"],
    ["kdv", "--model", "fring", "--epsilon", "inf"],
    ["kdv", "--model", "fring", "--epsilon", "nan", "--mode", "travelling"],
    ["spectra", "--model", "monomial", "--half-width", "0"],
    ["spectra", "--model", "monomial", "--half-width", "nan"],
    ["spectra", "--model", "reggeon", "--delta", "nan"],
    ["spectra", "--model", "swanson", "--g", "nan"],
    ["susy", "--profile", "gaussian-complex", "--alpha", "nan"],
    ["susy", "--E-m", "nan"],
    # grids too small to sample, and too few snapshots
    ["spectra", "--model", "monomial", "--n-grid", "-5"],
    ["spectra", "--model", "monomial", "--n-grid", "0"],
    ["spectra", "--model", "monomial", "--n-grid", "1"],
    ["kdv", "--model", "fring", "--n", "-5"],
    ["susy", "--n", "-5"],
    ["susy", "--n", "0"],
    ["susy", "--n", "1"],
    ["kdv", "--model", "fring", "--snapshots", "0"],
    ["kdv", "--model", "fring", "--snapshots", "-2"],
    ["kdv", "--model", "fring", "--t-end", "0.01", "--dt", "1e-3", "--snapshots", "12"],
    # windows where the ground state underflows, so W and V_(-+) are not finite
    ["susy", "--window=-40:40", "--n", "2000"],
    ["susy", "--window=-38:38", "--n", "2000"],
    ["susy", "--window", "100:200"],
    # too few samples for the rows verify_intertwining keeps
    ["susy", "--n", "16"],
    ["susy", "--n", "24"],
])
def test_exit_code_bad_level_count(tmp_path, capsys, argv):
    # k must satisfy 1 <= k < n - 1 on every grid engine and 1 <= k <= dim
    # on the Fock engines; other bad values (step size, record spacing,
    # sample, grid and snapshot counts, family and rank, window, NaN,
    # infinity, a ground state that underflows) are config errors too
    if argv is _NAN_FORCE:
        # a NaN force once kept the trajectory solver stepping for good:
        # a regression must fail here, not hang the suite
        done = run_python_dash_m(tmp_path, *argv, timeout=60)
        assert done.returncode == cli.EXIT_CONFIG, done.stderr
        assert "config error" in done.stderr
        return
    assert run_main(tmp_path, *argv) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    # the grid runs go through ARPACK, whose start vector must be fixed
    runs = [["cms", "--family", "A", "--rank", "2", "--check", "mu-identity",
             "--samples", "4", "--seed", "11"],
            ["cms", "--family", "A", "--rank", "2", "--check", "lax",
             "--samples", "4"],
            # a trajectory with the I_k charge columns
            ["cms", "--family", "A", "--rank", "2", "--steps", "40",
             "--record-every", "10"],
            # a near-collision start, where the adaptive steps shrink
            ["cms", "--family", "A", "--rank", "3", "--potential", "trigonometric",
             "--steps", "500", "--seed", "23"],
            ["spectra", "--model", "monomial", "--N", "3", "--n-grid", "200"],
            ["spectra", "--model", "swanson", "--delta", "2", "--g", "0.3",
             "--gtilde", "0.2", "--dim", "24", "--metric", "true"],
            ["susy", "--profile", "gaussian-complex", "--n", "300"]]
    for i, argv in enumerate(runs):
        a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
        for out in (a, b):
            assert cli.main(argv + ["--output-dir", str(out)]) == cli.EXIT_OK
        names = sorted(os.listdir(a))
        assert "manifest.json" in names and names == sorted(os.listdir(b))
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_and_manifest(tmp_path):
    cfg = write(tmp_path, "sweep.cfg",
                "subcommand=spectra\nmodel=swanson\ndelta=2\n"
                "g=0.1,0.3\ngtilde=0.05,0.2\ndim=24\nk=4\n")
    out = tmp_path / "sw"
    code, index = cli.run_sweep(cfg, output_dir=str(out))
    assert code == cli.EXIT_OK
    assert index["failed"] == 0
    assert index["gridded_keys"] == ["g", "gtilde"]
    assert len(index["cells"]) == 4
    cell = out / "g=0.1_gtilde=0.05"
    assert (cell / "spectrum.json").exists()
    assert (out / "sweep_manifest.json").exists()


def test_sweep_partial_failure(tmp_path):
    # rank=5 exists for A but the second value collides with family G2
    cfg = write(tmp_path, "sweep.cfg",
                "subcommand=cms\nfamily=A,G2\nrank=2\ncheck=lax\nsamples=2\n")
    out = tmp_path / "sw"
    code, index = cli.run_sweep(cfg, output_dir=str(out))
    assert code == cli.EXIT_PARTIAL
    assert index["failed"] == 1
    statuses = {c["dir"]: c["status"] for c in index["cells"]}
    assert statuses["family=A"] == "ok"
    assert statuses["family=G2"] == "error"


def test_sweep_marks_lax_check_off_the_A_series(tmp_path):
    cfg = write(tmp_path, "sweep.cfg",
                "subcommand=cms\nfamily=A,D\nrank=4\ncheck=lax\nsamples=2\n")
    code, index = cli.run_sweep(cfg, output_dir=str(tmp_path / "sw"))
    assert code == cli.EXIT_PARTIAL
    cells = {c["dir"]: c for c in index["cells"]}
    assert cells["family=A"]["status"] == "ok"
    assert cells["family=D"]["error"].startswith("CapabilityError")
    assert index["failed"] == 1


def test_sweep_marks_bad_level_count(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", "subcommand=susy\nn=16,200\nk=20\n")
    code, index = cli.run_sweep(cfg, output_dir=str(tmp_path / "sw"))
    assert code == cli.EXIT_PARTIAL
    cells = {c["dir"]: c for c in index["cells"]}
    assert cells["n=200"]["status"] == "ok"
    assert cells["n=16"]["error"].startswith("ConfigurationError")


def test_sweep_marks_bad_step_size(tmp_path):
    cfg = write(tmp_path, "sweep.cfg",
                "subcommand=cms\nfamily=A\nrank=2\nsteps=20\ndt=1e-3,-1e-3\n")
    out = tmp_path / "sw"
    code, index = cli.run_sweep(cfg, output_dir=str(out))
    assert code == cli.EXIT_PARTIAL
    cells = {c["dir"]: c for c in index["cells"]}
    assert cells["dt=1e-3"]["status"] == "ok"
    assert cells["dt=-1e-3"]["error"].startswith("ConfigurationError")
    assert json.loads((out / "sweep_manifest.json").read_text())["failed"] == 1


def test_sweep_rejects_too_many_grids(tmp_path):
    cfg = write(tmp_path, "sweep.cfg",
                "subcommand=spectra\nmodel=swanson\n"
                "delta=1,2\ng=0.1,0.2\ngtilde=0.1,0.2\ndim=24,32\n")
    with pytest.raises(ConfigurationError, match="at most 3"):
        cli.run_sweep(cfg, output_dir=str(tmp_path / "sw"))


def test_sweep_validates_cells_before_running(tmp_path):
    cfg = write(tmp_path, "sweep.cfg",
                "subcommand=spectra\nmodel=swanson\ndim=24,notanumber\n")
    with pytest.raises(ConfigurationError, match="bad value"):
        cli.run_sweep(cfg, output_dir=str(tmp_path / "sw"))


@pytest.mark.parametrize("config, message", [
    # the B cell would run; the A cell has no long roots for g_long
    ("family=B,A\nrank=2\ng_long=5\nsteps=10", "no long roots"),
    ("family=A\nrank=2,3\ncheck=lax\nsamples=0", "samples must be >= 1"),
])
def test_sweep_refuses_cross_key_errors_before_any_cell(tmp_path, capsys, config,
                                                         message):
    cfg = write(tmp_path, "sweep.cfg", f"subcommand=cms\n{config}\n")
    out = tmp_path / "sw"
    assert cli.main(["sweep", cfg, "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, key, value", [
    ("model=swanson,swanson\ndim=24,40", "model", "swanson"),
    ("model=swanson\ndim=24, 24", "dim", "24"),     # equal once stripped
])
def test_sweep_refuses_cells_sharing_a_directory(tmp_path, grid, key, value):
    cfg = write(tmp_path, "sweep.cfg", f"subcommand=spectra\n{grid}\nk=4\n")
    out = tmp_path / "sw"
    with pytest.raises(ConfigurationError, match=f"{key!r} repeats value {value!r}"):
        cli.run_sweep(cfg, output_dir=str(out))
    assert not out.exists()           # refused before any cell ran


def test_sweep_strips_gridded_values(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", "subcommand=spectra\nmodel=swanson\n"
                "dim=24, 40\nk=4\n")
    out = tmp_path / "sw"
    code, index = cli.run_sweep(cfg, output_dir=str(out))
    assert code == cli.EXIT_OK
    assert [c["dir"] for c in index["cells"]] == ["dim=24", "dim=40"]
    assert sorted(os.listdir(out)) == ["dim=24", "dim=40", "sweep_manifest.json"]


def test_sweep_runs_cells_in_order_on_the_calling_thread(tmp_path, monkeypatch):
    cfg = write(tmp_path, "sweep.cfg", "subcommand=spectra\nmodel=swanson\n"
                "delta=2\ng=0.1,0.3\ngtilde=0.05,0.2\ndim=24\nk=4\n")
    caller, n_threads = threading.get_ident(), threading.active_count()
    ran = []
    sweep_cell = cli._sweep_cell

    def recording(args):
        ran.append((threading.get_ident(), threading.active_count(),
                    os.path.basename(args[2])))
        return sweep_cell(args)

    monkeypatch.setattr(cli, "_sweep_cell", recording)
    trees = {}
    for workers in (1, 2):
        ran.clear()
        out = tmp_path / f"sw{workers}"
        code, index = cli.run_sweep(cfg, output_dir=str(out), max_workers=workers)
        assert code == cli.EXIT_OK and len(index["cells"]) == 4
        assert [r[:2] for r in ran] == [(caller, n_threads)] * 4
        assert [r[2] for r in ran] == [c["dir"] for c in index["cells"]]
        trees[workers] = {os.path.relpath(os.path.join(d, f), out):
                          open(os.path.join(d, f), "rb").read()
                          for d, _, files in os.walk(out) for f in files}
    # the keyword has no effect: both runs write the same bytes
    assert trees[1] == trees[2]


def test_main_sweep_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.cfg",
                "subcommand=cms\nfamily=A,G2\nrank=2\ncheck=lax\nsamples=2\n")
    code = cli.main(["sweep", cfg, "--output-dir", str(tmp_path / "sw")])
    assert code == cli.EXIT_PARTIAL
    assert "failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

def blas_counts():
    return [get() for get, _ in _blas._copies()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS copy at 2 threads, so that a restore shows;
    the counts found are set back afterwards."""
    copies = _blas._copies()
    before = blas_counts()
    for _, set_ in copies:
        set_(2)
    assert blas_counts() == [2] * len(copies)
    yield [2] * len(copies)
    for (_, set_), n in zip(copies, before):
        set_(n)


@pytest.mark.parametrize("fails", [False, True])
def test_run_holds_blas_at_one_thread(tmp_path, monkeypatch, two_blas_threads, fails):
    seen = []

    def recording(params, seed, output_dir):
        seen.append(blas_counts())
        if fails:
            raise PTLabError("runner failed")
        return [], {}

    monkeypatch.setitem(cli.RUNNERS, "kdv", recording)
    raw = {"model": "fring", "output_dir": str(tmp_path)}
    if fails:
        with pytest.raises(PTLabError, match="runner failed"):
            cli.run("kdv", raw)
    else:
        assert cli.run("kdv", raw)[0] == cli.EXIT_OK
    assert seen == [[1] * len(two_blas_threads)]
    assert blas_counts() == two_blas_threads


def test_sweep_holds_blas_at_one_thread(tmp_path, monkeypatch, two_blas_threads):
    seen = []

    def recording(params, seed, output_dir):
        seen.append(blas_counts())
        return [], {}

    monkeypatch.setitem(cli.RUNNERS, "kdv", recording)
    cfg = write(tmp_path, "sweep.cfg", "subcommand=kdv\nmodel=fring\n"
                "epsilon=1,2,3\nc=1,2\n")
    code, index = cli.run_sweep(cfg, output_dir=str(tmp_path / "sw"))
    assert code == cli.EXIT_OK and len(index["cells"]) == 6
    assert seen == [[1] * len(two_blas_threads)] * 6
    assert blas_counts() == two_blas_threads


def test_overlapping_entries_restore_once(two_blas_threads):
    # more threads than cores entering and leaving on their own, with a
    # short switch interval: a lost update of the depth would restore the
    # counts under a thread still inside, or never restore them
    errors = []

    def enter_many():
        for _ in range(200):
            with _blas.one_thread():
                if blas_counts() != [1] * len(two_blas_threads):
                    errors.append(blas_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_many) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert blas_counts() == two_blas_threads


@pytest.mark.parametrize("pattern", ["libnot-openblas-*.so", "libgfortran-*.so*"])
def test_blas_copy_not_found_is_left_alone(tmp_path, monkeypatch, two_blas_threads,
                                           pattern):
    # no such library, or a loaded one without the OpenBLAS symbols
    copies = _blas._copies()
    monkeypatch.setattr(_blas, "_COPIES", (("numpy", pattern, "64_"),))
    monkeypatch.setattr(_blas, "_bound", {})
    with _blas.one_thread():
        assert _blas._copies() == []
        assert [get() for get, _ in copies] == two_blas_threads
    assert cli.run("kdv", {"model": "fring", "t_end": "0.001",
                           "output_dir": str(tmp_path)})[0] == cli.EXIT_OK


def test_blas_lookup_finds_both_openblas_copies():
    # a wheel that renames the library or its symbols must fail here, not
    # quietly bring back the second BLAS thread's CPU cost
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's copy)

    for package, module in (("numpy", np), ("scipy", scipy)):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas["name"] == "scipy-openblas":
            spec = next(c for c in _blas._COPIES if c[0] == package)
            fns = _blas._bind(*spec)
            assert fns is not None, package
            assert fns[0]() >= 1
