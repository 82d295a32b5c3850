"""Config parsing, artifact writing, exit codes and sweeps."""

import json
import os

import pytest

from ptlab import cli
from ptlab.errors import ConfigurationError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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


def test_susy_run_writes_all_artifacts(tmp_path):
    code = run_main(tmp_path, "susy", "--n", "400", "--window=-6:6")
    assert code == cli.EXIT_OK
    for name in ("groundstate.csv", "partner_potentials.csv",
                 "spectrum_minus.json", "spectrum_plus.json", "manifest.json"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["case"]
    assert manifest["summary"]["intertwining_residual"] < 1e-2


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


def test_kdv_evolve_run(tmp_path):
    code = run_main(tmp_path, "kdv", "--model", "fring", "--n", "128",
                    "--t-end", "0.05", "--dt", "1e-3", "--snapshots", "3")
    assert code == cli.EXIT_OK
    charges = (tmp_path / "charges.csv").read_text().splitlines()
    assert charges[0] == "t,M,P,re_E,im_E"
    assert (tmp_path / "snapshot_000.csv").exists()


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
    # G2 has no matrix representation: the Lax check must fail cleanly
    code = run_main(tmp_path, "cms", "--family", "G2", "--rank", "2",
                    "--check", "lax", "--samples", "2")
    assert code == cli.EXIT_ENGINE
    assert "CapabilityError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectra", "--model", "monomial", "--N", "2", "--n-grid", "10"],
    ["spectra", "--model", "monomial", "--N", "2", "--n-grid", "100", "--k", "0"],
    ["susy", "--n", "16", "--k", "20"],
    ["cms", "--family", "A", "--rank", "2", "--dt", "-1"],
    ["cms", "--family", "A", "--rank", "2", "--record-every", "0"],
    ["cms", "--family", "A", "--rank", "2", "--check", "lax", "--samples", "0"],
    ["cms", "--family", "A", "--rank", "2", "--steps", "-5"],
    ["spectra", "--model", "swanson", "--dim", "24", "--tol", "0"],
    ["susy", "--n", "10"],
    ["susy", "--window", "8:-8"],
])
def test_exit_code_bad_level_count(tmp_path, capsys, argv):
    # k must satisfy 1 <= k < n - 1 on every grid engine; other bad values
    # (step size, record spacing, sample and grid counts, tolerance,
    # window) are config errors too
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
            ["spectra", "--model", "monomial", "--N", "3", "--n-grid", "200"],
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
    code, index = cli.run_sweep(cfg, output_dir=str(out), max_workers=2)
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


def test_main_sweep_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.cfg",
                "subcommand=cms\nfamily=A,G2\nrank=2\ncheck=lax\nsamples=2\n")
    code = cli.main(["sweep", cfg, "--output-dir", str(tmp_path / "sw")])
    assert code == cli.EXIT_PARTIAL
    assert "failed" in capsys.readouterr().err
